"""Chern characters and topological charges of line bundles over the fuzzy
sphere, with a classical-sphere quadrature oracle. The package re-exports
nothing: import its modules, as in ``from fuzzychern import chern``."""

__version__ = "0.1.0"
