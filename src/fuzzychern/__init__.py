"""Chern characters and topological charges of line bundles over the fuzzy
sphere, with a classical-sphere quadrature oracle."""

from .bundles import (
    PointOnSphere,
    bott_projector,
    build_fuzzy_projector,
    curvature,
    solve_projector_params,
    tensor_power_projector,
)
from .calculus import GradedForm, d0, d1, derive, module_trace, wedge
from .chern import (
    ChernReport,
    chern_number,
    extract_coefficient,
    gamma_formula,
    report_for,
    reports_for,
    sweep,
    volume_form,
)
from .sphere_oracle import (
    QuadratureGrid,
    build_quadrature,
    chern_number_commutative,
    curvature_density,
    volume_check,
)
from .su2 import FuzzyCoordinates, SpinLabel, build_irrep, fuzzy_coordinates

__version__ = "0.1.0"
