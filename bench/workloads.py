"""The benchmark's workloads: inputs drawn from the seed, the op, and the
benchmark's own check of every result.

Each workload has ``next_input()`` (outside the timed region), ``run(input)``
(the timed op) and ``check(input, output)``, which returns None or a message.
The checks recompute the expected values here; they do not call the
program's ``gamma_formula``.
"""

import contextlib
import io
import random

C1_TOL = 1e-9  # |c1 - gamma_pm(N)|
RESIDUAL_TOL = 1e-8  # proportionality residual of F against omega
ORACLE_TOL = 1e-8  # |c1 -+ k| for the classical oracle


def gamma(N, sign):
    """Closed form gamma_pm(N) = (1 - 1/N^2)^(3/2) (N +- (N^2 - 2)) / (N^2 - 3)."""
    return (1.0 - 1.0 / N**2) ** 1.5 * (N + sign * (N**2 - 2)) / (N**2 - 3)


def check_charge(N, sign, c1, residual):
    error = abs(c1 - gamma(N, sign))
    if not error <= C1_TOL:
        return "N=%d sign=%+d: |c1 - gamma| = %.3g > %g" % (N, sign, error, C1_TOL)
    if not residual <= RESIDUAL_TOL:
        return "N=%d sign=%+d: residual %.3g > %g" % (N, sign, residual, RESIDUAL_TOL)
    return None


class FuzzyLarge:
    """``chern.report_for(N, sign)`` at N near 256, each N for both signs.

    N = 256 comes first (it is the cold op), then N = 256 + d and 256 - d for
    d in 1..16 in the seed's order, so any prefix of pairs has a median N of
    256 and the median op cost does not depend on the seed. The cost of one
    op varies by (272/240)^3 < 1.5 over the window. A fresh shuffle follows
    only after all 33 values of N are used.
    """

    CENTER = 256
    HALF_WIDTH = 16

    def __init__(self, fc, seed):
        self.fc = fc
        self.inputs = self._inputs(random.Random(seed))

    def _inputs(self, rng):
        yield self.CENTER, 1
        yield self.CENTER, -1
        while True:
            offsets = list(range(1, self.HALF_WIDTH + 1))
            rng.shuffle(offsets)
            for d in offsets:
                for N in (self.CENTER + d, self.CENTER - d):
                    yield N, 1
                    yield N, -1

    def next_input(self):
        return next(self.inputs)

    def run(self, inp):
        return self.fc.chern.report_for(*inp)

    def check(self, inp, report):
        N, sign = inp
        return check_charge(N, sign, report.c1_computed, report.proportionality_residual)


class OracleK4:
    """``sphere_oracle.chern_number_commutative(4, transpose, grid)`` on 64x128.

    The seed draws ``transpose`` for each op; the grid is built during set-up.
    """

    K = 4
    GRID = (64, 128)

    def __init__(self, fc, seed):
        self.fc = fc
        self.rng = random.Random(seed)
        self.grid = fc.sphere_oracle.build_quadrature(*self.GRID)

    def next_input(self):
        return self.rng.random() < 0.5

    def run(self, transpose):
        return self.fc.sphere_oracle.chern_number_commutative(self.K, transpose, self.grid)

    def check(self, transpose, c1):
        expected = -self.K if transpose else self.K
        if not abs(c1 - expected) <= ORACLE_TOL:
            return "k=%d transpose=%s: c1 = %.12g, expected %d" % (self.K, transpose, c1, expected)
        return None


class CliVerify:
    """``cli.main(["verify", "--max-N", "32"])`` in process, stdout captured."""

    ARGV = ["verify", "--max-N", "32"]

    def __init__(self, fc, seed):
        self.fc = fc

    def next_input(self):
        return self.ARGV

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.fc.cli.main(argv)
        return code, out.getvalue()

    def check(self, argv, result):
        code, text = result
        if code != 0:
            return "verify exited with %r" % (code,)
        if "all suites passed" not in text:
            return "verify did not report 'all suites passed'"
        return None


WORKLOADS = {
    "fuzzy_large": FuzzyLarge,
    "oracle_k4": OracleK4,
    "cli_verify": CliVerify,
}
