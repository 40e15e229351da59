"""Reported generic bounds and thresholds, their margins at 50 digits.

A float margin > 0 decides every point of the generic solvers, and a
reported bound must clear the rounding error of its own evaluation. The
margin that generic_mp takes at 50 digits, at the reported floats T, c and
log disc, must then be positive: for the thresholds of every degree 2..12
at both gaps, and for the generic bounds of a fixed seeded set of shapes
drawn as the paper-claims benchmark draws them.
"""

import math
import random

import numpy as np
import pytest

from genbound.criteria_engine import FieldShape, loglog_disc_threshold, minimal_T_generic
from genbound.errors import NoBoundCertifiedError

from generic_mp import generic_margin

# at this shape a search on floats, with no rounding bound, reported
# T = 10491330739.301294 at c = 1.0425936900338397: float margin +3.4e-12,
# margin -5.2e-12 at 50 digits
ROUNDING_SHAPE = FieldShape(6, 2, 51755.13227561343)

# log log disc cells of the paper-claims benchmark: log disc in [5, 100),
# the middle, and [12, 12.5), beyond every degree's threshold
CELLS = ((math.log(5.0), math.log(100.0)), (math.log(100.0), 12.0), (12.0, 12.5))
SHAPE_ROUNDS = 8
SHAPE_SEED = 2212


def paper_claims_shapes():
    """Per round, one log disc from each cell for every signature of degree 2..10."""
    rng = random.Random(SHAPE_SEED)
    for _ in range(SHAPE_ROUNDS):
        for n in range(2, 11):
            for r1 in range(n % 2, n + 1, 2):
                for lo, hi in CELLS:
                    yield FieldShape(n, r1, math.exp(rng.uniform(lo, hi)))


def assert_bound_passes_at_50_digits(shape, floor_mode):
    try:
        report = minimal_T_generic(shape, floor_mode)
    except NoBoundCertifiedError:
        return
    m = generic_margin(shape.degree, shape.r1, shape.log_disc, report.T_bound, report.c_used,
                       floor_mode)
    assert m > 0, (shape, floor_mode, report.T_bound, report.c_used, report.margin)


def test_bound_within_rounding_of_its_float_margin():
    assert_bound_passes_at_50_digits(ROUNDING_SHAPE, False)


@pytest.mark.parametrize("floor_mode", [False, True])
def test_generic_bounds_pass_at_50_digits(floor_mode):
    for shape in paper_claims_shapes():
        assert_bound_passes_at_50_digits(shape, floor_mode)


@pytest.mark.parametrize("degree", range(2, 13))
def test_thresholds_pass_at_50_digits(degree):
    # floor mode at c = 1 + 1/(4 degree) and r1 = degree mod 2, at the
    # floats loglog_disc_threshold re-checks
    c = 1.0 + 1.0 / (4.0 * degree)
    for gap in (1.0 / (2.0 * degree), 1.0 / (3.0 * degree)):
        x = float(np.exp(loglog_disc_threshold(degree, gap)))
        m = generic_margin(degree, degree % 2, x, (4.0 - gap) * x * x, c, True)
        assert m > 0, (degree, gap)
