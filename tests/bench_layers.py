"""Micro-benchmarks of single layers: the number field's norm indexes,
the exact and generic criteria and the quadratic class group, one stage
each.

Not collected by the tier-1 run (the file name does not match test_*.py);
run it by path with pytest-benchmark installed:

    python -m pytest tests/bench_layers.py
    python -m pytest tests/bench_layers.py --benchmark-disable  # smoke test, one call each

Stages: the construction of the census-size quadratic field of
d = -100 003 alone; a fresh NumberField and its norm indexes at targets 64
and 2048, for that field and for the cubic fixture x^3 - x - 1 of
|disc| 23; one
eval_exact and minimal_T_exact on that quadratic field, its indexes
already built, and minimal_T_exact on a fresh copy of it (its ideal
stream built in the solve, the exact grid's block table already filled);
one build of block 3 of that table, T in [100, 212); factorize(-100 003),
as the field's discriminant certificate and the fundamental-discriminant
test run it; one generic array evaluation over the 65 candidate scales,
the first round of the generic solver's search (a column of 17 T that cut
[least floor, cap] into 16 parts, ends included, against the 65 scales,
each point passing where some scale's margin > 0, and the scales that pass
at the first passing point kept), minimal_T_generic for one shape per
degree 2..10, one scalar eval_generic, and loglog_disc_threshold(2), whose
answer tops a fail band, and (9), whose answer lies at the floor-mode
guard T >= 1000, each one grid call plus bracket rounds; class_group built
afresh at d = -999 983, at d = -17 927 (h = 140, 2 and 3 split) and at
d = 999 993 (h = 1, narrow class number 2, so each cycle is joined with
its negated partner), one composition of two representatives of
d = -17 927, and generated_by_primes_up_to on its cached group.
"""

import math

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from genbound.arith import factorize  # noqa: E402
from genbound.criteria_engine import (  # noqa: E402
    FieldShape,
    TestConfig,
    _bracket_round,
    _candidate_scales,
    _exact_block,
    _generic_terms,
    _margin,
    _scales,
    eval_exact,
    eval_generic,
    loglog_disc_threshold,
    minimal_T_exact,
    minimal_T_generic,
)
from genbound.number_field import NumberField  # noqa: E402
from genbound.quadratic_classgroup import class_group, generated_by_primes_up_to  # noqa: E402

# a log disc past every degree's threshold, where every signature is bounded
LOG_DISC = 2.0e5

# x^2 - x + 25001, of discriminant -100 003, in the census range; and the
# cubic fixture of discriminant -23
QUADRATIC = (25_001, -1, 1)
CUBIC = (-1, -1, 0, 1)


def test_construct_quadratic(benchmark):
    assert benchmark(NumberField, QUADRATIC).field_disc == -100_003


@pytest.mark.parametrize("coeffs", [QUADRATIC, CUBIC], ids=["quadratic", "cubic"])
@pytest.mark.parametrize("target", [64, 2048])
def test_norm_indexes(benchmark, coeffs, target):
    def build():
        return NumberField(coeffs).norm_indexes(target)

    primes, powers = benchmark(build)
    assert powers.norms.size >= primes.norms.size > 0 and powers.norms[-1] <= target


def test_eval_exact(benchmark):
    field = NumberField(QUADRATIC)
    report = minimal_T_exact(field)
    cfg = TestConfig(report.T_bound, report.c_used)
    assert benchmark(eval_exact, field, cfg) == report.evaluation


def test_minimal_T_exact(benchmark):
    field = NumberField(QUADRATIC)
    minimal_T_exact(field)
    assert benchmark(minimal_T_exact, field).evaluation.passed


def test_minimal_T_exact_fresh_field(benchmark):
    minimal_T_exact(NumberField(QUADRATIC))

    def fresh_field():
        return (NumberField(QUADRATIC),), {}

    report = benchmark.pedantic(minimal_T_exact, setup=fresh_field, rounds=200)
    assert report.evaluation.passed


def test_exact_block(benchmark):
    # __wrapped__ bypasses the cache, so each round builds the block
    block = benchmark(_exact_block.__wrapped__, 3)
    assert (block.lo, block.hi) == (100, 212)


def test_factorize(benchmark):
    assert benchmark(factorize, -100_003) == ({100_003: 1}, 1)


def test_generic_array_evaluation(benchmark):
    shape = FieldShape(6, 0, 1000.0)
    s = _scales(6, np.array(_candidate_scales(6)), False)
    T = np.full(s.c.size, 2000.0)
    margin = benchmark(lambda: _margin(*_generic_terms(6, 0, shape.log_disc, T, s, False)))
    assert margin.shape == (65,)


def test_generic_search_round(benchmark):
    shape = FieldShape(6, 0, 1000.0)
    t_cap = 4.0 * shape.log_disc ** 2
    s = _scales(6, np.array(_candidate_scales(6)), False)

    def passes(T):
        return (T >= s.floor - 1e-12) & (_margin(*_generic_terms(6, 0, shape.log_disc, T, s, False)) > 0.0)

    def first_round():
        _, _, flags = _bracket_round(float(s.floor.min()), t_cap, passes)
        return s.take(flags)

    # the scales that pass at the upper end of the first round's bracket
    assert benchmark(first_round).c.size == 49


@pytest.mark.parametrize("degree", range(2, 11))
def test_minimal_T_generic(benchmark, degree):
    shape = FieldShape(degree, degree % 2, LOG_DISC)
    report = benchmark(minimal_T_generic, shape)
    assert report.evaluation.passed


def test_eval_generic(benchmark):
    shape, cfg = FieldShape(6, 0, 1000.0), TestConfig(2.0e5, 1.05)
    assert benchmark(eval_generic, shape, cfg).criterion_id == "generic"


# degree 2's answer tops a fail band, and degree 9's is the log log of the
# floor-mode guard T >= 1000; each is one grid call plus bracket rounds
@pytest.mark.parametrize("degree, want", [(2, 9.93559), (9, 2.76772)])
def test_loglog_disc_threshold(benchmark, degree, want):
    assert benchmark(loglog_disc_threshold, degree) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("disc", [-999_983, -17_927, 999_993])
def test_class_group(benchmark, disc):
    # __wrapped__ bypasses the cache, so each round builds the group
    group = benchmark(class_group.__wrapped__, disc)
    assert math.prod(group.elementary_divisors) == group.h


def test_compose(benchmark):
    group = class_group(-17_927)
    f, g = group.representatives[-2:]
    assert benchmark(group.compose, f, g) in group.representatives


def test_generated_by_primes_up_to(benchmark):
    disc = -17_927
    class_group(disc)
    assert benchmark(generated_by_primes_up_to, disc, 4.0 * math.log(-disc) ** 2) == (True, 140)
