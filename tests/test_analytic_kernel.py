"""Closed forms of the kernel algebra against direct quadrature and frozen anchors.

The convolution and archimedean-integral formulas of kernel_derivation are
cross-checked with an adaptive Simpson integrator on randomized (x, L)
cases, and alpha and beta against those integrals; the alpha and beta
anchors were computed once with 30-digit interval arithmetic and are frozen
here as literals.
"""

import math
import random

import numpy as np
import pytest

from genbound import analytic_kernel
from genbound.analytic_kernel import alpha, beta
from genbound.errors import WindowTooWideError

import kernel_derivation as kd
from kernel_derivation import (
    SupportLevel,
    archimedean_ch_integral,
    archimedean_sh_integral,
    conv_pm,
    conv_pp,
    f_objective,
    minimize_c,
    psi_plus,
    sh_weight_integral,
    window_denominator,
)
from quadrature import adaptive_simpson

RNG_SEED = 20240814

# alpha(1000), beta(1000) frozen from a 30-digit evaluation of the closed forms
ALPHA_1000 = 1.147455260151986
BETA_1000 = 4.396764342405534
ALPHA_LIMIT = 1.386294361119891
BETA_LIMIT = 4.830185462621757


def seeded_levels(count, lo=0.8, hi=12.0):
    rng = random.Random(RNG_SEED)
    return [rng.uniform(lo, hi) for _ in range(count)]


# ----------------------------------------------------------------------
# kernel and convolutions
# ----------------------------------------------------------------------
def test_psi_plus_pointwise():
    assert psi_plus(0.0, 4.0) == 1.0
    assert psi_plus(2.0, 4.0) == pytest.approx(math.e, rel=1e-15)
    assert psi_plus(2.0 + 1e-9, 4.0) == 0.0
    assert psi_plus(-1e-9, 4.0) == 0.0
    assert psi_plus(1.0, SupportLevel(4.0)) == psi_plus(1.0, 4.0)


def test_support_level_validation():
    with pytest.raises(ValueError):
        SupportLevel(0.0)
    with pytest.raises(ValueError):
        psi_plus(0.5, -1.0)


def test_conv_pm_shape():
    L = 6.0
    assert conv_pm(0.0, L) == pytest.approx(math.exp(3.0) - 1.0, rel=1e-15)
    assert conv_pm(3.0, L) == pytest.approx(0.0, abs=1e-13)
    assert conv_pm(3.1, L) == 0.0
    for x in (0.3, 1.7, 2.9):
        assert conv_pm(-x, L) == conv_pm(x, L)
        assert conv_pm(x, L) >= 0.0


def test_conv_pp_shape():
    L = 6.0
    assert conv_pp(-0.1, L) == 0.0
    assert conv_pp(6.1, L) == 0.0
    assert conv_pp(0.0, L) == 0.0
    assert conv_pp(6.0, L) == pytest.approx(0.0, abs=1e-13)
    # the two branches agree at the midpoint
    mid = 3.0
    assert conv_pp(mid, L) == pytest.approx(math.exp(1.5) * 3.0, rel=1e-15)


def test_conv_pm_matches_quadrature():
    rng = random.Random(RNG_SEED)
    for _ in range(20):
        L = rng.uniform(0.8, 12.0)
        x = rng.uniform(-0.6 * L, 0.6 * L)

        def integrand(t, x=x, L=L):
            return psi_plus(t, L) * psi_plus(t - abs(x), L)

        val = adaptive_simpson(
            integrand, 0.0, 0.5 * L, tol=1e-12, breakpoints=(abs(x),)
        )
        assert val == pytest.approx(conv_pm(x, L), rel=1e-9, abs=1e-9)


def test_conv_pp_matches_quadrature():
    rng = random.Random(RNG_SEED)
    for _ in range(20):
        L = rng.uniform(0.8, 12.0)
        x = rng.uniform(-0.2 * L, 1.2 * L)

        def integrand(t, x=x, L=L):
            return psi_plus(t, L) * psi_plus(x - t, L)

        val = adaptive_simpson(
            integrand, 0.0, 0.5 * L, tol=1e-12,
            breakpoints=(x, x - 0.5 * L),
        )
        assert val == pytest.approx(conv_pp(x, L), rel=1e-9, abs=1e-9)


def test_sh_weight_integral_matches_quadrature():
    for L in seeded_levels(8):
        val = adaptive_simpson(
            lambda x: psi_plus(x, L) * 2.0 * math.sinh(0.5 * x), 0.0, 0.5 * L
        )
        assert val == pytest.approx(sh_weight_integral(L), rel=1e-10, abs=1e-10)


def test_product_identity():
    # integral of conv_pm against 2 cosh(x/2) over [0, L/2] is (e^{L/2}-1) L/2
    for L in seeded_levels(8):
        val = adaptive_simpson(
            lambda x: conv_pm(x, L) * 2.0 * math.cosh(0.5 * x), 0.0, 0.5 * L
        )
        assert val == pytest.approx(math.expm1(0.5 * L) * 0.5 * L, rel=1e-10)


# ----------------------------------------------------------------------
# archimedean integrals
# ----------------------------------------------------------------------
def test_archimedean_ch_integral_matches_quadrature():
    for L in seeded_levels(8):
        val = adaptive_simpson(
            lambda x: conv_pm(x, L) / math.cosh(0.5 * x), 0.0, 0.5 * L
        )
        assert val == pytest.approx(archimedean_ch_integral(L), rel=1e-9, abs=1e-10)


def test_archimedean_sh_integral_matches_quadrature():
    # integrand has a removable singularity at 0 with limit -(A+1); beyond
    # L/2 the numerator is the constant -(A-1) and the tail integrates to
    # 2(A-1) log tanh(L/8) in closed form
    for L in seeded_levels(8):
        A = math.exp(0.5 * L)

        def integrand(x, A=A, L=L):
            if x < 1e-12:
                return -(A + 1.0)
            return (A * math.expm1(-0.5 * x) - math.expm1(0.5 * x)) / math.sinh(0.5 * x)

        body = adaptive_simpson(integrand, 0.0, 0.5 * L, tol=1e-12)
        tail = 2.0 * (A - 1.0) * math.log(math.tanh(L / 8.0))
        assert body + tail == pytest.approx(
            archimedean_sh_integral(L), rel=1e-9, abs=1e-9
        )


def test_lhs_minorant():
    # (e^{L/2} - 1 - L/2)^2 exceeds e^L - L e^{L/2} - 2 e^{L/2} by exactly
    # 1 + L + L^2/4
    for i in range(50):
        L = 0.1 + i * (30.0 - 0.1) / 49.0
        lhs = sh_weight_integral(L) ** 2
        minorant = math.exp(L) - L * math.exp(0.5 * L) - 2.0 * math.exp(0.5 * L)
        assert lhs >= minorant
        if L <= 20.0:
            assert lhs - minorant == pytest.approx(1.0 + L + L * L / 4.0, abs=1e-3)


# ----------------------------------------------------------------------
# alpha and beta
# ----------------------------------------------------------------------
def test_alpha_beta_frozen_anchors():
    assert alpha(1000.0) == pytest.approx(ALPHA_1000, abs=1e-12)
    assert beta(1000.0) == pytest.approx(BETA_1000, abs=1e-12)
    assert kd.ALPHA_LIMIT == pytest.approx(ALPHA_LIMIT, abs=1e-12)
    assert kd.BETA_LIMIT == pytest.approx(BETA_LIMIT, abs=1e-12)
    # the shift inside beta, bit for bit
    assert analytic_kernel._BETA_SHIFT == kd.EULER_GAMMA + math.log(2.0 * math.pi)


def test_alpha_beta_consistent_with_integrals():
    for L in seeded_levels(6, lo=1.0, hi=20.0):
        y = math.exp(L)
        A = math.exp(0.5 * L)
        assert alpha(y) * A == pytest.approx(archimedean_ch_integral(L), rel=1e-12)
        shifted = archimedean_sh_integral(L) + 2.0 * math.expm1(0.5 * L) * (
            kd.EULER_GAMMA + kd.LOG_8PI
        )
        assert beta(y) * A == pytest.approx(shifted, rel=1e-11, abs=1e-11)


def test_alpha_positive_and_increasing():
    assert alpha(1.0 + 1e-6) > 0.0
    prev = None
    for k in range(200):
        y = 2.0 * (5e9) ** (k / 199.0)
        val = alpha(y)
        assert val > 0.0
        if prev is not None:
            assert val > prev
        prev = val
    assert abs(alpha(1e10) - kd.ALPHA_LIMIT) < 1e-3


def test_beta_sign_change_and_increasing():
    assert beta(1.01) < 0.0
    assert beta(2.0) > 0.0
    prev = None
    for k in range(200):
        y = 2.0 * (5e9) ** (k / 199.0)
        val = beta(y)
        if prev is not None:
            assert val > prev
        prev = val
    assert abs(beta(1e10) - kd.BETA_LIMIT) < 1e-3


def test_alpha_beta_domain():
    for bad in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(ValueError):
            alpha(bad)
        with pytest.raises(ValueError):
            beta(bad)
        with pytest.raises(ValueError):
            alpha(np.array([2.0, bad]))
        with pytest.raises(ValueError):
            beta(np.array([2.0, bad]))
    # the array check reads the least element; an empty array has none
    assert alpha(np.array([])).shape == beta(np.array([])).shape == (0,)


def test_alpha_beta_arrays_match_scalars():
    # one numpy formula for a float and an array: each element is the float
    ys = np.geomspace(1.01, 1e12, 200)
    for f in (alpha, beta):
        got = f(ys)
        assert got.shape == ys.shape
        for y, v in zip(ys.tolist(), got):
            assert f(y) == v


# ----------------------------------------------------------------------
# window objective
# ----------------------------------------------------------------------
def test_f_objective_guards():
    with pytest.raises(ValueError):
        f_objective(0.9, 2)
    # denominator goes negative well before c = 3 for n = 2
    assert window_denominator(3.0, 2) < 0.0
    with pytest.raises(WindowTooWideError):
        f_objective(3.0, 2)


def test_minimize_c_properties():
    for n in (2, 3, 5, 9, 20, 100):
        c_star, f_star = minimize_c(n)
        assert 1.0 < c_star
        assert f_star < 2.0
        assert f_star * f_star < 4.0 - 0.5 / n
        # no better than the reference window 1 + 1/(4n)
        assert f_star <= f_objective(1.0 + 0.25 / n, n) + 1e-12
        # local optimality
        eps = 1e-5
        assert f_objective(c_star - eps, n) >= f_star - 1e-10
        assert f_objective(c_star + eps, n) >= f_star - 1e-10


def test_minimize_c_beats_grid():
    for n in (2, 7):
        c_star, f_star = minimize_c(n)
        for k in range(1, 400):
            c = 1.0 + k * (0.9 / n) / 400.0
            if window_denominator(c, n) > 0.0:
                assert f_star <= f_objective(c, n) + 1e-9


def test_reference_window_frozen_value():
    # f(9/8, 2)^2, frozen from a 30-digit evaluation
    val = f_objective(9.0 / 8.0, 2)
    assert val * val == pytest.approx(3.745300664836720, abs=1e-12)
