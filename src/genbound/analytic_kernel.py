"""Closed-form test-function algebra for the generation criteria.

Everything here is a function of the support level L of the window kernel
k(x) = e^{x/2} on [0, L/2] (zero elsewhere): its convolutions with its
mirror, the two archimedean integrals against 1/cosh and 1/sinh, the
normalized archimedean coefficients alpha and beta, and the objective
f(c, n) whose minimum over the window factor c drives the headline
constant. All formulas are evaluated in rearrangements that stay accurate
when e^{L/2} is large; the raw textbook forms lose every digit to
cancellation once L is above roughly 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowTooWideError

__all__ = [
    "SupportLevel",
    "KernelConstants",
    "CONSTANTS",
    "psi_plus",
    "conv_pm",
    "conv_pp",
    "sh_weight_integral",
    "archimedean_ch_integral",
    "archimedean_sh_integral",
    "alpha",
    "beta",
    "f_objective",
    "window_denominator",
    "minimize_c",
]


@dataclass(frozen=True)
class SupportLevel:
    """Support parameter L > 0; the kernel lives on [0, L/2]."""

    L: float

    def __post_init__(self):
        if not self.L > 0.0:
            raise ValueError("support level must be positive")

    @property
    def half_exp(self) -> float:
        """e^{L/2}, the norm ceiling of the short ideal sum."""
        return math.exp(0.5 * self.L)


def _level(L) -> float:
    # accept a SupportLevel or a bare positive float
    val = L.L if isinstance(L, SupportLevel) else float(L)
    if not val > 0.0:
        raise ValueError("support level must be positive")
    return val


@dataclass(frozen=True)
class KernelConstants:
    euler_gamma: float
    log_2pi: float
    log_8pi: float
    alpha_limit: float
    beta_limit: float


CONSTANTS = KernelConstants(
    euler_gamma=0.5772156649015329,
    log_2pi=math.log(2.0 * math.pi),
    log_8pi=math.log(8.0 * math.pi),
    alpha_limit=2.0 * math.log(2.0),
    beta_limit=2.0 * (0.5772156649015329 + math.log(2.0 * math.pi)),
)


def psi_plus(x: float, L) -> float:
    """Window kernel e^{x/2} on [0, L/2], zero outside."""
    Lv = _level(L)
    if x < 0.0 or x > 0.5 * Lv:
        return 0.0
    return math.exp(0.5 * x)


def conv_pm(x: float, L) -> float:
    """Convolution of the kernel with its mirror image.

    Even, nonnegative, supported on [-L/2, L/2]; equals
    e^{(L-|x|)/2} - e^{|x|/2} inside the support.
    """
    Lv = _level(L)
    ax = abs(x)
    if ax > 0.5 * Lv:
        return 0.0
    return math.exp(0.5 * (Lv - ax)) - math.exp(0.5 * ax)


def conv_pp(x: float, L) -> float:
    """Self-convolution of the kernel, supported on [0, L].

    Only the branch on [L/2, L] feeds the criteria (prime norms above the
    generation level), but the full piecewise form is exposed for the
    quadrature cross-checks.
    """
    Lv = _level(L)
    if x < 0.0 or x > Lv:
        return 0.0
    if x <= 0.5 * Lv:
        return math.exp(0.5 * x) * x
    return math.exp(0.5 * x) * (Lv - x)


def sh_weight_integral(L) -> float:
    """2 * integral of the kernel against sinh(x/2): e^{L/2} - 1 - L/2.

    The square of this quantity is the left-hand side of the exact test.
    """
    Lv = _level(L)
    return math.expm1(0.5 * Lv) - 0.5 * Lv


def archimedean_ch_integral(L) -> float:
    """Integral of conv_pm(x)/cosh(x/2) over x > 0.

    Closed form e^{L/2} L - 2(e^{L/2}+1) log(e^{L/2}+1) + 2(e^{L/2}+1) log 2,
    evaluated as -L + 2(A+1)(log 2 - log1p(1/A)) with A = e^{L/2} so that no
    cancellation occurs for large A.
    """
    Lv = _level(L)
    A = math.exp(0.5 * Lv)
    return -Lv + 2.0 * (A + 1.0) * (math.log(2.0) - math.log1p(1.0 / A))


def archimedean_sh_integral(L) -> float:
    """Integral of (conv_pm(x) - conv_pm(0))/sinh(x/2) over x > 0.

    Closed form -e^{L/2} L + 2(e^{L/2}-1) log(e^{L/2}-1) - 4(e^{L/2}-1) log 2,
    evaluated as -L + 2(A-1)(log1p(-1/A) - 2 log 2).
    """
    Lv = _level(L)
    A = math.exp(0.5 * Lv)
    Am1 = math.expm1(0.5 * Lv)
    return -Lv + 2.0 * Am1 * (math.log1p(-1.0 / A) - 2.0 * math.log(2.0))


_LOG2 = math.log(2.0)
_BETA_SHIFT = CONSTANTS.euler_gamma + CONSTANTS.log_2pi


def _checked_array(y: np.ndarray, name: str):
    """numpy, once every element of y is checked to exceed 1."""
    if not np.all(y > 1.0):
        raise ValueError(f"{name} needs y > 1")
    return np


# alpha and beta serve scalar callers in the hot loops of the generic
# solvers and whole grids in the exact solver; one formula runs on the math
# module or on numpy, and the scalar path pays only one isinstance test
def alpha(y):
    """Normalized 1/cosh coefficient: archimedean_ch_integral at e^L = y, per e^{L/2}.

    Increasing and positive on y > 1, with horizontal asymptote 2 log 2.
    Stable up to y = 1e12 and beyond. A numpy array y is mapped elementwise.
    """
    if isinstance(y, np.ndarray):
        xp = _checked_array(y, "alpha")
    elif y > 1.0:
        xp = math
    else:
        raise ValueError("alpha needs y > 1")
    s = xp.sqrt(y)
    return (-xp.log(y) + 2.0 * (s + 1.0) * (_LOG2 - xp.log1p(1.0 / s))) / s


def beta(y):
    """Normalized 1/sinh coefficient with the gamma + log 2pi shift, per e^{L/2}.

    Increasing, with horizontal asymptote 2(gamma + log 2pi). The log(sqrt(y)-1)
    in the raw form degenerates at y = 1, hence the domain restriction. A numpy
    array y is mapped elementwise.
    """
    if isinstance(y, np.ndarray):
        xp = _checked_array(y, "beta")
    elif y > 1.0:
        xp = math
    else:
        raise ValueError("beta needs y > 1")
    s = xp.sqrt(y)
    return (-xp.log(y) + 2.0 * (s - 1.0) * (xp.log1p(-1.0 / s) + _BETA_SHIFT)) / s


def window_denominator(c: float, n: int) -> float:
    """c - 2n(c - 1 - log c), the linear-in-sqrt(T) coefficient of the generic test."""
    h = c - 1.0
    return c - 2.0 * n * (h - math.log1p(h))


def f_objective(c: float, n: int) -> float:
    """Objective 2 sqrt(c) / (c - 2n(c-1-log c)) governing the log-Delta coefficient."""
    if c < 1.0:
        raise ValueError("window factor must satisfy c >= 1")
    den = window_denominator(c, n)
    if den <= 0.0:
        raise WindowTooWideError(f"denominator nonpositive at c={c}, n={n}")
    return 2.0 * math.sqrt(c) / den


def _den_root(n: int) -> float:
    # least c > 1 with nonpositive denominator; den(1) = 1 and den -> -inf,
    # so doubling the upper end always brackets the root (it sits near 2
    # for small n and approaches 1 as n grows)
    lo = 1.0
    hi = 2.0
    while window_denominator(hi, n) > 0.0:
        lo = hi
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if window_denominator(mid, n) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return lo


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_c(n: int, tol: float = 1e-9) -> tuple[float, float]:
    """Minimize f_objective(. , n) over the admissible window range.

    Golden-section search on [1, cMax) where cMax is the zero of the
    denominator; f is empirically unimodal there (verified against grid
    scans in the tests). Returns (cStar, f(cStar, n)) with cStar located
    to absolute tolerance tol.
    """
    if n < 2:
        raise ValueError("need degree n >= 2")
    a = 1.0 + 1e-9
    b = _den_root(n) - 1e-12
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = f_objective(x1, n)
    f2 = f_objective(x2, n)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f_objective(x1, n)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f_objective(x2, n)
    c_star = 0.5 * (a + b)
    return c_star, f_objective(c_star, n)
