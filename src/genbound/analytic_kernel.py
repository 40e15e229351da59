"""The archimedean coefficients alpha and beta of the generation criteria.

alpha(y) and beta(y) are the integrals of the convolution of the window
kernel with its mirror against 1/cosh and 1/sinh, at support level
L = log y and normalized by e^{L/2}; beta carries the gamma + log 2pi
shift. Both are evaluated in rearrangements that stay accurate when
sqrt(y) is large; the raw textbook forms lose every digit to cancellation
once log y is above roughly 60. The derivation of alpha and beta from the
kernel is kept with the tests that check it, in tests/kernel_derivation.py.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "alpha",
    "beta",
]


_LOG2 = math.log(2.0)
_BETA_SHIFT = 0.5772156649015329 + math.log(2.0 * math.pi)  # gamma + log 2pi


def _check_domain(y, name: str) -> None:
    """Raise unless y > 1: the float y, or every element of the array y.

    An array's least element decides, nan included (nan > 1 is false):
    y.min() makes no boolean temporary, which halves the check on a small
    array. An empty array passes.
    """
    if isinstance(y, np.ndarray):
        if y.size and not y.min() > 1.0:
            raise ValueError(f"{name} needs y > 1")
    elif not y > 1.0:
        raise ValueError(f"{name} needs y > 1")


# alpha and beta serve single points (eval_generic, eval_exact) and whole
# arrays (the solvers); one numpy formula runs on both, called directly on
# a float rather than on np.asarray of it, which would triple the cost of a
# scalar call. numpy computes each element the same way whatever the
# array's shape, so a float's value is bit for bit that of its array
# element
def alpha(y):
    """Normalized 1/cosh coefficient: the 1/cosh integral at e^L = y, per e^{L/2}.

    Increasing and positive on y > 1, with horizontal asymptote 2 log 2.
    Stable up to y = 1e12 and beyond. A numpy array y is mapped elementwise.
    """
    _check_domain(y, "alpha")
    s = np.sqrt(y)
    return (-np.log(y) + 2.0 * (s + 1.0) * (_LOG2 - np.log1p(1.0 / s))) / s


def beta(y):
    """Normalized 1/sinh coefficient with the gamma + log 2pi shift, per e^{L/2}.

    Increasing, with horizontal asymptote 2(gamma + log 2pi). The log(sqrt(y)-1)
    in the raw form degenerates at y = 1, hence the domain restriction. A numpy
    array y is mapped elementwise.
    """
    _check_domain(y, "beta")
    s = np.sqrt(y)
    return (-np.log(y) + 2.0 * (s - 1.0) * (np.log1p(-1.0 / s) + _BETA_SHIFT)) / s
