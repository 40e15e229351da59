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


def _checked_array(y: np.ndarray, name: str):
    """numpy, once every element of y is checked to exceed 1.

    The least element decides, nan included (nan > 1 is false): y.min()
    makes no boolean temporary, which halves the check on a small array.
    An empty y passes.
    """
    if y.size and not y.min() > 1.0:
        raise ValueError(f"{name} needs y > 1")
    return np


# alpha and beta serve scalar callers in the hot loops of the generic
# solvers and whole grids in the exact solver; one formula runs on the math
# module or on numpy, and the scalar path pays only one isinstance test
def alpha(y):
    """Normalized 1/cosh coefficient: the 1/cosh integral at e^L = y, per e^{L/2}.

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

