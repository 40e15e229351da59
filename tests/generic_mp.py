"""The generic criterion's margin at 50 digits, used as a test oracle.

The margin is that of the criterion's own statement at the given floats
T, c and log disc, with every operation carried at 50 digits: alpha and
beta in their unrearranged closed forms at A = sqrt(cT), the constants
4.72, 4.39, gamma and 2 pi exact. A float bound of genbound is a true pass
when this margin is positive. It shares no code with criteria_engine,
which evaluates the same inequality in floats and alpha and beta in
rearrangements.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50


def _alpha_beta(y):
    """alpha and beta at e^L = y, from their closed forms in A = e^{L/2}."""
    L, A = mp.log(y), mp.sqrt(y)
    alpha = (A * L - 2 * (A + 1) * mp.log(A + 1) + 2 * (A + 1) * mp.log(2)) / A
    beta = (-A * L + 2 * (A - 1) * (mp.log(A - 1) + mp.euler + mp.log(2 * mp.pi))) / A
    return alpha, beta


def generic_margin(degree: int, r1: int, log_disc: float, T: float, c: float, floor_mode: bool):
    """c sqrt(T) less the right side of the generic criterion, as an mpf at 50 digits."""
    with mp.workdps(DIGITS):
        T, c, x = mp.mpf(T), mp.mpf(c), mp.mpf(log_disc)
        L, sc, st = mp.log(c * T), mp.sqrt(c), mp.sqrt(T)
        if floor_mode:
            alpha, beta = mp.mpf(1), mp.mpf("4.39")
        else:
            alpha, beta = _alpha_beta(c * T)
        short = 29 / st - mp.mpf("4.72") * sc if degree == 2 else 0
        rhs = (2 * sc * x + 2 * sc - 1 + short - sc * alpha * r1 - sc * beta * degree + sc * L
               + 2 * degree * (c - 1 - mp.log(c)) * st + degree * (c - 1) * L**2 / (2 * mp.pi))
        return c * st - rhs
