"""Correctness checks, run after the timed phase, against computations made here.

None of them compares with stored program output: field discriminants and
splitting come from the benchmark's own arithmetic, class numbers from a
reduced-form count, margins from the closed forms re-evaluated in mpmath
at 50 digits. Each check returns a list of failure messages.
"""

from __future__ import annotations

import math

import mpmath as mp

from workloads import class_number, factor, splitting

EULER_PRIMES = (2, 3, 5, 7, 11, 13)
SPLIT_SHAPES = {"ramified": [(2, 1)], "split": [(1, 1), (1, 1)], "inert": [(1, 2)]}


def check_field(res) -> list:
    d = res.arg
    field, report, group, generates, order = res.out
    bad = []
    if field.field_disc != d:
        bad.append(f"d={d}: field discriminant {field.field_disc}")
    for p in EULER_PRIMES:
        want = SPLIT_SHAPES[splitting(d, p)]
        if sorted(field.split_prime(p)) != want:
            bad.append(f"d={d}: split_prime({p}) = {field.split_prime(p)}, Euler gives {want}")
    if not report.evaluation.passed or report.T_bound > 4.0 * math.log(abs(d)) ** 2:
        bad.append(f"d={d}: evaluation at T={report.T_bound} not a pass below 4 log^2|d|")
    if not generates or order != group.h:
        bad.append(f"d={d}: primes up to T={report.T_bound} generate {order} of {group.h} classes")
    return bad


def check_class_group(res) -> list:
    d = res.arg
    group = res.out[2]
    bad = []
    h = class_number(d)
    if group.h != h:
        bad.append(f"d={d}: h={group.h}, reduced forms count {h}")
    divs = group.elementary_divisors
    if math.prod(divs) != group.h or any(b % a for a, b in zip(divs, divs[1:])):
        bad.append(f"d={d}: elementary divisors {divs} not a divisor chain of h={group.h}")
    two_rank = sum(1 for e in divs if e % 2 == 0)
    if two_rank != len(factor(d)) - 1:
        bad.append(f"d={d}: 2-rank {two_rank}, genus theory gives {len(factor(d)) - 1}")
    return bad


# ----------------------------------------------------------------------
# paper-claims
# ----------------------------------------------------------------------
def _alpha_beta(ct):
    """alpha and beta at e^L = ct from the unrearranged closed forms, A = e^{L/2}."""
    L = mp.log(ct)
    A = mp.sqrt(ct)
    alpha = (A * L - 2 * (A + 1) * mp.log(A + 1) + 2 * (A + 1) * mp.log(2)) / A
    beta = (-A * L + 2 * (A - 1) * (mp.log(A - 1) + mp.euler + mp.log(2 * mp.pi))) / A
    return alpha, beta


def generic_margin(n, r1, log_disc, T, c, floor_mode=False):
    """LHS minus RHS of the generic criterion, at 50 digits."""
    with mp.workdps(50):
        T, c, ld = mp.mpf(T), mp.mpf(c), mp.mpf(log_disc)
        ct = c * T
        L = mp.log(ct)
        sc, st = mp.sqrt(c), mp.sqrt(T)
        if floor_mode:
            alpha, beta = mp.mpf(1), mp.mpf("4.39")
        else:
            alpha, beta = _alpha_beta(ct)
        d2 = 1 if n == 2 else 0
        rhs = (
            2 * sc * ld
            + 2 * sc
            - 1
            + d2 * (29 / st - mp.mpf("4.72") * sc)
            - sc * alpha * r1
            - sc * beta * n
            + sc * L
            + 2 * n * (c - 1 - mp.log(c)) * st
            + n * (c - 1) * L**2 / (2 * mp.pi)
        )
        return c * st - rhs


def check_signature(res, thresholds) -> list:
    """Each generic bound passes at 50 digits, and beats 4 - 1/(2n) beyond the threshold."""
    n, r1, log_discs = res.arg
    bad = []
    for log_disc, report, ratio in zip(log_discs, res.out, res.ratios):
        shape = (n, r1, log_disc)
        m = generic_margin(n, r1, log_disc, report.T_bound, report.c_used)
        if not m > 0:
            bad.append(f"generic {shape}: margin {mp.nstr(m, 5)} at T={report.T_bound}, c={report.c_used}")
        if math.log(log_disc) >= thresholds[n] and ratio > 4.0 - 1.0 / (2 * n):
            bad.append(f"generic {shape}: T/log^2 = {ratio} above 4 - 1/(2n) beyond the threshold")
    return bad


def check_degree(res) -> list:
    """Threshold, rounding of the specialized constants, and the specialized test probes."""
    n, svals = res.arg
    thr, consts, evals = res.out
    bad = []
    # the floor-mode test at the worst-case signature passes at the threshold
    log_disc = math.exp(thr)
    T = (4.0 - 1.0 / (2 * n)) * log_disc**2
    m = generic_margin(n, n % 2, log_disc, T, 1.0 + 1.0 / (4 * n), floor_mode=True)
    if not m > 0:
        bad.append(f"threshold n={n}: floor-mode margin {mp.nstr(m, 5)} at log log disc {thr}")
    # slope rounded down and log^2 coefficient rounded up from their exact values
    with mp.workdps(50):
        c = 1 + mp.mpf(1) / (4 * n)
        target = 4 - mp.mpf(1) / (3 * n)
        den = c - 2 * n * (c - 1 - mp.log(c))
        slope = (den / mp.sqrt(c) - 2 / mp.sqrt(target)) / mp.sqrt(c)
        log_sq = 1 / (mp.sqrt(c) * 2 * mp.pi)
        if not (consts.slope <= slope and consts.log_sq_coeff >= log_sq):
            bad.append(f"degree {n}: constants {consts} do not round outward from {slope}, {log_sq}")
        if abs(consts.c - c) > 1e-15 or abs(consts.alpha_target - target) > 1e-15:
            bad.append(f"degree {n}: c or target differ from 1+1/(4n), 4-1/(3n)")
    failed = [s for s, ev in zip(svals, evals) if not ev.passed]
    if failed:
        bad.append(f"degree {n}: specialized test fails at S={failed}")
    return bad


def cubic_disc(coeffs) -> int:
    """Discriminant of x^3 + a x^2 + b x + c from (c, b, a, 1)."""
    c, b, a, _ = coeffs
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def check_cubic(res, expected_abs_disc) -> list:
    field, report = res.out
    bad = []
    own = cubic_disc(res.arg)
    if not abs(field.field_disc) == abs(own) == expected_abs_disc:
        bad.append(f"cubic {res.arg}: disc {field.field_disc}, formula {own}, data file {expected_abs_disc}")
    if not report.evaluation.passed or report.T_bound > 4.0 * field.log_abs_disc**2:
        bad.append(f"cubic {res.arg}: evaluation at T={report.T_bound} not a pass below 4 log^2 disc")
    return bad


def check_results(workload, results, fixtures) -> list:
    """All failure messages for the results of one run."""
    bad = []
    thresholds = {r.arg[0]: r.out[0] for r in results if r.kind == "degree"}
    for r in results:
        if r.kind == "field":
            bad += check_field(r)
            if workload == "classgroup":
                bad += check_class_group(r)
        elif r.kind == "signature":
            bad += check_signature(r, thresholds)
        elif r.kind == "degree":
            bad += check_degree(r)
        elif r.kind == "cubic":
            bad += check_cubic(r, fixtures[r.arg])
    return bad
