"""Inputs and the per-case pipelines of the three workloads.

Inputs are built here with this file's own integer arithmetic; genbound
only ever receives the finished discriminants, polynomials and shapes.
Each workload runs in rounds of a fixed make-up, so every run, whatever
its length, attempts the same mix. census and classgroup measure a fixed
population of fields, each field once per round, in an order the seed
shuffles anew for every round: within a stratum a field's cost varies up
to fivefold, so fields drawn afresh for each seed moved the timing metrics
by 5-15 % from seed to seed. paper-claims draws its shapes and probe
points from the seed in every round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# census: bins uniform in log|d| over [log 5, log 1e5); per bin and sign, the
# fundamental discriminants nearest to these shares of the bin's log width
CENSUS_BINS = 20
CENSUS_LOG_LO, CENSUS_LOG_HI = math.log(5.0), math.log(1e5)
CENSUS_POSITIONS = (0.25, 0.75)

# classgroup: imaginary fields, |d| in [3e3, 1e5), in which 2 and 3 split.
# Small split primes make h large for the size of d and let the exact
# criterion pass early, so the class group does most of the work. The
# strata are class-number bands times the number of prime factors of d
# (1, 2, 3 or more): the class group costs about h^2 divided by a power of 2
# that grows with the 2-rank, omega(d) - 1. Each stratum gives the fields at
# these shares of its list in order of |d|.
CLASSGROUP_ABS_D = (3_000, 100_000)
CLASSGROUP_SPLIT_PRIMES = (2, 3)
CLASSGROUP_H_BANDS = (100, 120, 140, 160, 180)
CLASSGROUP_OMEGA_CLASSES = 3
CLASSGROUP_POSITIONS = (0.25, 0.75)

# paper-claims
DEGREES = range(2, 11)
SPECIALIZED_S = (10.0, 1e7)  # S = sqrt(cT) probed in the degree-specialized tests
SPECIALIZED_PER_CASE = 16
# log log disc cells per signature, log-uniform inside each: small (log disc
# in [5, 100)), middle, and [12, 12.5), beyond every degree's threshold
GENERIC_CELLS = (
    (math.log(5.0), math.log(100.0)),
    (math.log(100.0), 12.0),
    (12.0, 12.5),
)


# ----------------------------------------------------------------------
# integer arithmetic of the benchmark's own
# ----------------------------------------------------------------------
def factor(n: int) -> dict:
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factor(n).values())


def fundamental(d: int) -> bool:
    if d % 4 == 1:
        return d != 1 and _squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(d // 4)


def splitting(d: int, p: int) -> str:
    """'ramified', 'split' or 'inert' for prime p in Q(sqrt d), by Euler's criterion."""
    if d % p == 0:
        return "ramified"
    if p == 2:
        return "split" if d % 8 == 1 else "inert"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def class_number(d: int) -> int:
    """Class number of a fundamental d < -4 by counting reduced forms (a, b, c)."""
    D = -d
    h = 0
    for b in range(D % 2, math.isqrt(D // 3) + 1, 2):
        q = (b * b + D) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                # (a, -b, c) is reduced and distinct unless b = 0, a = b or a = c
                h += 1 if b == 0 or a == b or a * a == q else 2
            a += 1
    return h


def quadratic_poly(d: int) -> list:
    """Monic defining polynomial of the maximal order of discriminant d, constant first."""
    if d % 4 == 1:
        return [(1 - d) // 4, -1, 1]
    return [-(d // 4), 0, 1]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def nearest_fundamental(target: float, sign: int) -> int:
    """The fundamental discriminant of the given sign with |d| >= 5 nearest to sign * target."""
    a0 = round(target)
    for step in range(a0):
        for a in (a0 - step, a0 + step):
            if a >= 5 and fundamental(sign * a):
                return sign * a
    raise ValueError(f"no fundamental discriminant near {sign * target}")


def census_population() -> list:
    """Per log|d| bin and sign, the fields nearest to fixed log positions inside the bin."""
    out = []
    width = (CENSUS_LOG_HI - CENSUS_LOG_LO) / CENSUS_BINS
    for k in range(CENSUS_BINS):
        for pos in CENSUS_POSITIONS:
            target = math.exp(CENSUS_LOG_LO + (k + pos) * width)
            out += [nearest_fundamental(target, sign) for sign in (1, -1)]
    return out


def classgroup_strata() -> list:
    """All classgroup discriminants, one list per (class-number band, omega class) stratum."""
    bands = CLASSGROUP_H_BANDS
    strata = [[] for _ in range((len(bands) - 1) * CLASSGROUP_OMEGA_CLASSES)]
    for a in range(*CLASSGROUP_ABS_D):
        d = -a
        if any(splitting(d, p) != "split" for p in CLASSGROUP_SPLIT_PRIMES) or not fundamental(d):
            continue
        h = class_number(d)
        for k, (lo, hi) in enumerate(zip(bands, bands[1:])):
            if lo <= h < hi:
                omega = min(len(factor(d)), CLASSGROUP_OMEGA_CLASSES)
                strata[k * CLASSGROUP_OMEGA_CLASSES + omega - 1].append(d)
    return strata


def classgroup_population() -> list:
    """Per stratum, the fields at fixed positions of its list in order of |d|."""
    return [stratum[int(pos * len(stratum))]
            for stratum in classgroup_strata() for pos in CLASSGROUP_POSITIONS]


def signatures():
    for n in DEGREES:
        for r1 in range(n % 2, n + 1, 2):
            yield n, r1


def paper_claims_round(rng: random.Random, fixtures) -> list:
    """Per degree: threshold and specialized tests; per signature: jittered generic shapes;
    then the cubic fixtures.

    A signature case takes one shape from each cell, so the cases of a round
    have a fixed make-up and the median case stays a signature case.
    """
    cases = []
    s_lo, s_hi = map(math.log, SPECIALIZED_S)
    for n in DEGREES:
        svals = tuple(math.exp(rng.uniform(s_lo, s_hi)) for _ in range(SPECIALIZED_PER_CASE))
        cases.append(("degree", (n, svals)))
    for n, r1 in signatures():
        log_discs = tuple(math.exp(rng.uniform(lo, hi)) for lo, hi in GENERIC_CELLS)
        cases.append(("signature", (n, r1, log_discs)))
    cases.extend(("cubic", coeffs) for coeffs in fixtures)
    return cases


class Inputs:
    """Endless seeded stream of rounds for one workload."""

    def __init__(self, workload: str, seed: int, fixtures=()):
        self.rng = random.Random(f"{workload}:{seed}")
        self.fields = []
        if workload == "census":
            self.fields = census_population()
        elif workload == "classgroup":
            self.fields = classgroup_population()
        self.fixtures = tuple(fixtures)

    def next_round(self) -> list:
        if self.fields:
            return [("field", d) for d in self.rng.sample(self.fields, len(self.fields))]
        return paper_claims_round(self.rng, self.fixtures)


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
@dataclass
class Result:
    kind: str
    arg: object
    out: object
    ratios: tuple  # certified T / log^2 disc of each bound the case certifies


def run_case(kind, arg, ce, nf, qc) -> Result:
    """One case, calling genbound only through its public functions."""
    if kind == "field":
        d = arg
        field = nf.NumberField(quadratic_poly(d))
        report = ce.minimal_T_exact(field)
        group = qc.class_group(d)
        generates, order = qc.generated_by_primes_up_to(d, report.T_bound)
        out = (field, report, group, generates, order)
        return Result(kind, d, out, (report.T_bound / math.log(abs(d)) ** 2,))
    if kind == "degree":
        n, svals = arg
        threshold = ce.loglog_disc_threshold(n)
        consts = ce.specialized_constants(n)
        evals = tuple(ce.eval_degree_specialized(n, s) for s in svals)
        return Result(kind, arg, (threshold, consts, evals), ())
    if kind == "signature":
        n, r1, log_discs = arg
        reports = tuple(ce.minimal_T_generic(ce.FieldShape(n, r1, x)) for x in log_discs)
        return Result(kind, arg, reports, tuple(r.T_bound / x**2 for r, x in zip(reports, log_discs)))
    if kind == "cubic":
        field = nf.NumberField(arg)
        report = ce.minimal_T_exact(field)
        return Result(kind, arg, (field, report), (report.T_bound / field.log_abs_disc**2,))
    raise ValueError(f"unknown case kind {kind!r}")
