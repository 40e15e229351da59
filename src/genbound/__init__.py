"""genbound: verified norm bounds for generating sets of class groups.

The package evaluates explicit-formula criteria which, under GRH, certify
that the prime ideals of norm at most T generate the class group of a
number field, with T of size (4 - eps) log^2 Delta. Submodules:

- analytic_kernel: the archimedean coefficients alpha and beta
- rational_sieve: primes and the prefix-sum index over norms
- arith: primality, factoring and fundamental discriminants
- polynomials: exact polynomial arithmetic over Z and GF(p): resultants,
  discriminants, Sturm chains, factor shapes mod p, Dedekind's criterion
- number_field: defining polynomials, discriminants, prime splitting, and
  prefix-sum indexes over the prime-ideal powers
- quadratic_classgroup: binary quadratic form class groups and the
  generated-by-small-primes test
- criteria_engine: the exact and generic criteria, with the generic
  criterion's rational majorant and validity floor, minimal-T solvers and
  discriminant thresholds
- errors: the exception classes, one per failure mode a caller handles
"""

__version__ = "0.1.0"
