"""genbound: verified norm bounds for generating sets of class groups.

The package evaluates explicit-formula criteria which, under GRH, certify
that the prime ideals of norm at most T generate the class group of a
number field, with T of size (4 - eps) log^2 Delta. Submodules:

- analytic_kernel: closed-form kernel algebra (convolutions, archimedean
  integrals, the alpha/beta coefficients, the window objective f(c, n))
- rational_sieve: primes, Chebyshev psi, weighted von Mangoldt sums and
  their square-root-accurate majorant
- number_field: defining polynomials, discriminants, prime splitting,
  ideal-norm streams, small-field principality search
- quadratic_classgroup: binary quadratic form class groups and the
  generated-by-small-primes test
- criteria_engine: the exact and generic criteria, minimal-T solvers and
  discriminant thresholds
"""

__version__ = "0.1.0"
