"""Integer helpers against trial division."""

from genbound.arith import is_probable_prime


def trial_division_prime(n):
    return n >= 2 and all(n % p for p in range(2, n) if p * p <= n)


def test_is_probable_prime_small_range():
    # below 41^2 every composite has a prime factor <= 37, the smallest bases
    for n in range(-3, 41 * 41):
        assert is_probable_prime(n) == trial_division_prime(n), n
    assert not is_probable_prime(41 * 41)
    assert not is_probable_prime(41 * 43)
    assert is_probable_prime(1693) and is_probable_prime(1697)
