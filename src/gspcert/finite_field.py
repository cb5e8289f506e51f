"""Integer facts about F_p: primality.  Residues mod p are plain ints
throughout; the package has no field-element type (the tests' reference
one, with the integer factoring the tests' order computations use, is
tests/field_elements.py).
"""
from __future__ import annotations

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases SMALL_PRIMES is exact below this bound
# (Sorenson and Webster, 2015)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by SMALL_PRIMES, then deterministic Miller-Rabin;
    ValueError for an n that is not an int (7.0 would pass the trial
    division) and for n >= MILLER_RABIN_BOUND with no factor in SMALL_PRIMES."""
    if not isinstance(n, int):
        raise ValueError(f"{n!r} is not an int")
    if n < 2:
        return False
    for q in SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is too large to test for primality (limit {MILLER_RABIN_BOUND})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True

