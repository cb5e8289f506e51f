"""Integer facts about F_p: primality, factoring small integers and the
Legendre symbol.  Residues mod p are plain ints throughout; the package has
no field-element type (the tests' reference one is tests/field_elements.py).
"""
from __future__ import annotations

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases SMALL_PRIMES is exact below this bound
# (Sorenson and Webster, 2015)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by SMALL_PRIMES, then deterministic Miller-Rabin;
    ValueError for n >= MILLER_RABIN_BOUND with no factor in SMALL_PRIMES."""
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays small here)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} via Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"Legendre symbol needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
