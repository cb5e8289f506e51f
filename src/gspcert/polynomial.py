"""Univariate polynomials over F_p as int tuples.

The fp_* kernel works on low-first tuples of ints in [0, p) with no trailing
zero, and the certificate runs on it alone; what only the tests use (a bare
product, Rabin's irreducibility test, the general factorizer, the
projective order by stepping through the powers of x) lives with them.
fp_mod is the one reducer: it also takes unreduced int coefficients, so
fp_powmod reduces each product, summed unreduced by _product, in one pass.
fp_hecke_factorization(f, nu, p) factors a Hecke quartic f, whose roots pair
as r <-> nu/r for the similitude nu passed with it, through y = x + nu/x: a
quadratic in y and quadratics in x, solved by square roots in F_p (one power
each, as p = 3 mod 4), with no gcd and no scan over F_p; fp_projective_order
reads the order of its companion matrix in PGL(4, p) off that factorization
and nu.  Factorization holds its factors as tuples; fp_str prints a tuple high
degree first.  is_prime and _prime_factors, the integer routines, sit beside
the factorization.  Residues mod p are plain ints: no field-element type
exists, and the tests' F_{p^2}/F_{p^4} elements are int tuples (oracles.py).
"""
from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

FpPoly = tuple[int, ...]


# ---------------------------------------------------------------------------
# the F_p kernel: low-first int tuples, reduced into [0, p), no trailing zero


def fp_trim(a: Sequence[int]) -> FpPoly:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def fp_str(a: FpPoly) -> str:
    """a as text, high degree first: x^4 + 3x^3 + 2, with "0" for ()."""
    terms = []
    i = len(a)
    for c in reversed(a):
        i -= 1
        if c:
            if i > 1:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
            elif i:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(str(c))
    return " + ".join(terms) or "0"


def fp_add(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return fp_trim(out)


def fp_mod(a: Sequence[int], b: FpPoly, p: int) -> FpPoly:
    """a mod b, without building the quotient.  a's coefficients may be any
    ints, such as a raw _product: each top coefficient is reduced once, as it
    is folded down by b, and only the deg b coefficients kept are reduced."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        c, shift = rem[top] * inv % p, top - db
        for j in range(db):
            rem[shift + j] -= c * b[j]
    return fp_trim([v % p for v in rem[:db]])


def _product(a: FpPoly, b: FpPoly) -> list[int]:
    """a * b, its coefficients summed but not reduced; all zero when a or b is."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b, i):
            out[j] += ai * bj
    return out


def fp_powmod(a: FpPoly, e: int, m: FpPoly, p: int) -> FpPoly:
    """a^e mod m, square-and-multiply on the exponent bits; fp_mod reduces
    each unreduced product in one pass."""
    result = fp_mod((1,), m, p)
    acc = fp_mod(a, m, p)
    while e:
        if e & 1:
            result = fp_mod(_product(result, acc), m, p)
        e >>= 1
        if e:
            acc = fp_mod(_product(acc, acc), m, p)
    return result


def fp_monic(a: FpPoly, p: int) -> FpPoly:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def fp_gcd(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    """Monic gcd by the Euclidean algorithm; gcd(a, 0) is the monic copy of a."""
    while b:
        a, b = b, fp_mod(a, b, p)
    return fp_monic(a, p)


class Factorization(NamedTuple):
    """product(factor^multiplicity) of a monic polynomial over F_p; the
    factors are monic irreducible int tuples, sorted by degree then by
    coefficient sequence, high degree first."""

    p: int
    factors: tuple[tuple[FpPoly, int], ...]

    def linear_roots(self) -> list[tuple[int, int]]:
        """(root, multiplicity) for each linear factor, in factor order."""
        return [(-fac[0] % self.p, mult) for fac, mult in self.factors if len(fac) == 2]

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def __str__(self) -> str:
        return "".join([f"({fp_str(g)})" if m == 1 else f"({fp_str(g)})^{m}"
                        for g, m in self.factors]) or "1"


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases SMALL_PRIMES is exact below this bound
# (Sorenson and Webster, 2015)
MILLER_RABIN_BOUND = 3317044064679887385961981
# check_prime refuses a larger p.  The scan of F_p for E's roots, a
# quadratic factor stepped to its order and the trial division of
# (p^2 + 1)/2 are linear in p: at p = 299983 each took 0.08-0.21 s per call
# or record (2-CPU x86-64 host), but the scan took 5 s for 128 roots near p
MAX_PRIME = 300_000


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


def check_prime(p: int) -> None:
    """Refuse, with one line, a p that is not a prime up to MAX_PRIME: the
    rule for p at the library's doors, embedding_roots and supported_table."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} is above the supported {MAX_PRIME}")


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d:
            d += 1
        else:
            out.append(d)
            while n % d == 0:
                n //= d
    return out + [n] if n > 1 else out


def _x_power_is_constant(e: int, f: FpPoly, p: int) -> bool:
    """Whether x^e, e >= 1, is constant mod the monic quartic f: square left
    to right over the bits of e, times x at a set bit, folding each square's
    x^6, x^5, x^4 terms by x^4 = g0 + g1 x + g2 x^2 + g3 x^3."""
    g0, g1, g2, g3 = -f[0], -f[1], -f[2], -f[3]
    a0, a1, a2, a3 = 0, 1, 0, 0
    for bit in bin(e)[3:]:
        c6 = a3 * a3 % p
        c5 = (2 * a2 * a3 + c6 * g3) % p
        c4 = (2 * a1 * a3 + a2 * a2 + c6 * g2 + c5 * g3) % p
        a0, a1, a2, a3 = ((a0 * a0 + c4 * g0) % p, (2 * a0 * a1 + c5 * g0 + c4 * g1) % p,
                          (2 * a0 * a2 + a1 * a1 + c6 * g0 + c5 * g1 + c4 * g2) % p,
                          (2 * (a0 * a3 + a1 * a2) + c6 * g1 + c5 * g2 + c4 * g3) % p)
        if bit == "1":
            a0, a1, a2, a3 = a3 * g0 % p, (a0 + a3 * g1) % p, (a1 + a3 * g2) % p, (a2 + a3 * g3) % p
    return not (a1 or a2 or a3)


def fp_projective_order(fac: Factorization, nu: int) -> int:
    """The least n >= 1 with x^n constant mod a squarefree Hecke quartic f
    with similitude nu, the order of its companion matrix in PGL(4, p), read
    off fac, fp_hecke_factorization's output on a squarefree f and the nu
    it checked: f is irreducible or a product of distinct factors of degree
    1 or 2, and f0 = nu^2 != 0 makes x a unit mod each, so every loop ends.

    Split f (CRT): x^n = c mod f iff mod every factor g.  With e_g the least
    exponent at which x^e_g = c_g in F_p mod g (1 for x - c_g; stepped on a
    quadratic g's two coefficients, e_g | p + 1), n = L k for L = lcm(e_g)
    and k the order in F_p^* of the ratios of the c_g^(L/e_g).  Irreducible
    f: its roots pair as r <-> nu/r = r^(p^2), so n | p^2 + 1 = 2m, m odd,
    and n | m iff r^m, a square root of nu, is in F_p, iff nu is a square.
    Both then descend over primes found by trial division.
    """
    p, factors = fac.p, fac.factors
    if len(factors) == 1:
        eps = pow(nu, (p - 1) // 2, p) != 1
        n = (p * p + 1) // 2
        for ell in _prime_factors(n):
            while n % ell == 0 and _x_power_is_constant(n // ell << eps, factors[0][0], p):
                n //= ell
        return n << eps
    n, steps = 1, []
    for g, _ in factors:
        e, c, v, b0, b1 = 1, 0, 1, -g[0], -g[1]
        if len(g) == 2:  # x = -g0 mod x + g0
            c, v = b0 % p, 0
        while v:  # x^e = c + v x mod g
            c, v, e = b0 * v % p, (c + b1 * v) % p, e + 1
        steps.append((e, c))
        n = lcm(n, e)
    s, k = {pow(c, n // e, p) for e, c in steps}, p - 1
    for ell in _prime_factors(k):
        while k % ell == 0 and len({pow(t, k // ell, p) for t in s}) == 1:
            k //= ell
    return n * k


def _sqrt(a: int, p: int) -> int | None:
    """A square root of a mod the prime p = 3 mod 4, or None when a is not a
    square: r = a^((p+1)/4) has r^2 = a * a^((p-1)/2), which is a exactly
    when a is a square (Euler's criterion)."""
    r = pow(a, (p + 1) // 4, p)
    return r if r * r % p == a % p else None


def _reciprocal_quadratic(y: int, nu: int, p: int) -> list[FpPoly]:
    """Monic irreducible factors of x^2 - y x + nu, a repeated one twice."""
    r = _sqrt(y * y - 4 * nu, p)
    if r is None:
        return [(nu, -y % p, 1)]
    h = (p + 1) // 2
    return [(-(y + r) * h % p, 1), (-(y - r) * h % p, 1)]


def fp_hecke_factorization(f: FpPoly, nu: int, p: int) -> Factorization:
    """Factorization over F_p, p = 3 mod 4, of a monic quartic whose roots
    pair as r <-> nu/r for the given nu in [1, p): f = x^4 + f3 x^3 + f2 x^2
    + f1 x + f0 with f1 = nu f3 and f0 = nu^2, as eigen_data.hecke_quartic
    builds it (nu and -nu both fit when f3 = f1 = 0, and both factor f).
    ValueError for any other (f, nu, p); RuntimeError, never a wrong answer,
    if the factors do not multiply back to f.

    f = x^2 g(x + nu/x) for g(y) = y^2 - a y + e, a = -f3, e = f2 - 2 nu:
    each root y of g gives the factor x^2 - y x + nu.  If the discriminant D
    of g is no square, the roots are y1 = (a + w)/2 and its conjugate, w^2 =
    D, and x^2 - y1 x + nu has a root r in F_p(w) iff delta = y1^2 - 4 nu =
    alpha + beta w is a square there, iff N = alpha^2 - D beta^2 is one in
    F_p.  Without r, f is irreducible; with r, f = u u' for u = (x - r)(x -
    r^p) = x^2 - s x + n and u' = x^2 - (nu s/n) x + nu^2/n.  A root x0 + y0
    w of delta has x0^2 = (alpha +- sqrt N)/2 and 2 x0 y0 = beta, or x0 = 0.
    """
    if p % 4 != 3:
        raise ValueError(f"the Hecke quartic route needs p = 3 mod 4, got p = {p}")
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"expected a monic quartic, got {f}")
    f0, f1, f2, f3 = f[:4]
    if not 0 < nu < p or (nu * nu % p, nu * f3 % p) != (f0, f1):
        raise ValueError(f"{fp_str(f)} does not pair its roots as r <-> nu/r for nu = {nu}")
    h = (p + 1) // 2
    a, e = -f3 % p, (f2 - 2 * nu) % p
    disc = (a * a - 4 * e) % p
    alpha, beta = (a * a * h - e - 4 * nu) % p, a * h % p
    if (d := _sqrt(disc, p)) is not None:
        factors = _reciprocal_quadratic((a + d) * h % p, nu, p)
        factors += _reciprocal_quadratic((a - d) * h % p, nu, p)
    elif (root_norm := _sqrt(alpha * alpha - disc * beta * beta, p)) is None:
        factors = [f]
    else:
        x0 = _sqrt((alpha + root_norm) * h, p) or _sqrt((alpha - root_norm) * h, p)
        if x0:
            y0 = beta * h * pow(x0, -1, p) % p
        else:  # alpha / D is a square; were it not, the check below would fail
            x0, y0 = 0, _sqrt(alpha * pow(disc, -1, p), p) or 0
        # r = (y1 + x0 + y0 w)/2 = re + im w: s = 2 re, n = re^2 - D im^2
        re, im = (a * h + x0) * h % p, (h + y0) * h % p
        s, n = 2 * re % p, (re * re - disc * im * im) % p
        n_inv = pow(n, -1, p)
        factors = [(n, -s % p, 1), (nu * nu * n_inv % p, -nu * s * n_inv % p, 1)]
    product = factors[0]  # summed unreduced, reduced once for the comparison
    for g in factors[1:]:
        product = _product(product, g)
    if tuple([c % p for c in product]) != f:
        raise RuntimeError(f"the factors {factors} of {fp_str(f)} do not multiply back to it")
    distinct = sorted(set(factors), key=lambda g: (len(g), g[::-1]))
    return Factorization(p, tuple([(g, factors.count(g)) for g in distinct]))
