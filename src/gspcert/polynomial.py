"""Univariate polynomials over F_p as int tuples.

The fp_* kernel works on low-first tuples of ints in [0, p) with no trailing
zero, and the certificate runs on it alone; what only the tests use (a bare
product, Rabin's irreducibility test, the general factorizer) lives with
them.  Products are only ever taken mod a polynomial, inside fp_powmod, by
one multiply-and-reduce step (_mulmod).  fp_hecke_factorization factors a
Hecke quartic, whose roots pair as r <-> nu/r, through y = x + nu/x: a
quadratic in y and quadratics in x, solved by square roots in F_p
(Tonelli 1891; Shanks 1973), with no gcd and no scan over F_p.  _roots
scans F_p for eigen_data's embedding roots.  Factorization holds its
factors as tuples; fp_str prints a tuple high degree first.
fp_projective_order is the order of a quartic's companion matrix in
PGL(4, p), read off the powers of x mod the quartic.
"""
from __future__ import annotations

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


def fp_mod(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    """a mod b, without building the quotient."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        c = rem[top] * inv % p
        if c:
            shift = top - db
            for j in range(db):
                rem[shift + j] = (rem[shift + j] - c * b[j]) % p
    return fp_trim(rem[:db])


def _product(a: FpPoly, b: FpPoly) -> list[int]:
    """a * b for nonzero a and b, its coefficients summed but not reduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _mulmod(a: FpPoly, b: FpPoly, m: FpPoly, p: int) -> FpPoly:
    """a * b mod m for monic m, in one list: the product's coefficients are
    summed unreduced, its top is folded down by m, and only the deg m
    coefficients left are reduced mod p."""
    if not a or not b:
        return ()
    out = _product(a, b)
    dm = len(m) - 1
    for top in range(len(out) - 1, dm - 1, -1):
        t = out[top] % p
        if t:
            for j in range(dm):
                out[top - dm + j] -= t * m[j]
    del out[dm:]
    return fp_trim([v % p for v in out])


def fp_powmod(a: FpPoly, e: int, m: FpPoly, p: int) -> FpPoly:
    """a^e mod m, square-and-multiply on the exponent bits.  A remainder
    mod m is the remainder mod the monic copy of m, which is what the
    products are reduced by."""
    m = fp_monic(m, p)
    result = fp_mod((1,), m, p)
    acc = fp_mod(a, m, p)
    while e:
        if e & 1:
            result = _mulmod(result, acc, m, p)
        e >>= 1
        if e:
            acc = _mulmod(acc, acc, m, p)
    return result


def fp_monic(a: FpPoly, p: int) -> FpPoly:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def fp_gcd(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    """Monic gcd by the Euclidean algorithm; gcd(a, 0) is the monic copy of a."""
    while b:
        a, b = b, fp_mod(a, b, p)
    return fp_monic(a, p)


def fp_projective_order(f: FpPoly, p: int) -> int:
    """Least n >= 1 with x^n constant mod f, for a monic quartic f with
    f(0) != 0: the order of its companion matrix in PGL(4, p).

    The companion matrix C is multiplication by x on F_p[x]/(f) in the
    basis 1, x, x^2, x^3, so C^n = cI exactly when x^n = c mod f (apply C^n
    to 1 for one direction, multiply by any g for the other), squarefree
    or not.  x is a unit there since f(0) != 0, so the loop ends.
    """
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"expected a monic quartic, got {f}")
    c0, c1, c2, c3 = f[0], f[1], f[2], f[3]
    if not c0:
        raise ValueError("f(0) = 0: x is not a unit mod f, so it has no projective order")
    n, a0, a1, a2, a3 = 1, 0, 1, 0, 0  # x^n mod f, low first
    while a1 or a2 or a3:
        # x * x^n: shift up, then replace a3 x^4 by -a3 (c0 + c1 x + c2 x^2 + c3 x^3)
        a0, a1, a2, a3 = -a3 * c0 % p, (a0 - a3 * c1) % p, (a1 - a3 * c2) % p, (a2 - a3 * c3) % p
        n += 1
    return n


def _roots(s: FpPoly, p: int) -> list[int]:
    # s is a product of distinct monic linear factors: its roots c, found by
    # evaluating s at c = 0, 1, ... until deg s roots are in
    out = []
    for c in range(p):
        v = 0
        for a in reversed(s):
            v = (v * c + a) % p
        if not v:
            out.append(c)
            if len(out) == len(s) - 1:
                return out
    raise RuntimeError(f"{s} is not a product of distinct linear factors")


class Factorization(NamedTuple):
    """unit * product(factor^multiplicity) over F_p; the factors are monic
    irreducible int tuples, sorted by degree then by coefficient sequence,
    high degree first."""

    p: int
    unit: int
    factors: tuple[tuple[FpPoly, int], ...]

    def linear_roots(self) -> list[tuple[int, int]]:
        """(root, multiplicity) for each linear factor, in factor order."""
        return [(-fac[0] % self.p, mult) for fac, mult in self.factors if len(fac) == 2]

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def __str__(self) -> str:
        parts = []
        if self.unit != 1 or not self.factors:
            parts.append(str(self.unit))
        for fac, mult in self.factors:
            head = f"({fp_str(fac)})"
            parts.append(head if mult == 1 else f"{head}^{mult}")
        return "".join(parts)


def _sqrt(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None when a is not a
    square: Tonelli-Shanks, which for p = 3 mod 4 is a^((p+1)/4) alone.
    RuntimeError if the root does not square to a."""
    a %= p
    q, m = p - 1, 0
    while not q & 1:
        q, m = q >> 1, m + 1
    # p - 1 = q 2^m with q odd, and r^2 = a t throughout; t has order 2^i
    # with i < m iff a is a square (Euler's criterion), and each round
    # lowers i by multiplying t by a power of c, an element of order 2^m
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    z = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), 0) if m > 1 else 0
    c = pow(z, q, p)
    while t > 1:
        i, t2 = 1, t * t % p
        while t2 != 1 and i < m:
            i, t2 = i + 1, t2 * t2 % p
        if i == m:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise RuntimeError(f"{r}^2 is not {a} mod {p}: is {p} an odd prime?")
    return r


def _reciprocal_quadratic(y: int, nu: int, p: int) -> list[FpPoly]:
    """Monic irreducible factors of x^2 - y x + nu, a repeated one twice."""
    r = _sqrt(y * y - 4 * nu, p)
    if r is None:
        return [(nu, -y % p, 1)]
    h = (p + 1) // 2
    return [(-(y + r) * h % p, 1), (-(y - r) * h % p, 1)]


def fp_hecke_factorization(f: FpPoly, p: int) -> Factorization:
    """Factorization over F_p, p odd, of a monic quartic whose roots pair
    as r <-> nu/r: f = x^4 + f3 x^3 + f2 x^2 + f1 x + f0 with f1 = nu f3 and
    f0 = nu^2 != 0, as eigen_data.hecke_quartic builds it.  nu is f1/f3, or
    a square root of f0 when f3 = f1 = 0 (f is then reciprocal for both).
    ValueError for any other f and for p = 2; RuntimeError, never a wrong
    answer, if the factors do not multiply back to f.

    f = x^2 g(x + nu/x) for g(y) = y^2 - a y + e, a = -f3, e = f2 - 2 nu:
    each root y of g gives the factor x^2 - y x + nu.  If the discriminant D
    of g is no square, the roots are y1 = (a + w)/2 and its conjugate, w^2 =
    D, and x^2 - y1 x + nu has a root r in F_p(w) iff delta = y1^2 - 4 nu =
    alpha + beta w is a square there, iff N = alpha^2 - D beta^2 is one in
    F_p.  Without r, f is irreducible; with r, f = u u' for u = (x - r)(x -
    r^p) = x^2 - s x + n and u' = x^2 - (nu s/n) x + nu^2/n.  A root x0 + y0
    w of delta has x0^2 = (alpha +- sqrt N)/2 and 2 x0 y0 = beta, or x0 = 0.
    """
    if p == 2:
        raise ValueError("the Hecke quartic route divides by 2: p must be odd, got 2")
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"expected a monic quartic, got {f}")
    f0, f1, f2, f3 = f[:4]
    if f3:
        nu = f1 * pow(f3, -1, p) % p
    elif f1:
        raise ValueError(f"{fp_str(f)} has no x^3 term but an x term: its roots do not pair")
    else:
        nu = _sqrt(f0, p)
    if not f0 or nu is None or nu * nu % p != f0:
        raise ValueError(f"{fp_str(f)}: its constant term is not nu^2 != 0, nu = f1/f3")
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
        for t in ((alpha + root_norm) * h, (alpha - root_norm) * h):
            x0 = _sqrt(t, p)
            if x0:
                y0 = beta * h * pow(x0, -1, p) % p
                break
        else:  # alpha / D is a square; were it not, the check below would fail
            x0, y0 = 0, _sqrt(alpha * pow(disc, -1, p), p) or 0
        # r = (y1 + x0 + y0 w)/2 = re + im w: s = 2 re, n = re^2 - D im^2
        re, im = (a * h + x0) * h % p, (h + y0) * h % p
        s, n = 2 * re % p, (re * re - disc * im * im) % p
        n_inv = pow(n, -1, p)
        factors = [(n, -s % p, 1), (nu * nu * n_inv % p, -nu * s * n_inv % p, 1)]
    product = (1,)
    for g in factors:
        product = tuple(c % p for c in _product(product, g))
    if product != f:
        raise RuntimeError(f"the factors {factors} of {fp_str(f)} do not multiply back to it")
    distinct = sorted(set(factors), key=lambda g: (len(g), g[::-1]))
    return Factorization(p, 1, tuple((g, factors.count(g)) for g in distinct))
