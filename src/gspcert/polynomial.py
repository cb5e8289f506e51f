"""Univariate polynomials over F_p as int tuples.

The fp_* kernel works on low-first tuples of ints in [0, p) with no trailing
zero, and the certificate runs on it alone; what only the tests use (a bare
product, Rabin's irreducibility test) lives with them.  Products are only
ever taken mod a polynomial, inside fp_powmod, by one multiply-and-reduce
step (_mulmod).  fp_factor makes one distinct-degree pass, carrying
x^(p^k) on to the shrinking cofactor; it reads the linear factors off the
values at every c in F_p (_roots, which also finds eigen_data's embedding
roots) and splits equal-degree factors by the trace values of x, x^2, ...
against every c, so the cost does not depend on where the factors lie.
Factorization holds its factors as tuples; fp_str prints a tuple high
degree first.  fp_projective_order is the order of a quartic's companion
matrix in PGL(4, p), read off the powers of x mod the quartic.
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


def fp_divmod(a: FpPoly, b: FpPoly, p: int) -> tuple[FpPoly, FpPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem[shift + db] * inv % p
        if c:
            for j in range(db):
                rem[shift + j] = (rem[shift + j] - c * b[j]) % p
    return fp_trim(quot), fp_trim(rem[:db])


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


def _mulmod(a: FpPoly, b: FpPoly, m: FpPoly, p: int) -> FpPoly:
    """a * b mod m for monic m, in one list: the product's coefficients are
    summed unreduced, its top is folded down by m, and only the deg m
    coefficients left are reduced mod p."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
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


def fp_factor(f: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """Monic irreducible factors of monic f with multiplicity, sorted by
    degree and then by coefficients, high degree first."""
    # One distinct-degree pass.  Entering step k, f has no factor of degree
    # < k and r = x^(p^(k-1)) modulo f or a multiple of f, so gcd(f,
    # x^(p^k) - x) is the product of the distinct degree-k factors; r stays
    # valid for the cofactor left after dividing them out (fp_powmod reduces
    # it modulo the cofactor).  Once 2k > deg f, f is 1 or irreducible.
    pairs = []
    r, k = (0, 1), 1
    while 2 * k <= len(f) - 1:
        r = fp_powmod(r, p, f, p)
        s = fp_gcd(fp_add(r, (0, p - 1), p), f, p)
        if len(s) > 1 and k == 1:
            for c in _roots(s, p):
                f, mult = _divide_out_root(f, c, p)
                pairs.append(((-c % p, 1), mult))
        elif len(s) > 1:
            for g in fp_split_equal_degree(s, k, p):
                mult = 0
                while True:
                    q, rem = fp_divmod(f, g, p)
                    if rem:
                        break
                    f, mult = q, mult + 1
                pairs.append((g, mult))
        k += 1
    if len(f) > 1:
        pairs.append((f, 1))
    pairs.sort(key=lambda pair: (len(pair[0]), pair[0][::-1]))
    return pairs


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


def _divide_out_root(f: FpPoly, c: int, p: int) -> tuple[FpPoly, int]:
    """(f / (x - c)^m, m) for the multiplicity m of the root c of f != 0."""
    for mult in range(len(f)):  # m <= deg f
        # synthetic division: Horner's partial sums, high first, are the
        # quotient's coefficients, and the last one is the remainder f(c)
        v, sums = 0, []
        for a in reversed(f):
            v = (v * c + a) % p
            sums.append(v)
        if v:
            return f, mult
        f = tuple(sums[-2::-1])
    raise RuntimeError(f"x - {c} divides {f} more than its degree allows")


def fp_split_equal_degree(s: FpPoly, k: int, p: int) -> list[FpPoly]:
    """The monic irreducible factors of s, a product of distinct monic
    irreducibles g_i of degree k; RuntimeError if s is not one."""
    # For u in F_p[x], t = u + u^p + ... + u^(p^(k-1)) mod s is the constant
    # Tr(u(root of g_i)) mod each g_i, so gcd(h, t - c) over every c in F_p
    # partitions a part h.  Some u = x^j, 0 < j < deg s, separates any two
    # g_i: else every u of degree < deg s would have equal traces, yet by CRT
    # one such u is 0 mod one g_i and of nonzero trace mod the other.  The
    # gcds for distinct c are coprime, so the scan over c stops once they
    # cover h.
    parts = [s]
    for j in range(1, len(s) - 1):
        if all(len(h) == k + 1 for h in parts):
            break
        t = w = (0,) * j + (1,)
        for _ in range(k - 1):
            w = fp_powmod(w, p, s, p)
            t = fp_add(t, w, p)
        split = []
        for h in parts:
            if len(h) == k + 1:
                split.append(h)
                continue
            gs = []
            for c in range(p):
                g = fp_gcd(h, fp_add(t, (-c % p,), p), p)
                if len(g) > 1:
                    gs.append(g)
                    if sum(len(g) - 1 for g in gs) == len(h) - 1:
                        break
            else:
                raise RuntimeError(f"{h} is not squarefree: the trace split lost a factor")
            split += gs
        parts = split
    if any(len(h) != k + 1 for h in parts):
        raise RuntimeError(f"x^j, 0 < j < {len(s) - 1}, left {parts} unsplit")
    return parts


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


def fp_factorization(f: FpPoly, p: int) -> Factorization:
    """Complete factorization of f != 0 over F_p, with multiplicities."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return Factorization(p, f[-1], tuple(fp_factor(fp_monic(f, p), p)))
