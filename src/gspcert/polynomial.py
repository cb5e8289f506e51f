"""Univariate polynomials over F_p as int tuples, and the Polynomial type.

The fp_* kernel works on low-first tuples of ints in [0, p) with no trailing
zero, and the certificate runs on it alone.  fp_factor makes one
distinct-degree pass, carrying x^(p^k) on to the shrinking cofactor; it
reads the linear factors off the values at every c in F_p and splits
equal-degree factors by the trace values of x, x^2, ... against every c, so
the cost does not depend on where the factors lie.  Factorization holds its
factors as tuples; fp_str prints a tuple as str(Polynomial) does.
fp_projective_order is the order of a quartic's companion matrix in
PGL(4, p), read off the powers of x mod the quartic.  Polynomial, with
FFElement coefficients over any field, serves the tests' reference routes;
factor, gcd, poly_powmod, is_squarefree and is_irreducible accept it over
F_p only (ValueError otherwise) and run on the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .finite_field import FFElement, FieldSpec, factorize

FpPoly = tuple[int, ...]


class Polynomial:
    """Immutable dense polynomial; coeffs are FFElements, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[FFElement]):
        cs = tuple(coeffs)
        for c in cs:
            if c.field != field:
                raise ValueError(f"coefficient field {c.field!r} does not match {field!r}")
        n = len(cs)
        while n > 0 and cs[n - 1].is_zero():
            n -= 1
        self.field = field
        self.coeffs = cs[:n]

    @classmethod
    def from_ints(cls, field: FieldSpec, ints: Sequence[int]) -> Polynomial:
        return cls(field, (field.element(c) for c in ints))

    @classmethod
    def x(cls, field: FieldSpec) -> Polynomial:
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, field: FieldSpec, c: int | FFElement) -> Polynomial:
        if isinstance(c, int):
            c = field.element(c)
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coeff(self) -> FFElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading_coeff() == self.field.one()

    def monic(self) -> Polynomial:
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading_coeff()
        if lc == self.field.one():
            return self
        inv = lc.inv()
        return Polynomial(self.field, (c * inv for c in self.coeffs))

    # -- ring operations -------------------------------------------------------

    def _check(self, other: Polynomial) -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.field, (-c for c in self.coeffs))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | FFElement | int) -> Polynomial:
        if isinstance(other, (FFElement, int)):
            if isinstance(other, int):
                other = self.field.element(other)
            return Polynomial(self.field, (c * other for c in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field, ())
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial(self.field, ()), self
        inv = other.leading_coeff().inv()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        quot = [self.field.zero()] * (dq + 1)
        for shift in range(dq, -1, -1):
            c = rem[shift + other.degree] * inv
            quot[shift] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[shift + j] = rem[shift + j] - c * b
        return Polynomial(self.field, quot), Polynomial(self.field, rem[: other.degree])

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def __call__(self, point: FFElement) -> FFElement:
        if point.field != self.field:
            raise ValueError("evaluation point from a different field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> Polynomial:
        return Polynomial(
            self.field,
            (c * i for i, c in enumerate(self.coeffs) if i > 0),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {self})"

    def __str__(self) -> str:
        """fp_str over F_p; over F_{p^d}, d > 1, every coefficient is bracketed."""
        if self.field.d == 1:
            return fp_str(tuple(c.coeffs[0] for c in self.coeffs))
        terms = [
            f"({c})" + ("" if i == 0 else "x" if i == 1 else f"x^{i}")
            for i, c in reversed(list(enumerate(self.coeffs)))
            if not c.is_zero()
        ]
        return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# the F_p kernel: low-first int tuples, reduced into [0, p), no trailing zero


def fp_trim(a: Sequence[int]) -> FpPoly:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def fp_str(a: FpPoly) -> str:
    """a as text, high degree first; equals str(Polynomial) over F_p."""
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


def fp_mul(a: FpPoly, b: FpPoly, p: int) -> FpPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return fp_trim([c % p for c in out])


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


def fp_powmod(a: FpPoly, e: int, m: FpPoly, p: int) -> FpPoly:
    """a^e mod m, square-and-multiply on the exponent bits."""
    result = fp_mod((1,), m, p)
    acc = fp_mod(a, m, p)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, acc, p), m, p)
        e >>= 1
        if e:
            acc = fp_mod(fp_mul(acc, acc, p), m, p)
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


def fp_is_irreducible(f: FpPoly, p: int) -> bool:
    """Rabin's test for monic f of degree n >= 1: x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n."""
    n = len(f) - 1
    x = fp_mod((0, 1), f, p)
    if fp_powmod(x, p**n, f, p) != x:
        return False
    return all(  # n >= 2 here, so x = (0, 1) and -x = (0, p - 1)
        len(fp_gcd(fp_add(fp_powmod(x, p ** (n // ell), f, p), (0, p - 1), p), f, p)) == 1
        for ell in factorize(n)
    )


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


# ---------------------------------------------------------------------------
# the Polynomial entry points


def _fp(f: Polynomial) -> FpPoly:
    if f.field.d != 1:
        raise ValueError(f"polynomial factoring works over a prime field, not {f.field!r}")
    return tuple(c.coeffs[0] for c in f.coeffs)


def poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base^e reduced mod `mod`, over F_p."""
    base._check(mod)
    if e < 0:
        raise ValueError("negative exponent")
    return Polynomial.from_ints(base.field, fp_powmod(_fp(base), e, _fp(mod), base.field.p))


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over F_p; gcd(f, 0) is the monic copy of f."""
    f._check(g)
    return Polynomial.from_ints(f.field, fp_gcd(_fp(f), _fp(g), f.field.p))


def is_squarefree(f: Polynomial) -> bool:
    """True iff gcd(f, f') is constant (correct in characteristic p: a
    vanishing derivative leaves gcd(f, 0) = f non-constant)."""
    if f.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    a, p = _fp(f), f.field.p
    return len(fp_gcd(a, fp_trim([i * c % p for i, c in enumerate(a)][1:]), p)) == 1


def is_irreducible(f: Polynomial) -> bool:
    """True iff f (degree >= 1, over F_p) has no monic factor of degree in
    [1, deg f - 1]; decided by the derandomized Rabin criterion."""
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    return fp_is_irreducible(fp_monic(_fp(f), f.field.p), f.field.p)


@dataclass(frozen=True)
class Factorization:
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


def factor(f: Polynomial) -> Factorization:
    """fp_factorization of a Polynomial over F_p."""
    return fp_factorization(_fp(f), f.field.p)
