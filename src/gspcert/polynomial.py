"""Univariate polynomials over the small finite fields of finite_field.

Dense coefficient representation, low degree first.  Factorization is
deterministic: distinct-degree splitting via gcd(f, x^(q^k) - x), then
equal-degree splitting by the trace values of x, x^2, ..., tried against
every c in F_q so the cost does not depend on where the factors lie.  Roots in F_p are read off the linear factors
(Factorization.linear_roots); there is no separate root finder.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .finite_field import FFElement, FieldSpec, factorize


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
        if self.is_zero():
            return "0"
        one = self.field.one()
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(_coeff_str(c, standalone=True))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                head = "" if c == one else _coeff_str(c, standalone=False)
                parts.append(f"{head}{xpow}")
        return " + ".join(parts)


def _coeff_str(c: FFElement, standalone: bool) -> str:
    s = str(c)
    if c.field.d > 1 and ("+" in s or not standalone and " " in s):
        return f"({s})"
    if c.field.d > 1 and not standalone and s not in ("0",) and len(s) > 2:
        return f"({s})"
    return s


def poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base^e reduced mod `mod`, square-and-multiply on the exponent bits."""
    if e < 0:
        raise ValueError("negative exponent")
    result = Polynomial.constant(base.field, 1) % mod
    acc = base % mod
    while e:
        if e & 1:
            result = (result * acc) % mod
        acc = (acc * acc) % mod
        e >>= 1
    return result


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) is the monic copy of f."""
    f._check(g)
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        return f
    return f.monic()


def derivative(f: Polynomial) -> Polynomial:
    return f.derivative()


def is_squarefree(f: Polynomial) -> bool:
    """True iff gcd(f, f') is constant (correct in characteristic p: a
    vanishing derivative leaves gcd(f, 0) = f non-constant)."""
    if f.is_zero():
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return gcd(f, f.derivative()).degree <= 0


def is_irreducible(f: Polynomial) -> bool:
    """True iff f (degree >= 1) has no monic factor of degree in
    [1, deg f - 1]; decided by the derandomized Rabin criterion."""
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    fm = f.monic()
    F = f.field
    q = F.order
    n = f.degree
    x = Polynomial.x(F)
    if poly_powmod(x, q**n, fm) != x % fm:
        return False
    for ell in factorize(n):
        h = poly_powmod(x, q ** (n // ell), fm)
        if gcd(h - x, fm).degree > 0:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """unit * product(factor^multiplicity); factors monic irreducible,
    sorted by degree then by coefficient sequence, high degree first."""

    unit: FFElement
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self) -> Polynomial:
        field = self.unit.field
        out = Polynomial.constant(field, self.unit)
        for fac, mult in self.factors:
            for _ in range(mult):
                out = out * fac
        return out

    def linear_roots(self) -> list[tuple[FFElement, int]]:
        """(root, multiplicity) for each linear factor, in factor order."""
        out = []
        for fac, mult in self.factors:
            if fac.degree == 1:
                out.append((-fac.coeffs[0], mult))
        return out

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def __str__(self) -> str:
        field = self.unit.field
        parts = []
        if self.unit != field.one() or not self.factors:
            parts.append(str(self.unit))
        for fac, mult in self.factors:
            head = f"({fac})"
            parts.append(head if mult == 1 else f"{head}^{mult}")
        return "".join(parts)


def _poly_sort_key(f: Polynomial) -> tuple[int, tuple[int, ...]]:
    idx = f.field.index
    return (f.degree, tuple(idx(c) for c in reversed(f.coeffs)))


def factor(f: Polynomial) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicity."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading_coeff()
    if f.degree == 0:
        return Factorization(unit=unit, factors=())
    g = f.monic()
    pairs: list[tuple[Polynomial, int]] = []
    while g.degree > 0:
        for h in _lowest_degree_factors(g):
            mult = 0
            while True:
                q, rem = divmod(g, h)
                if not rem.is_zero():
                    break
                g = q
                mult += 1
            pairs.append((h, mult))
    pairs.sort(key=lambda pair: _poly_sort_key(pair[0]))
    return Factorization(unit=unit, factors=tuple(pairs))


def _lowest_degree_factors(g: Polynomial) -> list[Polynomial]:
    # distinct-degree sieve: gcd(g, x^(q^k) - x) collects the distinct factors
    # of degree dividing k, so scanning k upward makes every hit degree k
    F = g.field
    x = Polynomial.x(F)
    r = x % g
    k = 0
    while k < g.degree // 2:
        k += 1
        r = poly_powmod(r, F.order, g)
        s = gcd(r - x, g)
        if s.degree > 0:
            return _equal_degree_split(s, k)
    return [g]  # no factor of degree <= deg/2 means g is irreducible


def _equal_degree_split(s: Polynomial, k: int) -> list[Polynomial]:
    # s is a product of distinct monic irreducibles g_i of degree k.  For u in
    # F_q[x], t = u + u^q + ... + u^(q^(k-1)) mod s is the constant Tr(u(root
    # of g_i)) mod each g_i, so gcd(h, t - c) over every c in F_q partitions a
    # part h.  Some u = x^j, 0 < j < deg s, separates any two g_i: else every
    # u of degree < deg s would have equal traces, yet by CRT one such u is
    # 0 mod one g_i and of nonzero trace mod the other.
    F = s.field
    parts = [s]
    u = Polynomial.constant(F, 1)
    while any(h.degree > k for h in parts):
        u = u * Polynomial.x(F) % s
        t = w = u
        for _ in range(k - 1):
            w = poly_powmod(w, F.order, s)
            t = t + w
        split = [[h] if h.degree == k else
                 [gcd(h, t - Polynomial.constant(F, c)) for c in F.elements()] for h in parts]
        parts = [g for gs in split for g in gs if g.degree > 0]
    return parts
