"""Polynomials with field-element coefficients: the reference type.

Polynomial holds FFElement coefficients over any FieldSpec, so the
reference routes in oracles.py and symplectic.py can compute over F_{p^2}
and F_{p^4} as well as F_p.  The certificate never builds one: it runs on
the int tuples of gspcert.polynomial.  factor, gcd, poly_powmod,
is_squarefree and is_irreducible take a Polynomial over F_p only
(ValueError otherwise) and run on that F_p kernel.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from field_elements import FFElement, FieldSpec
from gspcert.polynomial import (
    Factorization,
    FpPoly,
    fp_factorization,
    fp_gcd,
    fp_is_irreducible,
    fp_monic,
    fp_powmod,
    fp_str,
    fp_trim,
)


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
# entry points over F_p, on the package's kernel


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


def factor(f: Polynomial) -> Factorization:
    """fp_factorization of a Polynomial over F_p."""
    return fp_factorization(_fp(f), f.field.p)
