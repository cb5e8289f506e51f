"""Field elements: F_p and its extensions F_{p^2}, F_{p^4} as objects.

The certificate runs on ints mod p and never builds these; they are not
part of gspcert.  The tests' reference routes (oracles) use them to
cross-check the certificate over the splitting field.
An element is a dense coefficient vector over the canonical modulus of its
field, found by Rabin's test (fp_is_irreducible, on gspcert's F_p kernel)
and reduced eagerly after every operation; everything is plain integer
arithmetic.  This module sits under every other reference module, so it
also holds the integer factoring (factorize) that Rabin's test and the
order computations of symplectic and oracles share.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from gspcert.polynomial import FpPoly, fp_add, fp_gcd, fp_mod, fp_powmod, is_prime

SUPPORTED_DEGREES = (1, 2, 4)


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


def fp_is_irreducible(f: FpPoly, p: int) -> bool:
    """Rabin's test for monic f of degree n >= 1: x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n."""
    n = len(f) - 1
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    x = fp_mod((0, 1), f, p)
    if fp_powmod(x, p**n, f, p) != x:
        return False
    return all(  # n >= 2 here, so x = (0, 1) and -x = (0, p - 1)
        len(fp_gcd(fp_add(fp_powmod(x, p ** (n // ell), f, p), (0, p - 1), p), f, p)) == 1
        for ell in factorize(n)
    )


def _smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
    # lexicographically smallest monic irreducible, high-degree coefficients
    # compared first; scan order: (c_{d-1}, ..., c_0) ascending
    for high in itertools.product(range(p), repeat=d):
        cand = tuple(reversed(high)) + (1,)
        if fp_is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible of degree {d} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


class FieldSpec:
    """A finite field F_{p^d} with its canonical defining modulus.

    Construct through make_field, which canonicalizes and caches; two calls
    with the same (p, d) return the same object, so fields compare by
    identity.
    """

    def __init__(self, p: int, d: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.d = d
        self.modulus = modulus  # low-degree-first, monic, None for d == 1
        self.order = p**d

    def __repr__(self) -> str:
        if self.d == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.d})"

    # -- element construction ------------------------------------------------

    def element(self, value: int | Sequence[int]) -> FFElement:
        """Coerce an integer (constant) or coefficient vector to an element."""
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.d - 1)
            return FFElement(self, coeffs)
        value = tuple(int(c) % self.p for c in value)
        if len(value) > self.d:
            raise ValueError(f"coefficient vector of length {len(value)} in {self!r}")
        coeffs = value + (0,) * (self.d - len(value))
        return FFElement(self, coeffs)

    def zero(self) -> FFElement:
        return FFElement(self, (0,) * self.d)

    def one(self) -> FFElement:
        return self.element(1)

    def gen(self) -> FFElement:
        """The residue of t, the variable of the defining modulus (d > 1)."""
        if self.d == 1:
            raise ValueError("prime field has no extension generator")
        return FFElement(self, (0, 1) + (0,) * (self.d - 2))

    def elements(self) -> Iterator[FFElement]:
        """All field elements in canonical order (base-p integer encoding)."""
        for i in range(self.order):
            yield self.element_from_index(i)

    def element_from_index(self, i: int) -> FFElement:
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for {self!r}")
        coeffs = []
        for _ in range(self.d):
            coeffs.append(i % self.p)
            i //= self.p
        return FFElement(self, tuple(coeffs))

    def index(self, x: FFElement) -> int:
        """Inverse of element_from_index; total order used for canonical sorts."""
        n = 0
        for c in reversed(x.coeffs):
            n = n * self.p + c
        return n

    # -- internal multiplication support --------------------------------------

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, d = self.p, self.d
        if d == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        m = self.modulus
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * m[j]
            prod[i] = 0
        return tuple(c % p for c in prod[:d])


class FFElement:
    """Immutable element of a FieldSpec: d residues mod p, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other: object) -> FFElement:
        if isinstance(other, FFElement):
            if other.field != self.field:
                raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: FFElement | int) -> FFElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self) -> FFElement:
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other: FFElement | int) -> FFElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return FFElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __rsub__(self, other: int) -> FFElement:
        return self.field.element(other) - self

    def __mul__(self, other: FFElement | int) -> FFElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FFElement(self.field, self.field._mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other: FFElement | int) -> FFElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int) -> FFElement:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def inv(self) -> FFElement:
        if self.is_zero():
            raise ZeroDivisionError(f"inversion of zero in {self.field!r}")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lift(self) -> int:
        """The residue as an integer; requires a prime-field value."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not in the prime field")
        return self.coeffs[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, FFElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.d, self.coeffs))

    def __repr__(self) -> str:
        return f"FFElement({self.field!r}, {self.coeffs})"


@lru_cache(maxsize=None)
def make_field(p: int, d: int) -> FieldSpec:
    """Construct F_{p^d}, selecting the canonical defining modulus.

    The modulus is the lexicographically smallest monic irreducible of
    degree d over F_p, comparing high-degree coefficients first; for
    (p, d) = (7, 2) this is t^2 + 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported extension degree {d} (expected one of {SUPPORTED_DEGREES})")
    if d == 1:
        return FieldSpec(p, 1, None)
    return FieldSpec(p, d, _smallest_irreducible(p, d))
