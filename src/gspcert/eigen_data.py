"""Hecke eigenvalue datasets and their mod-p Frobenius data.

A dataset carries integral eigenvalue expressions in the defining root
alpha of a monic integer polynomial E (degree-0 expressions at desk scale);
specialization reduces E mod p, picks a simple root, and evaluates every
expression there.  From the residual eigenvalues a_q, a_{q^2} the spin
characteristic polynomial of Frobenius at q is

    x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2 - a_q q^(2k-3) x + q^(4k-6)

with every prime power q^e computed mod p after reducing e mod p-1.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .finite_field import FFElement, is_prime, make_field
from .polynomial import Factorization, Polynomial, factor
from .polynomial import fp_projective_order as projective_order

KNOWN_ASSUMPTIONS = ("not_maass_spezialform", "conductor_one")


def _eigenvalue_base(index: int) -> int:
    """The prime q with index in {q, q^2}; raises for anything else."""
    if index >= 2 and is_prime(index):
        return index
    r = isqrt(max(index, 0))
    if r >= 2 and r * r == index and is_prime(r):
        return r
    raise ValueError(f"eigenvalue index {index} is neither a prime nor a prime square")


@dataclass(frozen=True)
class EigenformDataset:
    """Provider-declared Hecke data for one genus-2 eigenform.

    defining_poly: integer coefficients of the monic field polynomial E,
    constant term first.  eigenvalues maps the Hecke index (q or q^2) to
    the integer coefficients of the eigenvalue's expression in alpha,
    constant term first, of degree < deg E.
    """

    weight: int
    level: int
    defining_poly: tuple[int, ...]
    eigenvalues: dict[int, tuple[int, ...]]
    assumptions: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.weight < 2:
            raise ValueError(f"weight {self.weight} out of range")
        if self.level != 1:
            raise ValueError(f"only level 1 is supported, got {self.level}")
        if len(self.defining_poly) < 2 or self.defining_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        if not self.eigenvalues:
            raise ValueError("eigenvalue table is empty: no Frobenius data")
        deg = len(self.defining_poly) - 1
        primes = set()
        for index, expr in self.eigenvalues.items():
            primes.add(_eigenvalue_base(index))
            if not 1 <= len(expr) <= deg:
                raise ValueError(
                    f"eigenvalue {index}: expression degree must be < {deg}"
                )
        for q in sorted(primes):
            for needed in (q, q * q):
                if needed not in self.eigenvalues:
                    raise ValueError(
                        f"incomplete pair for prime {q}: eigenvalue index {needed} is missing"
                    )
        unknown = self.assumptions - set(KNOWN_ASSUMPTIONS)
        if unknown:
            raise ValueError(f"unknown assumption flags: {sorted(unknown)}")

    def primes(self) -> list[int]:
        return sorted({_eigenvalue_base(i) for i in self.eigenvalues})

    def digest(self) -> str:
        """Stable identity of the dataset contents (sha256 hex)."""
        h = hashlib.sha256()
        h.update(f"weight={self.weight};level={self.level};".encode())
        h.update(("E=" + ",".join(str(c) for c in self.defining_poly) + ";").encode())
        for index in sorted(self.eigenvalues):
            expr = ",".join(str(c) for c in self.eigenvalues[index])
            h.update(f"a[{index}]={expr};".encode())
        for flag in sorted(self.assumptions):
            h.update(f"assume={flag};".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ResidualDataset:
    """Eigenvalues pushed into F_p through one embedding alpha -> root."""

    p: int
    root: FFElement
    weight: int
    level: int
    eigenvalues: dict[int, FFElement]
    assumptions: frozenset[str]

    def primes(self) -> list[int]:
        return sorted({_eigenvalue_base(i) for i in self.eigenvalues})


@dataclass(frozen=True)
class FrobeniusRecord:
    """Everything the certifier consumes about one Frobenius class."""

    q: int
    charpoly: Polynomial
    factorization: Factorization
    squarefree: bool
    projective_order: int | None
    similitude: FFElement


def residual_roots(defining_poly: Sequence[int], p: int) -> Factorization:
    """Factorization of the defining polynomial reduced mod p, computed
    once per (defining_poly, p) and shared by specialize and the CLI."""
    return _residual_roots(tuple(defining_poly), p)


@lru_cache(maxsize=64)
def _residual_roots(defining_poly: tuple[int, ...], p: int) -> Factorization:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if defining_poly[-1] % p == 0:
        raise ValueError(f"leading coefficient of E vanishes mod {p}")
    F = make_field(p, 1)
    return factor(Polynomial.from_ints(F, defining_poly))


def embedding_roots(defining_poly: Sequence[int], p: int) -> list[FFElement]:
    """Simple roots of E mod p, in the deterministic factor order."""
    fac = residual_roots(defining_poly, p)
    return [r for r, mult in fac.linear_roots() if mult == 1]


def specialize(ds: EigenformDataset, p: int, root: int | FFElement) -> ResidualDataset:
    """Evaluate every eigenvalue expression at the chosen residual root.

    Refuses roots that are absent mod p or non-simple (a repeated root
    changes the residue map; extending scalars is out of scope).
    """
    F = make_field(p, 1)
    if isinstance(root, int):
        if not 0 <= root < p:
            raise ValueError(f"root must lie in [0, {p}), got {root}")
        root = F.element(root)
    if root.field != F:
        raise ValueError(f"root must live in F_{p}")
    fac = residual_roots(ds.defining_poly, p)
    simple = {r.coeffs[0] for r, mult in fac.linear_roots() if mult == 1}
    repeated = {r.coeffs[0] for r, mult in fac.linear_roots() if mult > 1}
    if root.coeffs[0] in repeated:
        raise ValueError(
            f"alpha = {root} is a repeated root of E mod {p}; refusing the ramified embedding"
        )
    if root.coeffs[0] not in simple:
        raise ValueError(f"alpha = {root} is not a root of E mod {p}")
    values: dict[int, FFElement] = {}
    for index, expr in ds.eigenvalues.items():
        acc = F.zero()
        for c in reversed(expr):
            acc = acc * root + F.element(c)
        values[index] = acc
    return ResidualDataset(
        p=p,
        root=root,
        weight=ds.weight,
        level=ds.level,
        eigenvalues=values,
        assumptions=ds.assumptions,
    )


def _power_mod(q: int, e: int, p: int) -> int:
    # q^e mod p with the exponent reduced mod p-1 first (q is prime to p),
    # keeping intermediates word-sized for any plausible weight
    r = e % (p - 1)
    return pow(q % p, r, p)


def hecke_quartic(a1: FFElement, a2: FFElement, q: int, k: int) -> Polynomial:
    """The degree-4 spin polynomial built from a_q, a_{q^2}, q, and the
    weight k:

        x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2
            - a_q q^(2k-3) x + q^(4k-6)
    """
    F = a1.field
    p = F.p
    nu = F.element(_power_mod(q, 2 * k - 3, p))
    c3 = -a1
    c2 = a1 * a1 - a2 - F.element(_power_mod(q, 2 * k - 4, p))
    c1 = -a1 * nu
    c0 = nu * nu
    return Polynomial(F, (c0, c1, c2, c3, F.one()))


def hecke_charpoly(rd: ResidualDataset, q: int) -> FrobeniusRecord:
    """Spin characteristic polynomial of Frobenius at q, with its
    factorization, squarefreeness, projective order, and similitude.

    The projective order (squarefree charpolys only) is the order of the
    companion matrix in PGL(4, p), read off F_p[x]/(f) as the least n with
    x^n constant (polynomial.fp_projective_order); no matrix is built."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == rd.p:
        raise ValueError(f"q = p = {q} carries no Frobenius characteristic polynomial")
    if q not in rd.eigenvalues or q * q not in rd.eigenvalues:
        raise ValueError(f"missing eigenvalues a_{q} / a_{q*q}")
    p, k = rd.p, rd.weight
    F = rd.root.field
    nu = F.element(_power_mod(q, 2 * k - 3, p))
    f = hecke_quartic(rd.eigenvalues[q], rd.eigenvalues[q * q], q, k)
    fac = factor(f)
    sqfree = fac.is_squarefree()
    order = projective_order(tuple(c.coeffs[0] for c in f.coeffs), p) if sqfree else None
    return FrobeniusRecord(
        q=q,
        charpoly=f,
        factorization=fac,
        squarefree=sqfree,
        projective_order=order,
        similitude=nu,
    )


def validate_similitude_shape(f: Polynomial, q: int, k: int, p: int) -> bool:
    """Check the two symmetry identities a similitude-shaped quartic obeys:
    c1 = c3 * nu and c0 = nu^2 for nu = q^(2k-3)."""
    if f.degree != 4 or not f.is_monic():
        raise ValueError("expected a monic quartic")
    F = f.field
    nu = F.element(_power_mod(q, 2 * k - 3, p))
    c0, c1, _, c3 = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    return c1 == c3 * nu and c0 == nu * nu
