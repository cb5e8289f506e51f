"""Hecke eigenvalue datasets and their mod-p Frobenius data.

A dataset carries integral eigenvalue expressions in the defining root
alpha of a monic integer polynomial E (degree-0 expressions at desk scale);
specialization reduces E mod p, picks a simple root, and evaluates every
expression there.  From the residual eigenvalues a_q, a_{q^2} the spin
characteristic polynomial of Frobenius at q is

    x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2 - a_q q^(2k-3) x + q^(4k-6)

with every prime power q^e computed mod p after reducing e mod p-1.
Residues are ints in [0, p) and polynomials the low-first int tuples of
polynomial's F_p kernel, from the embedding roots to the records.  The
records are NamedTuples.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from .finite_field import is_prime
from .polynomial import Factorization, FpPoly
from .polynomial import fp_factorization as factor
from .polynomial import fp_projective_order as projective_order

KNOWN_ASSUMPTIONS = ("not_maass_spezialform", "conductor_one")

# Factoring E mod p costs about deg(E)^3: some 0.4 s at degree 128 over F_7.
# Eigenvalue fields of genus-2 forms at desk scale are far smaller (the
# paper's is cubic), so a larger E is refused rather than factored.
MAX_DEFINING_DEGREE = 128


def _eigenvalue_base(index: int) -> int:
    """The prime q with index in {q, q^2}; raises for anything else."""
    if index >= 2 and is_prime(index):
        return index
    r = isqrt(max(index, 0))
    if r >= 2 and r * r == index and is_prime(r):
        return r
    raise ValueError(f"eigenvalue index {index} is neither a prime nor a prime square")


def _primes(indices: Iterable[int]) -> list[int]:
    """The primes q with a_q or a_{q^2} among the eigenvalue indices."""
    return sorted({_eigenvalue_base(i) for i in indices})


class _EigenformFields(NamedTuple):
    weight: int
    level: int
    defining_poly: tuple[int, ...]
    eigenvalues: dict[int, tuple[int, ...]]
    assumptions: frozenset[str] = frozenset()


class EigenformDataset(_EigenformFields):
    """Provider-declared Hecke data for one genus-2 eigenform.

    defining_poly: integer coefficients of the monic field polynomial E,
    constant term first.  eigenvalues maps the Hecke index (q or q^2) to
    the integer coefficients of the eigenvalue's expression in alpha,
    constant term first, of degree < deg E.  Construction, _replace
    included, validates the fields and raises ValueError.
    """

    __slots__ = ()

    def __new__(
        cls,
        weight: int,
        level: int,
        defining_poly: tuple[int, ...],
        eigenvalues: dict[int, tuple[int, ...]],
        assumptions: frozenset[str] = frozenset(),
    ) -> EigenformDataset:
        if weight < 2:
            raise ValueError(f"weight {weight} out of range")
        if level != 1:
            raise ValueError(f"only level 1 is supported, got {level}")
        if len(defining_poly) < 2 or defining_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        if len(defining_poly) - 1 > MAX_DEFINING_DEGREE:
            raise ValueError(
                f"defining polynomial has degree {len(defining_poly) - 1}, "
                f"above the supported {MAX_DEFINING_DEGREE}"
            )
        if not eigenvalues:
            raise ValueError("eigenvalue table is empty: no Frobenius data")
        deg = len(defining_poly) - 1
        primes = set()
        for index, expr in eigenvalues.items():
            primes.add(_eigenvalue_base(index))
            if not 1 <= len(expr) <= deg:
                raise ValueError(
                    f"eigenvalue {index}: expression degree must be < {deg}"
                )
        for q in sorted(primes):
            for needed in (q, q * q):
                if needed not in eigenvalues:
                    raise ValueError(
                        f"incomplete pair for prime {q}: eigenvalue index {needed} is missing"
                    )
        unknown = assumptions - set(KNOWN_ASSUMPTIONS)
        if unknown:
            raise ValueError(f"unknown assumption flags: {sorted(unknown)}")
        return super().__new__(cls, weight, level, defining_poly, eigenvalues, assumptions)

    @classmethod
    def _make(cls, iterable) -> EigenformDataset:
        # _replace builds through _make: validate there too
        return cls(*iterable)

    def primes(self) -> list[int]:
        return _primes(self.eigenvalues)

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


class ResidualDataset(NamedTuple):
    """Eigenvalues pushed into F_p through one embedding alpha -> root,
    as ints in [0, p)."""

    p: int
    root: int
    weight: int
    level: int
    eigenvalues: dict[int, int]
    assumptions: frozenset[str]

    def primes(self) -> list[int]:
        return _primes(self.eigenvalues)


class FrobeniusRecord(NamedTuple):
    """Everything the certifier consumes about one Frobenius class; the
    charpoly is a low-first int tuple and the similitude an int mod p."""

    q: int
    charpoly: FpPoly
    factorization: Factorization
    squarefree: bool
    projective_order: int | None
    similitude: int


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
    return factor(tuple(c % p for c in defining_poly), p)


class Root(int):
    """An embedding root: an int in [0, p) that keeps .lift() for older callers."""

    __slots__ = ()
    lift = int.__int__


def embedding_roots(defining_poly: Sequence[int], p: int) -> list[Root]:
    """Simple roots of E mod p as ints in [0, p), in the deterministic
    factor order: the linear roots of multiplicity 1 in
    residual_roots(defining_poly, p)."""
    fac = residual_roots(defining_poly, p)
    return [Root(r) for r, mult in fac.linear_roots() if mult == 1]


def specialize(ds: EigenformDataset, p: int, root: int) -> ResidualDataset:
    """Evaluate every eigenvalue expression at the chosen residual root,
    an int in [0, p); a root from embedding_roots is taken as it is.

    Refuses roots that are absent mod p or non-simple (a repeated root
    changes the residue map; extending scalars is out of scope).
    """
    if type(root) not in (int, Root):
        raise ValueError(f"root must be an int in [0, {p}), got {root!r}")
    root = int(root)
    if not 0 <= root < p:
        raise ValueError(f"root must lie in [0, {p}), got {root}")
    mult = dict(residual_roots(ds.defining_poly, p).linear_roots()).get(root, 0)
    if mult == 0:
        raise ValueError(f"alpha = {root} is not a root of E mod {p}")
    if mult > 1:
        raise ValueError(
            f"alpha = {root} is a repeated root of E mod {p}; refusing the ramified embedding"
        )
    values: dict[int, int] = {}
    for index, expr in ds.eigenvalues.items():
        acc = 0
        for c in reversed(expr):
            acc = (acc * root + c) % p
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


def hecke_quartic(a1: int, a2: int, q: int, k: int, p: int) -> FpPoly:
    """The degree-4 spin polynomial over F_p built from a_q, a_{q^2}, q,
    and the weight k, as a monic low-first int tuple:

        x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2
            - a_q q^(2k-3) x + q^(4k-6)
    """
    nu = _power_mod(q, 2 * k - 3, p)
    c2 = (a1 * a1 - a2 - _power_mod(q, 2 * k - 4, p)) % p
    return (nu * nu % p, -a1 * nu % p, c2, -a1 % p, 1)


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
    f = hecke_quartic(rd.eigenvalues[q], rd.eigenvalues[q * q], q, k, p)
    fac = factor(f, p)
    sqfree = fac.is_squarefree()
    return FrobeniusRecord(
        q=q,
        charpoly=f,
        factorization=fac,
        squarefree=sqfree,
        projective_order=projective_order(f, p) if sqfree else None,
        similitude=_power_mod(q, 2 * k - 3, p),
    )

