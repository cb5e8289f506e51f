"""Hecke eigenvalue datasets and their mod-p Frobenius data.

A dataset carries integral eigenvalue expressions in the defining root
alpha of a monic integer polynomial E (degree-0 expressions at desk scale).
The embedding roots are the simple roots of E mod p: the roots of
gcd(E, x^p - x) at which E' does not vanish, so E is never factored.
Specialization checks E(r) = 0 and E'(r) != 0 at the chosen root r and
evaluates every expression there.  From the residual eigenvalues a_q,
a_{q^2} the spin characteristic polynomial of Frobenius at q is

    x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2 - a_q q^(2k-3) x + q^(4k-6)

with every prime power q^e computed mod p after reducing e mod p-1.
Residues are ints in [0, p) and polynomials the low-first int tuples of
polynomial's F_p kernel, from the embedding roots to the records.  The
records are NamedTuples.
"""
from __future__ import annotations

import hashlib
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from .finite_field import is_prime
from .polynomial import Factorization, FpPoly, _roots, fp_add, fp_gcd, fp_monic, fp_powmod
from .polynomial import fp_hecke_factorization as factor
from .polynomial import fp_projective_order as projective_order

KNOWN_ASSUMPTIONS = ("not_maass_spezialform", "conductor_one")

# embedding_roots takes x^p mod E by squaring, about deg(E)^2 log p steps,
# and scans F_p for the roots of gcd(E, x^p - x), linear in p.  At degree 128
# it measured 0.2 ms at p = 7, 30 ms at p = 10007 and 0.6 s at p = 1000003
# (single runs, 2-CPU x86-64 host).  Eigenvalue fields of genus-2 forms at
# desk scale are far smaller (the paper's is cubic), so the cap bounds a
# dataset's size and the time its embedding roots take; a larger E is refused.
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


class Root(int):
    """An embedding root: an int in [0, p) that keeps .lift() for older callers."""

    __slots__ = ()
    lift = int.__int__


def _horner(coeffs: Sequence[int], r: int, p: int) -> int:
    """The polynomial with these low-first coefficients at r, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % p
    return acc


def _derivative(coeffs: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def embedding_roots(defining_poly: Sequence[int], p: int) -> list[Root]:
    """Simple roots of E mod p as ints in [0, p): the roots of gcd(E mod p,
    x^p - x) at which E' does not vanish, in the order of E's linear
    factors (x - r sorted by -r mod p: 0 first, the rest descending)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not defining_poly:
        raise ValueError("E has no coefficients")
    if defining_poly[-1] % p == 0:
        raise ValueError(f"leading coefficient of E vanishes mod {p}")
    e = fp_monic(tuple(c % p for c in defining_poly), p)
    s = fp_gcd(fp_add(fp_powmod((0, 1), p, e, p), (0, p - 1), p), e, p)
    de = _derivative(e)
    roots = _roots(s, p) if len(s) > 1 else []
    return [Root(r) for r in sorted(roots, key=lambda r: -r % p) if _horner(de, r, p)]


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if _horner(ds.defining_poly, root, p):
        raise ValueError(f"alpha = {root} is not a root of E mod {p}")
    if not _horner(_derivative(ds.defining_poly), root, p):
        raise ValueError(
            f"alpha = {root} is a repeated root of E mod {p}; refusing the ramified embedding"
        )
    return ResidualDataset(
        p=p,
        root=root,
        weight=ds.weight,
        level=ds.level,
        eigenvalues={index: _horner(expr, root, p) for index, expr in ds.eigenvalues.items()},
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
    x^n constant (polynomial.fp_projective_order); no matrix is built.
    The factorization (polynomial.fp_hecke_factorization) needs p odd."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == rd.p:
        raise ValueError(f"q = p = {q} carries no Frobenius characteristic polynomial")
    if q not in rd.eigenvalues or q * q not in rd.eigenvalues:
        raise ValueError(f"missing eigenvalues a_{q} / a_{q*q}")
    p, a1, a2 = rd.p, rd.eigenvalues[q], rd.eigenvalues[q * q]
    f = hecke_quartic(a1, a2, q, rd.weight, p)
    fac = factor(f, p)
    sqfree = fac.is_squarefree()
    return FrobeniusRecord(
        q=q,
        charpoly=f,
        factorization=fac,
        squarefree=sqfree,
        projective_order=projective_order(f, p) if sqfree else None,
        # nu = q^(2k-3) = q * q^(2k-4), read back off f's x^2 coefficient
        similitude=q * (a1 * a1 - a2 - f[2]) % p,
    )

