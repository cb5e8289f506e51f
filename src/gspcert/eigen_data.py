"""Hecke eigenvalue datasets, their file format and mod-p Frobenius data.

The dataset file is line oriented: header lines `weight N`, `level N`,
`defining_poly c0 c1 ...` (integer coefficients, constant first) and
`assumptions flag ...`, then one `eigenvalue <index> <coefficients...>`
line per entry, the coefficients being the integer polynomial in alpha
(a single integer for a constant).  Blank lines and text after `#` are
ignored.

A dataset carries integral eigenvalue expressions in the defining root
alpha of a monic integer polynomial E (degree-0 expressions at desk scale).
The embedding roots are the simple roots of E mod p: the roots of
gcd(E, x^p - x) at which E' does not vanish, so E is never factored.
Specialization checks E(r) = 0 and E'(r) != 0 at the chosen root r and
evaluates every expression there.  From the residual eigenvalues a_q,
a_{q^2} the spin characteristic polynomial of Frobenius at q is

    x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2 - a_q q^(2k-3) x + q^(4k-6)

with every prime power q^e computed mod p; its roots pair as r <-> nu/r for
the similitude nu = q^(2k-3), which the factorizer and record share.
Residues are ints in [0, p) and polynomials the low-first int tuples of
polynomial's F_p kernel, from the embedding roots to the records, which are
NamedTuples.  Input is refused at three doors: ingest, which reads only a
regular file and names the line of a malformed one, EigenformDataset's
table checks, through which ingest builds and certify reaches specialize,
and embedding_roots, which the CLI calls; specialize returns the residues
as a dict keyed by index, and hecke_charpoly takes the a_q, a_{q^2} read
from it as they are.
"""
from __future__ import annotations

import hashlib
import os
from itertools import islice
from math import isqrt
from typing import NamedTuple, Sequence

from .polynomial import Factorization, FpPoly, fp_add, fp_gcd, fp_monic, fp_powmod
from .polynomial import check_prime, is_prime
from .polynomial import fp_hecke_factorization as factor
from .polynomial import fp_projective_order as projective_order

KNOWN_ASSUMPTIONS = ("not_maass_spezialform", "conductor_one")

# embedding_roots takes x^p mod E by squaring, about deg(E)^2 log p steps,
# and scans F_p for the roots of s = gcd(E, x^p - x), evaluating s at each
# element until it has deg s roots: up to deg s x p steps.  At degree 128 on
# a 2-CPU Intel Xeon x86-64 host: one root, at p - 1, so that the scan covers
# F_p, took 0.2 ms at p = 7, 29 ms at p = 10007 and 0.13 s at p = 299983 (best
# of 3); 128 roots at the top of F_p took 0.12 s at p = 10007 and 3.7-5.0 s at
# p = 299983 (single runs).  Eigenvalue fields of genus-2 forms at desk scale
# are far smaller (the paper's is cubic), so the cap bounds a dataset's size
# and the time its embedding roots take; a larger E is refused.
MAX_DEFINING_DEGREE = 128


def _check_degree(deg: int) -> None:
    if deg > MAX_DEFINING_DEGREE:
        raise ValueError(
            f"defining polynomial has degree {deg}, above the supported {MAX_DEFINING_DEGREE}")


def _eigenvalue_base(index: int) -> int:
    """The prime q with index in {q, q^2}; raises for anything else.  The
    square root is tried first, so that q^2 is not refused as too large to
    test for primality when q is not."""
    r = isqrt(max(index, 0))
    if r >= 2 and r * r == index and is_prime(r):
        return r
    if index >= 2 and is_prime(index):
        return index
    raise ValueError(f"eigenvalue index {index} is neither a prime nor a prime square")


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
        if not (isinstance(eigenvalues, dict) and isinstance(assumptions, frozenset)):
            raise ValueError("eigenvalues must be a dict and assumptions a frozenset")
        # type() is int, not isinstance(): a bool would read True in the digest
        if not all(isinstance(t, tuple) and all(type(c) is int for c in t)
                   for t in ((weight, level, *eigenvalues), defining_poly, *eigenvalues.values())):
            raise ValueError("weight, level, indices and coefficients must be ints, in tuples")
        if weight < 2:
            raise ValueError(f"weight {weight} out of range")
        if level != 1:
            raise ValueError(f"only level 1 is supported, got {level}")
        if len(defining_poly) < 2 or defining_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        _check_degree(deg := len(defining_poly) - 1)
        if not eigenvalues:
            raise ValueError("eigenvalue table is empty: no Frobenius data")
        primes = set()
        for index, expr in eigenvalues.items():
            primes.add(_eigenvalue_base(index))
            if not 1 <= len(expr) <= deg:
                raise ValueError(f"eigenvalue {index}: expression needs 1 to {deg} "
                                 f"coefficients, got {len(expr)}")
        for q in sorted(primes):
            for needed in (q, q * q):
                if needed not in eigenvalues:
                    raise ValueError(
                        f"incomplete pair for prime {q}: eigenvalue index {needed} is missing"
                    )
        unknown = assumptions - set(KNOWN_ASSUMPTIONS)
        if unknown:
            raise ValueError(f"unknown assumption flags: {sorted(unknown, key=str)}")
        return super().__new__(cls, weight, level, defining_poly, eigenvalues, assumptions)

    @classmethod
    def _make(cls, iterable) -> EigenformDataset:
        # _replace builds through _make: validate there too
        return cls(*iterable)

    def primes(self) -> list[int]:
        """The indices q with q^2 also an index, with no primality test: on a
        validated table, each prime q has q^2 beside it and no q^2 has q^4."""
        return sorted(i for i in self.eigenvalues if i * i in self.eigenvalues)

    def digest(self) -> str:
        """Stable identity of the dataset contents: the sha256 hex of
        "weight=K;level=N;E=c0,c1,...;", then "a[i]=c0,...;" for each index
        in ascending order and "assume=FLAG;" for each flag in sorted order,
        hashed in one call."""
        ev = self.eigenvalues
        text = "".join([
            f"weight={self.weight};level={self.level};E={','.join(map(str, self.defining_poly))};",
            *(f"a[{i}]={','.join(map(str, ev[i]))};" for i in sorted(ev)),
            *(f"assume={flag};" for flag in sorted(self.assumptions)),
        ])
        return hashlib.sha256(text.encode()).hexdigest()


class DatasetError(ValueError):
    """Raised when a dataset file cannot be parsed or fails validation."""


def _dataset_error(path: str, lineno: int | None, message: str) -> DatasetError:
    where = f"{path}, line {lineno}" if lineno is not None else str(path)
    return DatasetError(f"{where}: {message}")


def _parse_int(token: str, path: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _dataset_error(path, lineno, f"{what} must be an integer, got {token!r}") from None


def ingest(path: str | os.PathLike[str]) -> EigenformDataset:
    """Parse a dataset file; raise DatasetError with line diagnostics."""
    path = str(path)
    # a regular file only: reading a FIFO blocks until a writer comes; isfile
    # is False for a path holding a NUL, which open() refuses with ValueError
    if not os.path.isfile(path):
        raise DatasetError(f"no such dataset file: {path}")
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:  # unreadable
        raise DatasetError(f"{path}: {exc.strerror or exc}") from exc

    header: dict[str, object] = {}  # weight, level and defining_poly
    assumptions: list[str] = []
    eigenvalues: dict[int, tuple[int, ...]] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):  # not at \f or \u2028
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        if key == "weight" or key == "level":
            if key in header:
                raise _dataset_error(path, lineno, f"duplicate {key}")
            if len(rest) != 1:
                raise _dataset_error(path, lineno, f"{key} takes exactly one integer")
            header[key] = _parse_int(rest[0], path, lineno, key)
        elif key == "defining_poly":
            if key in header:
                raise _dataset_error(path, lineno, "duplicate defining_poly")
            if len(rest) < 2:
                raise _dataset_error(
                    path, lineno, "defining_poly needs at least two coefficients"
                )
            header[key] = tuple(_parse_int(tok, path, lineno, "coefficient") for tok in rest)
        elif key == "assumptions":
            assumptions.extend(rest)
        elif key == "eigenvalue":
            if len(rest) < 2:
                raise _dataset_error(
                    path, lineno, "eigenvalue needs an index and at least one coefficient"
                )
            index = _parse_int(rest[0], path, lineno, "eigenvalue index")
            if index in eigenvalues:
                raise _dataset_error(path, lineno, f"duplicate eigenvalue index {index}")
            eigenvalues[index] = tuple(
                _parse_int(tok, path, lineno, "coefficient") for tok in rest[1:]
            )
        else:
            raise _dataset_error(path, lineno, f"unknown directive {key!r}")

    for name in ("weight", "level", "defining_poly"):
        if name not in header:
            raise _dataset_error(path, None, f"missing required field {name!r}")

    try:
        return EigenformDataset(
            **header, eigenvalues=eigenvalues, assumptions=frozenset(assumptions)
        )
    except ValueError as exc:
        raise _dataset_error(path, None, str(exc)) from exc


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
    """An embedding root: an int in [0, p) with .lift(), for perfbench's LibWorkload.setup."""

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
    factors (x - r sorted by -r mod p: 0 first, the rest descending).
    Before any work, check_prime refuses p and _check_degree a large E."""
    check_prime(p)
    if not defining_poly:
        raise ValueError("E has no coefficients")
    _check_degree(len(defining_poly) - 1)
    if not all(type(c) is int for c in defining_poly):
        raise ValueError("E's coefficients must be ints")
    if defining_poly[-1] % p == 0:
        raise ValueError(f"leading coefficient of E vanishes mod {p}")
    e = fp_monic(tuple(c % p for c in defining_poly), p)
    s = fp_gcd(fp_add(fp_powmod((0, 1), p, e, p), (0, p - 1), p), e, p)
    # s splits into distinct linear factors: scan F_p until deg s roots are in
    roots = list(islice((r for r in range(p) if not _horner(s, r, p)), len(s) - 1))
    if len(roots) < len(s) - 1:
        raise RuntimeError(f"{s} is not a product of distinct linear factors")
    de = _derivative(e)
    return [Root(r) for r in sorted(roots, key=lambda r: -r % p) if _horner(de, r, p)]


def specialize(ds: EigenformDataset, p: int, root: int) -> dict[int, int]:
    """Evaluate every eigenvalue expression at the chosen residual root,
    an int in [0, p); a root from embedding_roots is taken as it is.
    Returns {index: residue in [0, p)}, the eigenvalues pushed into F_p
    through the embedding alpha -> root, with the indices of ds.

    Refuses a root that is not an int in [0, p) and roots that are absent
    mod p or non-simple (a repeated root changes the residue map; extending
    scalars is out of scope); p is a prime that supported_table accepted.
    """
    if type(root) not in (int, Root):
        raise ValueError(f"root must be an int in [0, {p}), got {root!r}")
    root = int(root)
    if not 0 <= root < p:
        raise ValueError(f"root must lie in [0, {p}), got {root}")
    if _horner(ds.defining_poly, root, p):
        raise ValueError(f"alpha = {root} is not a root of E mod {p}")
    if not _horner(_derivative(ds.defining_poly), root, p):
        raise ValueError(
            f"alpha = {root} is a repeated root of E mod {p}; refusing the ramified embedding"
        )
    return {index: _horner(expr, root, p) for index, expr in ds.eigenvalues.items()}


def hecke_quartic(a1: int, a2: int, q: int, k: int, p: int) -> FpPoly:
    """The degree-4 spin polynomial over F_p built from a_q, a_{q^2}, q,
    and the weight k, as a monic low-first int tuple:

        x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2
            - a_q q^(2k-3) x + q^(4k-6)
    """
    nu = pow(q, 2 * k - 3, p)
    c2 = (a1 * a1 - a2 - pow(q, 2 * k - 4, p)) % p
    return (nu * nu % p, -a1 * nu % p, c2, -a1 % p, 1)


def hecke_charpoly(a1: int, a2: int, q: int, k: int, p: int) -> FrobeniusRecord:
    """Spin characteristic polynomial of Frobenius at q, with its
    factorization, squarefreeness, projective order, and similitude, from
    the residues a1 = a_q and a2 = a_{q^2} in [0, p), a prime q other than p
    and the weight k, as build_records passes them to hecke_quartic.

    The projective order (squarefree charpolys only) is the order of the
    companion matrix in PGL(4, p), the least n with x^n constant mod f, read
    off the factorization (polynomial.fp_projective_order); no matrix is
    built.  One similitude nu = q^(2k-3) = q q^(2k-4), read back off f's x^2
    coefficient, goes to the record and fp_hecke_factorization (p = 3 mod 4)."""
    f = hecke_quartic(a1, a2, q, k, p)
    nu = q * (a1 * a1 - a2 - f[2]) % p
    fac = factor(f, nu, p)
    sqfree = fac.is_squarefree()
    return FrobeniusRecord(q, f, fac, sqfree, projective_order(fac) if sqfree else None, nu)

