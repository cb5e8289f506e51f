"""Maximal-subgroup exclusion checks for the residual projective image.

The classification of maximal subgroups of PGSp(4, p) (p >= 7) leaves six
ways the image of a residual Galois representation with surjective
similitude multiplier can fail to be everything: stabilize a line or
hyperplane (reducible), stabilize a rational or conjugate pair of planes
(imprimitive / scalar extension), or land in one of the three exceptional
quotients.  Each check below rules out one route using nothing but the mod-p
Frobenius data; a check that fails proves nothing (the logic is one-sided),
so the only verdicts are LARGE_IMAGE and INCONCLUSIVE.
"""
from __future__ import annotations

from math import gcd as int_gcd
from math import lcm
from typing import NamedTuple, Sequence

from .eigen_data import (
    EigenformDataset,
    FrobeniusRecord,
    ResidualDataset,
    hecke_charpoly,
    specialize,
)
from .finite_field import is_prime, legendre

VERDICT_LARGE_IMAGE = "LARGE_IMAGE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

PASS = "pass"
FAIL = "fail"

# hypotheses the certificate inherits from the construction of the
# residual representation; they are echoed, never verified
STANDING_ASSUMPTIONS = ("formal_reduction_admissible",)


class CheckResult(NamedTuple):
    """Outcome of one exclusion check.

    witnesses lists the Frobenius primes whose data carries the argument;
    data holds the numeric facts a reader needs to replay the check.
    """

    name: str
    status: str
    witnesses: tuple[int, ...]
    justification: str
    data: dict

    @property
    def passed(self) -> bool:
        return self.status == PASS


class ExceptionalTable(NamedTuple):
    """Orders of the exceptional maximal subgroups of PGSp(4, p)."""

    p: int
    entries: tuple[tuple[str, int], ...]


def supported_table(p: int, table: ExceptionalTable | None = None) -> ExceptionalTable:
    """The exceptional table to certify with at p (the built-in one when
    table is None), after checking that the argument applies at p: p prime,
    p >= 5 and p = 3 mod 4, and that a given table is for p and lists
    (name, order) pairs of a str and an int.  Raises ValueError otherwise."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p < 5:
        raise ValueError(f"the certificate needs p >= 5, got p = {p}")
    if p % 4 != 3:
        raise ValueError(f"primitivity argument needs p = 3 mod 4, got p = {p}")
    if table is None:
        return builtin_exceptional_table(p)
    if table.p != p:
        raise ValueError(f"exceptional table is for p = {table.p}, not p = {p}")
    for entry in table.entries:
        if not (
            isinstance(entry, tuple) and len(entry) == 2
            and isinstance(entry[0], str) and type(entry[1]) is int  # not a bool
        ):
            raise ValueError(f"exceptional table entry {entry!r} is not a (str, int) pair")
    return table


def builtin_exceptional_table(p: int) -> ExceptionalTable:
    """The p = 7 table; other primes must supply their own."""
    if p != 7:
        raise ValueError(f"no built-in exceptional-subgroup table for p = {p}")
    return ExceptionalTable(
        p=7,
        entries=(
            ("PGL(2,7)", 336),
            ("2^4.O4^-(2).2", 3840),
            ("A7.2", 5040),
        ),
    )


class Certificate(NamedTuple):
    """Machine-checkable trace of one certification run."""

    weight: int
    level: int
    dataset_digest: str
    defining_poly: tuple[int, ...]
    p: int
    root: int
    residual_eigenvalues: tuple[tuple[int, int], ...]
    records: tuple[FrobeniusRecord, ...]
    checks: tuple[CheckResult, ...]
    assumptions: tuple[str, ...]
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_LARGE_IMAGE


# ---------------------------------------------------------------------------
# the six checks


def check_linear_constituent(records: Sequence[FrobeniusRecord]) -> CheckResult:
    """Exclude a one-dimensional constituent (reducible cases with a line).

    An unramified-outside-p character of conductor one is a power of the
    cyclotomic character, so a linear constituent would force an F_p root
    on every Frobenius characteristic polynomial.  One rootless polynomial
    refutes it; all rootless primes are recorded.
    """
    counts: dict[str, int] = {}
    witnesses = []
    for rec in records:
        n = sum(mult for _, mult in rec.factorization.linear_roots())
        counts[str(rec.q)] = n
        if n == 0:
            witnesses.append(rec.q)
    ok = bool(witnesses)
    if ok:
        just = (
            f"characteristic polynomials at q in {{{', '.join(str(q) for q in witnesses)}}} "
            "have no root in F_p, so no one-dimensional constituent exists; "
            "rules out every reducible case with a linear piece"
        )
    else:
        just = (
            "every characteristic polynomial has a root in F_p, which is "
            "consistent with a one-dimensional constituent; no exclusion"
        )
    return CheckResult(
        name="linear_constituent",
        status=PASS if ok else FAIL,
        witnesses=tuple(witnesses),
        justification=just,
        data={"base_field_root_counts": counts},
    )


def rational_split_exponent(p: int) -> int:
    """2 * lcm(p(p-1), p^2-1, p-1): annihilates every projective element
    order available inside the rational 2+2 stabilizer GL(2) wr S2."""
    return 2 * lcm(p * (p - 1), p * p - 1, p - 1)


def _squarefree_orders(records: Sequence[FrobeniusRecord]) -> dict[int, int]:
    """q -> projective order for each squarefree record, the only records
    whose order is taken; the two order checks read their witnesses here."""
    return {
        rec.q: rec.projective_order
        for rec in records
        if rec.squarefree and rec.projective_order is not None
    }


def check_rational_22_split(records: Sequence[FrobeniusRecord], p: int) -> CheckResult:
    """Exclude the stabilizer of a rational 2+2 plane decomposition.

    Every projective element order in that stabilizer divides E2 =
    rational_split_exponent(p); a squarefree record whose companion has
    projective order not dividing E2 cannot lie in it.
    """
    bound = rational_split_exponent(p)
    orders = _squarefree_orders(records)
    q = min((r for r, o in orders.items() if bound % o), default=None)
    if q is not None:
        just = (
            f"projective Frobenius order {orders[q]} at q = {q} does not divide "
            f"E2 = {bound}, the exponent of the rational plane-pair stabilizer"
        )
    elif orders:
        just = (
            f"every computed projective order divides E2 = {bound}; "
            "consistent with the rational plane-pair stabilizer, no exclusion"
        )
    else:
        just = "no order witnesses available (no squarefree record); no exclusion"
    return CheckResult(
        name="rational_22_split",
        status=FAIL if q is None else PASS,
        witnesses=() if q is None else (q,),
        justification=just,
        data={
            "exponent_bound": bound,
            "projective_orders": {str(r): o for r, o in orders.items()},
        },
    )


def _conjugate_pairings(rec: FrobeniusRecord) -> int | None:
    """Number of ways to write a squarefree quartic f as g * conj(g), with g
    a monic quadratic over F_{p^2} whose constant term lies in F_p and conj
    the Frobenius sigma: x -> x^p on coefficients; None for a cubic factor
    or an irreducible f whose record has no projective order.

    Such a g takes two of the four roots of f, so this counts the pairings
    {a, b} | {c, d} of the roots with sigma{a, b} = {c, d} and ab in F_p.
    The count reads off the F_p factorization:

    - A root r in F_p is fixed by sigma, so the pair holding r meets its
      own image: every pattern with a linear factor counts 0.
    - f irreducible with root r: sigma cycles r, r^p, r^(p^2), r^(p^3), and
      only {r, r^(p^2)} maps onto its complement.  It counts when
      r^(1 + p^2) lies in F_p, which is read off the record's projective
      order n, the least n >= 1 with x^n constant mod f: it counts iff
      n | p^2 + 1.  For x -> r identifies F_p[x]/(f) with F_{p^4}, and
      the m with r^m in F_p^* are the preimage of a subgroup under
      m -> r^m, a subgroup of Z, so they are the multiples of n.  This is
      the same test as r^((p^2 + 1)(p - 1)) = 1, i.e.
      x^((p^2 + 1)(p - 1)) = 1 mod f, as F_p^* is the set of z with
      z^(p - 1) = 1.
    - f = (x^2 - s_1 x + n_1)(x^2 - s_2 x + n_2) with roots u, u^p and
      v, v^p: {u, u^p} is its own image, while {u, v} and {u, v^p} map
      onto their complements and count when uv, resp. uv^p, lies in F_p.
      Since

          (s_1^2 - 2 n_1) n_2 - (s_2^2 - 2 n_2) n_1
              = (u v^p - u^p v)(u v - u^p v^p),

      at least one counts iff the left side vanishes.  Both count iff
      u/u^p = v^p/v = v/v^p, i.e. v^p = -v and then u^p = -u (roots of a
      squarefree f are distinct): s_1 = s_2 = 0.
    - With a cubic factor (3 + 1) the roots lie outside F_{p^4}; None
      marks the record as skipped.  So does an irreducible f whose record
      has no order (one built by hand; the order checks skip it too, in
      _squarefree_orders): no witness rests on it.
    """
    p = rec.factorization.p
    factors = [g for g, _ in rec.factorization.factors]
    degrees = [len(g) - 1 for g in factors]
    if 3 in degrees:
        return None
    if degrees == [4]:
        n = rec.projective_order
        return None if n is None else int((p * p + 1) % n == 0)
    if degrees == [2, 2]:
        (n1, s1), (n2, s2) = ((g[0], -g[1] % p) for g in factors)
        if (s1 * s1 - 2 * n1) * n2 % p != (s2 * s2 - 2 * n2) * n1 % p:
            return 0
        return 2 if s1 == s2 == 0 else 1
    return 0


def check_conjugate_22_split(records: Sequence[FrobeniusRecord], p: int) -> CheckResult:
    """Exclude the stabilizer of a conjugate pair of planes (the 2-dim
    representation over F_{p^2} pulled back by restriction of scalars).

    An element preserving such a decomposition factors its characteristic
    polynomial as g * conjugate(g) with g quadratic over F_{p^2} and
    determinant-induced rational constant term.  For each squarefree record
    those factorizations are counted from its F_p factorization
    (_conjugate_pairings); a record with none cannot arise that way.
    """
    counts: dict[str, int] = {}
    witnesses = []
    for rec in records:
        if not rec.squarefree:
            continue
        n = _conjugate_pairings(rec)
        if n is None:
            continue  # no cubic-factor quartic is similitude-shaped; be safe
        counts[str(rec.q)] = n
        if n == 0:
            witnesses.append(rec.q)
    witnesses.sort()
    ok = bool(witnesses)
    if ok:
        just = (
            f"no pairing of the Frobenius eigenvalues at q = {witnesses[0]} into "
            "conjugate F_{p^2}-quadratics with rational constant term exists, "
            "so the image preserves no conjugate plane pair"
        )
    else:
        just = (
            "every squarefree record admits a conjugate-quadratic pairing; "
            "consistent with a scalar-extension structure, no exclusion"
        )
    return CheckResult(
        name="conjugate_22_split",
        status=PASS if ok else FAIL,
        witnesses=(witnesses[0],) if ok else (),
        justification=just,
        data={"admissible_pairings": counts},
    )


def check_primitivity(rd: ResidualDataset) -> CheckResult:
    """Exclude imprimitive images (cases inducing from a quadratic field).

    Requires p = 3 mod 4, so that the only quadratic field unramified
    outside p that can carry the induction is imaginary: Q(sqrt(-p)).
    Induction forces trace zero at every prime inert in that field, i.e.
    every q with legendre(q, p) = -1.  The check demands a nonzero a_q at
    every inert prime in the dataset (and at least one inert prime).
    """
    p = rd.p
    if p % 4 != 3:
        raise ValueError(f"primitivity argument needs p = 3 mod 4, got p = {p}")
    inert = [q for q in rd.primes() if q != p and legendre(q, p) == -1]
    traces = {str(q): rd.eigenvalues[q] for q in inert}
    zeros = [q for q in inert if rd.eigenvalues[q] == 0]
    ok = bool(inert) and not zeros
    if ok:
        just = (
            f"an image induced from Q(sqrt(-{p})) forces a_q = 0 at every inert "
            f"prime; inert primes {{{', '.join(str(q) for q in inert)}}} all have "
            "nonzero trace"
        )
    elif not inert:
        just = "no prime inert in Q(sqrt(-p)) appears in the dataset; no exclusion"
    else:
        just = (
            f"a_q = 0 at inert prime(s) {{{', '.join(str(q) for q in zeros)}}} is "
            "consistent with an induced image; no exclusion"
        )
    return CheckResult(
        name="primitivity",
        status=PASS if ok else FAIL,
        witnesses=tuple(inert) if ok else (),
        justification=just,
        data={"inert_primes": inert, "traces": traces},
    )


def check_exceptional(
    records: Sequence[FrobeniusRecord], table: ExceptionalTable, p: int
) -> CheckResult:
    """Exclude the exceptional maximal subgroups by element order: a
    projective Frobenius order dividing none of the group orders cannot
    occur inside any of them."""
    if table.p != p:
        raise ValueError(f"exceptional table is for p = {table.p}, not p = {p}")
    orders = _squarefree_orders(records)
    q = min(
        (r for r, o in orders.items() if all(n % o for _, n in table.entries)), default=None
    )
    groups = ", ".join(f"{name} (order {n})" for name, n in table.entries)
    if q is not None:
        just = (
            f"projective Frobenius order {orders[q]} at q = {q} divides none "
            f"of the exceptional subgroup orders [{groups}]"
        )
    elif orders:
        just = (
            "every computed projective order divides some exceptional subgroup "
            f"order [{groups}]; no exclusion"
        )
    else:
        just = "no order witnesses available (no squarefree record); no exclusion"
    return CheckResult(
        name="exceptional",
        status=FAIL if q is None else PASS,
        witnesses=() if q is None else (q,),
        justification=just,
        data={
            "subgroup_orders": {name: n for name, n in table.entries},
            "projective_orders": {str(r): o for r, o in orders.items()},
        },
    )


def check_multiplier_surjective(k: int, p: int) -> CheckResult:
    """Promote PSp to PGSp: the similitude multiplier is the (2k-3)rd power
    of the cyclotomic character, surjective onto F_p^* iff
    gcd(2k-3, p-1) = 1."""
    e = 2 * k - 3
    g = int_gcd(e, p - 1)
    ok = g == 1
    if ok:
        just = (
            f"the multiplier is the cyclotomic character to the power {e} and "
            f"gcd({e}, {p - 1}) = 1, so it hits every scalar similitude class"
        )
    else:
        just = (
            f"gcd({e}, {p - 1}) = {g} > 1: the multiplier misses part of F_p^*; "
            "no exclusion"
        )
    return CheckResult(
        name="multiplier_surjective",
        status=PASS if ok else FAIL,
        witnesses=(),
        justification=just,
        data={"character_power": e, "unit_group_order": p - 1, "gcd": g},
    )


# ---------------------------------------------------------------------------


def build_records(rd: ResidualDataset) -> tuple[FrobeniusRecord, ...]:
    """One FrobeniusRecord per dataset prime, ascending; q = p is skipped
    (it carries no Frobenius characteristic polynomial)."""
    return tuple(hecke_charpoly(rd, q) for q in rd.primes() if q != rd.p)


def certify(
    ds: EigenformDataset,
    p: int,
    root: int,
    table: ExceptionalTable | None = None,
) -> Certificate:
    """Run the full exclusion argument for one embedding alpha -> root.

    The verdict is LARGE_IMAGE exactly when all six checks pass; any
    failure leaves the verdict INCONCLUSIVE (the checks are one-sided and
    can never certify a small image).
    """
    table = supported_table(p, table)
    rd = specialize(ds, p, root)
    records = build_records(rd)
    if not records:
        raise ValueError("no Frobenius data at primes q != p; nothing to certify")
    checks = (
        check_linear_constituent(records),
        check_rational_22_split(records, p),
        check_conjugate_22_split(records, p),
        check_primitivity(rd),
        check_exceptional(records, table, p),
        check_multiplier_surjective(ds.weight, p),
    )
    verdict = VERDICT_LARGE_IMAGE if all(c.passed for c in checks) else VERDICT_INCONCLUSIVE
    return Certificate(
        weight=ds.weight,
        level=ds.level,
        dataset_digest=ds.digest(),
        defining_poly=ds.defining_poly,
        p=p,
        root=rd.root,
        residual_eigenvalues=tuple((i, rd.eigenvalues[i]) for i in sorted(rd.eigenvalues)),
        records=records,
        checks=checks,
        assumptions=tuple(sorted(ds.assumptions)) + STANDING_ASSUMPTIONS,
        verdict=verdict,
    )
