"""Maximal-subgroup exclusion checks for the residual projective image.

The classification of maximal subgroups of PGSp(4, p) (p >= 7) leaves six
ways the image of a residual Galois representation with surjective
similitude multiplier can fail to be everything: stabilize a line or
hyperplane (reducible), stabilize a rational or conjugate pair of planes
(imprimitive / scalar extension), or land in one of the three exceptional
quotients.  The checks below use nothing but the mod-p Frobenius data and
together rule out every route, though conjugate_22_split needs primitivity
and rational_22_split beside it; a check that fails proves nothing (the
logic is one-sided), so the only verdicts are LARGE_IMAGE and INCONCLUSIVE.
"""
from __future__ import annotations

from math import gcd as int_gcd
from typing import Callable, NamedTuple, Sequence

from .eigen_data import EigenformDataset, FrobeniusRecord, hecke_charpoly, specialize
from .polynomial import check_prime

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
    """The exceptional table to certify with at p: the given one, or the
    built-in p = 7 one when table is None.  Raises ValueError unless p is a
    prime in [5, MAX_PRIME] with p = 3 mod 4 and a given table is an
    ExceptionalTable for p whose entries are a tuple of one or more (name,
    order) pairs of a str and an int >= 1 with distinct names: with no
    entries the exceptional check would pass on no evidence, and the report
    keys the orders by name."""
    check_prime(p)
    if p < 5:
        raise ValueError(f"the certificate needs p >= 5, got p = {p}")
    if p % 4 != 3:
        raise ValueError(f"primitivity argument needs p = 3 mod 4, got p = {p}")
    if table is None:
        if p != 7:
            raise ValueError(f"no built-in exceptional-subgroup table for p = {p}")
        return ExceptionalTable(7, (("PGL(2,7)", 336), ("2^4.O4^-(2).2", 3840), ("A7.2", 5040)))
    if not (isinstance(table, ExceptionalTable) and isinstance(table.entries, tuple)):
        raise ValueError("exceptional table must be an ExceptionalTable with a tuple of entries")
    if table.p != p:
        raise ValueError(f"exceptional table is for p = {table.p}, not p = {p}")
    for entry in table.entries:
        if not (
            isinstance(entry, tuple) and len(entry) == 2
            and isinstance(entry[0], str) and type(entry[1]) is int  # not a bool
        ):
            raise ValueError(f"exceptional table entry {entry!r} is not a (str, int) pair")
        if entry[1] < 1:
            raise ValueError(f"exceptional table entry {entry!r} has an order below 1")
    if not table.entries:
        raise ValueError(f"exceptional table for p = {p} has no entries")
    if len({name for name, _ in table.entries}) < len(table.entries):
        raise ValueError(f"exceptional table for p = {p} repeats a subgroup name")
    return table


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


def _result(
    name: str, ok: bool, witnesses: Sequence[int], passed: str, failed: str, data: dict
) -> CheckResult:
    """The outcome rule every check shares: it passes with its witnesses,
    or fails with none, so no failed check names a prime as evidence."""
    if ok:
        return CheckResult(name, PASS, tuple(witnesses), passed, data)
    return CheckResult(name, FAIL, (), failed, data)


def check_linear_constituent(records: Sequence[FrobeniusRecord]) -> CheckResult:
    """Exclude a one-dimensional constituent (reducible cases with a line).

    An unramified-outside-p character of conductor one is a power of the
    cyclotomic character, so a linear constituent would force an F_p root
    on every Frobenius characteristic polynomial.  One rootless polynomial
    refutes it; all rootless primes are recorded.
    """
    counts = [(rec.q, sum(m for _, m in rec.factorization.linear_roots())) for rec in records]
    witnesses = [q for q, n in counts if n == 0]
    return _result(
        "linear_constituent", bool(witnesses), witnesses,
        f"characteristic polynomials at q in {{{', '.join(str(q) for q in witnesses)}}} "
        "have no root in F_p, so no one-dimensional constituent exists; "
        "rules out every reducible case with a linear piece",
        "every characteristic polynomial has a root in F_p, which is "
        "consistent with a one-dimensional constituent; no exclusion",
        {"base_field_root_counts": {str(q): n for q, n in counts}},
    )


def _order_check(
    name: str, records: Sequence[FrobeniusRecord], excluded: Callable[[int], bool],
    exclusion: str, fit: str, data: dict,
) -> CheckResult:
    """The two order checks' shared scan over the squarefree records, whose
    projective orders are taken: the least q whose order n has excluded(n)
    witnesses the check.  exclusion ends the text for that q, fit the text
    for orders that all fit; data gains the orders."""
    orders = {rec.q: rec.projective_order for rec in records if rec.squarefree}
    q = min((r for r, n in orders.items() if excluded(n)), default=None)
    return _result(
        name, q is not None, (q,),
        f"projective Frobenius order {orders.get(q)} at q = {q} {exclusion}",
        f"every computed projective order divides {fit}" if orders
        else "no order witnesses available (no squarefree record); no exclusion",
        {**data, "projective_orders": {str(r): n for r, n in orders.items()}},
    )


def check_rational_22_split(records: Sequence[FrobeniusRecord], p: int) -> CheckResult:
    """Exclude the stabilizer of a rational 2+2 plane decomposition.

    Every projective element order in that stabilizer, GL(2) wr S2,
    divides E2 = 2p(p^2 - 1), which is 2 * lcm(p(p-1), p^2 - 1, p - 1) for
    odd p; a squarefree record whose companion has projective order not
    dividing E2 cannot lie in it.  A squarefree Hecke quartic with a root in
    F_p or two quadratic factors has its roots in F_{p^2}, so its order
    divides p^2 - 1 and hence E2: only irreducible records can witness this
    check.
    """
    bound = 2 * p * (p * p - 1)
    return _order_check(
        "rational_22_split", records, lambda n: bound % n != 0,
        f"does not divide E2 = {bound}, the exponent of the rational plane-pair stabilizer",
        f"E2 = {bound}; consistent with the rational plane-pair stabilizer, no exclusion",
        {"exponent_bound": bound},
    )


def _conjugate_pairings(rec: FrobeniusRecord) -> int:
    """Number of ways to write a squarefree Hecke quartic f as g * conj(g),
    with g a monic quadratic over F_{p^2} whose constant term lies in F_p
    and conj the Frobenius sigma: x -> x^p on coefficients.

    Such a g takes two of the four roots of f, so this counts the pairings
    {a, b} | {c, d} of the roots with sigma{a, b} = {c, d} and ab in F_p.
    The count reads off the F_p factorization:

    - A root r in F_p is fixed by sigma, so the pair holding r meets its
      own image: every pattern with a linear factor counts 0.
    - f irreducible with root r: sigma cycles r, r^p, r^(p^2), r^(p^3), and
      only {r, r^(p^2)} maps onto its complement.  The roots pair as
      r <-> nu/r, nu in F_p (fp_hecke_factorization refuses any other f):
      an involution with no fixed point (r^2 = nu would put r in F_{p^2})
      commuting with the 4-cycle sigma, so a power of it, sigma^2.  Thus
      r^(1 + p^2) = nu lies in F_p, and f counts 1.
    - f = (x^2 - s_1 x + n_1)(x^2 - s_2 x + n_2) with roots u, u^p and
      v, v^p: {u, u^p} is its own image, while {u, v} and {u, v^p} map
      onto their complements and count when uv, resp. uv^p, lies in F_p.
      Since

          (s_1^2 - 2 n_1) n_2 - (s_2^2 - 2 n_2) n_1
              = (u v^p - u^p v)(u v - u^p v^p),

      at least one counts iff the left side vanishes.  Both count iff
      u/u^p = v^p/v = v/v^p, i.e. v^p = -v and then u^p = -u (roots of a
      squarefree f are distinct): s_1 = s_2 = 0.
    """
    p, factors = rec.factorization.p, rec.factorization.factors
    degrees = [len(g) - 1 for g, _ in factors]
    if degrees != [2, 2]:
        return int(degrees == [4])
    (n1, s1), (n2, s2) = ((g[0], -g[1] % p) for g, _ in factors)
    if (s1 * s1 - 2 * n1) * n2 % p != (s2 * s2 - 2 * n2) * n1 % p:
        return 0
    return 2 if s1 == s2 == 0 else 1


def check_conjugate_22_split(records: Sequence[FrobeniusRecord]) -> CheckResult:
    """Exclude the stabilizer of a conjugate pair of planes (the 2-dim
    representation over F_{p^2} pulled back by restriction of scalars).

    An element of Sp2(p^2), which fixes each plane, factors its characteristic
    polynomial as g * conjugate(g) with g quadratic over F_{p^2} and
    determinant-induced rational constant term.  For each squarefree record
    those factorizations are counted from its F_p factorization
    (_conjugate_pairings); a record with none cannot arise that way.  An
    irreducible record counts one: only reducible records can witness it.

    Alone it does not exclude the pair: at p = 7, 348 of 2,030 sampled
    elements of the sigma-semilinear coset of Sp2(p^2).2, all of trace 0,
    have no such pairing, nor do 268 of 1,504 of the linear coset of
    GU2(p).2; only primitivity and rational_22_split, in turn, exclude them.
    """
    pairings = [(rec.q, _conjugate_pairings(rec)) for rec in records if rec.squarefree]
    q = min((r for r, n in pairings if n == 0), default=None)
    return _result(
        "conjugate_22_split", q is not None, (q,),
        f"no pairing of the Frobenius eigenvalues at q = {q} into "
        "conjugate F_{p^2}-quadratics with rational constant term exists, "
        "so the image preserves no conjugate plane pair",
        "every squarefree record admits a conjugate-quadratic pairing; "
        "consistent with a scalar-extension structure, no exclusion",
        {"admissible_pairings": {str(r): n for r, n in pairings}},
    )


def check_primitivity(records: Sequence[FrobeniusRecord], p: int) -> CheckResult:
    """Exclude imprimitive images (cases inducing from a quadratic field).

    Requires p = 3 mod 4, which supported_table enforces, so that the only
    quadratic field unramified outside p that can carry the induction is
    imaginary: Q(sqrt(-p)).  Induction forces trace zero at every prime
    inert in that field, i.e. every q that is not a square mod p.  The check
    demands a nonzero a_q, read off each record as -f3, at every inert prime
    in the dataset (and at least one).  With p prime, q is inert when
    q^((p-1)/2) = -1 mod p (Euler's criterion), with no primality test;
    q = p, which has no record, never is: p^((p-1)/2) = 0 mod p.
    """
    traces = {r.q: -r.charpoly[3] % p for r in records if pow(r.q, (p - 1) // 2, p) == p - 1}
    inert = list(traces)
    zeros = [q for q in inert if traces[q] == 0]
    return _result(
        "primitivity", bool(inert) and not zeros, inert,
        f"an image induced from Q(sqrt(-{p})) forces a_q = 0 at every inert "
        f"prime; inert primes {{{', '.join(str(q) for q in inert)}}} all have "
        "nonzero trace",
        (
            f"a_q = 0 at inert prime(s) {{{', '.join(str(q) for q in zeros)}}} is "
            "consistent with an induced image; no exclusion"
        ) if inert else "no prime inert in Q(sqrt(-p)) appears in the dataset; no exclusion",
        {"inert_primes": inert, "traces": {str(q): a for q, a in traces.items()}},
    )


def check_exceptional(records: Sequence[FrobeniusRecord], table: ExceptionalTable) -> CheckResult:
    """Exclude the exceptional maximal subgroups by element order: a
    projective Frobenius order dividing none of the group orders cannot
    occur inside any of them.  supported_table matched table to the prime."""
    groups = ", ".join(f"{name} (order {n})" for name, n in table.entries)
    return _order_check(
        "exceptional", records, lambda n: all(m % n for _, m in table.entries),
        f"divides none of the exceptional subgroup orders [{groups}]",
        f"some exceptional subgroup order [{groups}]; no exclusion",
        {"subgroup_orders": {name: n for name, n in table.entries}},
    )


def check_multiplier_surjective(k: int, p: int) -> CheckResult:
    """Promote PSp to PGSp: the similitude multiplier is the (2k-3)rd power
    of the cyclotomic character, surjective onto F_p^* iff
    gcd(2k-3, p-1) = 1."""
    e = 2 * k - 3
    g = int_gcd(e, p - 1)
    return _result(
        "multiplier_surjective", g == 1, (),
        f"the multiplier is the cyclotomic character to the power {e} and "
        f"gcd({e}, {p - 1}) = 1, so it hits every scalar similitude class",
        f"gcd({e}, {p - 1}) = {g} > 1: the multiplier misses part of F_p^*; "
        "no exclusion",
        {"character_power": e, "unit_group_order": p - 1, "gcd": g},
    )


# ---------------------------------------------------------------------------


def build_records(
    ds: EigenformDataset, residues: dict[int, int], p: int
) -> tuple[FrobeniusRecord, ...]:
    """One FrobeniusRecord per prime of ds, ascending, from its residues at
    p; q = p is skipped (it carries no Frobenius characteristic polynomial)."""
    return tuple(hecke_charpoly(residues[q], residues[q * q], q, ds.weight, p)
                 for q in ds.primes() if q != p)


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
    residues = specialize(ds, p, root)
    records = build_records(ds, residues, p)
    if not records:
        raise ValueError("no Frobenius data at primes q != p; nothing to certify")
    checks = (
        check_linear_constituent(records),
        check_rational_22_split(records, p),
        check_conjugate_22_split(records),
        check_primitivity(records, p),
        check_exceptional(records, table),
        check_multiplier_surjective(ds.weight, p),
    )
    verdict = VERDICT_LARGE_IMAGE if all(c.passed for c in checks) else VERDICT_INCONCLUSIVE
    return Certificate(
        weight=ds.weight,
        level=ds.level,
        dataset_digest=ds.digest(),
        defining_poly=ds.defining_poly,
        p=p,
        root=int(root),
        residual_eigenvalues=tuple(sorted(residues.items())),
        records=records,
        checks=checks,
        assumptions=tuple(sorted(ds.assumptions)) + STANDING_ASSUMPTIONS,
        verdict=verdict,
    )
