"""The mutation gate's list: one-place text edits of gspcert's source.

Each entry names a file relative to the repository root, a text `before`
that occurs in it exactly once, the text `after` that replaces it, a kind
and a reason.  A `must_fail` mutant computes something wrong, and tier-1
must fail on it; its reason says what goes wrong.  An `equivalent` mutant
changes no certificate, and its reason is a one-line proof.  run.py applies
each must_fail mutant to a copy of the repository and checks the
equivalent ones still match the source; tests/test_mutants.py holds the
list to the source in tier-1.  Standard library only.
"""
from __future__ import annotations

from typing import NamedTuple

MUST_FAIL = "must_fail"
EQUIVALENT = "equivalent"

POLYNOMIAL = "src/gspcert/polynomial.py"
EIGEN_DATA = "src/gspcert/eigen_data.py"
CERTIFIER = "src/gspcert/certifier.py"
CLI = "src/gspcert/cli.py"


class Mutant(NamedTuple):
    file: str
    before: str
    after: str
    kind: str
    reason: str


MUTANTS = (
    # the projective orders
    Mutant(
        POLYNOMIAL,
        "            while n % ell == 0 and _x_power_is_constant(",
        "            if n % ell == 0 and _x_power_is_constant(",
        MUST_FAIL,
        "the irreducible descent divides each prime out once: order 185 for 37 at p = 43",
    ),
    Mutant(
        POLYNOMIAL,
        "        while k % ell == 0 and len({pow(t, k // ell, p) for t in s}) == 1:",
        "        if k % ell == 0 and len({pow(t, k // ell, p) for t in s}) == 1:",
        MUST_FAIL,
        "the F_p^* descent of a split order divides each prime out once",
    ),
    Mutant(
        POLYNOMIAL,
        "    return not (a1 or a2 or a3)",
        "    return not (a1 or a2)",
        MUST_FAIL,
        "x^e counts as constant mod f with an x^3 term left",
    ),
    Mutant(
        POLYNOMIAL,
        "    s, k = {pow(c, n // e, p) for e, c in steps}, p - 1",
        "    s, k = {pow(c, n // e, p) for e, c in steps}, 2 * (p - 1)",
        EQUIVALENT,
        "the ratios lie in F_p^*, so their order divides p - 1 | 2(p - 1), and a "
        "descent from any multiple of an order over its primes ends at that order",
    ),
    # the factorization
    Mutant(
        POLYNOMIAL,
        "    return r if r * r % p == a % p else None",
        "    return r",
        MUST_FAIL,
        "_sqrt returns a root of a non-square, so irreducible quartics read as split",
    ),
    Mutant(
        POLYNOMIAL,
        "        raise RuntimeError(f\"the factors {factors} of {fp_str(f)} do not multiply back to it\")",
        "        pass",
        MUST_FAIL,
        "factors that do not multiply back to f are returned instead of refused",
    ),
    Mutant(
        POLYNOMIAL,
        "        x0 = _sqrt((alpha + root_norm) * h, p) or _sqrt((alpha - root_norm) * h, p)",
        "        x0 = _sqrt((alpha - root_norm) * h, p) or _sqrt((alpha + root_norm) * h, p)",
        EQUIVALENT,
        "the other x0 gives a conjugate or opposite root of delta, hence the same "
        "sorted pair u, u'; the two agree on every Hecke quartic at p <= 47",
    ),
    # the embedding roots, specialization and records
    Mutant(
        EIGEN_DATA,
        "        raise RuntimeError(f\"{s} is not a product of distinct linear factors\")",
        "        pass",
        MUST_FAIL,
        "an unsplit gcd(E, x^p - x) returns too few roots instead of being refused",
    ),
    Mutant(
        EIGEN_DATA,
        "    return [Root(r) for r in sorted(roots, key=lambda r: -r % p) if _horner(de, r, p)]",
        "    return [Root(r) for r in sorted(roots) if _horner(de, r, p)]",
        MUST_FAIL,
        "the roots, and so the certificates of --root all, come in another order",
    ),
    Mutant(
        EIGEN_DATA,
        "    if not _horner(_derivative(ds.defining_poly), root, p):",
        "    if not _horner(_derivative(ds.defining_poly), root, p) and False:",
        MUST_FAIL,
        "specialize accepts a repeated root of E",
    ),
    Mutant(
        CERTIFIER,
        "                 for q in ds.primes() if q != p)",
        "                 for q in ds.primes())",
        MUST_FAIL,
        "a record is built at q = p, which carries no Frobenius data",
    ),
    # the checks' outcome rules
    Mutant(
        CERTIFIER,
        "    return CheckResult(name, FAIL, (), failed, data)",
        "    return CheckResult(name, FAIL, tuple(witnesses), failed, data)",
        MUST_FAIL,
        "a failed check names primes as its evidence",
    ),
    Mutant(
        CERTIFIER,
        "        \"linear_constituent\", bool(witnesses), witnesses,",
        "        \"linear_constituent\", True, witnesses,",
        MUST_FAIL,
        "linear_constituent passes with every charpoly rooted in F_p",
    ),
    Mutant(
        CERTIFIER,
        "    witnesses = [q for q, n in counts if n == 0]",
        "    witnesses = [q for q, n in counts if n <= 1]",
        EQUIVALENT,
        "F_p roots come as r and nu/r or as a double root, so every root count is even",
    ),
    Mutant(
        CERTIFIER,
        "    q = min((r for r, n in orders.items() if excluded(n)), default=None)",
        "    q = max((r for r, n in orders.items() if excluded(n)), default=None)",
        MUST_FAIL,
        "the order checks name the largest witness, not the least",
    ),
    Mutant(
        CERTIFIER,
        "        \"rational_22_split\", records, lambda n: bound % n != 0,",
        "        \"rational_22_split\", records, lambda n: True,",
        MUST_FAIL,
        "rational_22_split passes on any squarefree record",
    ),
    Mutant(
        CERTIFIER,
        "        return int(degrees == [4])",
        "        return int(len(degrees) == 1)",
        EQUIVALENT,
        "a squarefree quartic with one factor is that factor, of degree 4",
    ),
    Mutant(
        CERTIFIER,
        "    return 2 if s1 == s2 == 0 else 1",
        "    return 1",
        MUST_FAIL,
        "a (2,2) record with s1 = s2 = 0 reports one conjugate pairing, not two",
    ),
    Mutant(
        CERTIFIER,
        "    q = min((r for r, n in pairings if n == 0), default=None)",
        "    q = min((r for r, n in pairings if n <= 1), default=None)",
        MUST_FAIL,
        "conjugate_22_split takes an irreducible record, which pairs once, as its witness",
    ),
    Mutant(
        CERTIFIER,
        "        \"primitivity\", bool(inert) and not zeros, inert,",
        "        \"primitivity\", not zeros, inert,",
        MUST_FAIL,
        "primitivity passes with no inert prime in the dataset",
    ),
    Mutant(
        CERTIFIER,
        "if pow(r.q, (p - 1) // 2, p) == p - 1}",
        "if pow(r.q, (p - 1) // 2, p) != 1}",
        EQUIVALENT,
        "q != p is a unit mod the prime p, so q^((p-1)/2) is 1 or -1",
    ),
    Mutant(
        CERTIFIER,
        "        \"exceptional\", records, lambda n: all(m % n for _, m in table.entries),",
        "        \"exceptional\", records, lambda n: any(m % n for _, m in table.entries),",
        MUST_FAIL,
        "exceptional passes on an order that divides one subgroup order",
    ),
    Mutant(
        CERTIFIER,
        "        \"multiplier_surjective\", g == 1, (),",
        "        \"multiplier_surjective\", g <= 2, (),",
        EQUIVALENT,
        "2k - 3 is odd, so g = gcd(2k - 3, p - 1) is odd and never 2",
    ),
    Mutant(
        CERTIFIER,
        "    verdict = VERDICT_LARGE_IMAGE if all(c.passed for c in checks) else",
        "    verdict = VERDICT_LARGE_IMAGE if any(c.passed for c in checks) else",
        MUST_FAIL,
        "one passed check certifies a large image",
    ),
    # the one home of each input rule the command leaves to the library: p, the root
    Mutant(
        POLYNOMIAL,
        "    if not is_prime(p):",
        "    if False:",
        MUST_FAIL,
        "check_prime passes a composite p, so --prime 9 is refused by another rule or not at all",
    ),
    Mutant(
        EIGEN_DATA,
        "    if not 0 <= root < p:",
        "    if False:",
        MUST_FAIL,
        "specialize takes a root out of [0, p) mod p: root 8 is certified as root 1 at p = 7",
    ),
    # the command
    Mutant(
        CLI,
        "    if p in ds.primes():  # only once nothing can fail: exit 1 prints one line",
        "    if False:",
        MUST_FAIL,
        "eigenvalues at q = p are ignored without the warning",
    ),
)
