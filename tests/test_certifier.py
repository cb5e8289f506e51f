"""Tests for the six exclusion checks and the certificate assembly."""
from __future__ import annotations

import itertools
import random
from collections import Counter
from math import lcm

import pytest

from gspcert.certifier import (
    VERDICT_INCONCLUSIVE,
    VERDICT_LARGE_IMAGE,
    ExceptionalTable,
    build_records,
    certify,
    check_conjugate_22_split,
    check_exceptional,
    check_linear_constituent,
    check_multiplier_surjective,
    check_primitivity,
    check_rational_22_split,
    supported_table,
)
from gspcert.eigen_data import EigenformDataset, FrobeniusRecord, hecke_charpoly, specialize
from gspcert.polynomial import fp_hecke_factorization, fp_powmod, fp_projective_order, is_prime
from oracles import (
    check_order_by_x_powers,
    conjugate_product,
    element,
    fp_factorization,
    in_subfield,
    pmul,
    roots_in,
    validate_similitude_shape,
)

DEFINING = (-59412960, -294086, -1, 1)
EIGENVALUES = {2: (4,), 4: (5,), 3: (3,), 9: (2,), 5: (1,), 25: (2,)}
ASSUMPTIONS = frozenset({"not_maass_spezialform", "conductor_one"})


def paper_dataset(eigenvalues=None) -> EigenformDataset:
    return EigenformDataset(
        weight=28,
        level=1,
        defining_poly=DEFINING,
        eigenvalues=dict(eigenvalues or EIGENVALUES),
        assumptions=ASSUMPTIONS,
    )


def records_at(ds: EigenformDataset, p: int = 7, root: int = 1) -> tuple[FrobeniusRecord, ...]:
    return build_records(ds, specialize(ds, p, root), p)


def paper_records():
    return records_at(paper_dataset())


def synthetic_record(q: int, f: tuple[int, ...], p: int = 7, order=None) -> FrobeniusRecord:
    """A record for the monic quartic f over F_p with the given projective
    order; the root and pairing counts do not read it."""
    fac = fp_factorization(f, p)
    return FrobeniusRecord(
        q=q,
        charpoly=f,
        factorization=fac,
        squarefree=fac.is_squarefree(),
        projective_order=order,
        similitude=1,
    )


class TestLinearConstituent:
    def test_paper_records_pass_with_both_rootless_primes(self):
        res = check_linear_constituent(paper_records())
        assert res.passed
        assert res.witnesses == (2, 5)
        assert res.data["base_field_root_counts"] == {"2": 0, "3": 2, "5": 0}

    def test_single_pol3_record_fails(self):
        rec = next(r for r in paper_records() if r.q == 3)
        res = check_linear_constituent([rec])
        assert not res.passed
        assert res.witnesses == ()

    def test_fully_split_records_fail(self):
        split = paper_dataset({2: (0,), 4: (1,), 3: (6,), 9: (1,), 5: (4,), 25: (1,)})
        records = records_at(split)
        for rec in records:
            assert all(len(g) == 2 for g, _ in rec.factorization.factors)
        assert not check_linear_constituent(records).passed


class TestRational22Split:
    def test_exponent_bound_frozen(self):
        def bound(p):
            return check_rational_22_split((), p).data["exponent_bound"]

        assert bound(7) == 2 * lcm(42, 48, 6) == 672
        for p in range(3, 2000, 2):  # 2p(p^2 - 1) is the lcm form for every odd p
            assert bound(p) == 2 * lcm(p * (p - 1), p * p - 1, p - 1), p

    def test_paper_records_pass_via_order_25(self):
        res = check_rational_22_split(paper_records(), 7)
        assert res.passed
        assert res.witnesses == (2,)
        assert 672 % 25 != 0

    def test_order_8_alone_fails(self):
        rec = next(r for r in paper_records() if r.q == 5)
        assert rec.projective_order == 8
        res = check_rational_22_split([rec], 7)
        assert not res.passed

    def test_no_squarefree_records_fail_with_explanation(self):
        g = tuple(pmul((3, 1), (3, 1), 7))
        rec = synthetic_record(2, tuple(pmul(g, g, 7)))
        res = check_rational_22_split([rec], 7)
        assert not res.passed
        assert "no order witnesses available" in res.justification


class TestHeckeQuarticConsequences:
    """The similitude shape of a Hecke quartic (roots pair as r <-> nu/r)
    decides which records can witness the two 2+2 checks; every
    (a_q, a_{q^2}) at p = 7, 11, 19 with q in {2, 3, 5} and weight 28."""

    def test_every_record_at_small_p(self):
        squarefree = 0
        for p, q in itertools.product((7, 11, 19), (2, 3, 5)):
            bound = 2 * lcm(p * (p - 1), p * p - 1, p - 1)  # E2 by its definition
            for a1, a2 in itertools.product(range(p), repeat=2):
                rec = hecke_charpoly(a1, a2, q, 28, p)
                degrees = sorted(len(g) - 1 for g, _ in rec.factorization.factors)
                assert 3 not in degrees, (p, q, a1, a2)  # no (3,1) pattern
                if not rec.squarefree:
                    continue
                squarefree += 1
                n = rec.projective_order
                if degrees == [4]:
                    # r^(1 + p^2) = nu for every root r: the pairing
                    # r <-> nu/r is r <-> r^(p^2), so the record counts one
                    # conjugate pairing, and its order divides p^2 + 1
                    x_norm = fp_powmod((0, 1), p * p + 1, rec.charpoly, p)
                    assert x_norm == (rec.similitude,), (p, q, a1, a2)
                    assert (p * p + 1) % n == 0, (p, q, a1, a2)
                else:
                    # so only an irreducible record can witness rational_22_split
                    assert (p * p - 1) % n == 0 and bound % n == 0, (p, q, a1, a2)
                    assert not check_rational_22_split([rec], p).passed
        assert squarefree == 1393


def table_orders(p: int) -> tuple[int, ...]:
    """The built-in table's orders at p = 7, elsewhere those the large-p
    goldens are certified with."""
    if p == 7:
        return tuple(n for _, n in supported_table(7).entries)
    return p * (p * p - 1), 3840, 720


class TestOrdersAgainstXPowers:
    """The projective orders against the powers of x that decide the two
    order checks without them: every squarefree Hecke quartic at p = 7 and
    11, seeded records at p = 11, 19, 23 and 103 (the goldens' records are
    in test_golden)."""

    @pytest.mark.parametrize("p, count", [(7, 216), (11, 1000)])
    def test_every_squarefree_hecke_quartic(self, p, count):
        # (p - 1)^3 of them: every (nu^2, nu f3, f2, f3, 1), nu in F_p^*
        orders, outcomes = table_orders(p), Counter()
        for nu, f3, f2 in itertools.product(range(1, p), range(p), range(p)):
            f = (nu * nu % p, nu * f3 % p, f2, f3, 1)
            fac = fp_hecke_factorization(f, nu, p)
            if fac.is_squarefree():
                rec = FrobeniusRecord(0, f, fac, True, fp_projective_order(fac, nu), nu)
                outcomes[check_order_by_x_powers(rec, orders, p)] += 1
        assert outcomes[True] and outcomes[False] and sum(outcomes.values()) == count

    @pytest.mark.parametrize("p", [11, 19, 23, 103])
    def test_seeded_records(self, p):
        rng = random.Random(f"x-powers:{p}")
        orders, irreducible, checked = table_orders(p), 0, 0
        while checked < 120:
            q, k = rng.choice((2, 3, 5, 7)), rng.randrange(2, 40)
            rec = hecke_charpoly(rng.randrange(p), rng.randrange(p), q, k, p)
            if rec.squarefree:
                check_order_by_x_powers(rec, orders, p)
                irreducible += len(rec.factorization.factors) == 1
                checked += 1
        assert 0 < irreducible < checked


class TestConjugate22Split:
    def test_paper_records_pass_with_witness_3(self):
        res = check_conjugate_22_split(paper_records())
        assert res.passed
        assert res.witnesses == (3,)
        assert res.data["admissible_pairings"] == {"2": 1, "3": 0, "5": 0}

    def test_constructed_conjugate_product_is_not_excluded(self):
        rec = synthetic_record(2, conjugate_product([(3, 0), (0, 1), (1, 0)], 7))
        assert rec.squarefree
        res = check_conjugate_22_split([rec])
        assert not res.passed
        assert res.data["admissible_pairings"]["2"] >= 1

    def test_pairing_enumeration_is_complete_for_random_products(self):
        rng = random.Random(31)
        tried = 0
        while tried < 25:
            beta = element(rng.randrange(49), 7, 2)
            if in_subfield(beta, 1, 7):
                continue
            f = conjugate_product([(rng.randrange(1, 7), 0), beta, (1, 0)], 7)
            rec = synthetic_record(2, f)
            if not rec.squarefree:
                continue
            tried += 1
            res = check_conjugate_22_split([rec])
            assert not res.passed, f

    @pytest.mark.parametrize(
        "f, count", [((2, 0, 3, 0, 1), 2), ((5, 0, 1, 0, 1), 0), ((2, 5, 2, 3, 1), 1)]
    )
    def test_count_reads_the_factors_not_the_order(self, f, count):
        # (x^2 + 1)(x^2 + 2), (x + 1)(x + 6)(x^2 + 2) and the paper's
        # irreducible q = 2 charpoly, each in a record without an order
        rec = synthetic_record(2, f)
        res = check_conjugate_22_split([rec])
        assert res.data["admissible_pairings"] == {"2": count}
        assert res.witnesses == (() if count else (2,))

    def test_non_squarefree_records_are_skipped(self):
        rec = synthetic_record(2, tuple(pmul((1, 4, 1), (1, 4, 1), 7)))
        res = check_conjugate_22_split([rec])
        assert not res.passed
        assert "2" not in res.data["admissible_pairings"]


def conjugate_tally(p: int) -> Counter:
    """How many g = x^2 + beta x + gamma, beta in F_{p^2} and gamma in
    F_p^*, give each product g * conj(g): by definition, twice the number
    of admissible pairings of a squarefree product, one pair {g, conj(g)}
    with g != conj(g) each."""
    return Counter(
        conjugate_product([(gamma, 0), element(i, p, 2), (1, 0)], p)
        for i in range(p * p) for gamma in range(1, p)
    )


def hecke_shaped(f: tuple[int, ...], p: int) -> bool:
    """Whether the roots of f pair as r <-> nu/r for some nu in F_p^*; with
    k = 2, validate_similitude_shape takes nu = q^(2k-3) = q."""
    return any(validate_similitude_shape(f, nu, 2, p) for nu in range(1, p))


def checked_kind(f: tuple[int, ...], p: int, tally: Counter) -> str | None:
    """Check the counts the certificate records for the monic quartic f at
    q = 2: its F_p roots against a scan of F_p and, if f is squarefree, its
    pairing count n against the tally.  A recorded 0 (a witness) needs a
    tally of 0 on every f, and n is exact on every reducible f and on every
    Hecke-shaped irreducible one.  Returns the kind of f, None if it has a
    repeated factor."""
    rec = synthetic_record(2, f, p)
    linear = check_linear_constituent([rec]).data["base_field_root_counts"]["2"]
    assert linear == len(roots_in(f, p, 1)), f
    pairings = check_conjugate_22_split([rec]).data["admissible_pairings"]
    if not rec.squarefree:
        assert pairings == {}, f
        return None
    n = pairings["2"]
    assert n in (0, 1, 2), f
    if n == 0:
        assert tally[f] == 0, f
    if len(rec.factorization.factors) > 1:
        kind = "reducible"
    else:
        kind = "irreducible Hecke" if hecke_shaped(f, p) else "irreducible other"
    if kind != "irreducible other":
        assert 2 * n == tally[f], f
    return kind


class TestPairingCountOracles:
    """The F_p pairing count against the definition: one-sided on every
    squarefree quartic, exact on the Hecke-shaped ones and the reducible."""

    def test_exhaustive_p7_against_definitional_tally(self):
        tally = conjugate_tally(7)
        kinds = Counter(
            checked_kind(tail + (1,), 7, tally)
            for tail in itertools.product(range(1, 7), range(7), range(7), range(7))
        )
        # all 1,800 squarefree quartics with f(0) != 0, the 672 with a cubic
        # factor among them, and (7^4 - 7^2)/4 = 588 of them irreducible
        del kinds[None]
        assert kinds == {"reducible": 1212, "irreducible Hecke": 72, "irreducible other": 516}

    @pytest.mark.parametrize("p", [11, 13])
    def test_seeded_sample_against_definitional_tally(self, p):
        tally = conjugate_tally(p)
        rng = random.Random(4 * p + 1)
        kinds = Counter()
        while sum(kinds.values()) < 100:
            if sum(kinds.values()) % 2:
                f = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(3)) + (1,)
            else:
                beta = element(rng.randrange(p * p), p, 2)
                f = conjugate_product([(rng.randrange(1, p), 0), beta, (1, 0)], p)
            kind = checked_kind(f, p, tally)
            if kind:
                kinds[kind] += 1
        assert kinds["irreducible Hecke"] and kinds["irreducible other"]


class TestPrimitivity:
    def test_paper_dataset_passes_on_all_inert_primes(self):
        res = check_primitivity(paper_records(), 7)
        assert res.passed
        assert res.witnesses == (3, 5)
        assert res.data["inert_primes"] == [3, 5]
        assert res.data["traces"] == {"3": 3, "5": 1}

    def test_zero_trace_at_any_inert_prime_fails(self):
        mutated = paper_dataset({**EIGENVALUES, 3: (0,)})
        res = check_primitivity(records_at(mutated), 7)
        assert not res.passed
        assert "3" in res.justification

    def test_single_inert_prime_with_zero_trace_fails(self):
        ds = paper_dataset({2: (4,), 4: (5,), 3: (0,), 9: (2,)})
        res = check_primitivity(records_at(ds), 7)
        assert not res.passed

    def test_no_inert_primes_fails(self):
        ds = paper_dataset({2: (4,), 4: (5,)})  # 2 is a residue mod 7
        res = check_primitivity(records_at(ds), 7)
        assert not res.passed
        assert res.witnesses == ()

    @pytest.mark.parametrize("p", [7, 11, 19, 23, 103])
    def test_inert_primes_match_non_squares_below_500(self, p):
        # the check takes q as inert when q^((p-1)/2) = -1 mod p (Euler's
        # criterion): against the non-squares mod p, found by squaring every
        # unit, on every prime q != p below 500 (p has no record); a_q, read
        # off the record as -f3, is 1 everywhere, then 0 at the least inert q
        qs = [q for q in range(2, 500) if is_prime(q) and q != p]
        squares = {x * x % p for x in range(1, p)}
        records = [hecke_charpoly(1, 1, q, 28, p) for q in qs]
        res = check_primitivity(records, p)
        inert = [q for q in qs if q % p not in squares]
        assert res.data["inert_primes"] == inert
        assert res.data["traces"] == {str(q): 1 for q in inert}
        assert res.passed and res.witnesses == tuple(inert)
        zero = [hecke_charpoly(0, 1, q, 28, p) if q == inert[0] else r for q, r in zip(qs, records)]
        res = check_primitivity(zero, p)
        assert not res.passed and res.witnesses == ()
        assert f"inert prime(s) {{{inert[0]}}} is" in res.justification
        assert res.data["traces"][str(inert[0])] == 0


class TestExceptional:
    def test_builtin_table_frozen(self):
        table = supported_table(7)
        assert table.entries == (
            ("PGL(2,7)", 336),
            ("2^4.O4^-(2).2", 3840),
            ("A7.2", 5040),
        )

    def test_paper_records_pass_via_order_25(self):
        res = check_exceptional(paper_records(), supported_table(7))
        assert res.passed
        assert res.witnesses == (2,)
        for n in (336, 3840, 5040):
            assert n % 25 != 0

    def test_order_8_fails(self):
        rec = next(r for r in paper_records() if r.q == 5)
        res = check_exceptional([rec], supported_table(7))
        assert not res.passed
        assert 336 % 8 == 0

    def test_order_1_fails(self):
        rec = synthetic_record(2, (2, 5, 2, 3, 1), order=1)
        res = check_exceptional([rec], supported_table(7))
        assert not res.passed

    def test_no_builtin_table_for_other_primes(self):
        with pytest.raises(ValueError, match="no built-in exceptional-subgroup table for p = 11"):
            supported_table(11)


class TestMultiplierSurjective:
    def test_weight_28_passes(self):
        res = check_multiplier_surjective(28, 7)
        assert res.passed
        assert res.witnesses == ()
        assert res.data == {"character_power": 53, "unit_group_order": 6, "gcd": 1}

    def test_weight_3_fails(self):
        res = check_multiplier_surjective(3, 7)
        assert not res.passed
        assert res.data["gcd"] == 3

    def test_other_prime(self):
        assert check_multiplier_surjective(28, 13).passed


class TestCertify:
    def test_paper_dataset_certifies_at_every_root(self):
        ds = paper_dataset()
        for root in (4, 3, 1):
            cert = certify(ds, 7, root)
            assert cert.verdict == VERDICT_LARGE_IMAGE
            assert cert.certified
            assert cert.root == root
            assert [c.name for c in cert.checks] == [
                "linear_constituent",
                "rational_22_split",
                "conjugate_22_split",
                "primitivity",
                "exceptional",
                "multiplier_surjective",
            ]
            assert all(c.passed for c in cert.checks)

    def test_certificate_carries_dataset_facts(self):
        ds = paper_dataset()
        cert = certify(ds, 7, 1)
        assert cert.weight == 28
        assert cert.level == 1
        assert cert.p == 7
        assert cert.dataset_digest == ds.digest()
        assert cert.defining_poly == DEFINING
        assert [rec.q for rec in cert.records] == [2, 3, 5]
        assert cert.residual_eigenvalues == ((2, 4), (3, 3), (4, 5), (5, 1), (9, 2), (25, 2))

    def test_assumptions_echoed_with_standing_hypothesis(self):
        cert = certify(paper_dataset(), 7, 1)
        assert cert.assumptions == (
            "conductor_one",
            "not_maass_spezialform",
            "formal_reduction_admissible",
        )

    def test_a3_zero_mutation_fails_exactly_primitivity(self):
        mutated = paper_dataset({**EIGENVALUES, 3: (0,)})
        cert = certify(mutated, 7, 1)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        failing = {c.name for c in cert.checks if not c.passed}
        assert failing == {"primitivity"}

    def test_fully_split_control_fails_linear_constituent(self):
        split = paper_dataset({2: (0,), 4: (1,), 3: (6,), 9: (1,), 5: (4,), 25: (1,)})
        cert = certify(split, 7, 1)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        failing = {c.name for c in cert.checks if not c.passed}
        assert "linear_constituent" in failing

    def test_single_mutation_soundness_exhaustive(self):
        # verdict is LARGE_IMAGE exactly when every check passes, for every
        # single-entry mutation of the dataset
        for index in (2, 4, 3, 9, 5, 25):
            for value in range(7):
                table = dict(EIGENVALUES)
                table[index] = (value,)
                ds = paper_dataset(table)
                cert = certify(ds, 7, 1)
                assert cert.verdict in (VERDICT_LARGE_IMAGE, VERDICT_INCONCLUSIVE)
                assert (cert.verdict == VERDICT_LARGE_IMAGE) == all(
                    c.passed for c in cert.checks
                )
                # a check passes with its witnesses or fails with none
                for c in cert.checks:
                    if c.passed and c.name != "multiplier_surjective":
                        assert c.witnesses, c
                    else:
                        assert c.witnesses == (), c
                    assert set(c.witnesses) <= set(ds.primes()), c

    def test_explicit_table_matches_default(self):
        ds = paper_dataset()
        a = certify(ds, 7, 1)
        b = certify(ds, 7, 1, table=supported_table(7))
        assert a == b

    @pytest.mark.parametrize("root", [8, -6])
    def test_out_of_range_root_rejected(self, root):
        with pytest.raises(ValueError, match=r"must lie in \[0, 7\)"):
            certify(paper_dataset(), 7, root)

    def test_only_q_equal_p_data_rejected(self):
        ds = EigenformDataset(
            weight=28, level=1, defining_poly=DEFINING,
            eigenvalues={7: (1,), 49: (1,)}, assumptions=ASSUMPTIONS,
        )
        with pytest.raises(ValueError, match="no Frobenius data"):
            certify(ds, 7, 1)

    @pytest.mark.parametrize(
        "p, table, message",
        [
            (13, None, "3 mod 4"),
            (13, ExceptionalTable(p=13, entries=()), "3 mod 4"),
            (9, None, "not prime"),
            (3, None, "p >= 5"),
            (11, None, "table"),
            (19, supported_table(7), "table is for p = 7"),
            # with no entries "divides none of the orders" holds vacuously
            (7, ExceptionalTable(7, ()), "table for p = 7 has no entries"),
            (7, ExceptionalTable(7, (("PGL(2,7)", 0),)), "has an order below 1"),
            (7, ExceptionalTable(7, (("PGL(2,7)", 336), ("A7.2", -5040))), "order below 1"),
            # neither a TypeError nor an AttributeError, and no generator,
            # which the checks of its entries would use up
            (7, ExceptionalTable(7, None), "ExceptionalTable with a tuple of entries"),
            (7, ExceptionalTable(7, iter((("PGL(2,7)", 336),))), "with a tuple of entries"),
            (7, ExceptionalTable(7, 5), "ExceptionalTable with a tuple of entries"),
            (7, (7, (("X", 5),)), "ExceptionalTable with a tuple of entries"),
            (7.0, None, r"^7\.0 is not an int$"),  # not the TypeError of pow(a, e, 7.0)
            # the check decides on both entries, its data keyed by name on one
            (7, ExceptionalTable(7, (("X", 25), ("X", 336))), "repeats a subgroup name"),
            (15, None, "^15 is not prime$"),  # 3 mod 4: refused as no prime
        ],
    )
    def test_unsupported_prime_rejected_before_specialize(self, monkeypatch, p, table, message):
        def unreachable(*args):
            raise AssertionError("specialize ran")

        monkeypatch.setattr("gspcert.certifier.specialize", unreachable)
        with pytest.raises(ValueError, match=message) as err:
            certify(paper_dataset(), p, 0, table=table)
        assert "\n" not in str(err.value)

    def test_other_prime_with_user_table(self):
        ds = EigenformDataset(
            weight=4, level=1, defining_poly=(0, 1),
            eigenvalues={2: (1,), 4: (1,)}, assumptions=frozenset(),
        )
        table = ExceptionalTable(p=11, entries=(("PGL(2,11)", 1320),))
        cert = certify(ds, 11, 0, table=table)
        assert cert.p == 11
        assert len(cert.checks) == 6
        assert cert.verdict in (VERDICT_LARGE_IMAGE, VERDICT_INCONCLUSIVE)
