"""Tests for the six exclusion checks and the certificate assembly."""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from field_elements import make_field
from field_polynomial import Polynomial, factor, is_squarefree
from gspcert.certifier import (
    VERDICT_INCONCLUSIVE,
    VERDICT_LARGE_IMAGE,
    ExceptionalTable,
    build_records,
    builtin_exceptional_table,
    certify,
    check_conjugate_22_split,
    check_exceptional,
    check_linear_constituent,
    check_multiplier_surjective,
    check_primitivity,
    check_rational_22_split,
    rational_split_exponent,
    _conjugate_pairings,
)
from gspcert.eigen_data import (
    EigenformDataset,
    FrobeniusRecord,
    ResidualDataset,
    hecke_charpoly,
    specialize,
)
from gspcert.polynomial import Factorization, fp_factorization, fp_projective_order
from oracles import (
    admissible_pairings,
    conjugate_poly,
    in_subfield,
    irreducible_projective_order,
    irreducible_quartic_orders,
    reference_powmod,
    roots_in,
)

F7 = make_field(7, 1)
F49 = make_field(7, 2)

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


def paper_records():
    return build_records(specialize(paper_dataset(), 7, 1))


def synthetic_record(q: int, f: Polynomial, order=None, squarefree=None) -> FrobeniusRecord:
    """A record for the monic quartic f; a squarefree one without a given
    order gets fp_projective_order's, as hecke_charpoly fills it in."""
    fac = factor(f)
    charpoly = tuple(c.lift() for c in f.coeffs)
    squarefree = fac.is_squarefree() if squarefree is None else squarefree
    if squarefree and order is None:
        order = fp_projective_order(charpoly, f.field.p)
    return FrobeniusRecord(
        q=q,
        charpoly=charpoly,
        factorization=fac,
        squarefree=squarefree,
        projective_order=order,
        similitude=1,
    )


def prime_subfield_poly(f: Polynomial) -> Polynomial:
    assert all(in_subfield(c, 1) for c in f.coeffs)
    return Polynomial.from_ints(F7, [c.coeffs[0] for c in f.coeffs])


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
        records = build_records(specialize(split, 7, 1))
        for rec in records:
            assert all(len(g) == 2 for g, _ in rec.factorization.factors)
        assert not check_linear_constituent(records).passed


class TestRational22Split:
    def test_exponent_bound_frozen(self):
        from math import lcm
        assert rational_split_exponent(7) == 2 * lcm(42, 48, 6) == 672
        for p in range(3, 2000, 2):  # 2p(p^2 - 1) is the lcm form for every odd p
            assert rational_split_exponent(p) == 2 * lcm(p * (p - 1), p * p - 1, p - 1), p

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
        g = Polynomial.from_ints(F7, (3, 1))
        rec = synthetic_record(2, g * g * g * g)
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
            bound = rational_split_exponent(p)
            for a1, a2 in itertools.product(range(p), repeat=2):
                rd = ResidualDataset(p, 0, 28, 1, {q: a1, q * q: a2}, frozenset())
                rec = hecke_charpoly(rd, q)
                degrees = sorted(len(g) - 1 for g, _ in rec.factorization.factors)
                assert 3 not in degrees, (p, q, a1, a2)  # no (3,1) pattern
                if not rec.squarefree:
                    continue
                squarefree += 1
                n = rec.projective_order
                if degrees == [4]:
                    # so an irreducible record never witnesses conjugate_22_split
                    assert (p * p + 1) % n == 0, (p, q, a1, a2)
                    assert _conjugate_pairings(rec) == 1
                else:
                    # so only an irreducible record can witness rational_22_split
                    assert (p * p - 1) % n == 0 and bound % n == 0, (p, q, a1, a2)
                    assert not check_rational_22_split([rec], p).passed
        assert squarefree == 1393


class TestConjugate22Split:
    def test_paper_records_pass_with_witness_3(self):
        res = check_conjugate_22_split(paper_records(), 7)
        assert res.passed
        assert res.witnesses == (3,)
        assert res.data["admissible_pairings"] == {"2": 1, "3": 0, "5": 0}

    def test_constructed_conjugate_product_is_not_excluded(self):
        t = F49.gen()
        g = Polynomial(F49, (F49.element(3), t, F49.one()))
        f = prime_subfield_poly(g * conjugate_poly(g))
        rec = synthetic_record(2, f)
        assert rec.squarefree
        res = check_conjugate_22_split([rec], 7)
        assert not res.passed
        assert res.data["admissible_pairings"]["2"] >= 1

    def test_pairing_enumeration_is_complete_for_random_products(self):
        rng = random.Random(31)
        tried = 0
        while tried < 25:
            beta = F49.element_from_index(rng.randrange(49))
            if in_subfield(beta, 1):
                continue
            gamma = F49.element(rng.randrange(1, 7))
            g = Polynomial(F49, (gamma, beta, F49.one()))
            f = prime_subfield_poly(g * conjugate_poly(g))
            rec = synthetic_record(2, f)
            if not rec.squarefree:
                continue
            tried += 1
            res = check_conjugate_22_split([rec], 7)
            assert not res.passed, str(f)

    def test_non_squarefree_records_are_skipped(self):
        g = Polynomial.from_ints(F7, (1, 4, 1))
        rec = synthetic_record(2, g * g)
        res = check_conjugate_22_split([rec], 7)
        assert not res.passed
        assert "2" not in res.data["admissible_pairings"]


def recorded_counts(f: Polynomial) -> tuple[int, int | None]:
    """The F_p root count (with multiplicity) and the admissible-pairing
    count the certificate records for f at q = 2; None when skipped."""
    rec = synthetic_record(2, f)
    linear = check_linear_constituent([rec]).data["base_field_root_counts"]["2"]
    pairings = check_conjugate_22_split([rec], f.field.p).data["admissible_pairings"]
    return linear, pairings.get("2")


def conjugate_product(beta, gamma: int) -> Polynomial:
    """g * conj(g) for g = x^2 + beta x + gamma, read over F_p."""
    F2 = beta.field
    g = Polynomial(F2, (F2.element(gamma), beta, F2.one()))
    product = g * conjugate_poly(g)
    assert all(in_subfield(c, 1) for c in product.coeffs)
    return Polynomial.from_ints(make_field(F2.p, 1), [c.coeffs[0] for c in product.coeffs])


class TestPairingCountOracles:
    """The F_p pairing count against the definition and the F_{p^4} route."""

    def test_exhaustive_p7_against_definitional_tally(self):
        # each admissible pairing is one pair {g, conj(g)} with g != conj(g)
        F49 = make_field(7, 2)
        tally = Counter(
            conjugate_product(beta, gamma) for beta in F49.elements() for gamma in range(1, 7)
        )
        covered = 0
        for tail in itertools.product(range(7), repeat=4):
            if tail[0] == 0:
                continue
            f = Polynomial.from_ints(F7, tail + (1,))
            linear, n = recorded_counts(f)
            assert linear == len(roots_in(f, 1)), str(f)
            if n is None:  # repeated root or a cubic factor
                continue
            covered += 1
            assert 2 * n == tally[f], str(f)
        assert covered == 1128

    @pytest.mark.parametrize("p", [7, 11])
    def test_seeded_sample_against_f_p4_route(self, p):
        F2 = make_field(p, 2)
        rng = random.Random(4 * p + 1)
        sampled = 0
        while sampled < 100:
            if sampled % 2:
                tail = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(3)]
                f = Polynomial.from_ints(make_field(p, 1), tail + [1])
            else:
                beta = F2.element_from_index(rng.randrange(F2.order))
                f = conjugate_product(beta, rng.randrange(1, p))
            linear, n = recorded_counts(f)
            assert linear == len(roots_in(f, 1)), str(f)
            if not is_squarefree(f):
                continue
            sampled += 1
            assert n == admissible_pairings(f), str(f)


def squarefree_record(
    f: tuple[int, ...], p: int, order: int | None, irreducible=False
) -> FrobeniusRecord:
    """A record for the squarefree monic quartic f at q = 2, order as given;
    an irreducible f is not factored again."""
    return FrobeniusRecord(
        q=2,
        charpoly=f,
        factorization=Factorization(p, 1, ((f, 1),)) if irreducible else fp_factorization(f, p),
        squarefree=True,
        projective_order=order,
        similitude=1,
    )


def assert_order_route_matches_exponent_route(orders: dict, p: int) -> None:
    """The pairing count of each irreducible quartic's record, which reads
    its projective order, against x^((p^2 + 1)(p - 1)) = 1 mod f."""
    counted = Counter()
    for f, n in orders.items():
        res = check_conjugate_22_split([squarefree_record(f, p, n, irreducible=True)], p)
        expected = int(reference_powmod((0, 1), (p * p + 1) * (p - 1), f, p) == (1,))
        assert res.data["admissible_pairings"] == {"2": expected}, (f, n)
        assert res.witnesses == (() if expected else (2,))
        counted[expected] += 1
    assert counted[0] and counted[1]  # both outcomes occur


class TestConjugatePairOrderRoute:
    """An irreducible record counts one pairing iff its projective order
    divides p^2 + 1: the same test as the exponentiation it replaces."""

    # p = 7 is covered by test_exhaustive_p7_against_definitional_tally,
    # whose irreducible records carry fp_projective_order's orders
    @pytest.mark.parametrize("p, count", [(5, 150), (11, 3630), (13, 7098)])
    def test_every_irreducible_quartic(self, p, count):
        orders = irreducible_quartic_orders(p)
        assert len(orders) == count == (p**4 - p**2) // 4
        if p == 5:  # the orders are the records' own, and the descent's
            for f, n in orders.items():
                assert fp_projective_order(f, p) == n == irreducible_projective_order(f, p), f
        assert_order_route_matches_exponent_route(orders, p)

    @pytest.mark.parametrize("p", [19, 23, 31, 103])
    def test_seeded_irreducible_quartics(self, p):
        rng = random.Random(9000 + p)
        orders = {}
        while len(orders) < 500:
            f = tuple(rng.randrange(p) for _ in range(4)) + (1,)
            if f not in orders and fp_factorization(f, p).factors == ((f, 1),):
                orders[f] = irreducible_projective_order(f, p)
        assert_order_route_matches_exponent_route(orders, p)

    @pytest.mark.parametrize("f, order", [((3, 0, 1, 1, 1), 400), ((2, 5, 2, 3, 1), 25)])
    def test_irreducible_record_without_an_order_is_skipped(self, f, order):
        # with its order, 400 (not dividing 50) makes a witness and 25 does
        # not; without it: no TypeError, and never a witness
        p = 7
        assert fp_factorization(f, p).factors == ((f, 1),)
        assert fp_projective_order(f, p) == order
        with_order = check_conjugate_22_split([squarefree_record(f, p, order)], p)
        assert with_order.data["admissible_pairings"] == {"2": int(50 % order == 0)}
        res = check_conjugate_22_split([squarefree_record(f, p, None)], p)
        assert not res.passed
        assert res.witnesses == ()
        assert res.data["admissible_pairings"] == {}

    @pytest.mark.parametrize("f, count", [((2, 0, 3, 0, 1), 2), ((5, 0, 1, 0, 1), 0)])
    def test_split_records_do_not_read_the_order(self, f, count):
        # (x^2 + 1)(x^2 + 2) and (x + 1)(x + 6)(x^2 + 2) count from their
        # factors alone, as before
        res = check_conjugate_22_split([squarefree_record(f, 7, None)], 7)
        assert res.data["admissible_pairings"] == {"2": count}


class TestPrimitivity:
    def test_paper_dataset_passes_on_all_inert_primes(self):
        rd = specialize(paper_dataset(), 7, 1)
        res = check_primitivity(rd)
        assert res.passed
        assert res.witnesses == (3, 5)
        assert res.data["inert_primes"] == [3, 5]

    def test_zero_trace_at_any_inert_prime_fails(self):
        mutated = paper_dataset({**EIGENVALUES, 3: (0,)})
        res = check_primitivity(specialize(mutated, 7, 1))
        assert not res.passed
        assert "3" in res.justification

    def test_single_inert_prime_with_zero_trace_fails(self):
        ds = paper_dataset({2: (4,), 4: (5,), 3: (0,), 9: (2,)})
        res = check_primitivity(specialize(ds, 7, 1))
        assert not res.passed

    def test_no_inert_primes_fails(self):
        ds = paper_dataset({2: (4,), 4: (5,)})  # 2 is a residue mod 7
        res = check_primitivity(specialize(ds, 7, 1))
        assert not res.passed
        assert res.witnesses == ()

    def test_requires_p_three_mod_four(self):
        ds = EigenformDataset(
            weight=4, level=1, defining_poly=(0, 1),
            eigenvalues={2: (1,), 4: (1,)}, assumptions=frozenset(),
        )
        rd = specialize(ds, 5, 0)
        with pytest.raises(ValueError, match="3 mod 4"):
            check_primitivity(rd)


class TestExceptional:
    def test_builtin_table_frozen(self):
        table = builtin_exceptional_table(7)
        assert table.entries == (
            ("PGL(2,7)", 336),
            ("2^4.O4^-(2).2", 3840),
            ("A7.2", 5040),
        )

    def test_paper_records_pass_via_order_25(self):
        res = check_exceptional(paper_records(), builtin_exceptional_table(7), 7)
        assert res.passed
        assert res.witnesses == (2,)
        for n in (336, 3840, 5040):
            assert n % 25 != 0

    def test_order_8_fails(self):
        rec = next(r for r in paper_records() if r.q == 5)
        res = check_exceptional([rec], builtin_exceptional_table(7), 7)
        assert not res.passed
        assert 336 % 8 == 0

    def test_order_1_fails(self):
        f = Polynomial.from_ints(F7, (2, 5, 2, 3, 1))
        rec = synthetic_record(2, f, order=1)
        res = check_exceptional([rec], builtin_exceptional_table(7), 7)
        assert not res.passed

    def test_table_prime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_exceptional(paper_records(), builtin_exceptional_table(7), 11)

    def test_no_builtin_table_for_other_primes(self):
        with pytest.raises(ValueError):
            builtin_exceptional_table(11)


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
        b = certify(ds, 7, 1, table=builtin_exceptional_table(7))
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
            (19, builtin_exceptional_table(7), "table is for p = 7"),
            # with no entries "divides none of the orders" holds vacuously
            (7, ExceptionalTable(7, ()), "table for p = 7 has no entries"),
            (7, ExceptionalTable(7, (("PGL(2,7)", 0),)), "has an order below 1"),
            (7, ExceptionalTable(7, (("PGL(2,7)", 336), ("A7.2", -5040))), "order below 1"),
        ],
    )
    def test_unsupported_prime_rejected_before_specialize(self, monkeypatch, p, table, message):
        def unreachable(*args):
            raise AssertionError("specialize ran")

        monkeypatch.setattr("gspcert.certifier.specialize", unreachable)
        with pytest.raises(ValueError, match=message):
            certify(paper_dataset(), p, 0, table=table)

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
