"""End-to-end acceptance gate.

One test per acceptance criterion.  Each test prints a single summary line
(with timings where the criterion asks for them); timings are reported,
never asserted.
"""
from __future__ import annotations

import itertools
import random
import time
from importlib import resources
from math import gcd

from gspcert import EigenformDataset, certify, embedding_roots, ingest, render_json
from gspcert.certifier import check_conjugate_22_split
from gspcert.eigen_data import FrobeniusRecord, hecke_charpoly, hecke_quartic, specialize
from gspcert.polynomial import fp_hecke_factorization, fp_projective_order, fp_str
from oracles import (
    conjugate_product,
    expand,
    fp_factorization,
    fp_is_irreducible,
    is_projective_order,
    roots_in,
    stepped_fp_projective_order,
    validate_similitude_shape,
)
from symplectic import companion, projective_order

DATASETS = resources.files("gspcert") / "datasets"
PAPER = str(DATASETS / "weight28_level1.dataset")
A3ZERO = str(DATASETS / "weight28_level1_a3zero.dataset")
SPLIT = str(DATASETS / "weight28_level1_fully_split.dataset")

DEFINING = (-59412960, -294086, -1, 1)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_defining_cubic_splits():
    started = time.perf_counter()
    roots = embedding_roots(DEFINING, 7)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert roots == [4, 3, 1]
    fac = fp_factorization(tuple(c % 7 for c in DEFINING), 7)  # the reference
    assert str(fac) == "(x + 3)(x + 4)(x + 6)"
    assert fac.linear_roots() == [(r, 1) for r in roots]
    report(1, f"embedding roots {roots} in {elapsed_ms:.3f} ms; the cubic factors as {fac}")


def paper_record(q: int) -> FrobeniusRecord:
    residues = specialize(ingest(PAPER), 7, 1)
    return hecke_charpoly(residues[q], residues[q * q], q, 28, 7)


def test_criterion_2_frobenius_charpolys():
    rec2, rec3, rec5 = (paper_record(q) for q in (2, 3, 5))
    assert fp_str(rec2.charpoly) == "x^4 + 3x^3 + 2x^2 + 5x + 2"
    assert str(rec3.factorization) == "(x + 3)(x + 4)(x^2 + 4x + 5)"
    assert str(rec5.factorization) == "(x^2 + x + 3)(x^2 + 5x + 3)"
    report(2, "charpolys at q = 2, 3, 5 match the expected factorizations")


def test_criterion_3_projective_order_25():
    residues = specialize(ingest(PAPER), 7, 1)
    started = time.perf_counter()
    rec = hecke_charpoly(residues[2], residues[4], 2, 28, 7)
    elapsed_ms = (time.perf_counter() - started) * 1000
    via_matrix = projective_order(companion(rec.charpoly, 7), 7)  # the reference
    assert rec.projective_order == 25 == via_matrix
    report(3, f"the q = 2 record has order 25 in {elapsed_ms:.3f} ms, as its companion matrix")


def test_criterion_4_base_field_root_counts():
    roots = {}
    for q in (2, 3, 5):
        rec = paper_record(q)
        roots[q] = sorted(r for r, m in rec.factorization.linear_roots() for _ in range(m))
        assert [(r,) for r in roots[q]] == roots_in(rec.charpoly, 7, 1), q
    assert roots[2] == []
    assert roots[5] == []
    assert roots[3] == [3, 4]
    report(4, "q = 2, 5 are rootless mod 7 and q = 3 has roots exactly {3, 4}")


def test_criterion_5_certify_large_image():
    cert = certify(ingest(PAPER), 7, 1)
    assert cert.verdict == "LARGE_IMAGE"
    assert all(c.passed for c in cert.checks)
    by_name = {c.name: c for c in cert.checks}
    assert 2 in by_name["rational_22_split"].witnesses
    assert 2 in by_name["exceptional"].witnesses
    assert 3 in by_name["primitivity"].witnesses
    report(5, "verdict LARGE_IMAGE with all six checks passing")


def test_criterion_6_multiplier_surjective():
    cert = certify(ingest(PAPER), 7, 1)
    check = next(c for c in cert.checks if c.name == "multiplier_surjective")
    assert check.passed
    assert check.data == {"character_power": 53, "unit_group_order": 6, "gcd": 1}
    assert gcd(2 * 28 - 3, 7 - 1) == 1
    report(6, "gcd(53, 6) = 1 so the similitude character is onto")


def test_criterion_7_negative_controls():
    # (i) zeroing the inert-prime trace a_3 must flip exactly primitivity
    mutant = certify(ingest(A3ZERO), 7, 1)
    assert mutant.verdict == "INCONCLUSIVE"
    failing = {c.name for c in mutant.checks if not c.passed}
    assert failing == {"primitivity"}

    # (ii) a product g * conjugate(g) with coefficients in F_7 is a shape the
    # conjugate-pair check must recognize, hence never exclude
    # g = x^2 + t x + 3 over F_49 = F_7[t]/(t^2 + 1)
    f = conjugate_product([(3, 0), (0, 1), (1, 0)], 7)  # asserts f is over F_7
    fac = fp_factorization(f, 7)
    rec = FrobeniusRecord(
        q=2, charpoly=f, factorization=fac,
        squarefree=fac.is_squarefree(), projective_order=None, similitude=1,
    )
    res = check_conjugate_22_split([rec])
    assert not res.passed
    assert res.data["admissible_pairings"]["2"] >= 1

    # (iii) if every charpoly has a root mod 7, the linear check must fail
    split = certify(ingest(SPLIT), 7, 1)
    assert split.verdict == "INCONCLUSIVE"
    assert not next(c for c in split.checks if c.name == "linear_constituent").passed
    report(7, "all three negative controls behave as designed")


def test_criterion_8_randomized_oracles():
    rng = random.Random(20260819)

    # (i) the certificate's factorizer on seeded Hecke quartics: monic
    # irreducible factors, sorted by degree and then high coefficients
    # first, whose product is the quartic
    for _ in range(500):
        q, k = rng.choice((2, 3, 5, 11)), rng.randrange(2, 31)
        f = hecke_quartic(rng.randrange(7), rng.randrange(7), q, k, 7)
        fac = fp_hecke_factorization(f, pow(q, 2 * k - 3, 7), 7)
        for g, _ in fac.factors:
            assert g[-1] == 1 and fp_is_irreducible(g, 7), (f, g)
        keys = [(len(g), g[::-1]) for g, _ in fac.factors]
        assert keys == sorted(keys), f
        assert tuple(expand(fac)) == f

    # (ii) the stepping oracle agrees with the matrix route on monic quartics
    # with f(0) != 0, all that either route needs, and the certificate's
    # order, read off the factorization, with stepping on seeded squarefree
    # Hecke quartics
    for _ in range(200):
        charpoly = (rng.randrange(1, 7),) + tuple(rng.randrange(7) for _ in range(3)) + (1,)
        n = projective_order(companion(charpoly, 7), 7)
        assert stepped_fp_projective_order(charpoly, 7) == n
    hecke = 0
    while hecke < 200:
        q, k = rng.choice((2, 3, 5, 11)), rng.randrange(2, 31)
        f = hecke_quartic(rng.randrange(7), rng.randrange(7), q, k, 7)
        nu = pow(q, 2 * k - 3, 7)
        fac = fp_hecke_factorization(f, nu, 7)
        if fac.is_squarefree():
            assert fp_projective_order(fac) == stepped_fp_projective_order(f, 7), f
            hecke += 1

    # (iii) every generated quartic has the reciprocal similitude shape
    cases = 0
    for a in range(7):
        for b in range(7):
            for q in (2, 3, 5, 11):
                for k in range(2, 31):
                    f = hecke_quartic(a, b, q, k, 7)
                    assert validate_similitude_shape(f, q, k, 7)
                    cases += 1
    assert cases == 5684

    # (iv) the stepping oracle against the order's definition (x^n
    # constant, x^(n/l) not for each prime l | n) on every monic
    # irreducible quartic over F_7, and the certificate's order on those of
    # Hecke shape
    irreducible = hecke = 0
    for tail in itertools.product(range(7), repeat=4):
        f = tail + (1,)
        if fp_is_irreducible(f, 7):
            n = stepped_fp_projective_order(f, 7)
            assert is_projective_order(n, f, 7), f
            irreducible += 1
            nu = f[1] * pow(f[3], -1, 7) % 7 if f[3] else 0
            if nu and f[0] == nu * nu % 7:
                assert fp_projective_order(fp_hecke_factorization(f, nu, 7)) == n, f
                hecke += 1
    assert irreducible == (7**4 - 7**2) // 4 == 588
    assert hecke == 72
    report(8, "500 Hecke factorizations, 400 order agreements, 5684 shape checks, "
              "588 irreducible orders all verified")


def test_criterion_9_deterministic_certificates():
    forward = EigenformDataset(
        weight=28, level=1, defining_poly=(-59412960, -294086, -1, 1),
        eigenvalues={2: (4,), 4: (5,), 3: (3,), 9: (2,), 5: (1,), 25: (2,)},
        assumptions=frozenset({"not_maass_spezialform", "conductor_one"}),
    )
    backward = EigenformDataset(
        weight=28, level=1, defining_poly=(-59412960, -294086, -1, 1),
        eigenvalues={25: (2,), 5: (1,), 9: (2,), 3: (3,), 4: (5,), 2: (4,)},
        assumptions=frozenset({"conductor_one", "not_maass_spezialform"}),
    )
    first = render_json([certify(forward, 7, root) for root in (4, 3, 1)])
    second = render_json([certify(backward, 7, root) for root in (4, 3, 1)])
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    report(9, "independently built reports are byte-identical")
