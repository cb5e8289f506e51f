"""End-to-end acceptance gate.

One test per acceptance criterion.  Each test prints a single summary line
(with timings where the criterion asks for them); timings are reported,
never asserted.
"""
from __future__ import annotations

import random
import time
from importlib import resources
from math import gcd

from field_elements import make_field
from field_polynomial import Polynomial, factor, is_irreducible
from gspcert import (
    EigenformDataset,
    certify,
    hecke_charpoly,
    hecke_quartic,
    ingest,
    render_json,
    specialize,
)
from gspcert.certifier import check_conjugate_22_split
from gspcert.eigen_data import FrobeniusRecord
from gspcert.polynomial import fp_str
from oracles import (
    conjugate_poly,
    eigen_projective_order,
    in_subfield,
    mult_order,
    roots_in,
    validate_similitude_shape,
)
from symplectic import companion, projective_order

F7 = make_field(7, 1)
F49 = make_field(7, 2)
F2401 = make_field(7, 4)

DATASETS = resources.files("gspcert") / "datasets"
PAPER = str(DATASETS / "weight28_level1.dataset")
A3ZERO = str(DATASETS / "weight28_level1_a3zero.dataset")
SPLIT = str(DATASETS / "weight28_level1_fully_split.dataset")

DEFINING = Polynomial.from_ints(F7, (-59412960, -294086, -1, 1))


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_defining_cubic_splits():
    started = time.perf_counter()
    fac = factor(DEFINING)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert str(fac) == "(x + 3)(x + 4)(x + 6)"
    assert fac.linear_roots() == [(4, 1), (3, 1), (1, 1)]
    report(1, f"defining cubic factors as {fac} in {elapsed_ms:.3f} ms")


def test_criterion_2_frobenius_charpolys():
    rd = specialize(ingest(PAPER), 7, 1)
    rec2 = hecke_charpoly(rd, 2)
    rec3 = hecke_charpoly(rd, 3)
    rec5 = hecke_charpoly(rd, 5)
    assert fp_str(rec2.charpoly) == "x^4 + 3x^3 + 2x^2 + 5x + 2"
    assert str(rec3.factorization) == "(x + 3)(x + 4)(x^2 + 4x + 5)"
    assert str(rec5.factorization) == "(x^2 + x + 3)(x^2 + 5x + 3)"
    report(2, "charpolys at q = 2, 3, 5 match the expected factorizations")


def test_criterion_3_projective_order_25():
    rd = specialize(ingest(PAPER), 7, 1)
    f = Polynomial.from_ints(F7, hecke_charpoly(rd, 2).charpoly)
    started = time.perf_counter()
    via_matrix = projective_order(companion(f))
    via_roots = eigen_projective_order(f)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert via_matrix == 25
    assert via_roots == 25
    report(3, f"both order routes give 25 in {elapsed_ms:.3f} ms")


def test_criterion_4_base_field_root_counts():
    rd = specialize(ingest(PAPER), 7, 1)
    roots = {
        q: roots_in(Polynomial.from_ints(F7, hecke_charpoly(rd, q).charpoly), 1) for q in (2, 3, 5)
    }
    assert roots[2] == []
    assert roots[5] == []
    assert sorted(r.lift() for r in roots[3]) == [3, 4]
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
    t = F49.gen()
    g = Polynomial(F49, (F49.element(3), t, F49.one()))
    product = g * conjugate_poly(g)
    assert all(in_subfield(c, 1) for c in product.coeffs)
    f = Polynomial.from_ints(F7, [c.coeffs[0] for c in product.coeffs])
    fac = factor(f)
    rec = FrobeniusRecord(
        q=2, charpoly=tuple(c.lift() for c in f.coeffs), factorization=fac,
        squarefree=fac.is_squarefree(), projective_order=None, similitude=1,
    )
    res = check_conjugate_22_split([rec], 7)
    assert not res.passed
    assert res.data["admissible_pairings"]["2"] >= 1

    # (iii) if every charpoly has a root mod 7, the linear check must fail
    split = certify(ingest(SPLIT), 7, 1)
    assert split.verdict == "INCONCLUSIVE"
    assert not next(c for c in split.checks if c.name == "linear_constituent").passed
    report(7, "all three negative controls behave as designed")


def test_criterion_8_randomized_oracles():
    rng = random.Random(20260819)

    # (i) factor / expand roundtrips
    for _ in range(500):
        degree = rng.randrange(1, 7)
        coeffs = [F7.element(rng.randrange(7)) for _ in range(degree)] + [F7.one()]
        f = Polynomial(F7, tuple(coeffs))
        fac = factor(f)
        rebuilt = Polynomial.from_ints(F7, (fac.unit,))
        for g, multiplicity in ((Polynomial.from_ints(F7, g), m) for g, m in fac.factors):
            assert is_irreducible(g)
            assert g.coeffs[-1] == F7.one()
            for _ in range(multiplicity):
                rebuilt = rebuilt * g
        assert rebuilt == f
        keys = [
            (g.degree, tuple(F7.index(c) for c in reversed(g.coeffs)))
            for g in (Polynomial.from_ints(F7, g) for g, _ in fac.factors)
        ]
        assert keys == sorted(keys)

    # (ii) the root-based projective order agrees with the matrix route
    accepted = 0
    while accepted < 200:
        coeffs = [F7.element(rng.randrange(7)) for _ in range(4)] + [F7.one()]
        f = Polynomial(F7, tuple(coeffs))
        if f.coeffs[0] == F7.zero():
            continue
        fac = factor(f)
        if not fac.is_squarefree():
            continue
        if any(len(g) == 4 for g, _ in fac.factors):
            continue
        accepted += 1
        assert eigen_projective_order(f) == projective_order(companion(f))

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

    # (iv) group-theoretic order descent against naive iteration
    def naive_order(x):
        power = x
        for n in range(1, 10000):
            if power == x.field.one():
                return n
            power = power * x
        raise AssertionError("order not found")

    for n in range(1, 7):
        assert mult_order(F7.element(n)) == naive_order(F7.element(n))
    for field, group_order in ((F49, 48), (F2401, 2400)):
        for _ in range(100):
            x = field.element_from_index(rng.randrange(1, field.order))
            assert mult_order(x) == naive_order(x)
            assert group_order % mult_order(x) == 0
    report(8, "500 factorizations, 200 order agreements, 5684 shape checks, "
              "206 order descents all verified")


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
