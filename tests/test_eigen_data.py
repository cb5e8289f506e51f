"""Tests for dataset modeling, embedding, and Frobenius data extraction."""
from __future__ import annotations

import random
from importlib import resources

import pytest

from cli_runner import invoke
from field_elements import make_field
from gspcert import eigen_data
from gspcert.eigen_data import (
    EigenformDataset,
    embedding_roots,
    hecke_charpoly,
    hecke_quartic,
    specialize,
)
from gspcert.polynomial import fp_factorization, fp_str
from oracles import fp_mul, monic_polys, validate_similitude_shape

F7 = make_field(7, 1)

DEFINING = (-59412960, -294086, -1, 1)
EIGENVALUES = {2: (4,), 4: (5,), 3: (3,), 9: (2,), 5: (1,), 25: (2,)}
ASSUMPTIONS = frozenset({"not_maass_spezialform", "conductor_one"})


def paper_dataset(**overrides) -> EigenformDataset:
    kwargs = dict(
        weight=28,
        level=1,
        defining_poly=DEFINING,
        eigenvalues=EIGENVALUES,
        assumptions=ASSUMPTIONS,
    )
    kwargs.update(overrides)
    return EigenformDataset(**kwargs)


class TestDatasetValidation:
    def test_paper_dataset_is_valid(self):
        ds = paper_dataset()
        assert ds.primes() == [2, 3, 5]

    def test_weight_and_level_bounds(self):
        with pytest.raises(ValueError):
            paper_dataset(weight=1)
        with pytest.raises(ValueError):
            paper_dataset(level=2)

    def test_defining_poly_must_be_monic(self):
        with pytest.raises(ValueError):
            paper_dataset(defining_poly=(1, 2))
        with pytest.raises(ValueError):
            paper_dataset(defining_poly=(5,))

    def test_defining_degree_capped(self):
        paper_dataset(defining_poly=(1,) * (eigen_data.MAX_DEFINING_DEGREE + 1))
        with pytest.raises(ValueError, match="degree 129, above the supported 128"):
            paper_dataset(defining_poly=(1,) * (eigen_data.MAX_DEFINING_DEGREE + 2))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no Frobenius data"):
            paper_dataset(eigenvalues={})

    def test_pair_completeness_both_directions(self):
        partial = dict(EIGENVALUES)
        del partial[9]
        with pytest.raises(ValueError, match="9"):
            paper_dataset(eigenvalues=partial)
        partial = dict(EIGENVALUES)
        del partial[3]
        with pytest.raises(ValueError, match="3"):
            paper_dataset(eigenvalues=partial)

    def test_index_must_be_prime_or_prime_square(self):
        bad = dict(EIGENVALUES)
        bad[6] = (1,)
        with pytest.raises(ValueError, match="6"):
            paper_dataset(eigenvalues=bad)

    @pytest.mark.parametrize("index", [10**400, -4, 0], ids=["10**400", "-4", "0"])
    def test_huge_or_negative_index_rejected(self, index):
        bad = dict(EIGENVALUES)
        bad[index] = (1,)
        with pytest.raises(ValueError, match="neither a prime nor a prime square"):
            paper_dataset(eigenvalues=bad)

    def test_expression_degree_bounded_by_defining_degree(self):
        bad = dict(EIGENVALUES)
        bad[2] = (1, 2, 3, 4)  # degree 3 expression, deg E = 3
        with pytest.raises(ValueError):
            paper_dataset(eigenvalues=bad)

    def test_unknown_assumption_flags_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            paper_dataset(assumptions=frozenset({"totally_real"}))

    def test_replace_validates_like_construction(self):
        ds = paper_dataset()
        assert ds._replace(weight=30) == paper_dataset(weight=30)
        with pytest.raises(ValueError, match="only level 1"):
            ds._replace(level=2)

    def test_digest_frozen_and_order_insensitive(self):
        ds = paper_dataset()
        assert ds.digest().startswith("41bfa1c8e09416c0")
        reordered = paper_dataset(
            eigenvalues={k: EIGENVALUES[k] for k in reversed(list(EIGENVALUES))}
        )
        assert reordered.digest() == ds.digest()

    def test_digest_sensitive_to_values(self):
        mutated = dict(EIGENVALUES)
        mutated[2] = (5,)
        assert paper_dataset(eigenvalues=mutated).digest() != paper_dataset().digest()


class TestResidualRoots:
    def test_embedding_roots_in_factor_order(self):
        assert [r.lift() for r in embedding_roots(DEFINING, 7)] == [4, 3, 1]
        assert embedding_roots(list(DEFINING), 7) == [4, 3, 1]

    def test_irreducible_poly_gives_no_embeddings(self):
        assert embedding_roots((1, 0, 1), 7) == []

    def test_repeated_root_is_not_an_embedding(self):
        # (x - 1)^2 (x - 2) = x^3 - 4x^2 + 5x - 2
        assert [r.lift() for r in embedding_roots((-2, 5, -4, 1), 7)] == [2]

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError, match="^6 is not prime$"):
            embedding_roots(DEFINING, 6)
        with pytest.raises(ValueError, match="^6 is not prime$"):
            specialize(paper_dataset(), 6, 1)

    def test_p_must_not_kill_leading_coefficient(self):
        with pytest.raises(ValueError, match="leading coefficient of E vanishes mod 7"):
            embedding_roots((1, 7), 7)
        with pytest.raises(ValueError, match="^E has no coefficients$"):
            embedding_roots([], 7)

    def test_defining_poly_never_factored(self, monkeypatch):
        # the CLI takes the roots from gcd(E, x^p - x) and specialize checks
        # each root by evaluating E and E': only the charpolys are factored
        real_factor = eigen_data.factor
        factored = []

        def counting_factor(f, p):
            factored.append(f)
            return real_factor(f, p)

        monkeypatch.setattr(eigen_data, "factor", counting_factor)
        path = resources.files("gspcert") / "datasets" / "weight28_level1.dataset"
        res = invoke(["certify", str(path), "--root", "all"])
        assert res.exit_code == 0
        assert "3 certificate(s)" in res.stdout
        assert tuple(c % 7 for c in DEFINING) not in factored
        assert len(factored) == 3 * 3  # three charpolys per root
        assert all(len(f) == 5 for f in factored)


def linear_roots(e, p: int) -> list[tuple[int, int]]:
    """The oracle: (root, multiplicity) for the linear factors of E over
    F_p, in factor order."""
    return fp_factorization(tuple(c % p for c in e), p).linear_roots()


def planted_poly(rng: random.Random, p: int, degree: int, cofactor_degree: int) -> list[int]:
    """A degree-`degree` polynomial over Z, its leading coefficient a unit
    mod p: linear factors x - r, some repeated, times a random cofactor of
    degree at most cofactor_degree, each coefficient lifted by a random
    multiple of p."""
    f: tuple[int, ...] = (rng.randrange(1, p),)
    cofactor = min(cofactor_degree, degree)
    while len(f) - 1 < degree - cofactor:
        r = rng.randrange(p)
        for _ in range(min(rng.choice((1, 1, 1, 2, 3)), degree - cofactor - len(f) + 1)):
            f = fp_mul(f, (-r % p, 1), p)
    f = fp_mul(f, tuple(rng.randrange(p) for _ in range(degree - len(f) + 1)) + (1,), p)
    return [c + p * rng.randrange(-3, 4) for c in f[:-1]] + [f[-1]]


class TestEmbeddingRootsAgainstFactoring:
    """embedding_roots reads the simple roots off gcd(E, x^p - x) and E';
    the factorization of E it replaced is the oracle."""

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_every_monic_poly_of_degree_at_most_three(self, p):
        for d in (1, 2, 3):
            for e in monic_polys(p, d):
                assert embedding_roots(e, p) == [r for r, m in linear_roots(e, p) if m == 1], e

    # cofactor degree: the oracle's distinct-degree pass on the random part
    # costs about deg^3 log p, so it shrinks as p grows
    @pytest.mark.parametrize("p, cofactor_degree", [(19, 128), (103, 64), (10007, 24)])
    def test_seeded_polys_with_repeated_roots(self, p, cofactor_degree):
        rng = random.Random(p)
        degrees = [rng.randint(1, 12) for _ in range(24)] + [rng.randint(13, 127) for _ in range(4)] + [128]
        repeated = 0
        for degree in degrees:
            e = planted_poly(rng, p, degree, rng.randint(0, cofactor_degree))
            assert len(e) == degree + 1 and e[-1] % p
            pairs = linear_roots(e, p)
            assert embedding_roots(e, p) == [r for r, m in pairs if m == 1], (p, e)
            repeated += any(m > 1 for _, m in pairs)
        assert repeated  # some E had a repeated root to leave out

    def test_specialize_outcomes_for_every_root_at_p7(self):
        for d in (1, 2, 3):
            for e in monic_polys(7, d):
                ds = paper_dataset(defining_poly=tuple(e), eigenvalues={2: (4,), 4: (5,)})
                mult = dict(linear_roots(e, 7))
                for r in range(7):
                    if r not in mult:
                        with pytest.raises(ValueError, match="is not a root of E mod 7"):
                            specialize(ds, 7, r)
                    elif mult[r] == 1:
                        assert specialize(ds, 7, r).root == r
                    else:
                        with pytest.raises(ValueError, match="repeated root of E mod 7; refusing"):
                            specialize(ds, 7, r)


class TestSpecialize:
    def test_paper_residuals_at_root_one(self):
        rd = specialize(paper_dataset(), 7, 1)
        values = dict(rd.eigenvalues)
        assert values == {2: 4, 4: 5, 3: 3, 9: 2, 5: 1, 25: 2}
        assert rd.p == 7
        assert rd.root == 1
        assert rd.assumptions == ASSUMPTIONS

    def test_constants_ignore_root_choice(self):
        ds = paper_dataset()
        tables = [
            dict(specialize(ds, 7, r).eigenvalues)
            for r in (4, 3, 1)
        ]
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize(
        "root", [F7.element(4), 4.0, True], ids=["f7-element", "float", "bool"]
    )
    def test_root_other_than_an_int_refused(self, root):
        # an F_7 element is a root only after .lift()
        with pytest.raises(ValueError, match=r"must be an int in \[0, 7\)"):
            specialize(paper_dataset(), 7, root)

    def test_alpha_expression_evaluates_to_root(self):
        alpha = {2: (0, 1), 4: (0, 1), 3: (1,), 9: (1,), 5: (2,), 25: (2,)}
        ds = paper_dataset(eigenvalues=alpha)
        for root in (4, 3, 1):
            rd = specialize(ds, 7, root)
            assert rd.eigenvalues[2] == root

    def test_commutes_with_integer_reduction(self):
        big = 10 ** 12 + 3, 10 ** 9 + 2, 10 ** 6 + 5
        ds = paper_dataset(eigenvalues={
            2: big, 4: (1,), 3: (1,), 9: (1,), 5: (1,), 25: (1,),
        })
        for root in (4, 3, 1):
            rd = specialize(ds, 7, root)
            expected = sum(c * root ** i for i, c in enumerate(big)) % 7
            assert rd.eigenvalues[2] == expected

    def test_non_root_rejected(self):
        with pytest.raises(ValueError, match="not a root"):
            specialize(paper_dataset(), 7, 2)

    @pytest.mark.parametrize("root", [7, 8, -1, -6])
    def test_out_of_range_root_rejected(self, root):
        with pytest.raises(ValueError, match=r"must lie in \[0, 7\)"):
            specialize(paper_dataset(), 7, root)

    def test_repeated_root_rejected(self):
        ds = paper_dataset(defining_poly=(-2, 5, -4, 1))
        with pytest.raises(ValueError):
            specialize(ds, 7, 1)
        rd = specialize(ds, 7, 2)
        assert rd.root == 2

    def test_root_must_be_prime_field(self):
        with pytest.raises(ValueError):
            specialize(paper_dataset(), 7, make_field(7, 2).gen())


class TestHeckeCharpoly:
    def test_three_paper_records(self):
        rd = specialize(paper_dataset(), 7, 1)
        expected = {
            2: ("x^4 + 3x^3 + 2x^2 + 5x + 2",
                "(x^4 + 3x^3 + 2x^2 + 5x + 2)", 25, 4),
            3: ("x^4 + 4x^3 + 3x^2 + 6x + 4",
                "(x + 3)(x + 4)(x^2 + 4x + 5)", 16, 5),
            5: ("x^4 + 6x^3 + 4x^2 + 4x + 2",
                "(x^2 + x + 3)(x^2 + 5x + 3)", 8, 3),
        }
        for q, (poly, fac, order, nu) in expected.items():
            rec = hecke_charpoly(rd, q)
            assert fp_str(rec.charpoly) == poly
            assert str(rec.factorization) == fac
            assert rec.squarefree
            assert rec.projective_order == order
            assert rec.similitude == nu

    def test_independent_of_table_insertion_order(self):
        ds = paper_dataset(
            eigenvalues={k: EIGENVALUES[k] for k in reversed(list(EIGENVALUES))}
        )
        rd = specialize(ds, 7, 1)
        rec = hecke_charpoly(rd, 2)
        assert fp_str(rec.charpoly) == "x^4 + 3x^3 + 2x^2 + 5x + 2"

    def test_q_equal_p_rejected(self):
        rd = specialize(paper_dataset(), 7, 1)
        with pytest.raises(ValueError, match="no Frobenius characteristic polynomial"):
            hecke_charpoly(rd, 7)

    def test_q_must_be_prime(self):
        rd = specialize(paper_dataset(), 7, 1)
        with pytest.raises(ValueError, match="not prime"):
            hecke_charpoly(rd, 6)

    def test_missing_eigenvalues_rejected(self):
        rd = specialize(paper_dataset(), 7, 1)
        with pytest.raises(ValueError, match="a_11"):
            hecke_charpoly(rd, 11)

    def test_quartic_formula_against_integer_arithmetic(self):
        for a, b, q, k in ((4, 5, 2, 28), (3, 2, 3, 28), (1, 2, 5, 28), (6, 0, 11, 9)):
            f = hecke_quartic(a, b, q, k, 7)
            nu = pow(q, (2 * k - 3) % 6, 7)
            c2 = (a * a - b - pow(q, (2 * k - 4) % 6, 7)) % 7
            expected = [nu * nu % 7, (-a * nu) % 7, c2, (-a) % 7, 1]
            assert list(f) == expected


class TestSimilitudeShape:
    def test_pol2_shape_holds(self):
        f = (2, 5, 2, 3, 1)
        assert validate_similitude_shape(f, 2, 28, 7)

    def test_wrong_constant_fails(self):
        f = (1, 0, 0, 0, 1)
        assert not validate_similitude_shape(f, 2, 28, 7)

    def test_all_built_quartics_pass(self):
        for a in range(7):
            for b in range(7):
                f = hecke_quartic(a, b, 3, 11, 7)
                assert validate_similitude_shape(f, 3, 11, 7)

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            validate_similitude_shape((1, 1), 2, 28, 7)
