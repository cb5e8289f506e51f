"""Tests for dataset modeling, embedding, and Frobenius data extraction."""
from __future__ import annotations

from importlib import resources

import pytest

from gspcert import eigen_data
from gspcert.cli import RunConfig, run
from gspcert.eigen_data import (
    EigenformDataset,
    embedding_roots,
    hecke_charpoly,
    hecke_quartic,
    residual_roots,
    specialize,
)
from gspcert.field_elements import make_field
from gspcert.polynomial import fp_str
from oracles import validate_similitude_shape

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
    def test_defining_cubic_factorization_frozen(self):
        fac = residual_roots(DEFINING, 7)
        assert str(fac) == "(x + 3)(x + 4)(x + 6)"

    def test_embedding_roots_in_factor_order(self):
        assert [r.lift() for r in embedding_roots(DEFINING, 7)] == [4, 3, 1]

    def test_irreducible_poly_gives_no_embeddings(self):
        fac = residual_roots((1, 0, 1), 7)
        assert len(fac.factors) == 1
        assert embedding_roots((1, 0, 1), 7) == []

    def test_repeated_root_is_not_an_embedding(self):
        # (x - 1)^2 (x - 2) = x^3 - 4x^2 + 5x - 2
        assert [r.lift() for r in embedding_roots((-2, 5, -4, 1), 7)] == [2]

    def test_p_must_be_prime(self):
        with pytest.raises(ValueError):
            residual_roots(DEFINING, 6)

    def test_p_must_not_kill_leading_coefficient(self):
        with pytest.raises(ValueError):
            residual_roots((1, 7), 7)

    def test_list_input_shares_the_memoized_factorization(self):
        assert residual_roots(list(DEFINING), 7) is residual_roots(DEFINING, 7)
        assert [r.lift() for r in embedding_roots(list(DEFINING), 7)] == [4, 3, 1]

    def test_defining_poly_factored_once_across_all_roots(self, monkeypatch, capsys):
        # the CLI takes the roots from E's factorization and specialize checks
        # each root against it: one factorization of E serves them all
        real_factor = eigen_data.factor
        factored = []

        def counting_factor(f, p):
            factored.append(f)
            return real_factor(f, p)

        monkeypatch.setattr(eigen_data, "factor", counting_factor)
        eigen_data._residual_roots.cache_clear()
        path = resources.files("gspcert") / "datasets" / "weight28_level1.dataset"
        assert run(RunConfig(input_path=str(path), p=7, root=None, fmt="text", out=None)) == 0
        assert "3 certificate(s)" in capsys.readouterr().out
        e = tuple(c % 7 for c in DEFINING)
        assert sum(f == e for f in factored) == 1
        assert len(factored) == 1 + 3 * 3  # E, then three charpolys per root


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
