"""Tests for dataset modeling, embedding, and Frobenius data extraction."""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from cli_runner import invoke
from gspcert import certifier, eigen_data
from gspcert.eigen_data import (
    EigenformDataset,
    embedding_roots,
    hecke_charpoly,
    hecke_quartic,
    ingest,
    specialize,
)
from gspcert.certifier import ExceptionalTable, certify
from gspcert.polynomial import (
    MAX_PRIME,
    MILLER_RABIN_BOUND,
    fp_hecke_factorization,
    fp_monic,
    fp_powmod,
    fp_str,
    is_prime,
)
from oracles import (
    factorize,
    fp_factorization,
    monic_polys,
    pmul,
    reference_digest,
    validate_similitude_shape,
)

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

    def test_square_of_a_prime_is_read_through_its_root(self):
        # q^2 lies above the primality test's bound while q does not: the
        # index is taken as q^2 before it is tested as a prime itself
        q = 2**61 - 1
        assert is_prime(q) and q * q >= MILLER_RABIN_BOUND
        assert eigen_data._eigenvalue_base(q * q) == q == eigen_data._eigenvalue_base(q)
        ds = paper_dataset(eigenvalues={**EIGENVALUES, q: (1,), q * q: (2,)})
        assert ds.primes() == [2, 3, 5, q] == validating_primes(ds.eigenvalues)

    def test_expression_degree_bounded_by_defining_degree(self):
        bad = dict(EIGENVALUES)
        bad[2] = (1, 2, 3, 4)  # degree 3 expression, deg E = 3
        with pytest.raises(ValueError):
            paper_dataset(eigenvalues=bad)

    def test_unknown_assumption_flags_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            paper_dataset(assumptions=frozenset({"totally_real"}))

    @pytest.mark.parametrize("field, value", [
        ("weight", 28.0), ("weight", "28"), ("weight", True), ("level", 1.0),
        ("defining_poly", DEFINING[:-1] + (1.0,)), ("defining_poly", list(DEFINING)),
        ("eigenvalues", {**EIGENVALUES, 2: (4.5,)}), ("eigenvalues", {**EIGENVALUES, 2: (True,)}),
        ("eigenvalues", {**EIGENVALUES, 2: [4]}),
        ("eigenvalues", {float(i): e for i, e in EIGENVALUES.items()}),
        ("eigenvalues", list(EIGENVALUES.items())),
        ("assumptions", ["conductor_one"]), ("assumptions", frozenset({1, "conductor_one"})),
    ], ids=[
        "weight-float", "weight-str", "weight-bool", "level-float", "E-float-coefficient",
        "E-list", "float-coefficient", "bool-coefficient", "list-expression", "float-index",
        "eigenvalues-list", "assumptions-list", "assumptions-int-flag",
    ])
    def test_fields_of_the_wrong_type_refused_with_one_line(self, field, value):
        # a bool is no int here: the digest would read True where 1 is meant
        for build in (lambda: paper_dataset(**{field: value}),
                      lambda: paper_dataset()._replace(**{field: value})):
            with pytest.raises(ValueError) as err:
                build()
            assert "\n" not in str(err.value)

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


def validating_primes(indices) -> list[int]:
    """The primes of an eigenvalue table as validation finds them: the
    base of every index, each tested for primality."""
    return sorted({eigen_data._eigenvalue_base(i) for i in indices})


SMALL_PRIMES = [q for q in range(2, 2000) if is_prime(q)]


class TestFastRoutesAgainstReplaced:
    """The dataset shortcuts the certificate takes, against the routes they
    replaced: the primes of a table read as the indices q with q^2 beside
    them, and the digest hashed as one string."""

    def test_primes_on_every_bundled_and_golden_dataset(self):
        paths = [*(resources.files("gspcert") / "datasets").iterdir(),
                 *(Path(__file__).parent / "golden").glob("*.dataset")]
        assert len(paths) == 4
        for path in paths:
            ds = ingest(path)
            assert ds.primes() == validating_primes(ds.eigenvalues), path
            for p in (7, 11, 19):
                for root in embedding_roots(ds.defining_poly, p):
                    assert specialize(ds, p, root).keys() == ds.eigenvalues.keys(), (path, p)

    def test_primes_on_seeded_valid_index_sets(self):
        rng = random.Random(2357)
        pool = SMALL_PRIMES + [10007, 1000003, 2**31 - 1]
        for _ in range(300):
            qs = rng.sample(pool, rng.randrange(1, 16))
            indices = [i for q in qs for i in (q, q * q)]
            rng.shuffle(indices)
            ds = EigenformDataset(4, 1, (0, 1), dict.fromkeys(indices, (1,)))
            assert ds.primes() == validating_primes(indices) == sorted(qs)

    def test_digest_matches_one_update_per_field(self):
        # zero, negative and multi-coefficient expressions, with and without
        # assumption flags
        rng = random.Random(1729)
        for _ in range(300):
            deg = rng.randrange(1, 5)
            defining = tuple(rng.randint(-10**6, 10**6) for _ in range(deg)) + (1,)
            eigenvalues = {
                i: tuple(rng.choice((0, 0, -1, rng.randint(-10**9, 10**9)))
                         for _ in range(rng.randrange(1, deg + 1)))
                for q in rng.sample(SMALL_PRIMES[:30], rng.randrange(1, 8)) for i in (q, q * q)
            }
            flags = frozenset(f for f in eigen_data.KNOWN_ASSUMPTIONS if rng.random() < 0.5)
            ds = EigenformDataset(rng.randrange(2, 60), 1, defining, eigenvalues, flags)
            assert ds.digest() == reference_digest(ds), ds
        assert paper_dataset().digest() == reference_digest(paper_dataset())


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
        with pytest.raises(ValueError, match=r"^7\.0 is not an int$"):
            embedding_roots(DEFINING, 7.0)

    def test_p_must_not_kill_leading_coefficient(self):
        with pytest.raises(ValueError, match="leading coefficient of E vanishes mod 7"):
            embedding_roots((1, 7), 7)
        with pytest.raises(ValueError, match="^E has no coefficients$"):
            embedding_roots([], 7)
        # the rule of EigenformDataset: a float would end in pow()'s TypeError
        # and a bool would be taken for 1
        for e in ((1.5, 1), (True, 1)):
            with pytest.raises(ValueError, match="^E's coefficients must be ints$"):
                embedding_roots(e, 7)

    def test_defining_poly_never_factored(self, monkeypatch):
        # the CLI takes the roots from gcd(E, x^p - x) and specialize checks
        # each root by evaluating E and E': only the charpolys are factored
        real_factor = eigen_data.factor
        factored = []

        def counting_factor(f, nu, p):
            factored.append(f)
            return real_factor(f, nu, p)

        monkeypatch.setattr(eigen_data, "factor", counting_factor)
        path = resources.files("gspcert") / "datasets" / "weight28_level1.dataset"
        res = invoke(["certify", str(path), "--root", "all"])
        assert res.exit_code == 0
        assert "3 certificate(s)" in res.stdout
        assert tuple(c % 7 for c in DEFINING) not in factored
        assert len(factored) == 3 * 3  # three charpolys per root
        assert all(len(f) == 5 for f in factored)

    def test_a_gcd_that_does_not_split_raises(self, monkeypatch):
        # x^2 + 1 has no root mod 7: a gcd(E, x^p - x) that is not a product
        # of distinct linear factors ends in RuntimeError, never in the
        # roots the scan did find
        monkeypatch.setattr(eigen_data, "fp_gcd", lambda a, b, p: (1, 0, 1))
        with pytest.raises(RuntimeError, match=r"^\(1, 0, 1\) is not a product of distinct"):
            embedding_roots(DEFINING, 7)


def linear_roots(e, p: int) -> list[tuple[int, int]]:
    """(root, multiplicity) for the linear factors of E over F_p, in factor
    order."""
    return fp_factorization(fp_monic(tuple(c % p for c in e), p), p).linear_roots()


def roots_by_definition(e, p: int) -> list[tuple[int, bool]]:
    """(r, E'(r) != 0) for every r in [0, p) with E(r) = 0 mod p, ordered by
    -r mod p: the embedding roots by their definition, each term summed."""
    de = [i * c for i, c in enumerate(e)][1:]
    return [
        (r, sum(c * pow(r, i, p) for i, c in enumerate(de)) % p != 0)
        for r in sorted(range(p), key=lambda r: -r % p)
        if sum(c * pow(r, i, p) for i, c in enumerate(e)) % p == 0
    ]


def roots_by_factoring(e, p: int) -> list[tuple[int, bool]]:
    """(r, r is simple) for the linear factors x - r of E, in factor order."""
    return [(r, m == 1) for r, m in linear_roots(e, p)]


def planted_poly(rng: random.Random, p: int, degree: int, cofactor_degree: int) -> list[int]:
    """A degree-`degree` polynomial over Z, its leading coefficient a unit
    mod p: linear factors x - r, some repeated, times a random cofactor of
    degree at most cofactor_degree, each coefficient lifted by a random
    multiple of p."""
    f = [rng.randrange(1, p)]
    cofactor = min(cofactor_degree, degree)
    while len(f) - 1 < degree - cofactor:
        r = rng.randrange(p)
        for _ in range(min(rng.choice((1, 1, 1, 2, 3)), degree - cofactor - len(f) + 1)):
            f = pmul(f, [-r % p, 1], p)
    f = pmul(f, [rng.randrange(p) for _ in range(degree - len(f) + 1)] + [1], p)
    return [c + p * rng.randrange(-3, 4) for c in f[:-1]] + [f[-1]]


class TestEmbeddingRootsAgainstDefinition:
    """embedding_roots reads the simple roots off gcd(E, x^p - x) and E';
    the oracle is the definition, every r in [0, p) with E(r) = 0 and
    E'(r) != 0, and at p = 10007, where that scan is too slow, the
    factorization of E that the route replaced."""

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_every_monic_poly_of_degree_at_most_three(self, p):
        for d in (1, 2, 3):
            for e in monic_polys(p, d):
                expected = [r for r, simple in roots_by_definition(e, p) if simple]
                assert embedding_roots(e, p) == expected, e

    # cofactor degree: the factoring oracle's distinct-degree pass on the
    # random part costs about deg^3 log p, so it shrinks as p grows (it set
    # the degrees at 19 and 103 too, when it was the oracle there)
    @pytest.mark.parametrize("p, cofactor_degree", [(19, 128), (103, 64), (10007, 24)])
    def test_seeded_polys_with_repeated_roots(self, p, cofactor_degree):
        oracle = roots_by_factoring if p == 10007 else roots_by_definition
        rng = random.Random(p)
        degrees = [rng.randint(1, 12) for _ in range(24)] + [rng.randint(13, 127) for _ in range(4)] + [128]
        repeated = 0
        for degree in degrees:
            e = planted_poly(rng, p, degree, rng.randint(0, cofactor_degree))
            assert len(e) == degree + 1 and e[-1] % p
            roots = oracle(e, p)
            assert embedding_roots(e, p) == [r for r, simple in roots if simple], (p, e)
            repeated += not all(simple for _, simple in roots)
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
                        assert specialize(ds, 7, r) == {2: 4, 4: 5}
                    else:
                        with pytest.raises(ValueError, match="repeated root of E mod 7; refusing"):
                            specialize(ds, 7, r)


class TestSpecialize:
    def test_paper_residuals_at_root_one(self):
        residues = specialize(paper_dataset(), 7, 1)
        assert type(residues) is dict
        assert residues == {2: 4, 4: 5, 3: 3, 9: 2, 5: 1, 25: 2}

    def test_constants_ignore_root_choice(self):
        ds = paper_dataset()
        tables = [specialize(ds, 7, r) for r in (4, 3, 1)]
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize(
        "root", [Fraction(4), 4.0, True], ids=["fraction", "float", "bool"]
    )
    def test_root_other_than_an_int_refused(self, root):
        # each equals the root 4, yet only an int is taken
        with pytest.raises(ValueError, match=r"must be an int in \[0, 7\)"):
            specialize(paper_dataset(), 7, root)

    def test_alpha_expression_evaluates_to_root(self):
        alpha = {2: (0, 1), 4: (0, 1), 3: (1,), 9: (1,), 5: (2,), 25: (2,)}
        ds = paper_dataset(eigenvalues=alpha)
        for root in (4, 3, 1):
            assert specialize(ds, 7, root)[2] == root

    def test_takes_an_embedding_root(self):
        # a Root from embedding_roots is taken as it is and gives the residues
        # of its int, which come back as plain ints
        alpha = {2: (0, 1), 4: (0, 0, 1), 3: (1,), 9: (1,), 5: (2,), 25: (2,)}
        ds = paper_dataset(eigenvalues=alpha)
        roots = embedding_roots(DEFINING, 7)
        assert all(type(r) is eigen_data.Root for r in roots)
        for r in roots:
            residues = specialize(ds, 7, r)
            assert residues == specialize(ds, 7, int(r))
            assert residues[2] == r and residues[4] == r * r % 7
            assert all(type(v) is int for v in residues.values())

    def test_commutes_with_integer_reduction(self):
        big = 10 ** 12 + 3, 10 ** 9 + 2, 10 ** 6 + 5
        ds = paper_dataset(eigenvalues={
            2: big, 4: (1,), 3: (1,), 9: (1,), 5: (1,), 25: (1,),
        })
        for root in (4, 3, 1):
            expected = sum(c * root ** i for i, c in enumerate(big)) % 7
            assert specialize(ds, 7, root)[2] == expected

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
        assert specialize(ds, 7, 2) == {i: e[0] % 7 for i, e in EIGENVALUES.items()}

    def test_root_must_be_prime_field(self):
        # t in F_49 = F_7[t]/(t^2 + 1), as the tests' references write it
        with pytest.raises(ValueError):
            specialize(paper_dataset(), 7, (0, 1))


class TestHeckeCharpoly:
    def test_three_paper_records(self):
        residues = specialize(paper_dataset(), 7, 1)
        expected = {
            2: ("x^4 + 3x^3 + 2x^2 + 5x + 2",
                "(x^4 + 3x^3 + 2x^2 + 5x + 2)", 25, 4),
            3: ("x^4 + 4x^3 + 3x^2 + 6x + 4",
                "(x + 3)(x + 4)(x^2 + 4x + 5)", 16, 5),
            5: ("x^4 + 6x^3 + 4x^2 + 4x + 2",
                "(x^2 + x + 3)(x^2 + 5x + 3)", 8, 3),
        }
        for q, (poly, fac, order, nu) in expected.items():
            rec = hecke_charpoly(residues[q], residues[q * q], q, 28, 7)
            assert fp_str(rec.charpoly) == poly
            assert str(rec.factorization) == fac
            assert rec.squarefree
            assert rec.projective_order == order
            assert rec.similitude == nu

    def test_independent_of_table_insertion_order(self):
        ds = paper_dataset(
            eigenvalues={k: EIGENVALUES[k] for k in reversed(list(EIGENVALUES))}
        )
        residues = specialize(ds, 7, 1)
        rec = hecke_charpoly(residues[2], residues[4], 2, 28, 7)
        assert fp_str(rec.charpoly) == "x^4 + 3x^3 + 2x^2 + 5x + 2"

    # hecke_charpoly takes the residues that specialize returns as they
    # are, so the malformed residual data below is refused before any exist:
    # by EigenformDataset (built or replaced) and by specialize.

    def test_p_not_prime_refused_with_one_line(self):
        with pytest.raises(ValueError) as err:
            embedding_roots(DEFINING, 15)
        assert str(err.value) == "15 is not prime"

    @pytest.mark.parametrize("root, eigenvalues", [
        (1, {3: (0,), 5: (2,), 25: (1,)}), (1, {2: (1,), 4: (1,), 3: (1,)}),
        (1, {6: (1,), 36: (1,)}), (1, {2: (1,), 4: (1,), 16: (1,)}), (1, {3: (True,), 9: (1,)}),
        (7, {3: (1,), 9: (1,)}), (1.0, {3: (1,), 9: (1,)}),
    ], ids=["3-without-9", "3-without-9-beside-a-pair", "composite", "square-of-composite",
            "residue-bool", "root-p", "root-float"])
    def test_malformed_residual_dataset_refused_with_one_line(self, root, eigenvalues):
        # the primes of a residual table are the indices q with q^2 beside
        # them, so a table that is not all such pairs is refused: read that
        # way, {3: 0, 5: 2, 25: 1} would drop 3 and its zero trace unseen.
        for build in (lambda: specialize(paper_dataset(eigenvalues=eigenvalues), 7, root),
                      lambda: specialize(paper_dataset()._replace(eigenvalues=eigenvalues),
                                         7, root)):
            with pytest.raises(ValueError) as err:
                build()
            assert "\n" not in str(err.value)

    @pytest.mark.parametrize("expr, residue", [((7,), 0), ((-1,), 6)],
                             ids=["residue-p", "residue-negative"])
    def test_residues_reduced_into_range(self, expr, residue):
        # a residue 7 at p = 7 would pass primitivity as a nonzero a_3;
        # specialize reduces every expression into [0, p)
        residues = specialize(paper_dataset(eigenvalues={**EIGENVALUES, 3: expr}), 7, 1)
        assert residues[3] == residue
        assert all(0 <= a < 7 for a in residues.values())

    @pytest.mark.parametrize("weight", [1, 0, -5, 28.0, "28", True, None])
    def test_residual_weight_not_an_int_from_two_refused_with_one_line(self, weight):
        # weight 1 would build the charpoly from q^(2k-3) = q^(-1) mod p
        for build in (lambda: paper_dataset(weight=weight),
                      lambda: paper_dataset()._replace(weight=weight)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == (
                f"weight {weight} out of range" if type(weight) is int
                else "weight, level, indices and coefficients must be ints, in tuples")

    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_p_not_3_mod_4_refused_with_one_line(self, p):
        # the charpoly's square roots are powers a^((p+1)/4); certify and the
        # command refuse these primes before, each with its own line
        f = hecke_quartic(1, 1, 3, 28, p)
        for call in (lambda: fp_hecke_factorization(f, pow(3, 53, p), p),
                     lambda: hecke_charpoly(1, 1, 3, 28, p)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"the Hecke quartic route needs p = 3 mod 4, got p = {p}"
        refusal = ("the certificate needs p >= 5" if p < 5
                   else "primitivity argument needs p = 3 mod 4") + f", got p = {p}"
        with pytest.raises(ValueError) as err:
            certify(paper_dataset(), p, 1)
        assert str(err.value) == refusal
        path = resources.files("gspcert") / "datasets" / "weight28_level1.dataset"
        res = invoke(["certify", str(path), "--prime", str(p)])
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"error: {refusal}\n")
        assert res.exception is None

    @pytest.mark.parametrize("p", [7, 11, 19])
    def test_similitude_is_the_nu_of_the_charpoly(self, p):
        # the record's similitude is q^(2k-3), the nu that hecke_quartic puts
        # into f0 = nu^2 and f1 = -a_q nu
        for q in (2, 3, 5):
            for k, a1, a2 in itertools.product((4, 28), range(p), range(p)):
                rec = hecke_charpoly(a1, a2, q, k, p)
                nu = pow(q, 2 * k - 3, p)
                assert rec.similitude == nu
                assert rec.charpoly[:2] == (nu * nu % p, -a1 * nu % p)

    def test_seeded_similitude_is_the_factorizers_nu(self, monkeypatch):
        # on seeded (q, k, p) up to p = 10007 the record's similitude is
        # q^(2k-3) mod p, and it is the nu the factorizer was handed
        handed = []

        def spy(f, nu, p, real=eigen_data.factor):
            handed.append(nu)
            return real(f, nu, p)

        monkeypatch.setattr(eigen_data, "factor", spy)
        rng = random.Random("similitude")
        for _ in range(200):
            p = rng.choice((7, 11, 19, 103, 1019, 10007))
            q = rng.choice([q for q in (2, 3, 5, 7, 11, 13, 97) if q != p])
            k = rng.randrange(2, 200)
            rec = hecke_charpoly(rng.randrange(p), rng.randrange(p), q, k, p)
            assert rec.similitude == pow(q, 2 * k - 3, p) == handed.pop(), (q, k, p)

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


def prime_3_mod_4(n: int, step: int) -> int:
    """The first prime = 3 mod 4 from n on, counting by step (1 or -1)."""
    while not (n % 4 == 3 and is_prime(n)):
        n += step
    return n


BELOW, ABOVE = prime_3_mod_4(MAX_PRIME, -1), prime_3_mod_4(MAX_PRIME + 1, 1)


def timed(call, *args):
    start = time.perf_counter()
    out = call(*args)
    return time.perf_counter() - start, out


class TestPrimeBound:
    """The loops linear in p, each on its worst input at the largest prime
    = 3 mod 4 up to MAX_PRIME (or, for the trial division, the largest
    with (p^2 + 1)/2 prime), end in bounded time: each took 0.08-0.21 s on
    a 2-CPU x86-64 host, and the bound is wide.  Above MAX_PRIME, p is
    refused before any work, and so is an E above MAX_DEFINING_DEGREE."""

    def test_scan_over_all_of_f_p(self):
        # the one root of x + 1 is p - 1, the last element scanned
        elapsed, roots = timed(embedding_roots, (1, 1), BELOW)
        assert roots == [BELOW - 1]
        assert elapsed < 5.0

    def test_split_record_with_both_quadratics_stepped_to_p_plus_1(self):
        # u = (x - r)(x - r^p) for r = a + b i, i^2 = -1 (irreducible, as
        # -1 is no square mod p = 3 mod 4), and u' with the roots nu/r and
        # nu/r^p, both with x^e first constant at e = p + 1; f = u u' is
        # the charpoly of the record with q = 2, k = 28 and a_q = -f3
        p, nu = BELOW, pow(2, 53, BELOW)
        rng = random.Random(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(1, p)
            s, n = 2 * a % p, (a * a + b * b) % p
            n_inv = pow(n, -1, p)
            u, u2 = (n, -s % p, 1), (nu * nu * n_inv % p, -nu * s * n_inv % p, 1)
            if u != u2 and all(len(fp_powmod((0, 1), (p + 1) // ell, g, p)) > 1
                               for g in (u, u2) for ell in factorize(p + 1)):
                break
        f = tuple(pmul(list(u), list(u2), p))
        a1 = -f[3] % p
        elapsed, rec = timed(hecke_charpoly, a1, (a1 * a1 - pow(2, 52, p) - f[2]) % p, 2, 28, p)
        assert rec.charpoly == f and sorted(rec.factorization.factors) == sorted([(u, 1), (u2, 1)])
        assert rec.projective_order % (p + 1) == 0
        assert elapsed < 5.0

    def test_irreducible_record_with_prime_half_of_p2_plus_1(self):
        # the irreducible order descends over the primes of (p^2 + 1)/2,
        # found by trial division, which runs to the square root when it
        # is prime
        p = BELOW
        while not (p % 4 == 3 and is_prime(p) and is_prime((p * p + 1) // 2)):
            p -= 1
        rng = random.Random(p)
        args = ()
        while not args or [len(g) for g, _ in hecke_charpoly(*args).factorization.factors] != [5]:
            args = rng.randrange(p), rng.randrange(p), 2, 28, p
        elapsed, rec = timed(hecke_charpoly, *args)
        assert (p * p + 1) % rec.projective_order == 0
        assert elapsed < 5.0

    def test_first_prime_above_refused_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("work ran above MAX_PRIME")

        monkeypatch.setattr(eigen_data, "fp_powmod", unreachable)
        monkeypatch.setattr(certifier, "specialize", unreachable)
        assert BELOW <= MAX_PRIME < ABOVE
        table = ExceptionalTable(ABOVE, (("PGL(2,p)", ABOVE * (ABOVE * ABOVE - 1)),))
        refused = f"^p = {ABOVE} is above the supported {MAX_PRIME}$"
        with pytest.raises(ValueError, match=refused):
            embedding_roots((1, 1), ABOVE)
        with pytest.raises(ValueError, match=refused):
            certify(paper_dataset(), ABOVE, 0, table)
        # the primality test still comes first
        with pytest.raises(ValueError, match=f"^{3 * ABOVE} is not prime$"):
            embedding_roots((1, 1), 3 * ABOVE)
        with pytest.raises(ValueError, match=f"^{3 * ABOVE} is not prime$"):
            certify(paper_dataset(), 3 * ABOVE, 0, table)

    def test_defining_degree_above_cap_refused_before_any_work(self, monkeypatch):
        # x^p mod E costs about deg(E)^2 log p: embedding_roots keeps the
        # cap EigenformDataset keeps, and takes E at the cap, here
        # (x^129 - 1)/(x - 1), whose roots mod 7 are the primitive cube roots
        # of unity, 4 and 2
        assert embedding_roots((1,) * (eigen_data.MAX_DEFINING_DEGREE + 1), 7) == [4, 2]

        def unreachable(*args):
            raise AssertionError("work ran above MAX_DEFINING_DEGREE")

        monkeypatch.setattr(eigen_data, "fp_powmod", unreachable)
        for p in (7, BELOW):
            with pytest.raises(ValueError) as err:
                embedding_roots((1,) * (eigen_data.MAX_DEFINING_DEGREE + 2), p)
            assert str(err.value) == "defining polynomial has degree 129, above the supported 128"
