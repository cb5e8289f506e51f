"""Tests for polynomial arithmetic, factorization, and root finding.

Every F_p polynomial here is the kernel's low-first int tuple, checked
against the plain coefficient lists of tests/oracles.py."""
from __future__ import annotations

import itertools
import random

import pytest

from gspcert import polynomial
from gspcert.eigen_data import _derivative, _horner, embedding_roots, hecke_quartic
from gspcert.polynomial import (
    _prime_factors,
    _reciprocal_quadratic,
    _sqrt,
    _x_power_is_constant,
    fp_add,
    fp_gcd,
    fp_hecke_factorization,
    fp_mod,
    fp_monic,
    fp_powmod,
    fp_projective_order,
    fp_str,
    fp_trim,
    is_prime,
)
from oracles import (
    conjugate_product,
    element,
    expand,
    ext_add,
    ext_mul,
    fp_factorization,
    fp_is_irreducible,
    fp_split_equal_degree,
    frobenius,
    is_projective_order,
    monic_polys,
    naive_factor,
    naive_irreducible,
    pdiv,
    pmod,
    pmul,
    poly_str,
    ptrim,
    reference_powmod,
    roots_in,
    stepped_fp_projective_order,
)
from symplectic import companion, projective_order

# the three characteristic polynomials exercised throughout (low degree first)
POL2 = (2, 5, 2, 3, 1)
POL3 = (4, 6, 3, 4, 1)
POL5 = (2, 4, 4, 6, 1)
DEFINING = tuple(c % 7 for c in (-59412960, -294086, -1, 1))


def random_poly(rng: random.Random, p: int, degree: int) -> tuple[int, ...]:
    """A random monic polynomial of the given degree over F_p."""
    return tuple(rng.randrange(p) for _ in range(degree)) + (1,)


def squarefree(f: tuple[int, ...], p: int) -> bool:
    """gcd(f, f') = 1, on fp_gcd; in characteristic p a vanishing
    derivative leaves gcd(f, 0) = f non-constant, so the test holds there."""
    return len(fp_gcd(f, fp_trim([c % p for c in _derivative(f)]), p)) == 1


class TestArithmetic:
    def test_divmod_remainder_is_value_at_root(self):
        # dividing by x + 3 leaves the value at x = -3 = 4
        assert fp_mod(POL2, (3, 1), 7) == (5,) == (_horner(POL2, 4, 7),)
        q = pdiv(POL2, (3, 1), 7)
        assert fp_add(tuple(pmul(q, (3, 1), 7)), (5,), 7) == POL2

    def test_divmod_identity_random(self):
        # fp_mod, the kernel's division, against the plain-list quotient and
        # remainder, by monic and non-monic g, of reduced f and of unreduced
        # dividends: f's residues as negative ints or ints >= p, and f * h as
        # _product leaves it, summed but not reduced
        rng = random.Random(2)
        for _ in range(40):
            f = random_poly(rng, 7, rng.randrange(1, 7))
            g = random_poly(rng, 7, rng.randrange(1, 5))
            q, r = pdiv(f, g, 7), fp_mod(f, g, 7)
            assert fp_add(tuple(pmul(q, g, 7)), r, 7) == f
            assert len(r) < len(g)
            assert r == tuple(pmod(list(f), list(g), 7))
            k = rng.randrange(2, 7)
            scaled = tuple(k * c % 7 for c in g)
            assert fp_mod(f, scaled, 7) == r == tuple(pmod(list(f), list(scaled), 7))
            assert fp_add(tuple(pmul(pdiv(f, scaled, 7), scaled, 7)), r, 7) == f
            unreduced = [c + 7 * rng.randrange(-10**6, 10**6) for c in f]
            assert fp_mod(unreduced, g, 7) == fp_mod(unreduced, scaled, 7) == r
            h = random_poly(rng, 7, rng.randrange(0, 7))
            fh = tuple(pmod(pmul(list(f), list(h), 7), list(g), 7))
            assert fp_mod(polynomial._product(f, h), g, 7) == fh
            assert fp_mod(polynomial._product(f, h), scaled, 7) == fh
        # a dividend already shorter than the divisor is reduced all the same
        assert pmod([-1, 8], [0, 0, 0, 1], 7) == [6, 1] == list(fp_mod((-1, 8), (0, 0, 0, 1), 7))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            fp_mod(POL2, (), 7)

    def test_gcd_with_zero_is_monic_copy(self):
        f = (2, 4, 6)
        assert fp_gcd(f, (), 7) == (5, 3, 1) == fp_monic(f, 7)
        assert fp_gcd((), f, 7) == (5, 3, 1)

    def test_gcd_divides_both_and_is_monic(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng, 7, rng.randrange(1, 5))
            g = random_poly(rng, 7, rng.randrange(1, 5))
            h = list(random_poly(rng, 7, rng.randrange(1, 3)))
            fh, gh = pmul(list(f), h, 7), pmul(list(g), h, 7)
            d = fp_gcd(tuple(fh), tuple(gh), 7)
            assert d[-1] == 1
            assert not pmod(fh, list(d), 7)
            assert not pmod(gh, list(d), 7)
            assert not pmod(list(d), h, 7)

    def test_derivative_power_rule(self):
        # x^3 + 5x^2 + 1 -> 3x^2 + 10x, on which embedding_roots tests each root
        assert _derivative((1, 0, 5, 1)) == [0, 10, 3]

    def test_derivative_kills_pth_powers(self):
        x7 = (0,) * 7 + (1,)
        assert all(c % 7 == 0 for c in _derivative(x7))
        # so x^7 - 1 = (x - 1)^7 has no simple root, while x^7 - x, whose
        # derivative is -1, has all seven
        assert embedding_roots((-1,) + x7[1:], 7) == []
        assert embedding_roots((0, -1) + x7[2:], 7) == [0, 6, 5, 4, 3, 2, 1]

    def test_powmod_matches_naive(self):
        rng = random.Random(4)
        for _ in range(15):
            base = random_poly(rng, 7, rng.randrange(1, 4))
            m = random_poly(rng, 7, rng.randrange(2, 5))
            e = rng.randrange(0, 30)
            acc = [1]
            for _ in range(e):
                acc = pmod(pmul(acc, list(base), 7), list(m), 7)
            assert fp_powmod(base, e, m, 7) == tuple(acc)

    def test_evaluation_matches_naive_sum(self):
        # _horner evaluates E and the eigenvalue expressions at the root,
        # on coefficients not yet reduced mod p
        rng = random.Random(5)
        for _ in range(20):
            f = [rng.randrange(-10**9, 10**9) for _ in range(rng.randrange(0, 5))]
            r = rng.randrange(7)
            assert _horner(f, r, 7) == sum(c * r**i for i, c in enumerate(f)) % 7

    def test_str_frozen(self):
        assert fp_str(POL2) == "x^4 + 3x^3 + 2x^2 + 5x + 2"
        assert fp_str(()) == "0"
        assert fp_str((3,)) == "3"
        assert fp_str((0, 1)) == "x"

    def test_fp_str_matches_term_by_term_reference(self):
        # every polynomial of degree <= 4 over F_2, F_3 and F_7, zero included
        for p in (2, 3, 7):
            for cs in itertools.chain.from_iterable(
                itertools.product(range(p), repeat=n) for n in range(6)
            ):
                assert fp_str(fp_trim(cs)) == poly_str(ptrim(cs)), cs


KERNEL_PRIMES = [2, 3, 5, 7, 19, 101, 65537, 1000003]


class TestFusedKernel:
    """fp_powmod, an unreduced _product reduced by fp_mod per step, against
    the full product and separate reduction of tests/oracles.py."""

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_powmod_matches_reference(self, p):
        rng = random.Random(5100 + p)

        def poly(d: int) -> tuple[int, ...]:
            return tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)

        for _ in range(40):
            m = poly(rng.randrange(0, 7))  # non-monic, constant moduli included
            b = poly(rng.randrange(1, 3 * len(m) + 2))
            # unreduced bases too: negative residues, and a raw _product
            unreduced = [c - p * rng.randrange(1, 100) for c in b]
            for a in [(), (1,), poly(0), b, unreduced, polynomial._product(b, poly(2))]:
                for e in [0, 1, 2, p, rng.randrange(3, 400), rng.randrange(p**2 + 1)]:
                    assert fp_powmod(a, e, m, p) == reference_powmod(a, e, m, p), (a, e, m)


class TestSquarefree:
    """gcd(f, f') = 1 on the kernel, and the certificate's squarefree flag,
    read off fp_hecke_factorization's multiplicities."""

    def test_pol2_is_squarefree(self):
        assert squarefree(POL2, 7)
        assert fp_hecke_factorization(POL2, 4, 7).is_squarefree()

    def test_repeated_linear_factor_is_not(self):
        assert not squarefree(tuple(pmul((3, 1), (3, 1), 7)), 7)
        # (x + 3)^4 is Hecke-shaped with nu = 2 = 4^2: its root 4 pairs with itself
        fac = fp_hecke_factorization((4, 3, 5, 5, 1), 2, 7)
        assert fac.factors == (((3, 1), 4),)
        assert not fac.is_squarefree()

    def test_x7_minus_x_is_squarefree(self):
        assert squarefree((0, 6, 0, 0, 0, 0, 0, 1), 7)

    def test_matches_factorization_multiplicities(self):
        rng = random.Random(6)
        for _ in range(25):
            f = random_poly(rng, 7, rng.randrange(1, 6))
            expected = all(m == 1 for _, m in fp_factorization(f, 7).factors)
            assert squarefree(f, 7) == expected

    def test_zero_rejected(self):
        # the factorizer the squarefree flag comes from takes monic quartics only
        with pytest.raises(ValueError):
            fp_hecke_factorization((), 1, 7)


class TestRoots:
    def test_pol2_and_pol5_rootless_in_f7(self):
        assert roots_in(POL2, 7, 1) == []
        assert roots_in(POL5, 7, 1) == []

    def test_pol3_has_exactly_4_and_3(self):
        assert roots_in(POL3, 7, 1) == [(3,), (4,)]

    def test_defining_cubic_roots(self):
        assert roots_in(DEFINING, 7, 1) == [(1,), (3,), (4,)]

    def test_multiplicity_reported(self):
        # (x - 1)^2 (x - 2)
        f = tuple(pmul((1, 5, 1), (5, 1), 7))
        assert roots_in(f, 7, 1) == [(1,), (1,), (2,)]

    def test_x_squared_plus_one_needs_f49(self):
        assert roots_in((1, 0, 1), 7, 1) == []
        rs = roots_in((1, 0, 1), 7, 2)
        assert len(rs) == 2
        for r in rs:
            assert ext_add(ext_mul(r, r, 7), (1, 0), 7) == (0, 0)

    def test_roots_satisfy_polynomial(self):
        roots = roots_in(POL2, 7, 4)
        assert len(roots) == 4
        for r in roots:
            value = (0, 0, 0, 0)  # POL2(r) by Horner's rule
            for c in reversed(POL2):
                value = ext_add(ext_mul(value, r, 7), (c, 0, 0, 0), 7)
            assert value == (0, 0, 0, 0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            roots_in((), 7, 1)


class TestIrreducibility:
    def test_known_quadratics(self):
        assert fp_is_irreducible((1, 0, 1), 7)
        assert fp_is_irreducible((5, 4, 1), 7)
        assert not fp_is_irreducible(tuple(pmul((3, 1), (4, 1), 7)), 7)

    def test_pol2_irreducible(self):
        assert fp_is_irreducible(POL2, 7)

    def test_exhaustive_low_degrees_match_naive_oracle(self):
        for d in (1, 2, 3):
            for tail in itertools.product(range(7), repeat=d):
                f = tail + (1,)
                assert fp_is_irreducible(f, 7) == naive_irreducible(list(f), 7), f

    def test_sampled_quartics_match_naive_oracle(self):
        rng = random.Random(8)
        for _ in range(150):
            f = random_poly(rng, 7, 4)
            assert fp_is_irreducible(f, 7) == naive_irreducible(list(f), 7), f

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            fp_is_irreducible((3,), 7)


class TestConjugate:
    """conjugate_product, g * conj(g) over F_49, behind the pairing tally."""

    def test_fixes_prime_coefficient_polys(self):
        # conj fixes a g over F_7, so the product is g^2
        g = [(c, 0) for c in POL3]
        assert conjugate_product(g, 7) == tuple(pmul(POL3, POL3, 7))

    def test_x_minus_generator(self):
        # g = x - t = [-t, 1] with -t = (0, 6): (x - t)(x + t) = x^2 + 1
        assert conjugate_product([(0, 6), (1, 0)], 7) == (1, 0, 1)

    def test_involution(self):
        # conj(conj(g)) = g, so g and conj(g) give the same product
        rng = random.Random(9)
        for _ in range(20):
            g = [element(rng.randrange(49), 7, 2) for _ in range(4)] + [(1, 0)]
            assert conjugate_product([frobenius(c, 7) for c in g], 7) == conjugate_product(g, 7)

    def test_roots_move_by_frobenius(self):
        # g = (x - t)(x - 2t) = x^2 - 3t x - 2 over F_49 = F_7(t), t^2 = -1:
        # the roots of g * conj(g) are those of g and their Frobenius images;
        # -2 = (5, 0) and -3t = (0, 4)
        t, two_t = (0, 1), (0, 2)
        roots = roots_in(conjugate_product([(5, 0), (0, 4), (1, 0)], 7), 7, 2)
        assert len(roots) == 4
        assert set(roots) == {t, two_t, frobenius(t, 7), frobenius(two_t, 7)}


class TestFactor:
    def test_defining_cubic_frozen(self):
        assert str(fp_factorization(DEFINING, 7)) == "(x + 3)(x + 4)(x + 6)"

    def test_pol3_frozen(self):
        assert str(fp_factorization(POL3, 7)) == "(x + 3)(x + 4)(x^2 + 4x + 5)"

    def test_pol5_frozen(self):
        assert str(fp_factorization(POL5, 7)) == "(x^2 + x + 3)(x^2 + 5x + 3)"

    def test_pol2_stays_whole(self):
        fac = fp_factorization(POL2, 7)
        assert str(fac) == "(x^4 + 3x^3 + 2x^2 + 5x + 2)"
        assert fac.is_squarefree()

    def test_repeated_factor_multiplicity(self):
        fac = fp_factorization((0, 0, 1), 7)
        assert fac.factors == (((0, 1), 2),)
        assert not fac.is_squarefree()

    def test_linear_roots_follow_factor_order(self):
        fac = fp_factorization(DEFINING, 7)
        assert fac.linear_roots() == [(4, 1), (3, 1), (1, 1)]

    def test_roundtrip_random(self):
        rng = random.Random(10)
        for _ in range(100):
            coeffs = [rng.randrange(7) for _ in range(rng.randrange(1, 7))]
            coeffs.append(rng.randrange(1, 7))
            f = fp_monic(tuple(coeffs), 7)
            fac = fp_factorization(f, 7)
            assert tuple(expand(fac)) == f
            for g, m in fac.factors:
                assert g[-1] == 1
                assert fp_is_irreducible(g, 7)
                assert m >= 1
            degrees = [len(g) - 1 for g, _ in fac.factors]
            assert degrees == sorted(degrees)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            fp_factorization((), 7)

    @pytest.mark.parametrize("p, degree", [(2, 8), (3, 6), (5, 4), (7, 3)])
    def test_every_monic_matches_trial_division(self, p, degree):
        for f in monic_polys(p, degree):
            got = [(list(g), m) for g, m in fp_factorization(tuple(f), p).factors]
            assert got == naive_factor(f, p), f

    @pytest.mark.parametrize(
        "p, k, m", [(2, 3, 2), (2, 4, 3), (3, 2, 3), (3, 3, 3), (5, 2, 2), (7, 1, 4), (7, 2, 3)]
    )
    def test_equal_degree_products_split_completely(self, p, k, m):
        # m distinct irreducibles of one degree k reach the trace split
        # together; over F_2 two of the three quartics share the trace of x,
        # so (2, 4, 3) needs a second round with x^2
        monics = (cs + (1,) for cs in itertools.product(range(p), repeat=k))
        irreducibles = [g for g in monics if fp_is_irreducible(g, p)]
        rng = random.Random(f"{p}:1:{k}:{m}")  # seeded by p, field degree 1, k and m
        for _ in range(5):
            gs = rng.sample(irreducibles, m)
            f = (1,)
            for g in gs:
                f = tuple(pmul(f, g, p))
            assert dict(fp_factorization(f, p).factors) == dict.fromkeys(gs, 1)
            twice = dict(fp_factorization(tuple(pmul(f, gs[0], p)), p).factors)
            assert twice == {**dict.fromkeys(gs, 1), gs[0]: 2}

    @pytest.mark.parametrize("p", [19])
    def test_seeded_quartics_match_trial_division(self, p):
        rng = random.Random(p)
        for _ in range(500):
            f = [rng.randrange(p) for _ in range(4)] + [1]
            got = [(list(g), m) for g, m in fp_factorization(tuple(f), p).factors]
            assert got == naive_factor(f, p), f

    @pytest.mark.parametrize("p", [19])
    def test_seeded_repeated_factors_match_trial_division(self, p):
        # products of powers of distinct irreducibles of degree 1-3, up to
        # degree 8, at least one repeated: the distinct-degree pass then
        # divides factors out with multiplicity and carries x^(p^k) on to
        # the cofactor
        rng = random.Random(700 + p)
        checked = 0
        while checked < 40:
            powers: dict[tuple[int, ...], int] = {}
            degree = 0
            for _ in range(6):
                d, m = rng.randint(1, 3), rng.randint(1, 3)
                g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
                if degree + d * m <= 8 and g not in powers and naive_irreducible(list(g), p):
                    powers[g] = m
                    degree += d * m
            if all(m == 1 for m in powers.values()):
                continue
            checked += 1
            f = [1]
            for g, m in powers.items():
                for _ in range(m):
                    f = pmul(f, list(g), p)
            expected = naive_factor(f, p)
            assert {tuple(g): m for g, m in expected} == powers
            got = [(list(g), m) for g, m in fp_factorization(tuple(f), p).factors]
            assert got == expected, f

    def test_seeded_powmod_and_gcd_match_oracle_arithmetic_p19(self):
        # powmod against repeated oracle pmul/pmod; gcd against the product
        # of the common trial-division factors at their lower multiplicity
        p = 19
        rng = random.Random(1919)

        def monic(d: int) -> list[int]:
            return [rng.randrange(p) for _ in range(d)] + [1]

        for _ in range(60):
            a = [rng.randrange(p) for _ in range(rng.randrange(0, 8))]
            m = monic(rng.randrange(1, 5))
            e = rng.randrange(0, 60)
            acc = pmod([1], m, p)
            for _ in range(e):
                acc = pmod(pmul(acc, a, p), m, p)
            assert list(fp_powmod(fp_trim(a), e, tuple(m), p)) == acc, (a, e, m)

            h = monic(rng.randrange(0, 3))
            f, g = pmul(h, monic(rng.randrange(1, 4)), p), pmul(h, monic(rng.randrange(0, 3)), p)
            in_g = {tuple(k): mult for k, mult in naive_factor(g, p)}
            expected = [1]
            for k, mult in naive_factor(f, p):
                for _ in range(min(mult, in_g.get(tuple(k), 0))):
                    expected = pmul(expected, k, p)
            assert list(fp_gcd(tuple(f), tuple(g), p)) == expected, (f, g)

    @pytest.mark.parametrize("gs, k", [([(3, 1)], 1), ([(1, 0, 1)], 2), ([(3, 1), (5, 1)], 1)])
    def test_split_of_a_square_raises(self, gs, k):
        # the trace split needs distinct factors; with g_1 squared it must
        # fail loudly rather than come back short or loop
        s = gs[0]
        for g in gs:
            s = tuple(pmul(s, g, 7))
        with pytest.raises(RuntimeError):
            fp_split_equal_degree(s, k, 7)

    def test_shape_eligible_quartics_split_over_f2401(self):
        # products of irreducibles of degree 1, 2, or 4 have all their
        # roots inside F_{7^4}
        rng = random.Random(11)

        def random_irreducible(d: int) -> tuple[int, ...]:
            while True:
                f = random_poly(rng, 7, d)
                if fp_is_irreducible(f, 7):
                    return f

        patterns = [(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)]
        for _ in range(12):
            pattern = rng.choice(patterns)
            f = (1,)
            for d in pattern:
                f = tuple(pmul(f, random_irreducible(d), 7))
            assert len(roots_in(f, 7, 4)) == 4


class TestHeckeFactorization:
    """fp_hecke_factorization, the certificate's factorizer, against the
    general F_p route of tests/oracles.py."""

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_every_hecke_quartic_matches_general_route(self, p):
        # every (a_q, a_{q^2}) for q in {2, 3, 5, 7} other than p and
        # weights 4 and 28, each (quartic, nu) once: two (q, k) with the
        # same nu = q^(2k-3) give the same quartics
        quartics = {
            (hecke_quartic(a1, a2, q, k, p), pow(q, 2 * k - 3, p))
            for q in {2, 3, 5, 7} - {p}
            for k, a1, a2 in itertools.product((4, 28), range(p), range(p))
        }
        for f, nu in quartics:
            assert fp_hecke_factorization(f, nu, p) == fp_factorization(f, p), f

    def test_seeded_quartics_match_general_route_p103(self):
        rng = random.Random(103)
        for _ in range(300):
            q, k = rng.choice((2, 3, 5, 7, 11)), rng.randrange(2, 40)
            f = hecke_quartic(rng.randrange(103), rng.randrange(103), q, k, 103)
            fac = fp_hecke_factorization(f, pow(q, 2 * k - 3, 103), 103)
            assert fac == fp_factorization(f, 103), (q, k, f)

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
    def test_no_x3_term_factors_for_nu_and_minus_nu(self, p):
        # f3 = f1 = 0: f = x^4 + f2 x^2 + nu^2 pairs its roots as r <-> nu/r
        # and as r <-> -nu/r, so both similitudes must give f's factors
        for nu, f2 in itertools.product(range(1, (p + 1) // 2), range(p)):
            f = (nu * nu % p, 0, f2, 0, 1)
            expected = fp_factorization(f, p)
            assert fp_hecke_factorization(f, nu, p) == expected, f
            assert fp_hecke_factorization(f, p - nu, p) == expected, f

    @pytest.mark.parametrize("p", [10007, 1000003])
    def test_large_p_factors_multiply_back_and_are_irreducible(self, p):
        rng = random.Random(p)
        for _ in range(40):
            q = rng.choice((2, 3, 5))
            f = hecke_quartic(rng.randrange(p), rng.randrange(p), q, 28, p)
            fac = fp_hecke_factorization(f, pow(q, 53, p), p)
            assert tuple(expand(fac)) == f
            assert all(fp_is_irreducible(g, p) for g, _ in fac.factors), f

    @pytest.mark.parametrize("p", [7, 11])
    def test_multiply_back_stops_wrong_square_roots(self, p, monkeypatch):
        # a _sqrt that answers r + 1 wherever it would answer the root r: the
        # factors it leads to may raise, but none that come back may fail to
        # multiply back to f.  Every Hecke quartic is (nu^2, -a nu, c, -a, 1)
        # for a, c in F_p and nu in F_p^*.
        def off_by_one(a, p, true_sqrt=polynomial._sqrt):
            r = true_sqrt(a, p)
            return None if r is None else (r + 1) % p

        monkeypatch.setattr(polynomial, "_sqrt", off_by_one)
        outcomes = {"returned": 0, "RuntimeError": 0, "ValueError": 0}
        for nu, a, c in itertools.product(range(1, p), range(p), range(p)):
            f = (nu * nu % p, -a * nu % p, c, -a % p, 1)
            try:
                fac = fp_hecke_factorization(f, nu, p)
            except (RuntimeError, ValueError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            assert tuple(expand(fac)) == f, (f, fac)
            outcomes["returned"] += 1
        assert sum(outcomes.values()) == p * p * (p - 1)
        # the guard is reached, and the square-root-free answers still come back
        assert outcomes["RuntimeError"] and outcomes["returned"], outcomes

    def test_no_scan_over_f_p(self, monkeypatch):
        # the route takes square roots in F_p: no gcd and no x-power, the
        # steps of a root search through gcd(f, x^p - x)
        def search(*args):
            raise AssertionError("factoring a Hecke quartic searched for roots")

        monkeypatch.setattr(polynomial, "fp_gcd", search)
        monkeypatch.setattr(polynomial, "fp_powmod", search)
        rng = random.Random(6)
        for _ in range(40):
            f = hecke_quartic(rng.randrange(1000003), rng.randrange(1000003), 3, 28, 1000003)
            fp_hecke_factorization(f, pow(3, 53, 1000003), 1000003)

    @pytest.mark.parametrize("f, nu", [
        ((1, 0, 1), 1),  # not a quartic
        ((2, 4, 4, 6, 2), 3),  # not monic
        ((0, 0, 3, 1, 1), 0),  # f0 = 0 with f3 != 0
        ((0, 0, 3, 0, 1), 0),  # f0 = 0 with f3 = f1 = 0
        ((1, 6, 4, 3, 1), 2),  # nu = f1/f3 = 2, but f0 != 4
        ((4, 1, 4, 0, 1), 2),  # f3 = 0 with f1 != 0: f0 = nu^2, but f1 != nu f3
        ((3, 0, 4, 0, 1), 2),  # f3 = f1 = 0 and f0 = 3 is not a square mod 7
        (POL2, 3),  # -nu for a quartic with f3 != 0: f0 = nu^2, but f1 != nu f3
        (POL2, 11),  # nu = 4 + 7, not reduced into [1, 7)
        ((4, 0, 4, 0, 1), -2),  # nu = -2 for 5 = -2 mod 7, not reduced either
    ])
    def test_malformed_quartic_refused_with_one_line(self, f, nu):
        with pytest.raises(ValueError) as err:
            fp_hecke_factorization(f, nu, 7)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 43, 103, 10007])
    def test_square_roots_against_legendre(self, p):
        # every a mod p against the squares x^2 and against Euler's
        # criterion, a^((p-1)/2) = -1 exactly for the non-squares
        squares = {x * x % p for x in range(p)}
        for a in range(-1, p + 1):
            r = _sqrt(a, p)
            assert (r is None) == (a % p not in squares) == (pow(a, (p - 1) // 2, p) == p - 1), a
            assert r is None or r * r % p == a % p

    @pytest.mark.parametrize("p", [7, 11, 19])
    def test_reciprocal_quadratic_against_its_roots(self, p):
        # x^2 - y x + nu for every y and nu != 0: x - r for each root r found
        # by trying every r in F_p, a double root twice, and the quadratic
        # itself when there is none
        for y, nu in itertools.product(range(p), range(1, p)):
            roots = [r for r in range(p) if (r * r - y * r + nu) % p == 0]
            if len(roots) == 1:
                roots *= 2
            expected = sorted((-r % p, 1) for r in roots) or [(nu, -y % p, 1)]
            assert sorted(_reciprocal_quadratic(y, nu, p)) == expected, (y, nu)


def matrix_projective_order(f: tuple[int, ...], p: int) -> int:
    """The reference: the companion matrix's order in PGL(4, p), by descent."""
    return projective_order(companion(f, p), p)


class TestProjectiveOrder:
    """The stepping oracle against the matrix route on general quartics,
    and the certificate's route, read off a Hecke quartic's factorization,
    against the stepping oracle."""

    def test_every_invertible_monic_quartic_p7_matches_matrix_route(self):
        # all 6 * 7^3 = 2,058 monic quartics with f(0) != 0, squarefree or not
        count = 0
        for c in itertools.product(range(1, 7), range(7), range(7), range(7)):
            f = c + (1,)
            assert stepped_fp_projective_order(f, 7) == matrix_projective_order(f, 7), f
            count += 1
        assert count == 2058

    @pytest.mark.parametrize("p", [11])
    def test_seeded_quartics_match_matrix_route(self, p):
        rng = random.Random(4000 + p)
        for _ in range(500):
            f = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(3)) + (1,)
            assert stepped_fp_projective_order(f, p) == matrix_projective_order(f, p), f

    @pytest.mark.parametrize("p, count", [(7, 216), (11, 1000), (19, 5832)])
    def test_every_squarefree_hecke_quartic_matches_stepping(self, p, count):
        # every (nu^2, nu f3, f2, f3, 1), nu in F_p^*: f3 = 0 gives each f
        # for nu and -nu
        patterns = set()
        for nu, f3, f2 in itertools.product(range(1, p), range(p), range(p)):
            f = (nu * nu % p, nu * f3 % p, f2, f3, 1)
            fac = fp_hecke_factorization(f, nu, p)
            if fac.is_squarefree():
                # what fp_projective_order trusts: one quartic of the Hecke
                # shape, or distinct linear and quadratic factors prime to x
                if len(fac.factors) == 1:
                    assert fac.factors == ((f, 1),) and f[:2] == (nu * nu % p, nu * f[3] % p)
                else:
                    assert all(m == 1 and len(g) <= 3 and g[0] for g, m in fac.factors), f
                assert fp_projective_order(fac) == stepped_fp_projective_order(f, p), f
                patterns.add(tuple(len(g) - 1 for g, _ in fac.factors))
                count -= 1
        assert count == 0
        assert patterns == {(4,), (2, 2), (1, 1, 2), (1, 1, 1, 1)}

    # p = 43: (p^2 + 1)/2 = 5^2 37, so an irreducible quartic of order 37 is
    # reached only by a descent that divides 5 out twice
    @pytest.mark.parametrize("p", [23, 31, 43, 103])
    def test_seeded_hecke_quartics_match_stepping(self, p):
        rng = random.Random(f"order:{p}")
        checked = 0
        while checked < 300:
            nu, f3, f2 = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
            f = (nu * nu % p, nu * f3 % p, f2, f3, 1)
            fac = fp_hecke_factorization(f, nu, p)
            if fac.is_squarefree():
                assert fp_projective_order(fac) == stepped_fp_projective_order(f, p), f
                checked += 1

    def test_irreducible_orders_by_definition_at_large_p(self):
        # beyond stepping's reach: x^n constant, x^(n/l) not for each l | n
        rng = random.Random(10007)
        checked = 0
        while checked < 20:
            nu, f3, f2 = rng.randrange(1, 10007), rng.randrange(10007), rng.randrange(10007)
            f = (nu * nu % 10007, nu * f3 % 10007, f2, f3, 1)
            fac = fp_hecke_factorization(f, nu, 10007)
            if fac.factors == ((f, 1),):
                assert is_projective_order(fp_projective_order(fac), f, 10007), f
                checked += 1

    @pytest.mark.parametrize("p", [7, 19, 103])
    def test_x_power_constancy_matches_powmod(self, p):
        # the descents' x^e on a Hecke quartic against the kernel's fp_powmod:
        # every e up to 64, and the large divisors of p^4 - 1, at which x^e
        # is constant for some of the quartics
        rng = random.Random(f"x-power:{p}")
        big = sorted({(p**4 - 1) // d for d in range(1, 400) if (p**4 - 1) % d == 0})
        constant = 0
        for _ in range(20):
            nu, f3, f2 = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
            f = (nu * nu % p, nu * f3 % p, f2, f3, 1)
            for e in [*range(1, 65), *big]:
                got = _x_power_is_constant(e, f, p)
                assert got == (len(fp_powmod((0, 1), e, f, p)) <= 1), (f, e)
                constant += got
        assert constant  # the constant side was reached too

    def test_prime_factors_against_definition(self):
        # the descents' trial division against the primes that divide n,
        # and on the (p^2 + 1)/2 of the irreducible descent at large p
        for n in range(1, 1000):
            assert _prime_factors(n) == [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)], n
        for p in (10007, 1000003):
            n = (p * p + 1) // 2
            qs = _prime_factors(n)
            assert qs == sorted(set(qs)) and all(is_prime(q) for q in qs), n
            for q in qs:
                while n % q == 0:
                    n //= q
            assert n == 1

    def test_frozen_paper_orders(self):
        for f, nu, n in ((POL2, 4, 25), (POL3, 5, 16), (POL5, 3, 8)):
            assert fp_projective_order(fp_hecke_factorization(f, nu, 7)) == n
            assert stepped_fp_projective_order(f, 7) == n

    @pytest.mark.parametrize("f", [(0, 0, 0, 0, 1), (0, 1, 2, 3, 1), (0, 0, 5, 0, 1)])
    def test_zero_constant_term_rejected(self, f):
        # x is then a zero divisor; without the check x^4 would report order 4
        with pytest.raises(ValueError):
            stepped_fp_projective_order(f, 7)
        with pytest.raises(ValueError):
            matrix_projective_order(f, 7)

    @pytest.mark.parametrize("f", [(1, 1), (1, 0, 0, 1), (2, 0, 0, 0, 3), (1, 0, 0, 0, 0, 1)])
    def test_non_monic_quartic_rejected(self, f):
        with pytest.raises(ValueError):
            stepped_fp_projective_order(f, 7)
