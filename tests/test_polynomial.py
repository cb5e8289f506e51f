"""Tests for polynomial arithmetic, factorization, and root finding."""
from __future__ import annotations

import itertools
import random

import pytest

from field_elements import make_field
from field_polynomial import (
    Polynomial,
    factor,
    gcd,
    is_irreducible,
    is_squarefree,
    poly_powmod,
)
from gspcert.polynomial import (
    fp_powmod,
    fp_projective_order,
    fp_split_equal_degree,
    fp_str,
    fp_trim,
)
from oracles import (
    conjugate_poly,
    expand,
    ext_factor,
    ext_is_irreducible,
    fp_mul,
    frobenius,
    lift,
    monic_polys,
    naive_factor,
    naive_irreducible,
    pmod,
    pmul,
    poly_str,
    ptrim,
    reference_powmod,
    roots_in,
)
from symplectic import companion, projective_order

F7 = make_field(7, 1)
F49 = make_field(7, 2)
F2401 = make_field(7, 4)

# the three characteristic polynomials exercised throughout (low degree first)
POL2 = Polynomial.from_ints(F7, (2, 5, 2, 3, 1))
POL3 = Polynomial.from_ints(F7, (4, 6, 3, 4, 1))
POL5 = Polynomial.from_ints(F7, (2, 4, 4, 6, 1))
DEFINING = Polynomial.from_ints(F7, (-59412960, -294086, -1, 1))


def random_poly(rng: random.Random, field, degree: int) -> Polynomial:
    coeffs = [rng.randrange(field.p) for _ in range(degree)] + [1]
    return Polynomial.from_ints(field, coeffs)


class TestArithmetic:
    def test_divmod_remainder_is_value_at_root(self):
        # dividing by x + 3 leaves the value at x = -3 = 4
        q, r = divmod(POL2, Polynomial.from_ints(F7, (3, 1)))
        assert r == Polynomial.constant(F7, 5)
        assert POL2(F7.element(4)) == F7.element(5)
        assert q * Polynomial.from_ints(F7, (3, 1)) + r == POL2

    def test_divmod_identity_random(self):
        rng = random.Random(2)
        for _ in range(40):
            f = random_poly(rng, F7, rng.randrange(1, 7))
            g = random_poly(rng, F7, rng.randrange(1, 5))
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(POL2, Polynomial(F7, ()))

    def test_gcd_with_zero_is_monic_copy(self):
        f = Polynomial.from_ints(F7, (2, 4, 6))
        zero = Polynomial(F7, ())
        assert gcd(f, zero) == f.monic()
        assert gcd(zero, f) == f.monic()

    def test_gcd_divides_both_and_is_monic(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng, F7, rng.randrange(1, 5))
            g = random_poly(rng, F7, rng.randrange(1, 5))
            h = random_poly(rng, F7, rng.randrange(1, 3))
            d = gcd(f * h, g * h)
            assert d.is_monic()
            assert (f * h % d).is_zero()
            assert (g * h % d).is_zero()
            assert (d % h.monic()).is_zero()

    def test_derivative_power_rule(self):
        f = Polynomial.from_ints(F7, (1, 0, 5, 1))  # x^3 + 5x^2 + 1
        assert f.derivative() == Polynomial.from_ints(F7, (0, 10, 3))

    def test_derivative_kills_pth_powers(self):
        x7 = Polynomial.from_ints(F7, [0] * 7 + [1])
        assert x7.derivative().is_zero()

    def test_powmod_matches_naive(self):
        rng = random.Random(4)
        for _ in range(15):
            base = random_poly(rng, F7, rng.randrange(1, 4))
            m = random_poly(rng, F7, rng.randrange(2, 5))
            e = rng.randrange(0, 30)
            acc = Polynomial.constant(F7, 1)
            for _ in range(e):
                acc = acc * base % m
            assert poly_powmod(base, e, m) == acc

    def test_evaluation_matches_naive_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_poly(rng, F49, rng.randrange(0, 5))
            pt = F49.element_from_index(rng.randrange(49))
            total = F49.zero()
            for i, c in enumerate(f.coeffs):
                total = total + c * pt ** i
            assert f(pt) == total

    def test_str_frozen(self):
        assert str(POL2) == "x^4 + 3x^3 + 2x^2 + 5x + 2"
        assert str(Polynomial(F7, ())) == "0"
        assert str(Polynomial.constant(F7, 3)) == "3"
        assert str(Polynomial.x(F7)) == "x"

    def test_fp_str_matches_term_by_term_reference(self):
        # every polynomial of degree <= 4 over F_2, F_3 and F_7, zero included;
        # str(Polynomial) over F_p is fp_str
        for p in (2, 3, 7):
            F = make_field(p, 1)
            for cs in itertools.chain.from_iterable(
                itertools.product(range(p), repeat=n) for n in range(6)
            ):
                assert fp_str(fp_trim(cs)) == poly_str(ptrim(cs)), cs
                assert str(Polynomial.from_ints(F, cs)) == poly_str(ptrim(cs)), cs


KERNEL_PRIMES = [2, 3, 5, 7, 19, 101, 65537, 1000003]


class TestFusedKernel:
    """fp_powmod's fused multiply-and-reduce against the full product and
    separate reduction of tests/oracles.py."""

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_powmod_matches_reference(self, p):
        rng = random.Random(5100 + p)

        def poly(d: int) -> tuple[int, ...]:
            return tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)

        for _ in range(40):
            m = poly(rng.randrange(0, 7))  # non-monic, constant moduli included
            for a in [(), (1,), poly(0), poly(rng.randrange(1, 3 * len(m) + 2))]:
                for e in [0, 1, 2, p, rng.randrange(3, 400), rng.randrange(p**2 + 1)]:
                    assert fp_powmod(a, e, m, p) == reference_powmod(a, e, m, p), (a, e, m)


class TestSquarefree:
    def test_pol2_is_squarefree(self):
        assert is_squarefree(POL2)

    def test_repeated_linear_factor_is_not(self):
        xp3 = Polynomial.from_ints(F7, (3, 1))
        assert not is_squarefree(xp3 * xp3)

    def test_x7_minus_x_is_squarefree(self):
        f = Polynomial.from_ints(F7, [0, -1] + [0] * 5 + [1])
        assert is_squarefree(f)

    def test_matches_factorization_multiplicities(self):
        rng = random.Random(6)
        for _ in range(25):
            f = random_poly(rng, F7, rng.randrange(1, 6))
            expected = all(m == 1 for _, m in factor(f).factors)
            assert is_squarefree(f) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(Polynomial(F7, ()))


class TestRoots:
    def test_pol2_and_pol5_rootless_in_f7(self):
        assert roots_in(POL2, 1) == []
        assert roots_in(POL5, 1) == []

    def test_pol3_has_exactly_4_and_3(self):
        assert [r.lift() for r in roots_in(POL3, 1)] == [3, 4]

    def test_defining_cubic_roots(self):
        assert [r.lift() for r in roots_in(DEFINING, 1)] == [1, 3, 4]

    def test_multiplicity_reported(self):
        # (x - 1)^2 (x - 2)
        f = Polynomial.from_ints(F7, (1, -2, 1)) * Polynomial.from_ints(F7, (-2, 1))
        roots = roots_in(f, 1)
        assert [r.lift() for r in roots] == [1, 1, 2]

    def test_x_squared_plus_one_needs_f49(self):
        f = Polynomial.from_ints(F7, (1, 0, 1))
        assert roots_in(f, 1) == []
        rs = roots_in(f, 2)
        assert len(rs) == 2
        for r in rs:
            assert (r * r + 1).is_zero()

    def test_roots_satisfy_polynomial(self):
        for r in roots_in(POL2, 4):
            assert lift(POL2, F2401)(r).is_zero()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            roots_in(Polynomial(F7, ()), 1)

    def test_no_embedding_from_f49_to_f2401(self):
        f = Polynomial(F49, (F49.gen(), F49.one()))
        with pytest.raises(ValueError):
            roots_in(f, 4)


class TestIrreducibility:
    def test_known_quadratics(self):
        assert is_irreducible(Polynomial.from_ints(F7, (1, 0, 1)))
        assert is_irreducible(Polynomial.from_ints(F7, (5, 4, 1)))
        composite = Polynomial.from_ints(F7, (3, 1)) * Polynomial.from_ints(F7, (4, 1))
        assert not is_irreducible(composite)

    def test_pol2_irreducible(self):
        assert is_irreducible(POL2)

    def test_exhaustive_low_degrees_match_naive_oracle(self):
        import itertools
        for d in (1, 2, 3):
            for tail in itertools.product(range(7), repeat=d):
                ints = list(tail) + [1]
                f = Polynomial.from_ints(F7, ints)
                assert is_irreducible(f) == naive_irreducible(ints, 7), str(f)

    def test_sampled_quartics_match_naive_oracle(self):
        rng = random.Random(8)
        for _ in range(150):
            ints = [rng.randrange(7) for _ in range(4)] + [1]
            f = Polynomial.from_ints(F7, ints)
            assert is_irreducible(f) == naive_irreducible(ints, 7), str(f)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(Polynomial.constant(F7, 3))


class TestConjugate:
    def test_fixes_prime_coefficient_polys(self):
        g = lift(POL3, F49)
        assert conjugate_poly(g) == g

    def test_x_minus_generator(self):
        t = F49.gen()
        g = Polynomial(F49, (-t, F49.one()))
        assert conjugate_poly(g) == Polynomial(F49, (t, F49.one()))

    def test_involution(self):
        rng = random.Random(9)
        for _ in range(20):
            coeffs = tuple(F49.element_from_index(rng.randrange(49)) for _ in range(4))
            g = Polynomial(F49, coeffs + (F49.one(),))
            assert conjugate_poly(conjugate_poly(g)) == g

    def test_roots_move_by_frobenius(self):
        t = F49.gen()
        g = Polynomial(F49, (t + 3, t, F49.one()))
        cg = conjugate_poly(g)
        for r in roots_in(g * cg, 2):
            if g(r).is_zero():
                assert cg(frobenius(r)).is_zero()


class TestFactor:
    def test_defining_cubic_frozen(self):
        assert str(factor(DEFINING)) == "(x + 3)(x + 4)(x + 6)"

    def test_pol3_frozen(self):
        assert str(factor(POL3)) == "(x + 3)(x + 4)(x^2 + 4x + 5)"

    def test_pol5_frozen(self):
        assert str(factor(POL5)) == "(x^2 + x + 3)(x^2 + 5x + 3)"

    def test_pol2_stays_whole(self):
        fac = factor(POL2)
        assert str(fac) == "(x^4 + 3x^3 + 2x^2 + 5x + 2)"
        assert fac.is_squarefree()

    def test_repeated_factor_multiplicity(self):
        x = Polynomial.x(F7)
        fac = factor(x * x)
        assert fac.factors == (((0, 1), 2),)
        assert not fac.is_squarefree()

    def test_linear_roots_follow_factor_order(self):
        fac = factor(DEFINING)
        assert fac.linear_roots() == [(4, 1), (3, 1), (1, 1)]

    def test_unit_preserved(self):
        f = POL3 * 3
        fac = factor(f)
        assert fac.unit == 3
        assert Polynomial.from_ints(F7, expand(fac)) == f

    def test_roundtrip_random(self):
        rng = random.Random(10)
        for _ in range(100):
            coeffs = [rng.randrange(7) for _ in range(rng.randrange(1, 7))]
            coeffs.append(rng.randrange(1, 7))
            f = Polynomial.from_ints(F7, coeffs)
            fac = factor(f)
            assert Polynomial.from_ints(F7, expand(fac)) == f
            for g, m in fac.factors:
                assert g[-1] == 1
                assert is_irreducible(Polynomial.from_ints(F7, g))
                assert m >= 1
            degrees = [len(g) - 1 for g, _ in fac.factors]
            assert degrees == sorted(degrees)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(Polynomial(F7, ()))

    @pytest.mark.parametrize("p, degree", [(2, 8), (3, 6), (5, 4), (7, 3)])
    def test_every_monic_matches_trial_division(self, p, degree):
        F = make_field(p, 1)
        for f in monic_polys(p, degree):
            got = [(list(g), m) for g, m in factor(Polynomial.from_ints(F, f)).factors]
            assert got == naive_factor(f, p), f

    @pytest.mark.parametrize(
        "p, d, k, m",
        [(2, 1, 3, 2), (2, 1, 4, 3), (3, 1, 2, 3), (5, 1, 2, 2), (7, 1, 1, 4), (2, 2, 2, 3), (7, 2, 1, 3)],
    )
    def test_equal_degree_products_split_completely(self, p, d, k, m):
        # m distinct irreducibles of one degree k reach the trace split
        # together; over F_2 two of the three quartics share the trace of x,
        # so (2, 1, 4, 3) needs a second round with x^2.  Over F_{p^d}, d > 1,
        # the reference route of tests/oracles.py splits them.
        F = make_field(p, d)
        irreducible, factors = (
            (is_irreducible, lambda f: [(Polynomial.from_ints(F, g), m) for g, m in factor(f).factors])
            if d == 1 else (ext_is_irreducible, ext_factor)
        )
        monics = (Polynomial(F, cs + (F.one(),)) for cs in itertools.product(list(F.elements()), repeat=k))
        irreducibles = [g for g in monics if irreducible(g)]
        rng = random.Random(f"{p}:{d}:{k}:{m}")
        for _ in range(5):
            gs = rng.sample(irreducibles, m)
            f = Polynomial.constant(F, 1)
            for g in gs:
                f = f * g
            assert dict(factors(f)) == dict.fromkeys(gs, 1)
            assert dict(factors(f * gs[0])) == {**dict.fromkeys(gs, 1), gs[0]: 2}

    @pytest.mark.parametrize("p", [19, 31])
    def test_seeded_quartics_match_trial_division(self, p):
        F = make_field(p, 1)
        rng = random.Random(p)
        for _ in range(500):
            f = [rng.randrange(p) for _ in range(4)] + [1]
            got = [(list(g), m) for g, m in factor(Polynomial.from_ints(F, f)).factors]
            assert got == naive_factor(f, p), f

    @pytest.mark.parametrize("p", [19, 31])
    def test_seeded_repeated_factors_match_trial_division(self, p):
        # products of powers of distinct irreducibles of degree 1-3, up to
        # degree 8, at least one repeated: the distinct-degree pass then
        # divides factors out with multiplicity and carries x^(p^k) on to
        # the cofactor
        F = make_field(p, 1)
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
            got = [(list(g), m) for g, m in factor(Polynomial.from_ints(F, f)).factors]
            assert got == expected, f

    def test_seeded_powmod_and_gcd_match_oracle_arithmetic_p19(self):
        # powmod against repeated oracle pmul/pmod; gcd against the product
        # of the common trial-division factors at their lower multiplicity
        p = 19
        F = make_field(p, 1)
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
            got = poly_powmod(Polynomial.from_ints(F, a), e, Polynomial.from_ints(F, m))
            assert [c.lift() for c in got.coeffs] == acc, (a, e, m)

            h = monic(rng.randrange(0, 3))
            f, g = pmul(h, monic(rng.randrange(1, 4)), p), pmul(h, monic(rng.randrange(0, 3)), p)
            in_g = {tuple(k): mult for k, mult in naive_factor(g, p)}
            expected = [1]
            for k, mult in naive_factor(f, p):
                for _ in range(min(mult, in_g.get(tuple(k), 0))):
                    expected = pmul(expected, k, p)
            got = gcd(Polynomial.from_ints(F, f), Polynomial.from_ints(F, g))
            assert [c.lift() for c in got.coeffs] == expected, (f, g)

    @pytest.mark.parametrize("name", ["factor", "gcd", "poly_powmod", "is_squarefree", "is_irreducible"])
    def test_extension_fields_rejected(self, name):
        # the F_{p^d} route, d > 1, is the reference in tests/oracles.py
        f = Polynomial(F49, (F49.gen(), F49.one(), F49.one()))
        call = {
            "factor": lambda: factor(f),
            "gcd": lambda: gcd(f, f),
            "poly_powmod": lambda: poly_powmod(f, 3, f),
            "is_squarefree": lambda: is_squarefree(f),
            "is_irreducible": lambda: is_irreducible(f),
        }[name]
        with pytest.raises(ValueError, match="prime field"):
            call()

    @pytest.mark.parametrize("gs, k", [([(3, 1)], 1), ([(1, 0, 1)], 2), ([(3, 1), (5, 1)], 1)])
    def test_split_of_a_square_raises(self, gs, k):
        # the trace split needs distinct factors; with g_1 squared it must
        # fail loudly rather than come back short or loop
        s = gs[0]
        for g in gs:
            s = fp_mul(s, g, 7)
        with pytest.raises(RuntimeError):
            fp_split_equal_degree(s, k, 7)

    def test_shape_eligible_quartics_split_over_f2401(self):
        # products of irreducibles of degree 1, 2, or 4 have all their
        # roots inside F_{7^4}
        rng = random.Random(11)

        def random_irreducible(d: int) -> Polynomial:
            while True:
                f = random_poly(rng, F7, d)
                if is_irreducible(f):
                    return f

        patterns = [(1, 1, 1, 1), (1, 1, 2), (2, 2), (4,)]
        for _ in range(12):
            pattern = rng.choice(patterns)
            f = Polynomial.constant(F7, 1)
            for d in pattern:
                f = f * random_irreducible(d)
            assert len(roots_in(f, 4)) == 4


def matrix_projective_order(f: tuple[int, ...], p: int) -> int:
    """The reference: iterate the companion matrix until it is scalar."""
    return projective_order(companion(Polynomial.from_ints(make_field(p, 1), f)))


class TestProjectiveOrder:
    def test_every_invertible_monic_quartic_p7_matches_matrix_route(self):
        # all 6 * 7^3 = 2,058 monic quartics with f(0) != 0, squarefree or not
        count = 0
        for c in itertools.product(range(1, 7), range(7), range(7), range(7)):
            f = c + (1,)
            assert fp_projective_order(f, 7) == matrix_projective_order(f, 7), f
            count += 1
        assert count == 2058

    @pytest.mark.parametrize("p", [11, 19, 31])
    def test_seeded_quartics_match_matrix_route(self, p):
        rng = random.Random(4000 + p)
        for _ in range(500):
            f = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(3)) + (1,)
            assert fp_projective_order(f, p) == matrix_projective_order(f, p), f

    def test_frozen_paper_orders(self):
        assert fp_projective_order((2, 5, 2, 3, 1), 7) == 25
        assert fp_projective_order((4, 6, 3, 4, 1), 7) == 16
        assert fp_projective_order((2, 4, 4, 6, 1), 7) == 8

    @pytest.mark.parametrize("f", [(0, 0, 0, 0, 1), (0, 1, 2, 3, 1), (0, 0, 5, 0, 1)])
    def test_zero_constant_term_rejected(self, f):
        # x is then a zero divisor; without the check x^4 would report order 4
        with pytest.raises(ValueError):
            fp_projective_order(f, 7)
        with pytest.raises(ValueError):
            matrix_projective_order(f, 7)

    @pytest.mark.parametrize("f", [(1, 1), (1, 0, 0, 1), (2, 0, 0, 0, 3), (1, 0, 0, 0, 0, 1)])
    def test_non_monic_quartic_rejected(self, f):
        with pytest.raises(ValueError):
            fp_projective_order(f, 7)
