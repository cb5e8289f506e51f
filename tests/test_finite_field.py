"""Tests for prime fields, their extensions, and the integer helpers."""
from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_elements import factorize, make_field
from gspcert.polynomial import is_prime
from oracles import frobenius, in_subfield, mult_order, naive_mult_order

F7 = make_field(7, 1)
F49 = make_field(7, 2)
F2401 = make_field(7, 4)

FIELDS = (F7, F49, F2401, make_field(5, 2), make_field(11, 1))


@st.composite
def field_elements(draw, count: int):
    field = draw(st.sampled_from(FIELDS))
    idxs = draw(st.lists(
        st.integers(0, field.order - 1), min_size=count, max_size=count,
    ))
    return field, [field.element_from_index(i) for i in idxs]


class TestFieldConstruction:
    def test_prime_field_has_no_modulus(self):
        assert F7.modulus is None
        assert F7.order == 7

    def test_canonical_modulus_frozen(self):
        # low degree first: t^2 + 1 and t^4 + t + 1
        assert F49.modulus == (1, 0, 1)
        assert F2401.modulus == (1, 1, 0, 0, 1)

    def test_repeated_calls_return_identical_spec(self):
        assert make_field(7, 2) is F49
        assert make_field(7, 4).modulus == F2401.modulus

    def test_rejects_non_prime_or_bad_degree(self):
        with pytest.raises(ValueError):
            make_field(6, 1)
        with pytest.raises(ValueError):
            make_field(7, 3)
        with pytest.raises(ValueError):
            make_field(1, 1)

    def test_element_enumeration_and_index_roundtrip(self):
        seen = list(F49.elements())
        assert len(seen) == 49
        assert len(set(seen)) == 49
        for i, x in enumerate(seen):
            assert F49.index(x) == i
            assert F49.element_from_index(i) == x


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(field_elements(3))
    def test_ring_axioms(self, drawn):
        _, (x, y, z) = drawn
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=60, deadline=None)
    @given(field_elements(1))
    def test_identities_and_inverses(self, drawn):
        field, (x,) = drawn
        assert x + field.zero() == x
        assert x * field.one() == x
        assert x - x == field.zero()
        if not x.is_zero():
            assert x * x.inv() == field.one()
            assert x / x == field.one()
            assert x ** -2 == (x.inv()) ** 2

    @settings(max_examples=40, deadline=None)
    @given(field_elements(1), st.integers(0, 200))
    def test_pow_matches_repeated_product(self, drawn, e):
        field, (x,) = drawn
        acc = field.one()
        for _ in range(e % 12):
            acc = acc * x
        assert x ** (e % 12) == acc

    def test_small_values(self):
        three = F7.element(3)
        assert three.inv() == F7.element(5)
        assert F7.element(2) ** 52 == F7.element(2)
        assert (F7.element(6) + 1).is_zero()
        assert F7.element(3).lift() == 3

    def test_int_coercion(self):
        t = F49.gen()
        assert t + 0 == t
        assert 1 - t == F49.one() - t
        assert (2 * t) == t + t

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            F7.zero().inv()
        with pytest.raises(ZeroDivisionError):
            F49.one() / F49.zero()

    def test_lift_requires_prime_field_value(self):
        with pytest.raises(ValueError):
            F49.gen().lift()

    def test_field_mismatch_raises(self):
        with pytest.raises(ValueError):
            F7.one() + F49.one()

    def test_lagrange_small_fields(self):
        for field in (F7, F49):
            for x in field.elements():
                if not x.is_zero():
                    assert x ** (field.order - 1) == field.one()

    def test_lagrange_sampled_f2401(self):
        rng = random.Random(7)
        for _ in range(50):
            x = F2401.element_from_index(rng.randrange(1, F2401.order))
            assert x ** (F2401.order - 1) == F2401.one()


class TestFrobenius:
    def test_fixes_prime_field(self):
        for x in F7.elements():
            assert frobenius(x) == x

    def test_generator_of_f49_maps_to_minus_itself(self):
        t = F49.gen()
        assert frobenius(t) == -t

    def test_involution_on_f49(self):
        for x in F49.elements():
            assert frobenius(frobenius(x)) == x

    @settings(max_examples=60, deadline=None)
    @given(field_elements(2))
    def test_is_field_homomorphism(self, drawn):
        _, (x, y) = drawn
        assert frobenius(x + y) == frobenius(x) + frobenius(y)
        assert frobenius(x * y) == frobenius(x) * frobenius(y)

    def test_order_divides_extension_degree(self):
        rng = random.Random(11)
        for _ in range(20):
            x = F2401.element_from_index(rng.randrange(F2401.order))
            y = x
            for _ in range(4):
                y = frobenius(y)
            assert y == x


class TestInSubfield:
    def test_prime_field_elements_of_f49(self):
        fixed = [x for x in F49.elements() if in_subfield(x, 1)]
        assert len(fixed) == 7
        assert F49.element(5) in fixed

    def test_generator_not_in_prime_subfield(self):
        assert not in_subfield(F49.gen(), 1)

    def test_whole_field_is_trivial(self):
        for x in (F7.element(3), F49.gen(), F2401.gen()):
            assert in_subfield(x, x.field.d)

    def test_f2401_has_49_quadratic_subfield_points(self):
        count = sum(1 for x in F2401.elements() if in_subfield(x, 2))
        assert count == 49

    def test_degree_must_divide(self):
        with pytest.raises(ValueError):
            in_subfield(F2401.gen(), 3)


class TestMultOrder:
    def test_known_orders_in_f7(self):
        assert mult_order(F7.one()) == 1
        assert mult_order(F7.element(3)) == 6
        assert mult_order(F7.element(2)) == 3
        assert mult_order(F7.element(6)) == 2

    def test_matches_naive_iteration_on_f7(self):
        for x in F7.elements():
            if not x.is_zero():
                assert mult_order(x) == naive_mult_order(x, F7.one())

    def test_matches_naive_iteration_sampled(self):
        rng = random.Random(3)
        for field, n in ((F49, 30), (F2401, 30)):
            for _ in range(n):
                x = field.element_from_index(rng.randrange(1, field.order))
                assert mult_order(x) == naive_mult_order(x, field.one())

    def test_order_divides_group_order(self):
        rng = random.Random(5)
        for _ in range(40):
            x = F2401.element_from_index(rng.randrange(1, F2401.order))
            assert (F2401.order - 1) % mult_order(x) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mult_order(F49.zero())


class TestIntegerHelpers:
    def test_is_prime_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(-2, 25):
            assert is_prime(n) == (n in primes)

    def test_is_prime_matches_trial_division_below_1e5(self):
        for n in range(10**5):
            assert is_prime(n) == (n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))), n

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2**61 - 1, True),
            (10**12 + 39, True),
            (2**64 - 59, True),
            (3317044064679887385961813, True),  # the largest prime below the bound
            # the least strong pseudoprimes to the first k bases: each prime
            # factor is above 41, so only a later base can expose them
            (1373653, False),  # 829 * 1657, to the bases 2, 3
            (25326001, False),  # 2251 * 11251, to 2, 3, 5
            (3215031751, False),  # 151 * 751 * 28351, to 2, ..., 7
            (2152302898747, False),  # 6763 * 10627 * 29947, to 2, ..., 11
            (3474749660383, False),  # 1303 * 16927 * 157543, to 2, ..., 13
            (341550071728321, False),  # 10670053 * 32010157, to 2, ..., 19
            (3825123056546413051, False),  # strong pseudoprime to the bases 2, ..., 23
            (318665857834031151167461, False),  # and to 2, ..., 37
            (10**400, False),
        ],
    )
    def test_is_prime_large_values(self, n, expected):
        assert is_prime(n) == expected

    @pytest.mark.parametrize("n", [3317044064679887385961981, 10**29 + 319])
    def test_is_prime_refuses_past_the_miller_rabin_bound(self, n):
        # the first is a strong pseudoprime to all 13 bases, the second a prime
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(2400) == {2: 5, 3: 1, 5: 2}
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randrange(2, 10000)
            fac = factorize(n)
            prod = 1
            for q, e in fac.items():
                assert is_prime(q)
                prod *= q ** e
            assert prod == n
