"""Tests for the F_{p^d} references of tests/oracles.py, whose elements are
low-first int tuples, and for the integer helpers."""
from __future__ import annotations

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspcert.polynomial import is_prime
from oracles import (
    _smallest_irreducible,
    element,
    ext_add,
    ext_mul,
    ext_pow,
    factorize,
    frobenius,
    in_subfield,
    monic_polys,
    mult_order,
    naive_irreducible,
    naive_mult_order,
)

# (p, d) for F_{p^d}
FIELDS = ((7, 1), (7, 2), (7, 4), (5, 2), (11, 1))
T49 = (0, 1)  # t in F_49 = F_7[t]/(t^2 + 1)


@st.composite
def drawn_elements(draw, count: int):
    p, d = draw(st.sampled_from(FIELDS))
    idxs = draw(st.lists(st.integers(0, p**d - 1), min_size=count, max_size=count))
    return p, [element(i, p, d) for i in idxs]


class TestCanonicalModulus:
    def test_canonical_modulus_frozen(self):
        # low degree first: F_7 = F_7[t]/(t), then t^2 + 1 and t^4 + t + 1
        assert _smallest_irreducible(7, 1) == (0, 1)
        assert _smallest_irreducible(7, 2) == (1, 0, 1)
        assert _smallest_irreducible(7, 4) == (1, 1, 0, 0, 1)

    @pytest.mark.parametrize("p, d", FIELDS + ((11, 2), (13, 2)))
    def test_is_the_first_irreducible_by_trial_division(self, p, d):
        first = next(f for f in monic_polys(p, d) if naive_irreducible(f, p))
        assert _smallest_irreducible(p, d) == tuple(first)

    def test_elements_come_in_index_order(self):
        # the order scan_distinct_roots sorts by: the coefficients, high
        # first, read as the base-p digits of the index
        seen = [element(i, 7, 2) for i in range(49)]
        assert len(set(seen)) == 49 and seen[7:9] == [(0, 1), (1, 1)]
        assert sorted(seen, key=lambda x: x[::-1]) == seen


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(drawn_elements(3))
    def test_ring_axioms(self, drawn):
        p, (x, y, z) = drawn
        assert ext_add(x, y, p) == ext_add(y, x, p)
        assert ext_mul(x, y, p) == ext_mul(y, x, p)
        assert ext_add(ext_add(x, y, p), z, p) == ext_add(x, ext_add(y, z, p), p)
        assert ext_mul(ext_mul(x, y, p), z, p) == ext_mul(x, ext_mul(y, z, p), p)
        assert ext_mul(x, ext_add(y, z, p), p) == ext_add(ext_mul(x, y, p), ext_mul(x, z, p), p)

    @settings(max_examples=60, deadline=None)
    @given(drawn_elements(1))
    def test_identities_and_inverses(self, drawn):
        p, (x,) = drawn
        d = len(x)
        zero, one = element(0, p, d), element(1, p, d)
        assert ext_add(x, zero, p) == x
        assert ext_mul(x, one, p) == x
        assert ext_add(x, tuple(-c % p for c in x), p) == zero
        if any(x):
            # x^(q-2) is the inverse of x in F_q^*
            assert ext_mul(x, ext_pow(x, p**d - 2, p), p) == one

    @settings(max_examples=40, deadline=None)
    @given(drawn_elements(1), st.integers(0, 200))
    def test_pow_matches_repeated_product(self, drawn, e):
        p, (x,) = drawn
        acc = element(1, p, len(x))
        for _ in range(e % 12):
            acc = ext_mul(acc, x, p)
        assert ext_pow(x, e % 12, p) == acc

    def test_small_values(self):
        assert ext_pow((3,), 5, 7) == (5,)  # 3^-1 = 5 in F_7
        assert ext_pow((2,), 52, 7) == (2,)
        assert ext_add((6,), (1,), 7) == (0,)
        assert ext_mul(T49, T49, 7) == (6, 0)  # t^2 = -1 in F_49

    def test_lagrange_small_fields(self):
        for d in (1, 2):
            for i in range(1, 7**d):
                assert ext_pow(element(i, 7, d), 7**d - 1, 7) == element(1, 7, d)

    def test_lagrange_sampled_f2401(self):
        rng = random.Random(7)
        for _ in range(50):
            x = element(rng.randrange(1, 7**4), 7, 4)
            assert ext_pow(x, 7**4 - 1, 7) == (1, 0, 0, 0)


class TestFrobenius:
    def test_fixes_prime_field(self):
        for c in range(7):
            assert frobenius((c,), 7) == (c,)

    def test_generator_of_f49_maps_to_minus_itself(self):
        assert frobenius(T49, 7) == (0, 6)

    def test_involution_on_f49(self):
        for x in (element(i, 7, 2) for i in range(49)):
            assert frobenius(frobenius(x, 7), 7) == x

    @settings(max_examples=60, deadline=None)
    @given(drawn_elements(2))
    def test_is_field_homomorphism(self, drawn):
        p, (x, y) = drawn
        assert frobenius(ext_add(x, y, p), p) == ext_add(frobenius(x, p), frobenius(y, p), p)
        assert frobenius(ext_mul(x, y, p), p) == ext_mul(frobenius(x, p), frobenius(y, p), p)

    def test_order_divides_extension_degree(self):
        rng = random.Random(11)
        for _ in range(20):
            x = element(rng.randrange(7**4), 7, 4)
            y = x
            for _ in range(4):
                y = frobenius(y, 7)
            assert y == x


class TestInSubfield:
    def test_prime_field_elements_of_f49(self):
        fixed = [x for x in (element(i, 7, 2) for i in range(49)) if in_subfield(x, 1, 7)]
        assert len(fixed) == 7
        assert (5, 0) in fixed

    def test_generator_not_in_prime_subfield(self):
        assert not in_subfield(T49, 1, 7)

    def test_whole_field_is_trivial(self):
        for x in ((3,), T49, (0, 1, 0, 0)):
            assert in_subfield(x, len(x), 7)

    def test_f2401_has_49_quadratic_subfield_points(self):
        count = sum(1 for i in range(7**4) if in_subfield(element(i, 7, 4), 2, 7))
        assert count == 49

    def test_degree_must_divide(self):
        with pytest.raises(ValueError):
            in_subfield((0, 1, 0, 0), 3, 7)


class TestMultOrder:
    def test_known_orders_in_f7(self):
        assert mult_order((1,), 7) == 1
        assert mult_order((3,), 7) == 6
        assert mult_order((2,), 7) == 3
        assert mult_order((6,), 7) == 2

    def test_matches_naive_iteration_on_f7(self):
        for c in range(1, 7):
            assert mult_order((c,), 7) == naive_mult_order((c,), 7)

    def test_matches_naive_iteration_sampled(self):
        rng = random.Random(3)
        for d, n in ((2, 30), (4, 30)):
            for _ in range(n):
                x = element(rng.randrange(1, 7**d), 7, d)
                assert mult_order(x, 7) == naive_mult_order(x, 7)

    def test_order_divides_group_order(self):
        rng = random.Random(5)
        for _ in range(40):
            x = element(rng.randrange(1, 7**4), 7, 4)
            assert (7**4 - 1) % mult_order(x, 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mult_order((0, 0), 7)


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
