"""Tests for 4x4 matrix arithmetic over F_p and the similitude machinery."""
from __future__ import annotations

import itertools
import random
from math import lcm

import pytest

import symplectic
from field_elements import make_field
from field_polynomial import Polynomial, factor, is_irreducible
from symplectic import (
    Matrix4,
    charpoly,
    companion,
    det,
    matrix_order,
    order_cap,
    projective_order,
    similitude,
    standard_form,
)
from oracles import eigen_projective_order, mult_order, stepped_projective_order

F7 = make_field(7, 1)

POL2 = Polynomial.from_ints(F7, (2, 5, 2, 3, 1))
POL3 = Polynomial.from_ints(F7, (4, 6, 3, 4, 1))
POL5 = Polynomial.from_ints(F7, (2, 4, 4, 6, 1))


def diag(*entries: int) -> Matrix4:
    return Matrix4(F7, [[entries[i] if i == j else 0 for j in range(4)] for i in range(4)])


def block(a, b, c, d) -> Matrix4:
    """Assemble a 4x4 from four 2x2 integer blocks."""
    rows = []
    for i in range(2):
        rows.append(list(a[i]) + list(b[i]))
    for i in range(2):
        rows.append(list(c[i]) + list(d[i]))
    return Matrix4(F7, rows)


def random_gl2(rng: random.Random):
    while True:
        m = [[rng.randrange(7), rng.randrange(7)], [rng.randrange(7), rng.randrange(7)]]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % 7:
            return m


def random_similitude(rng: random.Random) -> tuple[Matrix4, int]:
    """A random element of GSp(4, 7) with its multiplier, built from
    generators of the three standard kinds plus a multiplier twist."""
    zero2 = [[0, 0], [0, 0]]
    ident2 = [[1, 0], [0, 1]]
    m = Matrix4.identity(F7)
    nu = 1
    for _ in range(rng.randrange(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            m = m * standard_form(F7)
        elif kind == 1:
            s01 = rng.randrange(7)
            s = [[rng.randrange(7), s01], [s01, rng.randrange(7)]]
            m = m * block(ident2, s, zero2, ident2)
        elif kind == 2:
            a = random_gl2(rng)
            delta = (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % 7
            inv = pow(delta, 5, 7)
            bt = [[a[1][1] * inv % 7, -a[1][0] * inv % 7],
                  [-a[0][1] * inv % 7, a[0][0] * inv % 7]]
            m = m * block(a, zero2, zero2, bt)
        else:
            c = rng.randrange(1, 7)
            m = m * diag(1, 1, c, c)
            nu = nu * c % 7
    return m, nu


class TestSimilitude:
    def test_identity(self):
        assert similitude(Matrix4.identity(F7)) == F7.one()

    def test_scalar_squares(self):
        for lam in range(1, 7):
            assert similitude(diag(lam, lam, lam, lam)) == F7.element(lam * lam)

    def test_standard_form_itself(self):
        assert similitude(standard_form(F7)) == F7.one()

    def test_non_similitude_matrix(self):
        assert similitude(diag(1, 1, 1, 2)) is None

    def test_random_elements_verify_entrywise(self):
        rng = random.Random(21)
        j = standard_form(F7)
        for _ in range(40):
            m, nu = random_similitude(rng)
            got = similitude(m)
            assert got == F7.element(nu)
            assert m.transpose() * j * m == j.scale(nu)

    def test_multiplicative(self):
        rng = random.Random(22)
        for _ in range(25):
            m, _ = random_similitude(rng)
            n, _ = random_similitude(rng)
            assert similitude(m * n) == similitude(m) * similitude(n)


class TestCompanionAndCharpoly:
    def test_x4_companion_is_nilpotent_shift(self):
        c = companion(Polynomial.from_ints(F7, (0, 0, 0, 0, 1)))
        assert (c * c * c * c).rows == tuple((0,) * 4 for _ in range(4))

    def test_charpoly_of_companion_is_f(self):
        assert charpoly(companion(POL2)) == POL2

    def test_charpoly_identity(self):
        f = Polynomial.from_ints(F7, (-1, 1))
        assert charpoly(Matrix4.identity(F7)) == f * f * f * f

    def test_charpoly_diagonal(self):
        m = diag(1, 2, 3, 4)
        expected = Polynomial.constant(F7, 1)
        for c in (1, 2, 3, 4):
            expected = expected * Polynomial.from_ints(F7, (-c, 1))
        assert charpoly(m) == expected

    def test_roundtrip_random_quartics(self):
        rng = random.Random(23)
        for _ in range(60):
            f = Polynomial.from_ints(
                F7, [rng.randrange(7) for _ in range(4)] + [1]
            )
            assert charpoly(companion(f)) == f

    def test_companion_rejects_bad_input(self):
        with pytest.raises(ValueError):
            companion(Polynomial.from_ints(F7, (1, 1)))
        with pytest.raises(ValueError):
            companion(Polynomial.from_ints(F7, (2, 0, 0, 0, 3)))

    def test_charpoly_needs_large_characteristic(self):
        f3 = make_field(3, 1)
        with pytest.raises(ValueError):
            charpoly(Matrix4.identity(f3))

    def test_det_is_constant_term(self):
        assert det(companion(POL2)) == 2
        assert det(Matrix4.identity(F7)) == 1
        rng = random.Random(24)
        for _ in range(20):
            f = Polynomial.from_ints(F7, [rng.randrange(7) for _ in range(4)] + [1])
            assert det(companion(f)) == f.coeffs[0].lift()

    def test_det_takes_one_charpoly(self, monkeypatch):
        taken = []
        real_charpoly = symplectic.charpoly

        def counting_charpoly(m):
            taken.append(m)
            return real_charpoly(m)

        monkeypatch.setattr(symplectic, "charpoly", counting_charpoly)
        assert det(companion(POL3)) == 4
        assert len(taken) == 1

    def test_matrix_constructor_validation(self):
        with pytest.raises(ValueError):
            Matrix4(F7, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            Matrix4(make_field(7, 2), [[0] * 4] * 4)


class TestOrders:
    def test_identity_order_one(self):
        assert matrix_order(Matrix4.identity(F7)) == 1
        assert projective_order(Matrix4.identity(F7)) == 1

    def test_scalar_orders(self):
        m = diag(3, 3, 3, 3)
        assert matrix_order(m) == 6
        assert projective_order(m) == 1

    def test_unipotent_order_is_p(self):
        f = Polynomial.from_ints(F7, (-1, 1))
        unipotent = companion(f * f * f * f)
        assert matrix_order(unipotent) == 7

    def test_standard_form_orders(self):
        j = standard_form(F7)
        assert matrix_order(j) == 4
        assert projective_order(j) == 2

    def test_projective_orders_frozen(self):
        assert projective_order(companion(POL2)) == 25
        assert projective_order(companion(POL3)) == 16
        assert projective_order(companion(POL5)) == 8

    def test_singular_rejected(self):
        nilpotent = companion(Polynomial.from_ints(F7, (0, 0, 0, 0, 1)))
        with pytest.raises(ValueError):
            matrix_order(nilpotent)
        with pytest.raises(ValueError):
            projective_order(nilpotent)

    def test_descent_matches_stepping_on_every_invertible_companion_p7(self):
        # all 6 * 7^3 = 2,058 monic quartics with f(0) != 0, squarefree or not
        count = 0
        for c in itertools.product(range(1, 7), range(7), range(7), range(7)):
            m = companion(Polynomial.from_ints(F7, c + (1,)))
            assert projective_order(m) == stepped_projective_order(m), c
            count += 1
        assert count == 2058

    def test_descent_refuses_a_bound_the_order_does_not_divide(self):
        # order_cap(p) holds every projective order for p >= 5; against a
        # smaller bound the descent raises instead of returning a divisor
        rows = companion(POL2).rows  # projective order 25
        assert symplectic._scalar_order(rows, [(5, 2)], 7) == 25
        assert symplectic._scalar_order(rows, [(2, 1), (5, 3)], 7) == 25
        with pytest.raises(RuntimeError):
            symplectic._scalar_order(rows, [(5, 1)], 7)
        with pytest.raises(RuntimeError):
            symplectic._scalar_order(rows, [(2, 3), (3, 1)], 7)

    def test_order_cap_frozen(self):
        assert order_cap(7) == 7 * lcm(6, 48, 342, 2400)
        assert order_cap(7) == 957600

    def test_projective_divides_full_order(self):
        rng = random.Random(25)
        for _ in range(20):
            m, _ = random_similitude(rng)
            if det(m) == 0:
                continue
            full = matrix_order(m)
            proj = projective_order(m)
            assert full % proj == 0
            assert 6 % (full // proj) == 0


def eligible_random_quartic(rng: random.Random) -> Polynomial:
    """Random monic squarefree quartic with nonzero constant term and no
    irreducible cubic factor, so all four roots land in F_{7^4}."""
    while True:
        f = Polynomial.from_ints(
            F7, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(3)] + [1]
        )
        fac = factor(f)
        if not fac.is_squarefree():
            continue
        if any(len(g) == 4 for g, _ in fac.factors):
            continue
        return f


class TestEigenProjectiveOrder:
    def test_pol2_frozen(self):
        assert eigen_projective_order(POL2) == 25

    def test_split_quartic(self):
        f = Polynomial.constant(F7, 1)
        for c in (1, 2, 3, 4):
            f = f * Polynomial.from_ints(F7, (-c, 1))
        assert eigen_projective_order(f) == 6
        assert projective_order(companion(f)) == 6

    def test_split_quartic_matches_ratio_orders(self):
        # least n with 1^n = 2^n = 3^n = 4^n is the lcm of the ratio orders
        ratios = [F7.element(2), F7.element(3), F7.element(4)]
        assert lcm(*(mult_order(r) for r in ratios)) == 6

    def test_agrees_with_companion_route(self):
        rng = random.Random(26)
        for _ in range(30):
            f = eligible_random_quartic(rng)
            assert eigen_projective_order(f) == projective_order(companion(f))

    def test_non_squarefree_rejected(self):
        g = Polynomial.from_ints(F7, (3, 1))
        f = g * g * Polynomial.from_ints(F7, (1, 2, 1))
        with pytest.raises(ValueError):
            eigen_projective_order(f)

    def test_cubic_factor_rejected(self):
        cubic = Polynomial.from_ints(F7, (5, 0, 0, 1))
        assert is_irreducible(cubic)
        f = cubic * Polynomial.from_ints(F7, (1, 1))
        with pytest.raises(ValueError):
            eigen_projective_order(f)

    def test_zero_constant_rejected(self):
        f = Polynomial.from_ints(F7, (0, 1, 2, 3, 1))
        with pytest.raises(ValueError):
            eigen_projective_order(f)
