"""Tests for the 4x4 matrix route to projective orders over F_p, and for
the live F_p routes on the charpolys of matrices built here: GSp(4, p)
similitudes for fp_hecke_factorization and fp_projective_order, and
eigenvalue ratios in F_{7^4} for the stepping oracle and
fp_projective_order."""
from __future__ import annotations

import itertools
import random
from math import lcm

import pytest

import symplectic
from field_elements import factorize, make_field
from gspcert.polynomial import fp_hecke_factorization, fp_projective_order
from symplectic import (
    IDENTITY,
    Rows,
    _mul_rows,
    _pow_rows,
    _scalar_of_rows,
    charpoly,
    companion,
    order_cap,
    projective_order,
)
from oracles import (
    fp_factorization,
    mult_order,
    roots_in,
    stepped_fp_projective_order,
)

F7 = make_field(7, 1)

POL2 = (2, 5, 2, 3, 1)
POL3 = (4, 6, 3, 4, 1)
POL5 = (2, 4, 4, 6, 1)


def diag(*entries: int) -> Rows:
    return tuple(tuple(entries[i] if i == j else 0 for j in range(4)) for i in range(4))


def scale(m: Rows, c: int, p: int) -> Rows:
    return tuple(tuple(e * c % p for e in row) for row in m)


def transpose(m: Rows) -> Rows:
    return tuple(zip(*m))


def block(a, b, c, d, p: int) -> Rows:
    """Assemble a 4x4 from four 2x2 integer blocks."""
    top = [tuple(x % p for x in a[i] + b[i]) for i in range(2)]
    return tuple(top + [tuple(x % p for x in c[i] + d[i]) for i in range(2)])


def standard_form(p: int) -> Rows:
    """J = [[0, I], [-I, 0]], the alternating form GSp(4, p) preserves up to
    the multiplier."""
    return block(((0, 0), (0, 0)), ((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, 0), (0, 0)), p)


def multiplier(m: Rows, p: int) -> int | None:
    """nu with m^T J m = nu J, or None when m is no similitude of J."""
    j = standard_form(p)
    form = _mul_rows(_mul_rows(transpose(m), j, p), m, p)
    nu = form[0][2]
    return nu if form == scale(j, nu, p) else None


def random_gl2(rng: random.Random, p: int):
    while True:
        a = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
        if (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p:
            return a


def random_similitude(rng: random.Random, p: int) -> tuple[Rows, int]:
    """A random element of GSp(4, p) with its multiplier, a product of
    generators of the three standard kinds and of multiplier twists."""
    zero2, ident2 = ((0, 0), (0, 0)), ((1, 0), (0, 1))
    m, nu = IDENTITY, 1
    for _ in range(rng.randrange(2, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            g = standard_form(p)
        elif kind == 1:  # [[I, S], [0, I]] with S symmetric
            s01 = rng.randrange(p)
            g = block(ident2, ((rng.randrange(p), s01), (s01, rng.randrange(p))), zero2, ident2, p)
        elif kind == 2:  # [[A, 0], [0, (A^T)^-1]]
            a = random_gl2(rng, p)
            inv = pow(a[0][0] * a[1][1] - a[0][1] * a[1][0], -1, p)
            bt = ((a[1][1] * inv, -a[1][0] * inv), (-a[0][1] * inv, a[0][0] * inv))
            g = block(a, zero2, zero2, bt, p)
        else:
            c = rng.randrange(1, p)
            g, nu = diag(1, 1, c, c), nu * c % p
        m = _mul_rows(m, g, p)
    return m, nu


def leibniz_det(m: Rows) -> int:
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        term = (-1) ** inversions
        for i in range(4):
            term *= m[i][perm[i]]
        total += term
    return total


class TestCompanionAndCharpoly:
    def test_x4_companion_is_nilpotent_shift(self):
        c = companion((0, 0, 0, 0, 1), 7)
        assert _pow_rows(c, 4, 7) == tuple((0,) * 4 for _ in range(4))

    def test_charpoly_of_companion_is_f(self):
        assert charpoly(companion(POL2, 7), 7) == POL2

    def test_charpoly_identity(self):
        # (x - 1)^4 = x^4 - 4x^3 + 6x^2 - 4x + 1
        assert charpoly(IDENTITY, 7) == (1, 3, 6, 3, 1)

    def test_charpoly_diagonal(self):
        # (x - 1)(x - 2)(x - 3)(x - 4) = x^4 - 10x^3 + 35x^2 - 50x + 24
        assert charpoly(diag(1, 2, 3, 4), 7) == (24 % 7, -50 % 7, 35 % 7, -10 % 7, 1)

    def test_roundtrip_random_quartics(self):
        rng = random.Random(23)
        for _ in range(60):
            f = tuple(rng.randrange(7) for _ in range(4)) + (1,)
            assert charpoly(companion(f, 7), 7) == f

    def test_companion_rejects_bad_input(self):
        with pytest.raises(ValueError):
            companion((1, 1), 7)
        with pytest.raises(ValueError):
            companion((2, 0, 0, 0, 3), 7)

    def test_charpoly_needs_large_characteristic(self):
        with pytest.raises(ValueError):
            charpoly(IDENTITY, 3)

    def test_det_is_constant_term(self):
        # det(xI - m) at x = 0 is det(-m) = det(m): projective_order refuses
        # a singular matrix on this coefficient
        assert charpoly(companion(POL2, 7), 7)[0] == 2
        assert charpoly(IDENTITY, 7)[0] == 1
        rng = random.Random(24)
        for _ in range(40):
            m = tuple(tuple(rng.randrange(7) for _ in range(4)) for _ in range(4))
            assert charpoly(m, 7)[0] == leibniz_det(m) % 7, m


class TestOrders:
    def test_identity_order_one(self):
        assert projective_order(IDENTITY, 7) == 1

    def test_scalar_orders(self):
        assert projective_order(diag(3, 3, 3, 3), 7) == 1

    def test_unipotent_order_is_p(self):
        # (x - 1)^4: m^n has the one eigenvalue 1, so it is scalar only at n = 7
        assert projective_order(companion((1, 3, 6, 3, 1), 7), 7) == 7

    def test_standard_form_orders(self):
        j = standard_form(7)
        assert _pow_rows(j, 2, 7) == diag(6, 6, 6, 6)
        assert _pow_rows(j, 4, 7) == IDENTITY
        assert projective_order(j, 7) == 2

    def test_projective_orders_frozen(self):
        assert projective_order(companion(POL2, 7), 7) == 25
        assert projective_order(companion(POL3, 7), 7) == 16
        assert projective_order(companion(POL5, 7), 7) == 8

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            projective_order(companion((0, 0, 0, 0, 1), 7), 7)

    def test_descent_refuses_a_bound_the_order_does_not_divide(self):
        # order_cap(p) holds every projective order for p >= 5; against a
        # smaller bound the descent raises instead of returning a divisor
        rows = companion(POL2, 7)  # projective order 25
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
        # m^n = c I at the projective order n, so the order of m is n times
        # the order of c in F_7^*, a divisor of 6
        rng = random.Random(25)
        for _ in range(20):
            m, _ = random_similitude(rng, 7)
            proj = projective_order(m, 7)
            full = proj * mult_order(F7.element(_scalar_of_rows(_pow_rows(m, proj, 7))))
            assert _pow_rows(m, full, 7) == IDENTITY
            assert all(_pow_rows(m, full // ell, 7) != IDENTITY for ell in factorize(full))
            assert 6 % (full // proj) == 0

    def test_order_is_read_off_a_squarefree_charpoly(self):
        # distinct eigenvalues make m similar to the companion of its
        # charpoly f, so the order read off f's factorization is the order
        # of m itself; a similitude's charpoly has the Hecke shape
        rng = random.Random(27)
        checked = 0
        while checked < 30:
            m, nu = random_similitude(rng, 7)
            f = charpoly(m, 7)
            fac = fp_hecke_factorization(f, nu, 7)
            if fac.is_squarefree():
                n = projective_order(m, 7)
                assert fp_projective_order(fac) == n == stepped_fp_projective_order(f, 7), m
                checked += 1


class TestSimilitude:
    """fp_hecke_factorization(f, nu, p) checks f1 = nu f3 and f0 = nu^2, the
    shape of the charpoly of a similitude with multiplier nu: here on
    matrices of GSp(4, p), each with its multiplier, rather than on
    eigen_data.hecke_quartic's output."""

    def test_identity(self):
        assert multiplier(IDENTITY, 7) == 1
        f = charpoly(IDENTITY, 7)
        assert fp_hecke_factorization(f, 1, 7) == fp_factorization(f, 7)

    def test_scalar_squares(self):
        for lam in range(1, 7):
            m = diag(lam, lam, lam, lam)
            nu = multiplier(m, 7)
            assert nu == lam * lam % 7
            assert fp_hecke_factorization(charpoly(m, 7), nu, 7).factors == (((-lam % 7, 1), 4),)

    def test_standard_form_itself(self):
        j = standard_form(7)
        assert multiplier(j, 7) == 1
        # (x^2 + 1)^2 has no x^3 or x term: nu = 1 and -nu = 6 both fit
        assert charpoly(j, 7) == (1, 0, 2, 0, 1)
        for nu in (1, 6):
            assert fp_hecke_factorization(charpoly(j, 7), nu, 7).factors == (((1, 0, 1), 2),)

    def test_non_similitude_matrix(self):
        m = diag(1, 1, 1, 2)
        assert multiplier(m, 7) is None
        # (x - 1)^3 (x - 2) = x^4 + 2x^3 + 2x^2 + 2: f1 = 0 != nu f3 for
        # every nu in F_7^*, so no similitude fits
        assert charpoly(m, 7) == (2, 0, 2, 2, 1)
        for nu in range(1, 7):
            with pytest.raises(ValueError):
                fp_hecke_factorization(charpoly(m, 7), nu, 7)

    def test_random_elements_verify_entrywise(self):
        rng = random.Random(21)
        j = standard_form(7)
        for _ in range(40):
            m, nu = random_similitude(rng, 7)
            assert _mul_rows(_mul_rows(transpose(m), j, 7), m, 7) == scale(j, nu, 7)
            assert multiplier(m, 7) == nu
            f0, f1, _, f3, _ = charpoly(m, 7)
            assert (f0, f1) == (nu * nu % 7, nu * f3 % 7), m

    def test_multiplicative(self):
        rng = random.Random(22)
        for _ in range(25):
            (m, mu), (n, nu) = random_similitude(rng, 7), random_similitude(rng, 7)
            assert multiplier(_mul_rows(m, n, 7), 7) == mu * nu % 7

    @pytest.mark.parametrize("p", [7, 19, 31])
    def test_hecke_route_matches_general_route_on_similitudes(self, p):
        rng = random.Random(f"gsp:{p}")
        for _ in range(40):
            m, nu = random_similitude(rng, p)
            f = charpoly(m, p)
            assert fp_hecke_factorization(f, nu, p) == fp_factorization(f, p), f


def ratio_order(f: tuple[int, ...]) -> int:
    """lcm of the orders of r / r0 over the roots r of f in F_{7^4}: the
    least n with r^n the same for every root.  For a squarefree f with its
    four roots there, the companion matrix is diagonal over F_{7^4} with
    these eigenvalues, so this is its projective order."""
    roots = roots_in(f, 7, 4)
    assert len(roots) == 4, f
    return lcm(*(mult_order(r / roots[0]) for r in roots[1:]))


class TestEigenProjectiveOrder:
    """The stepping oracle, and fp_projective_order on Hecke quartics, against
    the eigenvalues of the companion matrix."""

    def test_pol2_frozen(self):
        assert ratio_order(POL2) == 25 == stepped_fp_projective_order(POL2, 7)
        assert fp_projective_order(fp_hecke_factorization(POL2, 4, 7)) == 25

    def test_split_quartic(self):
        f = charpoly(diag(1, 2, 3, 4), 7)  # (x - 1)(x - 2)(x - 3)(x - 4)
        assert ratio_order(f) == 6
        assert stepped_fp_projective_order(f, 7) == 6
        assert projective_order(companion(f, 7), 7) == 6

    def test_split_quartic_matches_ratio_orders(self):
        # least n with 1^n = 2^n = 3^n = 4^n is the lcm of the ratio orders
        assert lcm(*(mult_order(F7.element(r)) for r in (2, 3, 4))) == 6

    def test_repeated_root_breaks_the_eigenvalue_count(self):
        # (x + 3)^2 (x + 1)^2: the ratio 4/6 = 3 has order 6, but each
        # 2x2 Jordan block needs 7 | n as well, so x^n is constant mod f
        # only at multiples of 42
        f = (2, 3, 1, 1, 1)
        assert fp_factorization(f, 7).factors == (((1, 1), 2), ((3, 1), 2))
        assert ratio_order(f) == 6
        assert stepped_fp_projective_order(f, 7) == 42 == projective_order(companion(f, 7), 7)
