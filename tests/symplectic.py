"""4x4 matrices over F_p: the reference route for the order arguments.

The certificate does not use this module: its projective orders come from
gspcert.polynomial.fp_projective_order, the least n with x^n constant mod the
charpoly.  Here the same orders are taken literally, as orders of the
companion matrix, and the tests compare the two.

Matrices wrap prime-field residues directly (entries stay ints internally;
charpoly and similitude hand back field elements).  Every element order in
GL(4, p), p >= 5, divides order_cap(p) = p * lcm(p-1, p^2-1, p^3-1,
p^4-1), which is 957600 for p = 7: matrix_order iterates up to it, and
projective_order descends from it by matrix powering, one prime at a time.
"""
from __future__ import annotations

from math import lcm, prod

from field_elements import FFElement, FieldSpec
from field_polynomial import Polynomial
from gspcert.finite_field import factorize

Rows = tuple[tuple[int, int, int, int], ...]


def _mul_rows(a: Rows, b: Rows, p: int) -> Rows:
    # unrolled 4x4 product on reduced residues; the order searches iterate
    # this thousands of times, so no per-step object juggling
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    out = []
    for a0, a1, a2, a3 in a:
        out.append(
            (
                (a0 * b00 + a1 * b10 + a2 * b20 + a3 * b30) % p,
                (a0 * b01 + a1 * b11 + a2 * b21 + a3 * b31) % p,
                (a0 * b02 + a1 * b12 + a2 * b22 + a3 * b32) % p,
                (a0 * b03 + a1 * b13 + a2 * b23 + a3 * b33) % p,
            )
        )
    return tuple(out)


class Matrix4:
    """Immutable 4x4 matrix over a prime field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows):
        if field.d != 1:
            raise ValueError("matrices are over the prime field only")
        rows = tuple(tuple(int(e) % field.p for e in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        self.field = field
        self.rows: Rows = rows

    @classmethod
    def identity(cls, field: FieldSpec) -> Matrix4:
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))

    @classmethod
    def _raw(cls, field: FieldSpec, rows: Rows) -> Matrix4:
        # trusted constructor for already-reduced rows (hot loops)
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        return m

    def __mul__(self, other: Matrix4) -> Matrix4:
        if not isinstance(other, Matrix4):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("field mismatch in matrix product")
        return Matrix4._raw(self.field, _mul_rows(self.rows, other.rows, self.field.p))

    def transpose(self) -> Matrix4:
        return Matrix4(self.field, tuple(zip(*self.rows)))

    def scale(self, c: int) -> Matrix4:
        p = self.field.p
        return Matrix4(self.field, tuple(tuple(e * c % p for e in row) for row in self.rows))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(4)) % self.field.p

    def scalar_value(self) -> int | None:
        """c with self == c*I, if the matrix is scalar; else None."""
        return _scalar_of_rows(self.rows)

    def is_identity(self) -> bool:
        return self.scalar_value() == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix4):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix4({self.field!r}, [{body}])"


def standard_form(field: FieldSpec) -> Matrix4:
    """The alternating form [[0, I2], [-I2, 0]] fixed throughout."""
    p = field.p
    return Matrix4(
        field,
        (
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (p - 1, 0, 0, 0),
            (0, p - 1, 0, 0),
        ),
    )


def similitude(m: Matrix4) -> FFElement | None:
    """The scalar nu with m^T J m = nu J, or None if no scalar works.

    nu is necessarily nonzero when m is invertible; singular m can only
    return 0 (with m^T J m = 0).
    """
    j = standard_form(m.field)
    t = m.transpose() * j * m
    nu = t.rows[0][2]  # J has a 1 there
    p = m.field.p
    for i in range(4):
        for k in range(4):
            if t.rows[i][k] != j.rows[i][k] * nu % p:
                return None
    return m.field.element(nu)


def companion(f: Polynomial) -> Matrix4:
    """Companion matrix of a monic quartic over F_p."""
    if f.field.d != 1:
        raise ValueError("companion matrices are taken over the prime field")
    if f.degree != 4 or not f.is_monic():
        raise ValueError(f"expected a monic quartic, got degree {f.degree}")
    p = f.field.p
    c = [coef.coeffs[0] for coef in f.coeffs]  # c0..c3, x^4 coefficient implied
    rows = [[0] * 4 for _ in range(4)]
    for i in range(3):
        rows[i + 1][i] = 1
    for i in range(4):
        rows[i][3] = -c[i] % p
    return Matrix4(f.field, rows)


def charpoly(m: Matrix4) -> Polynomial:
    """Characteristic polynomial det(xI - m) by Faddeev-LeVerrier.

    The recursion divides by 1..4, so the field characteristic must
    exceed 4 (true for every p this artifact touches).
    """
    field = m.field
    p = field.p
    if p <= 4:
        raise ValueError("Faddeev-LeVerrier needs characteristic > 4")
    coeffs = {4: 1}
    mk = m
    a = -mk.trace() % p
    coeffs[3] = a
    for k in range(2, 5):
        mk = m * Matrix4(
            field,
            tuple(
                tuple((mk.rows[i][j] + (coeffs[5 - k] if i == j else 0)) % p for j in range(4))
                for i in range(4)
            ),
        )
        coeffs[4 - k] = -mk.trace() * pow(k, p - 2, p) % p
    return Polynomial.from_ints(field, [coeffs[i] for i in range(5)])


def det(m: Matrix4) -> int:
    """det m, read off the characteristic polynomial at 0."""
    cp = charpoly(m)
    return cp.coeffs[0].coeffs[0] if cp.coeffs else 0


def order_cap(p: int) -> int:
    """Upper bound on element orders in GL(4, p)."""
    return p * lcm(p - 1, p**2 - 1, p**3 - 1, p**4 - 1)


def matrix_order(m: Matrix4) -> int:
    """Least n >= 1 with m^n = I, by iterated multiplication."""
    cp = charpoly(m)
    if cp.coeffs[0].is_zero():
        raise ValueError("singular matrix has no multiplicative order")
    p = m.field.p
    ident = Matrix4.identity(m.field).rows
    cap = order_cap(p)
    power = m.rows
    for n in range(1, cap + 1):
        if power == ident:
            return n
        power = _mul_rows(power, m.rows, p)
    raise RuntimeError("order exceeded the GL(4, p) bound")  # unreachable


def _scalar_of_rows(rows: Rows) -> int | None:
    c = rows[0][0]
    if (
        rows[0][1] or rows[0][2] or rows[0][3]
        or rows[1][0] or rows[1][2] or rows[1][3]
        or rows[2][0] or rows[2][1] or rows[2][3]
        or rows[3][0] or rows[3][1] or rows[3][2]
    ):
        return None
    if rows[1][1] == c and rows[2][2] == c and rows[3][3] == c:
        return c
    return None


def _pow_rows(rows: Rows, e: int, p: int) -> Rows:
    """rows^e for e >= 0, by square-and-multiply."""
    result: Rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    while e:
        if e & 1:
            result = _mul_rows(result, rows, p)
        e >>= 1
        if e:
            rows = _mul_rows(rows, rows, p)
    return result


def projective_order(m: Matrix4) -> int:
    """Least n >= 1 with m^n scalar: the order of m in PGL(4, p).

    The n with m^n scalar form a subgroup of Z that holds order_cap(p), so
    the order is found by descent from it (_scalar_order).
    """
    cp = charpoly(m)
    if cp.coeffs[0].is_zero():
        raise ValueError("singular matrix has no projective order")
    p = m.field.p
    return _scalar_order(m.rows, list(factorize(order_cap(p)).items()), p)


def _scalar_order(b: Rows, parts: list[tuple[int, int]], p: int) -> int:
    """Least n >= 1 with b^n scalar, where b^N is scalar for N the product
    of the prime powers l^e listed as (l, e) in parts.

    The order is the product of its l-parts.  With parts split in halves
    of products L and R, b^R has the L-part of the order as its order and
    b^L the R-part; at a single l^e, the l-part is the least l^f, f <= e,
    with b^(l^f) scalar.
    """
    if len(parts) > 1:
        left, right = parts[: len(parts) // 2], parts[len(parts) // 2 :]
        l_part = prod(ell**e for ell, e in left)
        r_part = prod(ell**e for ell, e in right)
        return _scalar_order(_pow_rows(b, r_part, p), left, p) * _scalar_order(
            _pow_rows(b, l_part, p), right, p
        )
    ((ell, e),) = parts
    n = 1
    while _scalar_of_rows(b) is None:
        if n == ell**e:  # so b^N is not scalar
            raise RuntimeError("projective order exceeded the GL(4, p) bound")
        b, n = _pow_rows(b, ell, p), n * ell
    return n
