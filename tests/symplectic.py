"""4x4 matrices over F_p: the reference route for the projective orders.

The certificate does not use this module: its projective orders, the least
n with x^n constant mod the charpoly, are read off the charpoly's
factorization by gspcert.polynomial.fp_projective_order, and
oracles.stepped_fp_projective_order, its reference, finds them by stepping
through the powers of x.  Here the same orders are taken literally, as
orders of the companion matrix in PGL(4, p): the one independent check of
the stepping oracle, and the order of a GSp(4, p) element itself for the
certificate's route.

A matrix is a tuple of four rows of four ints in [0, p).  Every element
order in GL(4, p), p >= 5, divides order_cap(p) = p * lcm(p-1, p^2-1,
p^3-1, p^4-1), which is 957600 for p = 7: projective_order descends from
it by matrix powering, one prime at a time.
"""
from __future__ import annotations

from math import lcm, prod

from oracles import factorize

Rows = tuple[tuple[int, int, int, int], ...]

IDENTITY: Rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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


def companion(f: tuple[int, ...], p: int) -> Rows:
    """Companion matrix of a monic quartic f over F_p, given as the
    kernel's low-first int tuple: ones below the diagonal and -f0, ..., -f3
    down the last column."""
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"expected a monic quartic, got {f}")
    return tuple(tuple(int(j == i - 1) for j in range(3)) + (-f[i] % p,) for i in range(4))


def charpoly(m: Rows, p: int) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - m), low degree first, by
    Faddeev-LeVerrier.

    The recursion divides by 1..4, so the field characteristic must
    exceed 4 (true for every p this artifact touches).
    """
    if p <= 4:
        raise ValueError("Faddeev-LeVerrier needs characteristic > 4")
    coeffs = [0, 0, 0, 0, 1]
    mk = m
    for k in range(1, 5):
        if k > 1:  # m (M_{k-1} + c_{5-k} I)
            shifted = tuple(
                tuple((e + coeffs[5 - k]) % p if i == j else e for j, e in enumerate(row))
                for i, row in enumerate(mk)
            )
            mk = _mul_rows(m, shifted, p)
        coeffs[4 - k] = -sum(mk[i][i] for i in range(4)) * pow(k, -1, p) % p
    return tuple(coeffs)


def order_cap(p: int) -> int:
    """Upper bound on element orders in GL(4, p)."""
    return p * lcm(p - 1, p**2 - 1, p**3 - 1, p**4 - 1)


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
    result = IDENTITY
    while e:
        if e & 1:
            result = _mul_rows(result, rows, p)
        e >>= 1
        if e:
            rows = _mul_rows(rows, rows, p)
    return result


def projective_order(m: Rows, p: int) -> int:
    """Least n >= 1 with m^n scalar: the order of m in PGL(4, p).

    The n with m^n scalar form a subgroup of Z that holds order_cap(p), so
    the order is found by descent from it (_scalar_order).
    """
    if charpoly(m, p)[0] == 0:
        raise ValueError("singular matrix has no projective order")
    return _scalar_order(m, list(factorize(order_cap(p)).items()), p)


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
