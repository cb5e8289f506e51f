"""Hand-rolled reference implementations used as independent oracles.

The first two helpers are the F_p kernel's product and powmod as they
were before the products were reduced on the fly.  Next comes the general
F_p factorizer (fp_factor, fp_factorization) that factored the Hecke
charpolys before they were factored through y = x + nu/x: one
distinct-degree pass on the kernel, with every-c scans for the roots and
the equal-degree parts.  The integer-list
helpers work on plain coefficient lists, low degree first, with no
dependency on the package under test.  The extension-field
sections below run on FieldSpec (field_elements.py) and Polynomial
(field_polynomial.py) arithmetic:
the factoring route over F_{p^d} that factor took before it moved onto its
F_p kernel, and the route the certificate used to take over F_{p^4}, which
finds the roots of a quartic by scanning the splitting field and pairs them
up directly.  The last sections hold the projective order of a matrix by
stepping through its powers, the projective orders of irreducible quartics
from a primitive element and by descent, and the JSON report as
json.dumps writes it.
"""
from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import gcd, lcm

from field_elements import FFElement, FieldSpec, factorize, make_field
from field_polynomial import Polynomial, is_squarefree
from gspcert.certifier import Certificate
from gspcert.cli import REPORT_FORMAT
from gspcert.polynomial import (
    Factorization,
    FpPoly,
    _roots,
    fp_add,
    fp_gcd,
    fp_mod,
    fp_monic,
    fp_powmod,
    fp_str,
    fp_trim,
)
from symplectic import Matrix4, _mul_rows, _scalar_of_rows, order_cap


def fp_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b over F_p on the kernel's low-first int tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return fp_trim([c % p for c in out])


def reference_powmod(a: tuple[int, ...], e: int, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^e mod m, square-and-multiply with a full product and a separate
    reduction per step: fp_powmod before its products and reductions were
    fused."""
    result = fp_mod((1,), m, p)
    acc = fp_mod(a, m, p)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, acc, p), m, p)
        e >>= 1
        if e:
            acc = fp_mod(fp_mul(acc, acc, p), m, p)
    return result


# ---------------------------------------------------------------------------
# the general factorizer over F_p, on the kernel's int tuples: one
# distinct-degree pass, roots by scanning F_p, equal-degree parts split by
# trace values against every c in F_p


def fp_divmod(a: FpPoly, b: FpPoly, p: int) -> tuple[FpPoly, FpPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem[shift + db] * inv % p
        if c:
            for j in range(db):
                rem[shift + j] = (rem[shift + j] - c * b[j]) % p
    return fp_trim(quot), fp_trim(rem[:db])


def fp_factor(f: FpPoly, p: int) -> list[tuple[FpPoly, int]]:
    """Monic irreducible factors of monic f with multiplicity, sorted by
    degree and then by coefficients, high degree first."""
    # One distinct-degree pass.  Entering step k, f has no factor of degree
    # < k and r = x^(p^(k-1)) modulo f or a multiple of f, so gcd(f,
    # x^(p^k) - x) is the product of the distinct degree-k factors; r stays
    # valid for the cofactor left after dividing them out (fp_powmod reduces
    # it modulo the cofactor).  Once 2k > deg f, f is 1 or irreducible.
    pairs = []
    r, k = (0, 1), 1
    while 2 * k <= len(f) - 1:
        r = fp_powmod(r, p, f, p)
        s = fp_gcd(fp_add(r, (0, p - 1), p), f, p)
        if len(s) > 1 and k == 1:
            for c in _roots(s, p):
                f, mult = _divide_out_root(f, c, p)
                pairs.append(((-c % p, 1), mult))
        elif len(s) > 1:
            for g in fp_split_equal_degree(s, k, p):
                mult = 0
                while True:
                    q, rem = fp_divmod(f, g, p)
                    if rem:
                        break
                    f, mult = q, mult + 1
                pairs.append((g, mult))
        k += 1
    if len(f) > 1:
        pairs.append((f, 1))
    pairs.sort(key=lambda pair: (len(pair[0]), pair[0][::-1]))
    return pairs


def _divide_out_root(f: FpPoly, c: int, p: int) -> tuple[FpPoly, int]:
    """(f / (x - c)^m, m) for the multiplicity m of the root c of f != 0."""
    for mult in range(len(f)):  # m <= deg f
        # synthetic division: Horner's partial sums, high first, are the
        # quotient's coefficients, and the last one is the remainder f(c)
        v, sums = 0, []
        for a in reversed(f):
            v = (v * c + a) % p
            sums.append(v)
        if v:
            return f, mult
        f = tuple(sums[-2::-1])
    raise RuntimeError(f"x - {c} divides {f} more than its degree allows")


def fp_split_equal_degree(s: FpPoly, k: int, p: int) -> list[FpPoly]:
    """The monic irreducible factors of s, a product of distinct monic
    irreducibles g_i of degree k; RuntimeError if s is not one."""
    # For u in F_p[x], t = u + u^p + ... + u^(p^(k-1)) mod s is the constant
    # Tr(u(root of g_i)) mod each g_i, so gcd(h, t - c) over every c in F_p
    # partitions a part h.  Some u = x^j, 0 < j < deg s, separates any two
    # g_i: else every u of degree < deg s would have equal traces, yet by CRT
    # one such u is 0 mod one g_i and of nonzero trace mod the other.  The
    # gcds for distinct c are coprime, so the scan over c stops once they
    # cover h.
    parts = [s]
    for j in range(1, len(s) - 1):
        if all(len(h) == k + 1 for h in parts):
            break
        t = w = (0,) * j + (1,)
        for _ in range(k - 1):
            w = fp_powmod(w, p, s, p)
            t = fp_add(t, w, p)
        split = []
        for h in parts:
            if len(h) == k + 1:
                split.append(h)
                continue
            gs = []
            for c in range(p):
                g = fp_gcd(h, fp_add(t, (-c % p,), p), p)
                if len(g) > 1:
                    gs.append(g)
                    if sum(len(g) - 1 for g in gs) == len(h) - 1:
                        break
            else:
                raise RuntimeError(f"{h} is not squarefree: the trace split lost a factor")
            split += gs
        parts = split
    if any(len(h) != k + 1 for h in parts):
        raise RuntimeError(f"x^j, 0 < j < {len(s) - 1}, left {parts} unsplit")
    return parts


def fp_factorization(f: FpPoly, p: int) -> Factorization:
    """Complete factorization of f != 0 over F_p, with multiplicities."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return Factorization(p, f[-1], tuple(fp_factor(fp_monic(f, p), p)))


# ---------------------------------------------------------------------------
# plain coefficient lists, low degree first, without the package's kernel


def ptrim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def pmod(a: list[int], m: list[int], p: int) -> list[int]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(ptrim(a)) - 1 >= dm:
        a = ptrim(a)
        c = a[-1]
        shift = len(a) - 1 - dm
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
    return ptrim(a)


def divides(m: list[int], a: list[int], p: int) -> bool:
    return not pmod(a, m, p)


def monic_polys(p: int, d: int):
    """All monic degree-d polynomials over F_p, in the order that compares
    high-degree coefficients first."""
    for high in itertools.product(range(p), repeat=d):
        yield list(reversed(high)) + [1]


def pdiv(a: list[int], m: list[int], p: int) -> list[int]:
    """Quotient of a by monic m."""
    a = ptrim(a)
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for shift in range(len(a) - 1 - dm, -1, -1):
        c = q[shift] = a[shift + dm]
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
    return ptrim(q)


def naive_factor(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factors of monic f with multiplicity, ascending by
    degree and then in monic_polys order.  Trial division by every monic
    polynomial of degree 1, 2, ... in turn: a divisor found this way has
    no smaller factor left, so it is irreducible.  The reference for
    factor's trace split."""
    f = ptrim(f)
    out = []
    d = 1
    while len(f) - 1 >= 2 * d:
        for g in monic_polys(p, d):
            mult = 0
            while divides(g, f, p):
                f = pdiv(f, g, p)
                mult += 1
            if mult:
                out.append((g, mult))
        d += 1
    if len(f) > 1:
        out.append((f, 1))
    return out


def expand(fac) -> list[int]:
    """unit * product(factor^multiplicity) of a Factorization."""
    out = [fac.unit]
    for g, mult in fac.factors:
        for _ in range(mult):
            out = pmul(out, list(g), fac.p)
    return out


def poly_str(coeffs: list[int]) -> str:
    """A prime-field polynomial as text, high degree first, term by term:
    the unit coefficient is left off every power of x."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            parts.append(xpow if c == 1 else f"{c}{xpow}")
    return " + ".join(parts) if parts else "0"


def naive_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for g in monic_polys(p, k):
            if divides(g, f, p):
                return False
    return True


def smallest_irreducible(p: int, d: int) -> list[int]:
    for f in monic_polys(p, d):
        if naive_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible of degree {d} over F_{p}")


def validate_similitude_shape(f: tuple[int, ...], q: int, k: int, p: int) -> bool:
    """Check the two symmetry identities a similitude-shaped monic quartic
    over F_p obeys: c1 = c3 * nu and c0 = nu^2 for nu = q^(2k-3)."""
    if len(f) != 5 or f[4] != 1:
        raise ValueError("expected a monic quartic")
    nu = pow(q, 2 * k - 3, p)
    c0, c1, _, c3 = f[:4]
    return c1 == c3 * nu % p and c0 == nu * nu % p


def naive_mult_order(x, one, bound: int = 10000) -> int:
    n, y = 1, x
    while y != one:
        y = y * x
        n += 1
        if n > bound:
            raise AssertionError("order search exceeded bound")
    return n


# ---------------------------------------------------------------------------
# factoring over F_{p^d} on FFElement coefficients, any d


def ext_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base^e reduced mod `mod`, square-and-multiply on the exponent bits."""
    result = Polynomial.constant(base.field, 1) % mod
    acc = base % mod
    while e:
        if e & 1:
            result = (result * acc) % mod
        acc = (acc * acc) % mod
        e >>= 1
    return result


def ext_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) is the monic copy of f."""
    while not g.is_zero():
        f, g = g, f % g
    return f if f.is_zero() else f.monic()


def ext_is_irreducible(f: Polynomial) -> bool:
    """The derandomized Rabin criterion."""
    fm = f.monic()
    q, n = f.field.order, f.degree
    x = Polynomial.x(f.field)
    if ext_powmod(x, q**n, fm) != x % fm:
        return False
    return all(
        ext_gcd(ext_powmod(x, q ** (n // ell), fm) - x, fm).degree <= 0 for ell in factorize(n)
    )


def ext_factor(f: Polynomial) -> tuple[tuple[Polynomial, int], ...]:
    """Monic irreducible factors with multiplicity, in factor's order."""
    g = f.monic()
    pairs: list[tuple[Polynomial, int]] = []
    while g.degree > 0:
        for h in lowest_degree_factors(g):
            mult = 0
            while True:
                q, rem = divmod(g, h)
                if not rem.is_zero():
                    break
                g = q
                mult += 1
            pairs.append((h, mult))
    idx = f.field.index
    pairs.sort(key=lambda pair: (pair[0].degree, tuple(idx(c) for c in reversed(pair[0].coeffs))))
    return tuple(pairs)


def lowest_degree_factors(g: Polynomial) -> list[Polynomial]:
    """Every irreducible factor of g of the lowest degree, by the
    distinct-degree sieve gcd(g, x^(q^k) - x), k = 1, 2, ..."""
    F = g.field
    x = Polynomial.x(F)
    r = x % g
    k = 0
    while k < g.degree // 2:
        k += 1
        r = ext_powmod(r, F.order, g)
        s = ext_gcd(r - x, g)
        if s.degree > 0:
            return equal_degree_split(s, k)
    return [g]


def equal_degree_split(s: Polynomial, k: int) -> list[Polynomial]:
    """The factors of s, a product of distinct monic irreducibles of degree
    k: gcd(h, Tr(x^j) - c) for every c in F_q, j = 1, 2, ..."""
    F = s.field
    parts = [s]
    u = Polynomial.constant(F, 1)
    while any(h.degree > k for h in parts):
        u = u * Polynomial.x(F) % s
        t = w = u
        for _ in range(k - 1):
            w = ext_powmod(w, F.order, s)
            t = t + w
        split = [[h] if h.degree == k else
                 [ext_gcd(h, t - Polynomial.constant(F, c)) for c in F.elements()] for h in parts]
        parts = [g for gs in split for g in gs if g.degree > 0]
    return parts


# ---------------------------------------------------------------------------
# the F_{p^2} / F_{p^4} reference route


def frobenius(x: FFElement) -> FFElement:
    """The field automorphism x -> x^p."""
    return x**x.field.p


def in_subfield(x: FFElement, e: int) -> bool:
    """Whether x lies in the subfield F_{p^e}; requires e | d."""
    if e < 1 or x.field.d % e != 0:
        raise ValueError(f"F_{x.field.p}^{e} is not a subfield of {x.field!r}")
    return x ** (x.field.p**e) == x


def mult_order(x: FFElement) -> int:
    """Multiplicative order of nonzero x, by descent through the factored
    group order."""
    if x.is_zero():
        raise ValueError("zero has no multiplicative order")
    one = x.field.one()
    order = x.field.order - 1
    for ell in factorize(order):
        while order % ell == 0 and x ** (order // ell) == one:
            order //= ell
    return order


@lru_cache(maxsize=None)
def exp_log_tables(field: FieldSpec) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """exp[j] = coefficients of g^j for the smallest multiplicative generator
    g in canonical element order, and the inverse map."""
    g = next(
        x for x in map(field.element_from_index, range(1, field.order))
        if mult_order(x) == field.order - 1
    )
    exp = [field.one().coeffs]
    for _ in range(field.order - 2):
        exp.append(field._mul_coeffs(exp[-1], g.coeffs))
    return exp, {c: j for j, c in enumerate(exp)}


def conjugate_poly(f: Polynomial) -> Polynomial:
    """Apply the Frobenius x -> x^p to every coefficient."""
    return Polynomial(f.field, (frobenius(c) for c in f.coeffs))


def lift(f: Polynomial, target: FieldSpec) -> Polynomial:
    """Re-read a prime-field polynomial over an extension of the same p."""
    if f.field.d != 1:
        raise ValueError("lift starts from a prime-field polynomial")
    return Polynomial(target, (target.element(c.coeffs[0]) for c in f.coeffs))


def roots_in(f: Polynomial, e: int) -> list[FFElement]:
    """Roots of f lying in F_{p^e}, with multiplicity, by evaluating f at
    every element of the target field.  f must be over F_p or over F_{p^e}
    itself; roots come back sorted in canonical element order."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every root")
    target = make_field(f.field.p, e)
    if f.field.d == e:
        g = f
    elif f.field.d == 1:
        g = lift(f, target)
    else:
        raise ValueError(f"no canonical embedding of {f.field!r} into {target!r}")
    if g.degree < 1:
        return []
    out: list[FFElement] = []
    for r in scan_distinct_roots(g):
        linear = Polynomial(target, (-r, target.one()))
        h = g
        while True:
            q, rem = divmod(h, linear)
            if not rem.is_zero():
                break
            h = q
            out.append(r)
    return sorted(out, key=target.index)


def scan_distinct_roots(g: Polynomial) -> list[FFElement]:
    """Evaluate g at 0 and at every power of the table generator; each term
    value is a table lookup."""
    F = g.field
    p, m = F.p, F.order - 1
    exp, log = exp_log_tables(F)
    roots = [F.zero()] if g.coeffs[0].is_zero() else []
    terms = [(i, log[c.coeffs]) for i, c in enumerate(g.coeffs) if not c.is_zero()]
    for j in range(m):
        if F.d == 4:  # unrolled: F_{p^4} sweeps dominate the oracle's cost
            s0 = s1 = s2 = s3 = 0
            for i, lc in terms:
                c0, c1, c2, c3 = exp[(lc + i * j) % m]
                s0 += c0
                s1 += c1
                s2 += c2
                s3 += c3
            hit = not (s0 % p or s1 % p or s2 % p or s3 % p)
        else:
            hit = not any(sum(col) % p for col in zip(*(exp[(lc + i * j) % m] for i, lc in terms)))
        if hit:
            roots.append(FFElement(F, exp[j]))
    return sorted(roots, key=F.index)


def admissible_pairings(f: Polynomial) -> int | None:
    """Number of ways to split the roots of a squarefree quartic into a
    conjugate pair of F_{p^2}-rational quadratics with rational constant
    term; None when the quartic does not split over F_{p^4}."""
    field4 = make_field(f.field.p, 4)
    roots = roots_in(f, 4)
    if len(roots) != 4:
        return None
    one = field4.one()
    count = 0
    for first, second in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        ra, rb = roots[first[0]], roots[first[1]]
        rc, rd = roots[second[0]], roots[second[1]]
        g = Polynomial(field4, (ra * rb, -(ra + rb), one))
        if not all(in_subfield(c, 2) for c in g.coeffs):
            continue
        if not in_subfield(g.coeffs[0], 1):
            continue
        partner = Polynomial(field4, (rc * rd, -(rc + rd), one))
        if partner == conjugate_poly(g):
            count += 1
    return count


def eigen_projective_order(f: Polynomial) -> int:
    """Projective order of the companion matrix of a squarefree quartic,
    from its eigenvalues: the least n with r1^n = r2^n = r3^n = r4^n over
    F_{p^4}.  Needs all four roots in F_{p^4} and a nonzero constant term."""
    if f.degree != 4:
        raise ValueError(f"expected a quartic, got degree {f.degree}")
    if not is_squarefree(f):
        raise ValueError("eigenvalue route needs a squarefree quartic")
    if f.coeffs[0].is_zero():
        raise ValueError("zero eigenvalue: companion matrix is singular")
    roots = roots_in(f, 4)
    if len(roots) != 4:
        raise ValueError("quartic does not split over F_{p^4}")
    base = roots[0]
    n = 1
    for r in roots[1:]:
        ratio = r / base
        if ratio != base.field.one():
            n = lcm(n, mult_order(ratio))
    return n


# ---------------------------------------------------------------------------
# projective order by stepping: symplectic.projective_order before it took
# the order by descent


def stepped_projective_order(m: Matrix4) -> int:
    """Least n >= 1 with m^n scalar, multiplying by m until it is."""
    p = m.field.p
    power, n = m.rows, 1
    while _scalar_of_rows(power) is None:
        if n == order_cap(p):
            raise RuntimeError("projective order exceeded the GL(4, p) bound")
        power, n = _mul_rows(power, m.rows, p), n + 1
    return n


# ---------------------------------------------------------------------------
# projective orders of irreducible quartics, without stepping: the F_p order
# route of _conjugate_pairings is checked against x^((p^2+1)(p-1)) = 1 on them


def irreducible_quartic_orders(p: int) -> dict[tuple[int, ...], int]:
    """Every monic irreducible quartic over F_p, mapped to the projective
    order of its companion matrix, from a primitive element g of
    F_{p^4} = F_p[x]/(f0): the quartics are the minimal polynomials
    prod_k (X - g^(j p^k)) of the g^j of degree 4, and F_{p^4}^*/F_p^* is
    cyclic of order N = (p^4 - 1)/(p - 1), generated by g, so the order of
    g^j there is N / gcd(j, N)."""
    m = p**4 - 1
    # x has order m mod f0, so F_p[x]/(f0) has m units: it is a field; and
    # f0(0) is the norm of x, a primitive root mod p
    c0, c1, c2, c3, _ = next(
        f + (1,) for f in itertools.product(range(1, p), range(p), range(p), range(p))
        if all(pow(f[0], (p - 1) // ell, p) != 1 for ell in factorize(p - 1))
        and reference_powmod((0, 1), m, f + (1,), p) == (1,)
        and all(reference_powmod((0, 1), m // ell, f + (1,), p) != (1,) for ell in factorize(m))
    )
    exp = [(1, 0, 0, 0)]  # exp[j] = x^j mod f0, low first
    for _ in range(m - 1):
        a0, a1, a2, a3 = exp[-1]
        exp.append((-a3 * c0 % p, (a0 - a3 * c1) % p, (a1 - a3 * c2) % p, (a2 - a3 * c3) % p))

    def coefficient(exponents) -> int:
        # the sum of the g^e, which lies in F_p
        total = [sum(col) % p for col in zip(*(exp[e % m] for e in exponents))]
        assert not any(total[1:]), total
        return total[0]

    n = m // (p - 1)
    orders = {}
    for j in range(1, m):
        js = [j * p**k % m for k in range(4)]
        if min(js) != j or js[2] == j:  # one j per orbit, none in F_{p^2}
            continue
        e = [coefficient(map(sum, itertools.combinations(js, i))) for i in range(1, 5)]
        orders[(e[3], -e[2] % p, e[1], -e[0] % p, 1)] = n // gcd(j, n)
    return orders


def irreducible_projective_order(f: tuple[int, ...], p: int) -> int:
    """Projective order of the companion matrix of an irreducible quartic
    f, by descent from N = (p + 1)(p^2 + 1): x^N is the norm of x, in F_p."""
    n = (p + 1) * (p * p + 1)
    for ell in factorize(n):
        while n % ell == 0 and len(fp_powmod((0, 1), n // ell, f, p)) <= 1:
            n //= ell
    return n


# ---------------------------------------------------------------------------
# the certify-report/1 JSON as a tree for json.dumps: cli.render_json
# before it wrote the bytes itself


def certificate_dict(cert: Certificate) -> dict:
    """The structured (JSON-ready) form of one certificate."""
    return {
        "weight": cert.weight,
        "level": cert.level,
        "dataset_sha256": cert.dataset_digest,
        "defining_poly": list(cert.defining_poly),
        "p": cert.p,
        "root": cert.root,
        "residual_eigenvalues": [[i, a] for i, a in cert.residual_eigenvalues],
        "frobenius_records": [
            {
                "q": rec.q,
                "charpoly": list(rec.charpoly),
                "charpoly_pretty": fp_str(rec.charpoly),
                "factorization": str(rec.factorization),
                "squarefree": rec.squarefree,
                "projective_order": rec.projective_order,
                "similitude": rec.similitude,
            }
            for rec in cert.records
        ],
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "witnesses": list(c.witnesses),
                "justification": c.justification,
                "data": c.data,
            }
            for c in cert.checks
        ],
        "assumptions": list(cert.assumptions),
        "verdict": cert.verdict,
    }


def reference_render_json(certs: list[Certificate]) -> str:
    tree = {
        "format": REPORT_FORMAT,
        "certificates": [certificate_dict(c) for c in certs],
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"
