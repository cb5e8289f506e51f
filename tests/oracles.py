"""Hand-rolled reference implementations used as independent oracles.

First comes the general F_p factorizer (fp_factorization) that factored
the Hecke charpolys before they were factored through y = x + nu/x: one
distinct-degree pass on the kernel, with every-c scans for the roots and
the equal-degree parts.  The plain-list helpers (pmul, pmod, pdiv, trial
division) work on coefficient lists, low degree first, without the
package's kernel; reference_powmod is fp_powmod on them, a full pmul
product and a separate pmod reduction per step.  Every other F_p
polynomial here is the kernel's low-first int tuple.  The F_{p^4} section
starts with the integer factoring (factorize) and Rabin's test on the
kernel (fp_is_irreducible), which finds the canonical modulus m of F_{p^d};
an element of F_{p^d} = F_p[t]/(m) is then a low-first int tuple of length
d, multiplied with pmul and pmod.  On these it holds the Frobenius,
subfields, multiplicative orders, the roots of an F_p polynomial found by
scanning an extension field, and g * conj(g) for g over F_{p^2}.  The last
sections hold the projective order of a quartic by
stepping through the powers of x, the check of an order by its
definition (and of the order checks by powers of x), the JSON report as
json.dumps writes it, and the dataset digest hashed one field at a time.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from math import lcm

from gspcert.certifier import Certificate
from gspcert.eigen_data import EigenformDataset, FrobeniusRecord
from gspcert.polynomial import (
    Factorization,
    FpPoly,
    fp_add,
    fp_gcd,
    fp_mod,
    fp_powmod,
    fp_str,
    fp_trim,
)
from gspcert.report import REPORT_FORMAT


# ---------------------------------------------------------------------------
# the general factorizer over F_p, on the kernel's int tuples: one
# distinct-degree pass, roots by scanning F_p, equal-degree parts split by
# trace values against every c in F_p


def fp_factorization(f: FpPoly, p: int) -> Factorization:
    """Complete factorization of monic f over F_p: its monic irreducible
    factors with multiplicity, sorted by degree and then by coefficients,
    high degree first."""
    if not f or f[-1] != 1:
        raise ValueError(f"expected a monic polynomial, got {f}")
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
            # s is the product of the distinct x - c: divide each root c out
            # of s as Horner's rule finds it, c = 0, 1, ..., until s is 1
            for c in range(p):
                s, found = _divide_out_root(s, c, p)
                if found:
                    f, mult = _divide_out_root(f, c, p)
                    pairs.append(((-c % p, 1), mult))
                    if len(s) == 1:
                        break
        elif len(s) > 1:
            for g in fp_split_equal_degree(s, k, p):
                mult = 0
                while not fp_mod(f, g, p):
                    f, mult = tuple(pdiv(f, g, p)), mult + 1
                pairs.append((g, mult))
        k += 1
    if len(f) > 1:
        pairs.append((f, 1))
    pairs.sort(key=lambda pair: (len(pair[0]), pair[0][::-1]))
    return Factorization(p, tuple(pairs))


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
    """a mod m for any int coefficients and an m whose leading coefficient
    is a unit mod p, every coefficient reduced into [0, p)."""
    inv = pow(m[-1], -1, p)
    a = [c % p for c in a]
    dm = len(m) - 1
    while len(ptrim(a)) - 1 >= dm:
        a = ptrim(a)
        c = a[-1] * inv % p
        shift = len(a) - 1 - dm
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
    return ptrim(a)


def monic_polys(p: int, d: int):
    """All monic degree-d polynomials over F_p, in the order that compares
    high-degree coefficients first."""
    for high in itertools.product(range(p), repeat=d):
        yield list(reversed(high)) + [1]


def pdiv(a: list[int], m: list[int], p: int) -> list[int]:
    """Quotient of a by m, whose leading coefficient is a unit mod p."""
    inv = pow(m[-1], -1, p)
    a = ptrim(a)
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for shift in range(len(a) - 1 - dm, -1, -1):
        c = q[shift] = a[shift + dm] * inv % p
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
    return ptrim(q)


def reference_powmod(a: tuple[int, ...], e: int, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^e mod m, square-and-multiply with a full product and a separate
    reduction per step, on the plain lists (pmul and pmod): fp_powmod
    without its kernel."""
    result = pmod([1], m, p)
    acc = pmod(a, m, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, acc, p), m, p)
        e >>= 1
        if e:
            acc = pmod(pmul(acc, acc, p), m, p)
    return tuple(result)


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
            while not pmod(f, g, p):
                f = pdiv(f, g, p)
                mult += 1
            if mult:
                out.append((g, mult))
        d += 1
    if len(f) > 1:
        out.append((f, 1))
    return out


def expand(fac) -> list[int]:
    """product(factor^multiplicity) of a Factorization."""
    out = [1]
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
            if not pmod(f, g, p):
                return False
    return True


def validate_similitude_shape(f: tuple[int, ...], q: int, k: int, p: int) -> bool:
    """Check the two symmetry identities a similitude-shaped monic quartic
    over F_p obeys: c1 = c3 * nu and c0 = nu^2 for nu = q^(2k-3)."""
    if len(f) != 5 or f[4] != 1:
        raise ValueError("expected a monic quartic")
    nu = pow(q, 2 * k - 3, p)
    c0, c1, _, c3 = f[:4]
    return c1 == c3 * nu % p and c0 == nu * nu % p


# ---------------------------------------------------------------------------
# the F_{p^2} / F_{p^4} reference route.  An element of F_{p^d} = F_p[t]/(m)
# is its int tuple of d coefficients, low first, for the canonical modulus m
# (_smallest_irreducible; F_p itself is F_p[t]/(t)); products are pmul then
# pmod, and the canonical order of the elements is that of their base-p
# indices, the coefficients read as digits


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays small here)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def fp_is_irreducible(f: FpPoly, p: int) -> bool:
    """Rabin's test for monic f of degree n >= 1: x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n."""
    n = len(f) - 1
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    x = fp_mod((0, 1), f, p)
    if fp_powmod(x, p**n, f, p) != x:
        return False
    return all(  # n >= 2 here, so x = (0, 1) and -x = (0, p - 1)
        len(fp_gcd(fp_add(fp_powmod(x, p ** (n // ell), f, p), (0, p - 1), p), f, p)) == 1
        for ell in factorize(n)
    )


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, d: int) -> FpPoly:
    """The canonical modulus of F_{p^d}: the lexicographically smallest
    monic irreducible of degree d over F_p, high-degree coefficients
    compared first (t, t^2 + 1 and t^4 + t + 1 at p = 7)."""
    return next(f for f in map(tuple, monic_polys(p, d)) if fp_is_irreducible(f, p))


def element(i: int, p: int, d: int) -> tuple[int, ...]:
    """The element of F_{p^d} with base-p index i in [0, p^d)."""
    return tuple(i // p**j % p for j in range(d))


def ext_add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((x + y) % p for x, y in zip(a, b))


def ext_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b in F_{p^d}, d = len(a) = len(b)."""
    c = pmod(pmul(list(a), list(b), p), list(_smallest_irreducible(p, len(a))), p)
    return tuple(c) + (0,) * (len(a) - len(c))


def ext_pow(x: tuple[int, ...], e: int, p: int) -> tuple[int, ...]:
    """x^e in F_{p^d} for e >= 0, d = len(x)."""
    c = reference_powmod(x, e, _smallest_irreducible(p, len(x)), p)
    return c + (0,) * (len(x) - len(c))


def frobenius(x: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The field automorphism x -> x^p."""
    return ext_pow(x, p, p)


def in_subfield(x: tuple[int, ...], e: int, p: int) -> bool:
    """Whether x in F_{p^d} lies in the subfield F_{p^e}; requires e | d."""
    if e < 1 or len(x) % e != 0:
        raise ValueError(f"F_{p}^{e} is not a subfield of F_{p}^{len(x)}")
    return ext_pow(x, p**e, p) == x


def mult_order(x: tuple[int, ...], p: int) -> int:
    """Multiplicative order of nonzero x, by descent through the factored
    group order."""
    if not any(x):
        raise ValueError("zero has no multiplicative order")
    one = element(1, p, len(x))
    order = p ** len(x) - 1
    for ell in factorize(order):
        while order % ell == 0 and ext_pow(x, order // ell, p) == one:
            order //= ell
    return order


def naive_mult_order(x: tuple[int, ...], p: int, bound: int = 10000) -> int:
    """Multiplicative order of nonzero x by multiplying by x until 1."""
    one, n, y = element(1, p, len(x)), 1, x
    while y != one:
        y = ext_mul(y, x, p)
        n += 1
        if n > bound:
            raise AssertionError("order search exceeded bound")
    return n


@lru_cache(maxsize=None)
def exp_log_tables(p: int, d: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """exp[j] = g^j for the smallest multiplicative generator g of F_{p^d}
    in canonical order, and the inverse map."""
    g = next(
        x for x in (element(i, p, d) for i in range(1, p**d))
        if mult_order(x, p) == p**d - 1
    )
    exp = [element(1, p, d)]
    for _ in range(p**d - 2):
        exp.append(ext_mul(exp[-1], g, p))
    return exp, {c: j for j, c in enumerate(exp)}


def conjugate_product(g: list[tuple[int, int]], p: int) -> FpPoly:
    """g * conj(g) for g over F_{p^2}, coefficients low first, where conj
    applies the Frobenius to each coefficient: a polynomial over F_p, as
    the kernel's int tuple.  AssertionError if a coefficient is not in F_p."""
    out = [(0, 0)] * (2 * len(g) - 1)
    for j, b in enumerate(frobenius(c, p) for c in g):
        for i, a in enumerate(g, j):
            out[i] = ext_add(out[i], ext_mul(a, b, p), p)
    assert not any(c[1] for c in out), out
    return fp_trim([c[0] for c in out])


def roots_in(f: FpPoly, p: int, e: int) -> list[tuple[int, ...]]:
    """Roots in F_{p^e} of f over F_p, with multiplicity, by evaluating f
    at every element of F_{p^e} and dividing out x - r while it divides;
    roots come back sorted in canonical element order."""
    if not f:
        raise ValueError("the zero polynomial has every root")
    out = []
    for r in scan_distinct_roots(f, p, e):
        h = [element(c % p, p, e) for c in f]
        while True:
            # synthetic division by x - r: Horner's partial sums, high
            # first, are the quotient's coefficients and the last is h(r)
            v, sums = element(0, p, e), []
            for c in reversed(h):
                v = ext_add(ext_mul(v, r, p), c, p)
                sums.append(v)
            if any(v):
                break
            h = sums[-2::-1]
            out.append(r)
    return out


def scan_distinct_roots(g: FpPoly, p: int, e: int) -> list[tuple[int, ...]]:
    """The distinct roots in F_{p^e} of g != 0 over F_p: evaluate g at 0
    and at every power of the table generator, each term value a table
    lookup; sorted in canonical element order."""
    m = p**e - 1
    exp, log = exp_log_tables(p, e)
    roots = [element(0, p, e)] if g[0] % p == 0 else []
    terms = [(i, log[element(c % p, p, e)]) for i, c in enumerate(g) if c % p]
    for j in range(m):
        if not any(sum(col) % p for col in zip(*(exp[(lc + i * j) % m] for i, lc in terms))):
            roots.append(exp[j])
    return sorted(roots, key=lambda x: x[::-1])


# ---------------------------------------------------------------------------
# projective order of a quartic by stepping through the powers of x:
# polynomial.fp_projective_order before it read the order off the
# factorization


def stepped_fp_projective_order(f: tuple[int, ...], p: int) -> int:
    """Least n >= 1 with x^n constant mod a monic quartic f with f(0) != 0,
    squarefree or not: the order of its companion matrix C in PGL(4, p).

    C is multiplication by x on F_p[x]/(f) in the basis 1, x, x^2, x^3, so
    C^n = cI exactly when x^n = c mod f (apply C^n to 1 for one direction,
    multiply by any g for the other).  x is a unit since f(0) != 0, so the
    loop ends.
    """
    if len(f) != 5 or f[4] != 1:
        raise ValueError(f"expected a monic quartic, got {f}")
    c0, c1, c2, c3 = f[0], f[1], f[2], f[3]
    if not c0:
        raise ValueError("f(0) = 0: x is not a unit mod f, so it has no projective order")
    n, a0, a1, a2, a3 = 1, 0, 1, 0, 0  # x^n mod f, low first
    while a1 or a2 or a3:
        # x * x^n: shift up, then replace a3 x^4 by -a3 (c0 + c1 x + c2 x^2 + c3 x^3)
        a0, a1, a2, a3 = -a3 * c0 % p, (a0 - a3 * c1) % p, (a1 - a3 * c2) % p, (a2 - a3 * c3) % p
        n += 1
    return n


# ---------------------------------------------------------------------------
# the projective order by its definition, beyond stepping's reach: x^n is
# constant mod f and x^(n/l) is not for any prime l | n, each power taken
# by the kernel's fp_powmod


def x_power_is_constant(e: int, f: tuple[int, ...], p: int) -> bool:
    return len(fp_powmod((0, 1), e, f, p)) <= 1


def is_projective_order(n: int, f: tuple[int, ...], p: int) -> bool:
    """Whether n is the least n >= 1 with x^n constant mod f."""
    return x_power_is_constant(n, f, p) and not any(
        x_power_is_constant(n // ell, f, p) for ell in factorize(n))


def check_order_by_x_powers(rec: FrobeniusRecord, orders: tuple[int, ...], p: int) -> bool:
    """For a squarefree record with charpoly f and projective order n, the
    facts that let powers of x decide both order checks: n is the order by
    its definition; n does not divide E2 exactly when x^E2 is not constant,
    exactly when f is irreducible; and n divides a table order m exactly
    when x^m is constant, so that n divides none of them exactly when no
    x^m is.  Returns whether n divides none."""
    f, n = rec.charpoly, rec.projective_order
    assert is_projective_order(n, f, p), rec
    e2 = 2 * lcm(p * (p - 1), p * p - 1, p - 1)  # E2 by its definition
    irreducible = len(rec.factorization.factors) == 1
    assert (e2 % n != 0) == (not x_power_is_constant(e2, f, p)) == irreducible, rec
    divides = [m % n == 0 for m in orders]
    assert divides == [x_power_is_constant(m, f, p) for m in orders], rec
    return not any(divides)


# ---------------------------------------------------------------------------
# the certify-report/1 JSON as a tree for json.dumps: report.render_json
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


# ---------------------------------------------------------------------------
# EigenformDataset.digest as it was written before it hashed one string:
# one sha256 update per field, per eigenvalue and per assumption flag


def reference_digest(ds: EigenformDataset) -> str:
    h = hashlib.sha256()
    h.update(f"weight={ds.weight};level={ds.level};".encode())
    h.update(("E=" + ",".join(str(c) for c in ds.defining_poly) + ";").encode())
    for index in sorted(ds.eigenvalues):
        expr = ",".join(str(c) for c in ds.eigenvalues[index])
        h.update(f"a[{index}]={expr};".encode())
    for flag in sorted(ds.assumptions):
        h.update(f"assume={flag};".encode())
    return h.hexdigest()
