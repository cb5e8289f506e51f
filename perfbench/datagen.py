"""Seeded eigenvalue datasets for the benchmark, and the benchmark's own
arithmetic mod p.

Nothing here imports gspcert: the datasets are written as text files the
program ingests, and the same integer arithmetic later checks its reports.
Polynomials are lists of ints mod p, lowest degree first.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# the defining cubic of the bundled weight-28 dataset; its simple roots are
# {1, 3, 4} mod 7 and {8} mod 19
PAPER_CUBIC = (-59412960, -294086, -1, 1)
ASSUMPTIONS = ("not_maass_spezialform", "conductor_one")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Dataset:
    """One eigenvalue table: index (q or q^2) -> coefficients in alpha."""

    name: str
    weight: int
    defining_poly: tuple[int, ...]
    eigenvalues: dict[int, tuple[int, ...]]

    def residues(self, p: int, root: int) -> dict[int, int]:
        """Every eigenvalue evaluated at alpha = root, mod p."""
        return {i: evaluate(expr, root, p) for i, expr in self.eigenvalues.items()}

    def text(self) -> str:
        lines = [
            f"# {self.name}",
            f"weight {self.weight}",
            "level 1",
            "defining_poly " + " ".join(str(c) for c in self.defining_poly),
            "assumptions " + " ".join(ASSUMPTIONS),
        ]
        for index in sorted(self.eigenvalues):
            coeffs = " ".join(str(c) for c in self.eigenvalues[index])
            lines.append(f"eigenvalue {index} {coeffs}")
        return "\n".join(lines) + "\n"


def parse_dataset(name: str, text: str) -> Dataset:
    """Read the fields the report gate needs from a dataset file."""
    weight = 0
    defining: tuple[int, ...] = ()
    eigenvalues: dict[int, tuple[int, ...]] = {}
    for raw in text.splitlines():
        key, *rest = raw.split("#", 1)[0].split() or ("",)
        if key == "weight":
            weight = int(rest[0])
        elif key == "defining_poly":
            defining = tuple(int(t) for t in rest)
        elif key == "eigenvalue":
            eigenvalues[int(rest[0])] = tuple(int(t) for t in rest[1:])
    return Dataset(name, weight, defining, eigenvalues)


# ---------------------------------------------------------------------------
# arithmetic mod p


def evaluate(poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def simple_roots(poly, p: int) -> list[int]:
    """Roots r of poly mod p with poly'(r) != 0, ascending."""
    deriv = [i * c for i, c in enumerate(poly)][1:]
    return [r for r in range(p) if evaluate(poly, r, p) == 0 and evaluate(deriv, r, p) != 0]


def poly_rem(a, b, p: int) -> list[int]:
    """a mod b, for b with a nonzero leading coefficient."""
    a = [c % p for c in a]
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def is_squarefree(f, p: int) -> bool:
    """gcd(f, f') is constant (f of degree below p)."""
    a, b = list(f), [i * c % p for i, c in enumerate(f)][1:]
    while b:
        a, b = b, poly_rem(a, b, p)
    return len(a) == 1


def root_count(f, p: int) -> int:
    """Number of F_p roots of f counted with multiplicity, by brute force."""
    f = [c % p for c in f]
    count = 0
    for r in range(p):
        while len(f) > 1 and evaluate(f, r, p) == 0:
            # synthetic division by (x - r)
            quot = [0] * (len(f) - 1)
            carry = 0
            for i in range(len(f) - 1, 0, -1):
                carry = (f[i] + carry * r) % p
                quot[i - 1] = carry
            f = quot
            count += 1
    return count


def hecke_quartic(aq: int, aq2: int, q: int, k: int, p: int) -> list[int]:
    """x^4 - a_q x^3 + (a_q^2 - a_{q^2} - q^(2k-4)) x^2 - a_q nu x + nu^2,
    nu = q^(2k-3), coefficients mod p, lowest degree first."""
    nu = pow(q, 2 * k - 3, p)
    return [
        nu * nu % p,
        -aq * nu % p,
        (aq * aq - aq2 - pow(q, 2 * k - 4, p)) % p,
        -aq % p,
        1,
    ]


def interpolate(values: dict[int, int], p: int) -> list[int]:
    """Coefficients c (lowest first, len(values) of them) with
    c(r) = values[r] mod p at every root r (Lagrange)."""
    roots = sorted(values)
    out = [0] * len(roots)
    for r in roots:
        basis = [1]
        denom = 1
        for s in roots:
            if s != r:
                basis = poly_mul(basis, [-s % p, 1], p)
                denom = denom * (r - s) % p
        scale = values[r] * pow(denom, p - 2, p) % p
        for i, c in enumerate(basis):
            out[i] = (out[i] + scale * c) % p
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Spec:
    """How one library workload's datasets are drawn, and why."""

    p: int
    primes: tuple[int, ...]
    datasets: int
    reducible: bool
    squarefree: bool  # redraw a prime's residues until its charpoly is squarefree
    why: str


SPECS = {
    "lib_p7_generic": Spec(
        p=7,
        primes=(2, 3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41),
        datasets=16,
        reducible=False,
        squarefree=False,
        why="uniform residual eigenvalues at twelve primes: mixed factor "
        "patterns and verdicts, so the F_{p^4} root scan, factor and the order "
        "computation all carry the warm per-record cost",
    ),
    "lib_p7_reducible": Spec(
        p=7,
        primes=(2, 3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41),
        datasets=16,
        reducible=True,
        squarefree=False,
        why="negative controls: every charpoly is built from Frobenius root "
        "pairs (r, nu/r) so it has an F_p root, mostly splits fully and "
        "sometimes repeats a root; factor spends its time in equal-degree "
        "splitting and no check finds a witness",
    ),
    "lib_p19": Spec(
        p=19,
        primes=(2, 3, 5),
        datasets=12,
        reducible=False,
        squarefree=True,
        why="three primes like the paper's table at p = 19 with a "
        "caller-supplied exceptional table: the F_{19^4} tables and scans "
        "dominate, which is the p^4 growth the F_p rewrite targets; every "
        "charpoly is squarefree so each op makes the same three scans",
    ),
}

# orders used for the exceptional check at p = 19; they follow the shape of
# the built-in p = 7 table and are not a verified classification
P19_EXCEPTIONAL = (("PGL(2,19)", 6840), ("2^4.O4^-(2).2", 3840), ("A6.2", 720))


def _residues_generic(rng: random.Random, q: int, k: int, p: int) -> tuple[int, int]:
    return rng.randrange(p), rng.randrange(p)


def _residues_reducible(rng: random.Random, q: int, k: int, p: int) -> tuple[int, int]:
    # charpoly (x^2 - t1 x + nu)(x^2 - t2 x + nu) with t1 = r + nu/r, so r is
    # an F_p root; t2 comes from a second root pair three times in four
    nu = pow(q, 2 * k - 3, p)

    def pair_trace() -> int:
        r = rng.randrange(1, p)
        return (r + nu * pow(r, p - 2, p)) % p

    t1 = pair_trace()
    t2 = pair_trace() if rng.random() < 0.75 else rng.randrange(p)
    aq = (t1 + t2) % p
    aq2 = (aq * aq - pow(q, 2 * k - 4, p) - t1 * t2 - 2 * nu) % p
    return aq, aq2


def generate(workload: str, seed: int) -> list[Dataset]:
    """The datasets of one library workload; the same seed gives the same list."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    p = spec.p
    roots = simple_roots(PAPER_CUBIC, p)
    draw = _residues_reducible if spec.reducible else _residues_generic
    out = []
    for n in range(spec.datasets):
        weight = rng.randrange(10, 42, 2)
        at_root: dict[int, dict[int, int]] = {q: {} for q in spec.primes}
        at_root.update({q * q: {} for q in spec.primes})
        for q in spec.primes:
            for r in roots:
                while True:
                    aq, aq2 = draw(rng, q, weight, p)
                    if not spec.squarefree or is_squarefree(
                        hecke_quartic(aq, aq2, q, weight, p), p
                    ):
                        break
                at_root[q][r], at_root[q * q][r] = aq, aq2
        eigenvalues = {}
        for index, values in at_root.items():
            # lift each residue coefficient to an integer like real table data
            coeffs = interpolate(values, p)
            eigenvalues[index] = tuple(c + p * rng.randint(-40, 40) for c in coeffs)
        out.append(Dataset(f"{workload}-{seed}-{n:02d}", weight, PAPER_CUBIC, eigenvalues))
    return out
