"""The per-op correctness gate: checks a report against the dataset it
came from, using only the benchmark's own arithmetic (datagen)."""
from __future__ import annotations

import json
import re

from datagen import Dataset, hecke_quartic, poly_mul, root_count

REPORT_FORMAT = "gspcert.certify-report/1"
LARGE_IMAGE = "LARGE_IMAGE"
CHECK_NAMES = (
    "linear_constituent",
    "rational_22_split",
    "conjugate_22_split",
    "primitivity",
    "exceptional",
    "multiplier_surjective",
)
_FACTOR = re.compile(r"\(([^()]*)\)(?:\^(\d+))?")
_TERM = re.compile(r"(\d*)(x(?:\^(\d+))?)?")


class GateError(AssertionError):
    """A report that contradicts its input or the certificate's rules."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def parse_poly(text: str) -> list[int]:
    """Read a polynomial as the report prints it, e.g. 'x^2 + 4x + 5'."""
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        m = _TERM.fullmatch(term)
        _require(m is not None and term != "", f"unreadable term {term!r}")
        digits, xpart, power = m.groups()
        degree = (int(power) if power else 1) if xpart else 0
        coeffs[degree] = int(digits) if digits else 1
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def parse_factorization(text: str, p: int) -> list[int]:
    """Multiply out a printed factorization of a monic polynomial."""
    product = [1]
    matched = 0
    for m in _FACTOR.finditer(text):
        _require(m.start() == matched, f"unreadable factorization {text!r}")
        matched = m.end()
        factor = parse_poly(m.group(1))
        _require(factor[-1] == 1, f"factor {m.group(1)!r} is not monic")
        for _ in range(int(m.group(2) or 1)):
            product = poly_mul(product, factor, p)
    _require(matched == len(text) and matched > 0, f"unreadable factorization {text!r}")
    return product


def check_certificate(cert: dict, ds: Dataset, p: int, root: int) -> str:
    """Check one certificate of a JSON report; return its verdict."""
    _require(cert["p"] == p and cert["root"] == root, "wrong p or root")
    _require(cert["weight"] == ds.weight, "wrong weight")
    residues = ds.residues(p, root)
    _require(
        cert["residual_eigenvalues"] == [[i, residues[i]] for i in sorted(residues)],
        "residual eigenvalues differ from the dataset",
    )
    primes = sorted({i for i in residues if i * i in residues} - {p})
    records = cert["frobenius_records"]
    _require([r["q"] for r in records] == primes, "records do not cover the dataset primes")
    checks = cert["checks"]
    _require(tuple(c["name"] for c in checks) == CHECK_NAMES, "wrong checks")
    root_counts = checks[0]["data"]["base_field_root_counts"]
    for rec in records:
        q = rec["q"]
        charpoly = hecke_quartic(residues[q], residues[q * q], q, ds.weight, p)
        _require(rec["charpoly"] == charpoly, f"charpoly at q = {q} breaks the Hecke formula")
        _require(
            parse_factorization(rec["factorization"], p) == charpoly,
            f"factorization at q = {q} does not multiply back",
        )
        _require(
            root_counts[str(q)] == root_count(charpoly, p),
            f"F_p root count at q = {q} is wrong",
        )
    all_pass = all(c["status"] == "pass" for c in checks)
    _require((cert["verdict"] == LARGE_IMAGE) == all_pass, "verdict contradicts the checks")
    return cert["verdict"]


def check_json_report(text: str, ds: Dataset, p: int, roots: list[int]) -> list[str]:
    """Check a JSON report of one certificate per root, in any root order;
    return the verdicts."""
    tree = json.loads(text)
    _require(tree["format"] == REPORT_FORMAT, "missing report format tag")
    certs = tree["certificates"]
    _require(sorted(c["root"] for c in certs) == sorted(roots), "wrong embedding roots")
    return [check_certificate(c, ds, p, c["root"]) for c in certs]


def check_text_report(text: str, n_certs: int) -> list[str]:
    """Check the verdict lines and summary of a text report."""
    verdicts = re.findall(r"^verdict: (\S+)$", text, flags=re.M)
    _require(len(verdicts) == n_certs, "wrong number of certificates")
    large = verdicts.count(LARGE_IMAGE)
    summary = (
        f"{n_certs} certificate(s): {large} LARGE_IMAGE, "
        f"{n_certs - large} INCONCLUSIVE\n"
    )
    _require(text.endswith(summary), "summary line contradicts the verdicts")
    return verdicts


def check_exit_code(code: int, verdicts: list[str]) -> None:
    """certify exits 0 when every certificate is LARGE_IMAGE, else 2."""
    expected = 0 if all(v == LARGE_IMAGE for v in verdicts) else 2
    _require(code == expected, f"exit code {code}, expected {expected}")
