"""The certify report: the gspcert.certify-report/1 JSON document and the
text report, each rendered from a list of certificates.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

from .certifier import Certificate, CheckResult
from .eigen_data import FrobeniusRecord
from .polynomial import fp_str

REPORT_FORMAT = "gspcert.certify-report/1"


def _layout(pad: str, *keys: str) -> str:
    # a str.format template for an object with these keys, laid out like
    # _block
    return "{{\n" + ",\n".join(f'{pad}  "{key}": {{}}' for key in keys) + f"\n{pad}}}}}"


# Indents: a certificate opens at 4 and its fields at 6; the items of its
# lists, its records and checks among them, open at 8 and their fields at 10.
_CERT, _CERT_FIELD, _ITEM, _FIELD = (" " * n for n in (4, 6, 8, 10))
# the report's fixed objects, keys in sorted order as sort_keys writes them
_REPORT = _layout("", "certificates", "format") + "\n"
_CERTIFICATE = _layout(
    _CERT, "assumptions", "checks", "dataset_sha256", "defining_poly", "frobenius_records",
    "level", "p", "residual_eigenvalues", "root", "verdict", "weight",
)
_RECORD = _layout(
    _ITEM, "charpoly", "charpoly_pretty", "factorization", "projective_order", "q",
    "similitude", "squarefree",
)
_CHECK = _layout(_ITEM, "data", "justification", "name", "status", "witnesses")
# a residual eigenvalue's [index, residue], laid out as _ints lays it out at _ITEM
_PAIR = f"[\n{_FIELD}{{}},\n{_FIELD}{{}}\n{_ITEM}]"


def _block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    # items as json.dumps(indent=2) lays out a list (or, with brackets "{}",
    # an object) from a line at pad: an item a line at pad + 2, the closing
    # bracket at pad; items that may be empty come as a sequence
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def _ints(values: Sequence[int], pad: str) -> str:
    return _block(map(int.__repr__, values), pad) if values else "[]"


def _value(value: object, pad: str) -> str:
    """A CheckResult.data value as json.dumps(indent=2, sort_keys=True)
    writes it on a line indented by pad.  Only the exact types the checks'
    data holds are written, int, list and dict with str keys; anything else
    raises TypeError."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is dict:  # sorted keys, as sort_keys; _quote refuses a non-str key
        return _block([_quote(k) + ": " + _value(value[k], inner) for k in sorted(value)], pad, "{}")
    if kind is list:
        return _block([_value(v, inner) for v in value], pad)
    raise TypeError(f"{kind.__name__} cannot appear in a certify report")


def _record_json(rec: FrobeniusRecord) -> str:
    order = rec.projective_order
    return _RECORD.format(
        _ints(rec.charpoly, _FIELD),
        _quote(fp_str(rec.charpoly)),
        _quote(str(rec.factorization)),
        "null" if order is None else int.__repr__(order),
        int.__repr__(rec.q),
        int.__repr__(rec.similitude),
        "true" if rec.squarefree else "false",
    )


def _check_json(check: CheckResult) -> str:
    return _CHECK.format(
        _value(check.data, _FIELD),
        _quote(check.justification),
        _quote(check.name),
        _quote(check.status),
        _ints(check.witnesses, _FIELD),
    )


def _certificate_json(cert: Certificate) -> str:
    return _CERTIFICATE.format(
        _block(list(map(_quote, cert.assumptions)), _CERT_FIELD),
        _block(list(map(_check_json, cert.checks)), _CERT_FIELD),
        _quote(cert.dataset_digest),
        _ints(cert.defining_poly, _CERT_FIELD),
        _block(list(map(_record_json, cert.records)), _CERT_FIELD),
        int.__repr__(cert.level),
        int.__repr__(cert.p),
        _block([_PAIR.format(*pair) for pair in cert.residual_eigenvalues], _CERT_FIELD),
        int.__repr__(cert.root),
        _quote(cert.verdict),
        int.__repr__(cert.weight),
    )


def render_json(certs: list[Certificate]) -> str:
    """The gspcert.certify-report/1 document for certs.

    Written straight from the certificates' fields, its bytes are those of
    json.dumps(tree, indent=2, sort_keys=True) + newline for the tree of
    the same fields (tests/oracles.py holds that tree as the reference);
    strings are escaped by encode_basestring_ascii, the C function behind
    json.dumps' default ensure_ascii.  json.dumps itself is not used:
    with indent set it runs the pure-Python encoder, which cost about as
    much as certifying.
    """
    return _REPORT.format(
        _block(list(map(_certificate_json, certs)), "  "), _quote(REPORT_FORMAT)
    )


def _render_certificate_text(cert: Certificate) -> list[str]:
    lines = [f"== certificate: p = {cert.p}, root = {cert.root} =="]
    lines.append(f"dataset sha256: {cert.dataset_digest}")
    lines.append(f"weight {cert.weight}, level {cert.level}")
    lines.append("defining_poly (constant first): " + " ".join(map(str, cert.defining_poly)))
    lines.append("residual eigenvalues: "
                 + ", ".join(f"a_{i} = {a}" for i, a in cert.residual_eigenvalues))
    lines.append("frobenius records:")
    for rec in cert.records:
        lines.append(f"  q = {rec.q}: {fp_str(rec.charpoly)}")
        lines.append(f"    factorization: {rec.factorization}")
        order = rec.projective_order if rec.projective_order is not None else "n/a"
        squarefree = "yes" if rec.squarefree else "no"
        lines.append(
            f"    squarefree: {squarefree} | projective order: {order} "
            f"| similitude: {rec.similitude}"
        )
    lines.append("checks:")
    for check in cert.checks:
        tag = "PASS" if check.passed else "FAIL"
        witnesses = ", ".join(str(q) for q in check.witnesses) if check.witnesses else "none"
        lines.append(f"  [{tag}] {check.name} (witnesses: {witnesses})")
        lines.append(f"    {check.justification}")
    lines.append("assumptions: " + ", ".join(cert.assumptions))
    lines.append(f"verdict: {cert.verdict}")
    return lines


def render_text(certs: list[Certificate]) -> str:
    blocks = ["\n".join(_render_certificate_text(cert)) for cert in certs]
    certified = sum(1 for c in certs if c.certified)
    summary = (
        f"{len(certs)} certificate(s): {certified} LARGE_IMAGE, "
        f"{len(certs) - certified} INCONCLUSIVE"
    )
    return "\n\n".join(blocks + [summary]) + "\n"
