"""Dataset files, report rendering, and the certify command.

The input format is line oriented: header lines `weight N`, `level N`,
`defining_poly c0 c1 ...` (integer coefficients, constant first) and
`assumptions flag ...`, then one `eigenvalue <index> <coefficients...>`
line per entry, the coefficients being the integer polynomial in alpha
(a single integer for a constant).  Blank lines and text after `#` are
ignored.

`gspcert certify` runs as one function: check the option values and the
prime, ingest, choose the roots, certify, render, write, warn.  Exit codes:
0 when every requested certification returns LARGE_IMAGE, 2 when any
returns INCONCLUSIVE, 1 for usage or data errors and for a report that
cannot be written (to --out or to stdout), which print one `error:` line on
stderr.  The command line is parsed by argparse; library callers use
ingest, certify and the two renderers.
"""
from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, NoReturn, Sequence

from .certifier import Certificate, CheckResult, certify, supported_table
from .eigen_data import EigenformDataset, FrobeniusRecord, embedding_roots
from .polynomial import fp_str, is_prime

REPORT_FORMAT = "gspcert.certify-report/1"


class DatasetError(ValueError):
    """Raised when a dataset file cannot be parsed or fails validation."""


def _dataset_error(path: str, lineno: int | None, message: str) -> DatasetError:
    where = f"{path}, line {lineno}" if lineno is not None else str(path)
    return DatasetError(f"{where}: {message}")


def _parse_int(token: str, path: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _dataset_error(path, lineno, f"{what} must be an integer, got {token!r}") from None


def ingest(path: str | os.PathLike[str]) -> EigenformDataset:
    """Parse a dataset file; raise DatasetError with line diagnostics."""
    path = str(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise DatasetError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DatasetError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc

    header: dict[str, object] = {}  # weight, level and defining_poly
    assumptions: list[str] = []
    eigenvalues: dict[int, tuple[int, ...]] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):  # not at \f or \u2028
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        if key == "weight" or key == "level":
            if key in header:
                raise _dataset_error(path, lineno, f"duplicate {key}")
            if len(rest) != 1:
                raise _dataset_error(path, lineno, f"{key} takes exactly one integer")
            header[key] = _parse_int(rest[0], path, lineno, key)
        elif key == "defining_poly":
            if key in header:
                raise _dataset_error(path, lineno, "duplicate defining_poly")
            if len(rest) < 2:
                raise _dataset_error(
                    path, lineno, "defining_poly needs at least two coefficients"
                )
            header[key] = tuple(_parse_int(tok, path, lineno, "coefficient") for tok in rest)
        elif key == "assumptions":
            assumptions.extend(rest)
        elif key == "eigenvalue":
            if len(rest) < 2:
                raise _dataset_error(
                    path, lineno, "eigenvalue needs an index and at least one coefficient"
                )
            index = _parse_int(rest[0], path, lineno, "eigenvalue index")
            if index in eigenvalues:
                raise _dataset_error(path, lineno, f"duplicate eigenvalue index {index}")
            eigenvalues[index] = tuple(
                _parse_int(tok, path, lineno, "coefficient") for tok in rest[1:]
            )
        else:
            raise _dataset_error(path, lineno, f"unknown directive {key!r}")

    for name in ("weight", "level", "defining_poly"):
        if name not in header:
            raise _dataset_error(path, None, f"missing required field {name!r}")

    try:
        return EigenformDataset(
            **header, eigenvalues=eigenvalues, assumptions=frozenset(assumptions)
        )
    except ValueError as exc:
        raise _dataset_error(path, None, str(exc)) from exc


# ---------------------------------------------------------------------------
# report rendering


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


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error ends in one `error:` line and
    exit 1 like the command's other errors, instead of the usage text and
    argparse's exit 2, which is the INCONCLUSIVE code here."""

    def error(self, message: str) -> NoReturn:
        sys.exit(_fail(message))


def _parser(prog: str | None) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Certify that a residual Galois image is all of PGSp(4, p).",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    command = commands.add_parser(
        "certify",
        help="run the exclusion argument on a dataset",
        description="Run the full exclusion argument on the dataset at INPUT.",
        allow_abbrev=False,
    )
    command.add_argument("input_path", metavar="INPUT", help="the dataset file")
    command.add_argument(
        "--prime", "-p", default="7", metavar="P",
        help="residual characteristic, a prime (default: 7)",
    )
    command.add_argument(
        "--root", default="all", metavar="R",
        help="embedding root in [0, p), or 'all' for every simple root of the "
             "defining polynomial mod p (default: all)",
    )
    command.add_argument(
        "--format", dest="fmt", default="text", metavar="FORMAT",
        help="report format: text or json (default: text)",
    )
    command.add_argument(
        "--out", metavar="PATH",
        help="write the report to this file instead of standard output",
    )
    return parser


def _fail(message: str) -> int:
    # one line whatever the message holds: a path may contain line breaks
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)
    return 1


def _certify_command(args: argparse.Namespace) -> int:
    """Check the options and the prime, ingest, certify the selected roots,
    write the report, and return the exit code."""
    if not os.path.isfile(args.input_path):
        return _fail(f"no such dataset file: {args.input_path}")
    try:
        p = int(args.prime)
    except ValueError:
        return _fail(f"--prime must be an integer, got {args.prime!r}")
    if args.root == "all":
        root = None
    else:
        try:
            root = int(args.root)
        except ValueError:
            return _fail(f"--root must be an integer or 'all', got {args.root!r}")
    if args.fmt not in ("text", "json"):
        return _fail(f"--format must be text or json, got {args.fmt!r}")

    try:  # every ValueError, DatasetError among them, ends in its one line
        if not is_prime(p):
            return _fail(f"--prime must be a prime number, got {p}")
        table = supported_table(p)  # before any dataset work
        ds = ingest(args.input_path)
        if root is None:
            roots = embedding_roots(ds.defining_poly, p)
            if not roots:
                return _fail(
                    f"no prime-field embedding: the defining polynomial "
                    f"has no simple root mod {p}"
                )
        elif 0 <= root < p:
            roots = [root]
        else:
            return _fail(f"--root must lie in [0, {p}), got {root}")
        certs = [certify(ds, p, r, table) for r in roots]
    except ValueError as exc:
        return _fail(str(exc))

    report = render_json(certs) if args.fmt == "json" else render_text(certs)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            return _fail(f"{args.out}: {getattr(exc, 'strerror', None) or exc}")
    else:
        try:
            sys.stdout.write(report)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            # the unwritten bytes stay buffered: send them to devnull, or the
            # interpreter's exit flush fails again and prints "Exception ignored"
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _fail(f"stdout: {exc.strerror or exc}")

    if p in ds.primes():  # only once nothing can fail: exit 1 prints one line
        print(
            f"warning: ignoring eigenvalues at q = {p}: q = p carries no Frobenius data",
            file=sys.stderr,
        )
    return 0 if all(c.certified for c in certs) else 2


def main(args: Sequence[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run the command line on args (sys.argv[1:] when None) and exit with
    its code; `--help` exits 0."""
    sys.exit(_certify_command(_parser(prog_name).parse_args(args)))
