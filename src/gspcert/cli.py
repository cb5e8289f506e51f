"""Dataset files, report rendering, and the certify command.

The input format is line oriented: header lines `weight N`, `level N`,
`defining_poly c0 c1 ...` (integer coefficients, constant first) and
`assumptions flag ...`, then one `eigenvalue <index> <coefficients...>`
line per entry, the coefficients being the integer polynomial in alpha
(a single integer for a constant).  Blank lines and text after `#` are
ignored.

Exit codes: 0 when every requested certification returns LARGE_IMAGE,
2 when any returns INCONCLUSIVE, 1 for usage or data errors.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from .certifier import Certificate, certify, supported_table
from .eigen_data import EigenformDataset, embedding_roots
from .finite_field import is_prime
from .polynomial import fp_str

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


def ingest(path: str | Path) -> EigenformDataset:
    """Parse a dataset file; raise DatasetError with line diagnostics."""
    path = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # skips a byte-order mark
    except OSError as exc:
        raise DatasetError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text (byte {exc.start})") from exc

    weight: int | None = None
    level: int | None = None
    defining: tuple[int, ...] | None = None
    assumptions: list[str] = []
    eigenvalues: dict[int, tuple[int, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        if key == "weight":
            if weight is not None:
                raise _dataset_error(path, lineno, "duplicate weight")
            if len(rest) != 1:
                raise _dataset_error(path, lineno, "weight takes exactly one integer")
            weight = _parse_int(rest[0], path, lineno, "weight")
        elif key == "level":
            if level is not None:
                raise _dataset_error(path, lineno, "duplicate level")
            if len(rest) != 1:
                raise _dataset_error(path, lineno, "level takes exactly one integer")
            level = _parse_int(rest[0], path, lineno, "level")
        elif key == "defining_poly":
            if defining is not None:
                raise _dataset_error(path, lineno, "duplicate defining_poly")
            if len(rest) < 2:
                raise _dataset_error(
                    path, lineno, "defining_poly needs at least two coefficients"
                )
            defining = tuple(
                _parse_int(tok, path, lineno, "coefficient") for tok in rest
            )
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

    for name, value in (("weight", weight), ("level", level), ("defining_poly", defining)):
        if value is None:
            raise _dataset_error(path, None, f"missing required field {name!r}")

    try:
        return EigenformDataset(
            weight=weight,
            level=level,
            defining_poly=defining,
            eigenvalues=eigenvalues,
            assumptions=frozenset(assumptions),
        )
    except ValueError as exc:
        raise _dataset_error(path, None, str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """One certification run: which dataset, prime, roots, and output."""

    input_path: str
    p: int = 7
    root: int | None = None  # None means every embedding root
    fmt: str = "text"
    out: str | None = None


# ---------------------------------------------------------------------------
# report rendering


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


def render_json(certs: list[Certificate]) -> str:
    tree = {
        "format": REPORT_FORMAT,
        "certificates": [certificate_dict(c) for c in certs],
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _render_certificate_text(cert: Certificate) -> list[str]:
    lines = [f"== certificate: p = {cert.p}, root = {cert.root} =="]
    lines.append(f"dataset sha256: {cert.dataset_digest}")
    lines.append(f"weight {cert.weight}, level {cert.level}")
    lines.append(
        "defining_poly (constant first): "
        + " ".join(str(c) for c in cert.defining_poly)
    )
    lines.append(
        "residual eigenvalues: "
        + ", ".join(f"a_{i} = {a}" for i, a in cert.residual_eigenvalues)
    )
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
    blocks = []
    for cert in certs:
        blocks.append("\n".join(_render_certificate_text(cert)))
    certified = sum(1 for c in certs if c.certified)
    summary = (
        f"{len(certs)} certificate(s): {certified} LARGE_IMAGE, "
        f"{len(certs) - certified} INCONCLUSIVE"
    )
    return "\n\n".join(blocks) + "\n\n" + summary + "\n"


# ---------------------------------------------------------------------------
# the runner


def _fail(message: str) -> int:
    click.echo(f"error: {message}", err=True)
    return 1


def run(config: RunConfig) -> int:
    """Ingest, certify the selected roots, write the report."""
    try:
        ds = ingest(config.input_path)
    except DatasetError as exc:
        return _fail(str(exc))

    p = config.p
    try:
        if not is_prime(p):
            return _fail(f"--prime must be a prime number, got {p}")
        table = supported_table(p)
    except ValueError as exc:
        return _fail(str(exc))
    if config.root is not None and not 0 <= config.root < p:
        return _fail(f"--root must lie in [0, {p}), got {config.root}")

    try:
        if config.root is None:
            roots = [r.lift() for r in embedding_roots(ds.defining_poly, p)]
            if not roots:
                return _fail(
                    f"no prime-field embedding: the defining polynomial "
                    f"has no simple root mod {p}"
                )
        else:
            roots = [config.root]
        certs = [certify(ds, p, root, table) for root in roots]
    except ValueError as exc:
        return _fail(str(exc))

    report = render_json(certs) if config.fmt == "json" else render_text(certs)
    if config.out is not None:
        try:
            Path(config.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            return _fail(f"{config.out}: {exc.strerror or exc}")
    else:
        click.echo(report, nl=False)

    if p in ds.primes():  # only once nothing can fail: exit 1 prints one line
        click.echo(
            f"warning: ignoring eigenvalues at q = {p}: "
            "q = p carries no Frobenius data",
            err=True,
        )
    return 0 if all(c.certified for c in certs) else 2


# ---------------------------------------------------------------------------
# command line


@click.group()
def main() -> None:
    """Certify that a residual Galois image is all of PGSp(4, p)."""


@main.command(name="certify")
@click.argument("input_path", metavar="INPUT")
@click.option(
    "--prime", "-p", "prime", default="7", show_default=True,
    help="Residual characteristic (a prime).",
)
@click.option(
    "--root", default="all", show_default=True,
    help="Embedding root in [0, p), or 'all' for every simple root of the "
         "defining polynomial mod p.",
)
@click.option(
    "--format", "fmt", default="text", show_default=True,
    help="Report format: text or json.",
)
@click.option(
    "--out", default=None,
    help="Write the report to this file instead of standard output.",
)
def certify_command(input_path: str, prime: str, root: str, fmt: str, out: str | None) -> None:
    """Run the full exclusion argument on the dataset at INPUT."""
    if not Path(input_path).is_file():
        raise click.ClickException(f"no such dataset file: {input_path}")
    try:
        p = int(prime)
    except ValueError:
        raise click.ClickException(f"--prime must be an integer, got {prime!r}") from None
    if root == "all":
        chosen = None
    else:
        try:
            chosen = int(root)
        except ValueError:
            raise click.ClickException(
                f"--root must be an integer or 'all', got {root!r}"
            ) from None
    if fmt not in ("text", "json"):
        raise click.ClickException(f"--format must be text or json, got {fmt!r}")
    config = RunConfig(input_path=input_path, p=p, root=chosen, fmt=fmt, out=out)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
