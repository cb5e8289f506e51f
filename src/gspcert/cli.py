"""The certify command.

`gspcert certify` runs as one function: ingest, choose the roots, certify,
render, write, warn.  It states no input rule of its own.  argparse parses
the options, --root among them, and words a malformed one (`argument
--prime/-p: invalid int value: 'x'`, `argument --root: invalid root value:
'x'`); the library's doors judge p (supported_table, before the dataset is
read) and a given root (specialize), in their words.  Exit codes: 0 when
every requested certification returns LARGE_IMAGE, 2 when any returns
INCONCLUSIVE, 1 for usage or data errors and for a report that cannot be
written (to --out or to stdout), which print one `error:` line on stderr.
The command line is parsed by argparse; library callers use ingest, certify
and the two renderers.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import NoReturn, Sequence

from .certifier import certify, supported_table
from .eigen_data import embedding_roots, ingest
from .report import render_json, render_text


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error ends in one `error:` line and
    exit 1 like the command's other errors, instead of the usage text and
    argparse's exit 2, which is the INCONCLUSIVE code here."""

    def error(self, message: str) -> NoReturn:
        sys.exit(_fail(message))


def _parser(prog: str | None) -> _Parser:
    def root(text: str) -> int | None:  # argparse words a failure by this name
        return None if text == "all" else int(text)

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
        "--prime", "-p", type=int, default=7, metavar="P",
        help="residual characteristic, a prime (default: 7)",
    )
    command.add_argument(
        "--root", type=root, default=None, metavar="R",
        help="embedding root in [0, p), or 'all' for every simple root of the "
             "defining polynomial mod p (default: all)",
    )
    command.add_argument(
        "--format", dest="fmt", default="text", choices=("text", "json"), metavar="FORMAT",
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
    """Ingest, certify the selected roots, write the report, and return the
    exit code; a ValueError from the library is the one error line."""
    p = args.prime
    try:  # every ValueError, DatasetError among them, ends in its one line
        table = supported_table(p)  # before any dataset work
        ds = ingest(args.input_path)
        roots = embedding_roots(ds.defining_poly, p) if args.root is None else [args.root]
        if not roots:
            return _fail(
                f"no prime-field embedding: the defining polynomial has no simple root mod {p}"
            )
        certs = [certify(ds, p, r, table) for r in roots]
    except ValueError as exc:
        return _fail(str(exc))

    report = render_json(certs) if args.fmt == "json" else render_text(certs)
    if args.out is not None:
        try:  # opened without blocking, a FIFO with no reader fails at once
            nonblock = getattr(os, "O_NONBLOCK", 0)
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | nonblock, 0o666)
            if nonblock:  # a full pipe then waits for its reader, not fails
                os.set_blocking(fd, True)
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(report)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            return _fail(f"{args.out}: {getattr(exc, 'strerror', None) or exc}")
    elif sys.stdout is None:  # fd 1 was closed at start-up
        return _fail(f"stdout: {os.strerror(errno.EBADF)}")
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
