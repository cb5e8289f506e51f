"""Run `gspcert` in this process and capture what it did.

invoke(argv) calls gspcert.cli.main(argv) with stdout and stderr redirected
and returns its exit code, both streams as text, and any exception that
escaped main other than SystemExit.
"""
from __future__ import annotations

import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO
from typing import Iterator, NamedTuple, Sequence

from gspcert.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None


def invoke(argv: Sequence[str]) -> Result:
    out, err = StringIO(), StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv), prog_name="gspcert")
        except SystemExit as exc:  # as sys.exit reads its argument
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            code, exception = 1, exc
        else:  # main always exits
            code, exception = 0, AssertionError("main returned instead of exiting")
    return Result(code, out.getvalue(), err.getvalue(), exception)


@contextmanager
def working_directory(path: str | os.PathLike[str]) -> Iterator[None]:
    """Run the block with path as the current directory."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)
