"""The mutation gate: tier-1 must fail on every must_fail mutant.

    python mutation/run.py

Each test run works in a fresh temporary copy of what tier-1 reads (src/,
tests/, pyproject.toml, README.md, perfbench/ and this directory's list),
never in the checkout.
The unmutated copy runs first and alone, and must pass, or every kill
would be vacuous.  Then each must_fail mutant of mutants.py is applied to
its own copy, where `python -m pytest -q -x` must exit 1, tests failed;
the mutants run concurrently, one at a time on each CPU this process may
use.  Exit 0 is a survivor and exits 2-5 a broken mutant (an interrupted
run, an internal, usage or collection error; a collection error is read
off the summary, as -x ends it in exit 1 too); both fail the gate.  A run
past TIMEOUT seconds counts as a kill and is reported as one.  Before any
of that, every mutant's `before` must occur exactly once in its file.
Prints one line per mutant, in the list's order, and the wall time of the
mutant runs, and exits 1 on any failure.  Standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants import EQUIVALENT, MUST_FAIL, MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md", "perfbench", "mutation")
# the wall-time tests, which a slow host fails on correct code, and the
# list's own test, which fails on any mutant as its `before` is gone
DESELECTED = (
    "TestPrimeBound",
    "test_large_p_route_takes_under_five_seconds_a_root",
    "test_every_mutant_matches_the_source_once",
)
TIMEOUT = 120


def run_tests(mutant: Mutant | None) -> tuple[int | None, float, str]:
    """Tier-1 on a copy with the mutant applied: pytest's exit code (None
    past TIMEOUT), the seconds it took and the first failed test's id."""
    with tempfile.TemporaryDirectory(prefix="gspcert-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "_work"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.before, mutant.after))
        # pyproject.toml's pythonpath puts the copy's src/ first; no other
        # gspcert may come in through PYTHONPATH
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-k", " and ".join(f"not {name}" for name in DESELECTED)]
        start = time.perf_counter()
        try:
            res = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
    lines = res.stdout.splitlines()
    failed = next((line for line in lines if line.startswith("FAILED ")), "")
    # with -x a collection error (an ERROR line naming a file, not a test)
    # ends in exit 1 too; without -x pytest gives it exit 2
    if any(line.startswith("ERROR ") and "::" not in line for line in lines):
        return 2, seconds, ""
    return res.returncode, seconds, failed.removeprefix("FAILED ").split(" - ")[0]


def main() -> int:
    failures = 0
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.before)
        if count != 1:
            print(f"STALE    {m.file}: {m.before.strip()!r} occurs {count} times", flush=True)
            failures += 1
    if failures:
        return 1

    code, seconds, failed = run_tests(None)
    print(f"{'baseline' if code == 0 else 'BROKEN':8} {seconds:5.1f}s  the unmutated copy, "
          f"pytest exit {code} {failed}".rstrip(), flush=True)
    if code != 0:
        return 1

    must_fail = [m for m in MUTANTS if m.kind == MUST_FAIL]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    start = time.perf_counter()
    kills = 0
    with ThreadPoolExecutor(max(1, min(cpus, len(must_fail)))) as pool:
        results = pool.map(run_tests, must_fail)  # in order, as each is ready
        for m in MUTANTS:
            if m.kind == EQUIVALENT:
                print(f"{'equiv':8}         {m.file}: {m.reason}", flush=True)
                continue
            code, seconds, failed = next(results)
            if code in (1, None):
                kills += 1
                status = "killed" if code == 1 else "timeout"
            else:
                failures += 1
                status = "SURVIVED" if code == 0 else f"BROKEN {code}"
            by = f" [{failed}]" if failed else ""
            print(f"{status:8} {seconds:5.1f}s  {m.file}: {m.reason}{by}", flush=True)
    print(f"{kills} of {len(must_fail)} must_fail mutants killed in "
          f"{time.perf_counter() - start:.0f} s; {len(MUTANTS) - len(must_fail)} equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
