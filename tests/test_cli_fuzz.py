"""Fuzzing the command line over dataset text, option values and argv.

Every case must end within the deadline with exit code 0, 1 or 2 and let
no exception escape.  The dataset-level cases are drawn well-formed most of
the time, so that at least a third of them reach certify; the test counts
the exit codes to hold that share.  Exit 1 prints exactly one `error:` line on stderr;
exit 2, the INCONCLUSIVE code, comes only after a complete report with an
INCONCLUSIVE certificate was written to stdout or to --out.  The search is
derandomized with a fixed number of examples, so every run tries the same
cases.
"""
from __future__ import annotations

import json
import re
import shutil
import tempfile
from collections import Counter
from datetime import timedelta
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import invoke, working_directory
from gspcert.report import REPORT_FORMAT

FLAGS = ["not_maass_spezialform", "conductor_one"]
DIRECTIVES = ["weight", "level", "defining_poly", "assumptions", "eigenvalue", "spin", "#"]
BIG = [10**29 + 319, 2**61 - 1, 10**400, -(10**30), 9**2000]

integers = st.one_of(st.integers(-3, 60), st.sampled_from(BIG))
tokens = st.one_of(integers.map(str), st.sampled_from(["x", "1.5", "0x10", "all", "é", *FLAGS]))
junk_lines = st.one_of(
    st.builds(lambda key, rest: " ".join([key, *rest]), st.sampled_from(DIRECTIVES),
              st.lists(tokens, max_size=4)),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


def mostly(usual, *others):
    """A strategy drawing from usual most of the time (15 of the 15 + n
    choices), and otherwise from one of the n others."""
    return st.sampled_from([usual] * 15 + list(others)).flatmap(lambda strategy: strategy)


def words(key: str, values) -> str:
    return " ".join([key, *map(str, values)])


def dataset_lines(weight, level, e, table, flags, junk, reverse) -> list[str]:
    lines = [
        words("weight", [weight]),
        words("level", [level]),
        words("defining_poly", e),
        words("assumptions", flags),
        *(words("eigenvalue", [i, *cs]) for i, cs in table.items()),
        *junk,
    ]
    return lines[::-1] if reverse else lines


# a dataset that reaches certify most of the time: a weight in [2, 60],
# level 1, the paper's cubic or one with a repeated root (else a rootless
# one, x or a small random E), the paper's table (else Hecke entries at q and
# q^2 for some q in {2, 3, 5, 7, 11}), known flags and no junk line; else
# each field is drawn from values that may fail
structured = st.builds(
    dataset_lines,
    mostly(st.integers(2, 60), integers),
    mostly(st.just(1), st.just(2)),
    mostly(
        st.sampled_from([(-59412960, -294086, -1, 1), (-2, 5, -4, 1)]),
        st.sampled_from([(1, 0, 1), (0, 1)]),
        st.lists(integers, min_size=1, max_size=3).map(lambda cs: (*cs, 1)),
    ),
    mostly(
        st.just({2: (4,), 4: (5,), 3: (3,), 9: (2,), 5: (1,), 25: (2,)}),
        st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=4, unique=True).flatmap(
            lambda qs: st.fixed_dictionaries(
                {i: st.one_of(st.tuples(integers), st.lists(integers, min_size=1, max_size=3))
                 for q in qs for i in (q, q * q)}
            )
        ),
    ),
    mostly(
        st.lists(st.sampled_from(FLAGS), max_size=2, unique=True),
        st.lists(st.sampled_from(FLAGS + ["totally_real"]), min_size=1, max_size=2, unique=True),
    ),
    mostly(st.just([]), st.lists(junk_lines, min_size=1, max_size=1)),
    st.booleans(),
)


def encode(lines: list[str], bad: bytes, at: int) -> bytes:
    """The dataset file: the lines as UTF-8 with `bad` spliced in at `at`."""
    raw = "\n".join(lines).encode()
    return raw[:at] + bad + raw[at:]


# b"" keeps the file valid UTF-8
datasets = st.builds(
    encode,
    mostly(structured, st.lists(junk_lines, max_size=8)),
    mostly(st.just(b""), st.sampled_from([b"\xff\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80"])),
    st.integers(0, 300),
)
primes = mostly(
    st.just("7"),
    st.sampled_from(["11", "19", "13", "5", "3", "2", "1", "0", "-7", "6", "x", "",
                     "2305843009213693951"]),
)
roots = mostly(
    st.just("all"),
    st.sampled_from(["0", "1", "3", "4", "6", "7", "-1", "x", "", str(10**400)]),
)
formats = mostly(st.sampled_from(["text", "json"]), st.sampled_from(["xml", ""]))
# where --out points, inside the case's own directory
outs = mostly(
    st.sampled_from([None, None, None, "report.out"]),
    st.sampled_from(["missing/report.out", "."]),
)


SUMMARY = re.compile(r"\n\n\d+ certificate\(s\): \d+ LARGE_IMAGE, [1-9]\d* INCONCLUSIVE\n\Z")


def inconclusive_report(text: str) -> bool:
    """text is a whole text or JSON report with an INCONCLUSIVE certificate."""
    if SUMMARY.search(text):
        return True
    try:
        tree = json.loads(text)
    except ValueError:
        return False
    return (
        text.endswith("}\n") and tree["format"] == REPORT_FORMAT
        and any(c["verdict"] == "INCONCLUSIVE" for c in tree["certificates"])
    )


def check_outcome(res, directory: Path) -> None:
    assert res.exit_code in (0, 1, 2), (res.exit_code, res.stderr)
    assert res.exception is None, res.exception
    if res.exit_code == 1:
        assert res.stderr.startswith("error: "), res.stderr
        assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n"), res.stderr
    if res.exit_code == 2:
        written = [res.stdout] + [
            f.read_text(encoding="utf-8", errors="replace")
            for f in directory.rglob("*") if f.is_file()
        ]
        assert any(map(inconclusive_report, written)), (res.stdout, res.stderr)


SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)


def test_every_input_ends_with_an_exit_code_and_at_most_one_error_line():
    exits = Counter()

    @SETTINGS
    @given(data=datasets, prime=primes, root=roots, fmt=formats, out=outs)
    def case(data, prime, root, fmt, out):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.dataset"
            path.write_bytes(data)
            args = ["certify", str(path), "--prime", prime, "--root", root, "--format", fmt]
            if out is not None:
                args += ["--out", str(Path(tmp) / out)]
            res = invoke(args)
            check_outcome(res, Path(tmp))
            exits[res.exit_code] += 1

    case()
    # the strategies are biased so that certify and the renderers see at
    # least a third of the cases (exit 0 or 2), not just the input checks
    assert 3 * (exits[0] + exits[2]) >= sum(exits.values()), exits


# argv-level junk on a well-formed command line over a bundled dataset
# (the paper's table certifies, both controls end INCONCLUSIVE): unknown
# options and commands, a dropped INPUT, extra or repeated arguments
BUNDLED = resources.files("gspcert") / "datasets"
ARGV_TOKENS = [
    "certify", "frobnicate", "--bogus", "-z", "--prime", "-p", "--root", "--format", "--out",
    "--help", "--", "-", "--prime=7", "--root=all", "--format=json", "case.dataset", "7", "1",
    "all", "json", "text", "out.txt",
]
argv_tokens = st.one_of(
    st.sampled_from(ARGV_TOKENS), st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
)
edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 9), argv_tokens),
    max_size=3,
)
command_lines = st.builds(
    lambda fmt, root, out: ["certify", "case.dataset", "--format", fmt, "--root", root, *out],
    st.sampled_from(["text", "json"]),
    st.sampled_from(["all", "1", "3"]),
    st.sampled_from([[], ["--out", "report.out"]]),
)


def apply_edits(args: list[str], edits) -> list[str]:
    args = list(args)
    for kind, at, token in edits:
        at %= len(args) + 1
        if kind == "insert":
            args.insert(at, token)
        elif args and kind == "delete":
            del args[at % len(args)]
        elif args:
            args[at % len(args)] = token
    return args


@settings(SETTINGS, max_examples=150)
@given(
    dataset=st.sampled_from(["weight28_level1", "weight28_level1_a3zero", "weight28_level1_fully_split"]),
    args=command_lines,
    edits=edits,
)
def test_argv_junk_exits_one_with_one_error_line_never_two_without_a_report(dataset, args, edits):
    with tempfile.TemporaryDirectory() as tmp, working_directory(tmp):
        shutil.copy(BUNDLED / f"{dataset}.dataset", "case.dataset")
        res = invoke(apply_edits(args, edits))
        check_outcome(res, Path(tmp))
