"""Tests for dataset ingestion and the certify command."""
from __future__ import annotations

import ast
import errno
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import gspcert
from cli_runner import invoke
from gspcert.cli import main
from gspcert.eigen_data import DatasetError, ingest
from gspcert.report import REPORT_FORMAT
from test_reference_modules import names_used, unused_definitions

DATASETS = resources.files("gspcert") / "datasets"
PAPER = str(DATASETS / "weight28_level1.dataset")
A3ZERO = str(DATASETS / "weight28_level1_a3zero.dataset")
SPLIT = str(DATASETS / "weight28_level1_fully_split.dataset")

CHECK_NAMES = (
    "linear_constituent",
    "rational_22_split",
    "conjugate_22_split",
    "primitivity",
    "exceptional",
    "multiplier_surjective",
)


# names the standard library calls on a package object
HOOKS = {
    "_make": "NamedTuple's _replace builds the edited copy through it",
    "error": "argparse reports a usage error through it",
}


def package_unused(sources: dict[str, str], public: list[str]) -> set[tuple[str, str]]:
    """(module, name) for each def and class of the package sources with no
    use: the rule for the tests' reference maths (unused_definitions), with
    the public names, main, the hooks and module-level code as its roots."""
    roots = {*public, "main", *HOOKS}
    for source in sources.values():
        roots |= names_used(ast.parse(source))
    return unused_definitions(sources, roots)


def package_sources() -> dict[str, str]:
    """The source of each module of the package, by module name."""
    return {path.stem: path.read_text()
            for path in sorted(Path(gspcert.__file__).parent.glob("*.py"))}


def unread_parameters(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for each parameter, self and cls
    aside, of a def or lambda in the package sources that its body never
    reads."""
    unread = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread |= {(module, name, a) for a in params if a not in read | {"self", "cls"}}
    return unread


def repeated_raises(sources: dict[str, str]) -> dict[str, list[tuple[str, int]]]:
    """Each exception expression that two or more raise statements of the
    package sources build, compared by ast.unparse, with the (module, line)
    of each: a refusal with more than one home."""
    homes: dict[str, list[tuple[str, int]]] = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                homes.setdefault(ast.unparse(node.exc), []).append((module, node.lineno))
    return {exc: sorted(where) for exc, where in homes.items() if len(where) > 1}


def run_python(*args: str, stdout=subprocess.PIPE, timeout: float = 120
               ) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the gspcert under test; stdout
    is captured unless another target is given."""
    src = str(Path(gspcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        timeout=timeout,
    )


class TestIngest:
    def test_nul_in_the_path_is_one_dataset_error_naming_it(self):
        # no regular file has such a path, which open() would refuse with
        # ValueError, not OSError
        with pytest.raises(DatasetError) as err:
            ingest("a\0b.dataset")
        assert str(err.value) == "no such dataset file: a\0b.dataset"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_is_refused_without_reading_it(self, tmp_path):
        # a read of a FIFO blocks until a writer opens it: run each in a fresh
        # interpreter, where a read that blocks fails at the timeout
        fifo = str(tmp_path / "fifo.dataset")
        os.mkfifo(fifo)
        lib = run_python("-c", (
            "from gspcert import DatasetError, ingest\n"
            f"try:\n    ingest({fifo!r})\nexcept DatasetError as exc:\n    print(exc)\n"
        ), timeout=30)
        assert (lib.stdout, lib.stderr) == (f"no such dataset file: {fifo}\n", "")
        command = run_python("-m", "gspcert", "certify", fifo, timeout=30)
        assert command.returncode == 1
        assert command.stderr == f"error: no such dataset file: {fifo}\n"

    def test_bundled_dataset(self):
        ds = ingest(PAPER)
        assert ds.weight == 28
        assert ds.level == 1
        assert ds.defining_poly == (-59412960, -294086, -1, 1)
        assert ds.assumptions == frozenset({"not_maass_spezialform", "conductor_one"})
        assert ds.eigenvalues == {
            2: (4,), 4: (5,), 3: (3,), 9: (2,), 5: (1,), 25: (2,),
        }

    def test_control_datasets_differ_only_in_eigenvalues(self):
        base, a3, split = ingest(PAPER), ingest(A3ZERO), ingest(SPLIT)
        assert a3.defining_poly == split.defining_poly == base.defining_poly
        assert a3.eigenvalues[3] == (0,)
        assert {k: v for k, v in a3.eigenvalues.items() if k != 3} == {
            k: v for k, v in base.eigenvalues.items() if k != 3
        }
        assert split.eigenvalues == {
            2: (0,), 4: (1,), 3: (6,), 9: (1,), 5: (4,), 25: (1,),
        }

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "padded.dataset"
        path.write_text(
            "# leading comment\n"
            "\n"
            "weight 28   # trailing comment\n"
            "level 1\n"
            "   defining_poly -59412960 -294086 -1 1\n"
            "eigenvalue 2 4\n"
            "eigenvalue 4 5\n"
        )
        ds = ingest(str(path))
        assert ds.weight == 28
        assert ds.eigenvalues == {2: (4,), 4: (5,)}

    def test_multi_coefficient_eigenvalue(self, tmp_path):
        path = tmp_path / "alpha.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            "eigenvalue 2 1 1\neigenvalue 4 5\n"
        )
        assert ingest(str(path)).eigenvalues[2] == (1, 1)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("spin 3", "unknown directive"),
            ("eigenvalue 2 fourteen", "must be an integer"),
            ("defining_poly 4", "at least two"),
            ("eigenvalue 2", "index and at least one"),
            ("eigenvalue", "index and at least one"),
            ("weight 28 30", "weight takes exactly one integer"),
            ("level", "level takes exactly one integer"),
        ],
    )
    def test_malformed_line_reports_line_number(self, tmp_path, line, message):
        # a comment and a blank line before it: line 3 is the first directive,
        # so a weight or level line is refused for its arity, not as a duplicate
        path = tmp_path / "bad.dataset"
        path.write_text(f"# malformed\n\n{line}\n")
        with pytest.raises(DatasetError, match=message) as err:
            ingest(str(path))
        assert "line 3" in str(err.value)

    def test_only_newlines_end_a_line(self, tmp_path):
        # a form feed closing line 2 and a line separator inside line 3 are
        # whitespace within their lines: the bad directive is on line 4, the
        # line an editor shows, whether \n, \r\n or \r ends the lines
        for eol in ("\n", "\r\n", "\r"):
            path = tmp_path / "ff.dataset"
            path.write_bytes(eol.join(["weight 28", "level 1\f", "defining_poly 0\u2028 1",
                                       "spin 3", ""]).encode())
            with pytest.raises(DatasetError, match="line 4: unknown directive 'spin'$"):
                ingest(str(path))

    @pytest.mark.parametrize("first, second", [
        ("weight 28", "weight 30"), ("level 1", "level 1"),
        ("defining_poly 0 1", "defining_poly 1 1"),
    ], ids=["weight", "level", "defining_poly"])
    def test_duplicate_directive_rejected(self, tmp_path, first, second):
        path = tmp_path / "dup.dataset"
        path.write_text(f"{first}\n{second}\n")
        with pytest.raises(DatasetError, match=f"line 2: duplicate {first.split()[0]}$"):
            ingest(str(path))

    def test_duplicate_eigenvalue_index_rejected(self, tmp_path):
        path = tmp_path / "dup2.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly 0 1\n"
            "eigenvalue 2 4\neigenvalue 2 5\n"
        )
        with pytest.raises(DatasetError, match="duplicate eigenvalue"):
            ingest(str(path))

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "incomplete.dataset"
        path.write_text("level 1\ndefining_poly 0 1\neigenvalue 2 4\n")
        with pytest.raises(DatasetError, match="weight"):
            ingest(str(path))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.dataset"
        with pytest.raises(DatasetError) as err:
            ingest(path)
        assert str(err.value) == f"no such dataset file: {path}"

    def test_semantic_errors_carry_path(self, tmp_path):
        path = tmp_path / "incomplete_pair.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            "eigenvalue 3 3\n"
        )
        with pytest.raises(DatasetError, match="9") as err:
            ingest(str(path))
        assert str(path) in str(err.value)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.dataset"
        path.write_bytes("\ufeff".encode() + Path(PAPER).read_bytes())
        assert ingest(str(path)) == ingest(PAPER)

    def test_non_utf8_file_raises_dataset_error_with_path(self, tmp_path):
        path = tmp_path / "latin1.dataset"
        path.write_bytes(b"weight 28\n\xff\xfe level 1\n")
        with pytest.raises(DatasetError, match="not UTF-8") as err:
            ingest(str(path))
        assert str(path) in str(err.value)


class TestCertifyCommand:
    def test_single_root_large_image(self):
        res = invoke(["certify", PAPER, "--root", "1"])
        assert res.exit_code == 0
        assert "== certificate: p = 7, root = 1 ==" in res.stdout
        for name in CHECK_NAMES:
            assert f"[PASS] {name}" in res.stdout
        assert "[FAIL]" not in res.stdout
        assert "verdict: LARGE_IMAGE" in res.stdout
        # the assumptions block precedes the verdict
        assert res.stdout.index("assumptions:") < res.stdout.index("verdict:")

    def test_all_roots_in_factor_order(self):
        res = invoke(["certify", PAPER])
        assert res.exit_code == 0
        headers = [l for l in res.stdout.splitlines() if l.startswith("== certificate")]
        assert headers == [
            "== certificate: p = 7, root = 4 ==",
            "== certificate: p = 7, root = 3 ==",
            "== certificate: p = 7, root = 1 ==",
        ]
        assert "3 certificate(s): 3 LARGE_IMAGE, 0 INCONCLUSIVE" in res.stdout

    def test_a3_zero_control_is_inconclusive(self):
        res = invoke(["certify", A3ZERO, "--root", "1"])
        assert res.exit_code == 2
        assert "[FAIL] primitivity" in res.stdout
        assert "verdict: INCONCLUSIVE" in res.stdout

    def test_fully_split_control_is_inconclusive(self):
        res = invoke(["certify", SPLIT, "--root", "1"])
        assert res.exit_code == 2
        assert "[FAIL] linear_constituent" in res.stdout

    def test_json_reports_same_verdicts(self):
        res = invoke(["certify", PAPER, "--format", "json"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["format"] == REPORT_FORMAT
        assert [c["root"] for c in report["certificates"]] == [4, 3, 1]
        assert all(c["verdict"] == "LARGE_IMAGE" for c in report["certificates"])

        res2 = invoke(["certify", A3ZERO, "--format", "json"])
        assert res2.exit_code == 2
        report2 = json.loads(res2.stdout)
        assert all(c["verdict"] == "INCONCLUSIVE" for c in report2["certificates"])

    @pytest.mark.parametrize("fixture", [PAPER, A3ZERO, SPLIT])
    def test_text_and_json_report_identical_facts(self, fixture):
        text = invoke(["certify", fixture]).stdout
        report = json.loads(invoke(["certify", fixture, "--format", "json"]).stdout)
        for cert in report["certificates"]:
            assert f"== certificate: p = {cert['p']}, root = {cert['root']} ==" in text
            assert f"dataset sha256: {cert['dataset_sha256']}" in text
            for rec in cert["frobenius_records"]:
                assert f"q = {rec['q']}: {rec['charpoly_pretty']}" in text
                assert f"factorization: {rec['factorization']}" in text
            for check in cert["checks"]:
                tag = "PASS" if check["status"] == "pass" else "FAIL"
                witnesses = ", ".join(str(w) for w in check["witnesses"])
                suffix = f" (witnesses: {witnesses})" if witnesses else ""
                assert f"[{tag}] {check['name']}{suffix}" in text
            assert f"assumptions: {', '.join(cert['assumptions'])}" in text
            assert f"verdict: {cert['verdict']}" in text

    def test_out_writes_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        res = invoke(["certify", PAPER, "--format", "json", "--out", str(out)])
        assert res.exit_code == 0
        direct = invoke(["certify", PAPER, "--format", "json"]).stdout
        assert out.read_text() == direct

    def test_reports_are_byte_identical_across_runs(self):
        for fmt in ("text", "json"):
            a = invoke(["certify", PAPER, "--format", fmt])
            b = invoke(["certify", PAPER, "--format", fmt])
            assert a.stdout == b.stdout

    def test_q_equal_p_entries_skipped_with_warning(self, tmp_path):
        path = tmp_path / "with_p.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            "assumptions not_maass_spezialform conductor_one\n"
            "eigenvalue 2 4\neigenvalue 4 5\neigenvalue 3 3\neigenvalue 9 2\n"
            "eigenvalue 5 1\neigenvalue 25 2\neigenvalue 7 1\neigenvalue 49 1\n"
        )
        res = invoke(["certify", str(path), "--root", "1"])
        assert res.exit_code == 0
        assert "ignoring eigenvalues at q = 7" in res.stderr
        assert "q = 7:" not in res.stdout
        assert "verdict: LARGE_IMAGE" in res.stdout


class TestErrorExits:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["certify", "absent.dataset"], "no such dataset file"),
            (["certify", PAPER, "--root", "2"], "not a root"),
            (["certify", PAPER, "--root", "9"], "must lie in [0, 7)"),
            (["certify", PAPER, "--root", "x"], "integer or 'all'"),
            (["certify", PAPER, "--prime", "6"], "must be a prime"),
            (["certify", PAPER, "--prime", "11"], "table"),
            (["certify", PAPER, "--format", "xml"], "text or json"),
            (["certify", PAPER, "--prime", "15"], "must be a prime number, got 15"),
            # the options are checked before the dataset file
            (["certify", "absent.dataset", "--format", "xml"], "text or json"),
        ],
    )
    def test_usage_and_data_errors_exit_one(self, args, message):
        res = invoke(args)
        assert res.exit_code == 1
        assert message in res.stderr
        assert res.stdout == ""

    def test_parse_error_exits_one_with_line_number(self, tmp_path):
        path = tmp_path / "bad.dataset"
        path.write_text("weight 28\nlevel 1\nspin 3\n")
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert "line 3" in res.stderr

    def test_no_embedding_exits_one(self, tmp_path):
        path = tmp_path / "rootless.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly 1 0 1\n"
            "eigenvalue 2 4\neigenvalue 4 5\n"
        )
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert "no prime-field embedding" in res.stderr

    def test_huge_eigenvalue_index_exits_one_with_one_line(self, tmp_path):
        path = tmp_path / "huge.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            f"eigenvalue {10**400} 1\n"
        )
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert "neither a prime nor a prime square" in res.stderr

    @pytest.mark.parametrize("prime, message", [
        pytest.param("11", "no built-in exceptional-subgroup table", id="11"),
        pytest.param("100291", "no built-in exceptional-subgroup table", id="100291"),
        pytest.param("2305843009213693951", "above the supported 300000", id="2305843009213693951"),
    ])
    def test_unsupported_prime_fails_before_dataset_work(self, monkeypatch, prime, message):
        def unreachable(*args):
            raise AssertionError("dataset-derived work ran")

        monkeypatch.setattr("gspcert.cli.embedding_roots", unreachable)
        monkeypatch.setattr("gspcert.certifier.build_records", unreachable)
        res = invoke(["certify", PAPER, "--prime", prime])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert message in res.stderr

    def test_prime_checked_before_the_dataset_is_read(self, tmp_path):
        path = tmp_path / "bad.dataset"
        path.write_text("weight 28\nlevel 1\nspin 3\n")
        res = invoke(["certify", str(path), "--prime", "9"])
        assert res.exit_code == 1
        assert res.stderr == "error: --prime must be a prime number, got 9\n"

    def test_prime_past_the_primality_bound_exits_one_with_one_line(self):
        res = invoke(["certify", PAPER, "--prime", str(10**29 + 319)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert "too large" in res.stderr

    def test_30_digit_prime_eigenvalue_index_exits_one_with_one_line(self, tmp_path):
        q = 10**29 + 319
        path = tmp_path / "bigq.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            f"eigenvalue {q} 1\neigenvalue {q * q} 1\n"
        )
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1

    def test_non_utf8_dataset_exits_one_with_one_line(self, tmp_path):
        path = tmp_path / "latin1.dataset"
        path.write_bytes(b"weight 28\n\xff\xfe level 1\n")
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert res.stderr == f"error: {path}: not UTF-8 text (byte 10)\n"

    @pytest.mark.parametrize("target, reason", [
        ("missing/report.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("nul\0byte", "embedded null byte"),
    ], ids=["missing-directory", "directory", "nul-byte"])
    def test_unwritable_out_exits_one_with_one_line(self, tmp_path, target, reason):
        out = tmp_path / target
        res = invoke(["certify", PAPER, "--out", str(out)])
        assert res.exit_code == 1
        assert res.stderr == f"error: {out}: {reason}\n"
        assert res.stdout == ""

    def test_q_equal_p_warning_not_added_to_an_error(self, tmp_path):
        path = tmp_path / "rootless_with_p.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly 1 0 1\n"
            "eigenvalue 2 4\neigenvalue 4 5\neigenvalue 7 1\neigenvalue 49 1\n"
        )
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert res.stderr.count("\n") == 1
        assert "no prime-field embedding" in res.stderr

    def test_only_q_equal_p_data_exits_one(self, tmp_path):
        path = tmp_path / "pdata.dataset"
        path.write_text(
            "weight 28\nlevel 1\ndefining_poly -59412960 -294086 -1 1\n"
            "eigenvalue 7 1\neigenvalue 49 1\n"
        )
        res = invoke(["certify", str(path), "--root", "1"])
        assert res.exit_code == 1
        assert "no Frobenius data" in res.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (["certify", "--bogus", "x", PAPER], "unrecognized arguments: --bogus"),
            (["certify"], "the following arguments are required: INPUT"),
            (["frobnicate"], "argument COMMAND: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: COMMAND"),
            (["--bogus", "certify", PAPER], "unrecognized arguments: --bogus"),
            (["certify", PAPER, "extra"], "unrecognized arguments: extra"),
            (["certify", PAPER, "--root"], "argument --root: expected one argument"),
            (["certify", PAPER, "--root", "abc"], "--root must be an integer or 'all', got 'abc'"),
            (["certify", PAPER, "--format", "xml"], "--format must be text or json, got 'xml'"),
        ],
        ids=["unknown-option", "no-input", "unknown-command", "no-command",
             "unknown-group-option", "extra-argument", "option-without-value", "root-abc",
             "format-xml"],
    )
    def test_usage_errors_exit_one_with_one_error_line(self, args, message):
        # usage errors, in argparse's wording (the test keeps the name it had
        # under click): exit 2 would read as INCONCLUSIVE, and the usage text
        # is not printed
        res = invoke(args)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert message in res.stderr
        assert res.stdout == ""
        assert res.exception is None

    @pytest.mark.parametrize("args", [["--help"], ["certify", "--help"]])
    def test_help_exits_zero(self, args):
        res = invoke(args)
        assert res.exit_code == 0
        assert res.stdout.startswith("usage: gspcert ")
        assert res.stderr == ""

    def test_line_breaks_in_a_message_stay_on_one_line(self):
        res = invoke(["certify", "no\nsuch\r\n.dataset"])
        assert res.exit_code == 1
        assert res.stderr == "error: no such dataset file: no\\nsuch\\n.dataset\n"

    def test_defining_poly_at_the_degree_cap_finishes(self, tmp_path):
        # x times a random monic of degree 127: a root at 0, so it certifies
        rng = random.Random(128)
        e = [0, *(rng.randrange(-50, 50) for _ in range(127)), 1]
        path = tmp_path / "cap.dataset"
        path.write_text(
            f"weight 28\nlevel 1\ndefining_poly {' '.join(map(str, e))}\n"
            "eigenvalue 2 4\neigenvalue 4 5\neigenvalue 3 3\neigenvalue 9 2\n"
        )
        start = time.perf_counter()
        res = invoke(["certify", str(path)])
        assert res.exit_code in (0, 2)
        assert time.perf_counter() - start < 5
        assert "== certificate: p = 7, root = 0 ==" in res.stdout

    def test_defining_poly_above_the_degree_cap_exits_one_with_one_line(self, tmp_path):
        path = tmp_path / "toobig.dataset"
        path.write_text(
            f"weight 28\nlevel 1\ndefining_poly {' 1' * 129} 1\n"
            "eigenvalue 2 4\neigenvalue 4 5\n"
        )
        res = invoke(["certify", str(path)])
        assert res.exit_code == 1
        assert res.stderr == (
            f"error: {path}: defining polynomial has degree 129, above the supported 128\n"
        )


class TestFreshInterpreter:
    def test_python_dash_m_gspcert(self):
        res = run_python("-m", "gspcert", "certify", PAPER)
        assert res.returncode == 0
        assert res.stderr == ""
        assert "3 certificate(s): 3 LARGE_IMAGE, 0 INCONCLUSIVE" in res.stdout

    def test_package_exports_the_cli_names(self):
        # the package takes them from the library; the command takes the five
        # it calls by name, which the benchmark calls and rebinds as
        # gspcert.cli.X, and defines nothing but the command
        res = run_python("-c", (
            "import gspcert, gspcert.cli, gspcert.eigen_data, gspcert.report\n"
            "homes = {'DatasetError': gspcert.eigen_data, 'ingest': gspcert.eigen_data,"
            " 'render_json': gspcert.report, 'render_text': gspcert.report}\n"
            "print(all(getattr(gspcert, name) is getattr(home, name)"
            " for name, home in homes.items()))\n"
            "print(all(getattr(gspcert.cli, name) is getattr(gspcert, name) for name in"
            " ('ingest', 'embedding_roots', 'certify', 'render_json', 'render_text')))\n"
            "print(sorted(name for name, value in vars(gspcert.cli).items()"
            " if getattr(value, '__module__', None) == 'gspcert.cli'))\n"
            "from gspcert import *\n"
            "print(all(name in globals() for name in gspcert.__all__))\n"
        ))
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            "True\nTrue\n['_Parser', '_certify_command', '_fail', '_parser', 'main']\nTrue\n"
        )

    @pytest.mark.parametrize("module", ["gspcert.cli", "gspcert"])
    def test_import_loads_no_click_dataclasses_or_reference_maths(self, module):
        # the command's start-up: click, dataclasses (with inspect) and the
        # tests' reference maths stay off the import path; the library's
        # loads no command line either
        absent = ("click", "dataclasses", "inspect", "gspcert.symplectic", "symplectic", "oracles")
        if module == "gspcert":
            absent += ("gspcert.cli", "argparse")
        res = run_python("-c", (
            f"import sys, {module}\n"
            f"print(sorted(m for m in {absent!r} if m in sys.modules))\n"
        ))
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    @pytest.mark.parametrize("args, stderr", [
        (["certify", "nöpe.dataset"], "error: no such dataset file: n\\xf6pe.dataset\n"),
        (["certify", PAPER, "--out", "nöpe/report.txt"],
         "error: n\\xf6pe/report.txt: No such file or directory\n"),
    ], ids=["input", "out"])
    def test_non_ascii_paths_on_an_ascii_stderr_give_one_error_line(self, tmp_path, args, stderr):
        # stderr escapes what its encoding cannot write, so no traceback
        res = subprocess.run(
            [sys.executable, "-m", "gspcert", *args], capture_output=True, text=True,
            cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONIOENCODING": "ascii",
                 "PYTHONPATH": str(Path(gspcert.__file__).resolve().parents[1])},
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == stderr

    @pytest.mark.parametrize("target, errnum", [
        ("closed-pipe", errno.EPIPE),
        pytest.param("/dev/full", errno.ENOSPC, marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full device")),
    ], ids=["closed-pipe", "dev-full"])
    def test_unwritable_stdout_exits_one_with_one_line(self, target, errnum):
        if target == "closed-pipe":
            read_end, fd = os.pipe()
            os.close(read_end)  # every write to the pipe now fails with EPIPE
        else:
            fd = os.open(target, os.O_WRONLY)
        try:
            res = run_python("-m", "gspcert", "certify", PAPER, stdout=fd)
        finally:
            os.close(fd)
        # one line: no traceback, and no "Exception ignored" from the exit flush
        assert res.returncode == 1
        assert res.stderr == f"error: stdout: {os.strerror(errnum)}\n"

    def test_package_getattr_rejects_other_names(self):
        with pytest.raises(AttributeError):
            gspcert.no_such_name  # noqa: B018
        from gspcert import cli

        assert cli.main is main

    def test_certificates_load_every_package_module_and_no_other(self):
        # every module of the package but the command's two (__main__ and
        # cli) is on the library's certify path: none is there for the tests
        # alone, and none loads the command; and the tests' reference maths,
        # importable here, is not: no F_{p^e} element, 4x4 matrix or slow
        # oracle stands behind a certificate
        res = run_python("-c", (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from gspcert import certify, embedding_roots, ingest, render_json, render_text\n"
            f"for path in {[PAPER, A3ZERO, SPLIT]!r}:\n"
            "    ds = ingest(path)\n"
            "    certs = [certify(ds, 7, r) for r in embedding_roots(ds.defining_poly, 7)]\n"
            "    render_json(certs), render_text(certs)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gspcert'))\n"
            "print(sorted(m for m in ('symplectic', 'oracles') if m in sys.modules))\n"
        ))
        assert res.returncode == 0, res.stderr
        stems = {path.stem for path in Path(gspcert.__file__).parent.glob("*.py")}
        stems -= {"__main__", "cli"}
        expected = sorted("gspcert" if s == "__init__" else f"gspcert.{s}" for s in stems)
        assert res.stdout == f"{expected!r}\n[]\n"


class TestPublicApi:
    def test_all_is_the_readme_list(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        items = re.findall(r"^- (.*(?:\n  .*)*)", section, re.MULTILINE)
        listed = [name for item in items for name in re.findall(r"`([\w.]+)`", item)]
        assert sorted(listed) == sorted(gspcert.__all__)
        assert len(set(listed)) == len(listed)

    def test_every_package_definition_has_a_use(self):
        # code that only the tests use lives in tests/
        assert package_unused(package_sources(), gspcert.__all__) == set()

    def test_every_parameter_is_read(self):
        # a parameter no body reads is generality no caller can use
        assert unread_parameters(package_sources()) == set()

    def test_each_refusal_is_raised_in_one_place(self):
        # an input rule has one home, at the door where the input enters,
        # and no re-check behind it
        assert repeated_raises(package_sources()) == {}

    def test_a_raise_built_twice_is_repeated(self):
        source = (
            "def f(p):\n    if p:\n        raise ValueError(f'{p} is bad')\n    raise\n\n"
            "def g(p):\n    raise ValueError(f'{p} is bad')\n\n"
            "def h(q):\n    raise ValueError(f'{q} is bad')\n    raise\n"
        )
        repeated = {"ValueError(f'{p} is bad')": [("mod", 3), ("mod", 7)]}
        assert repeated_raises({"mod": source}) == repeated

    def test_a_parameter_only_written_or_passed_on_by_name_is_unread(self):
        source = (
            "class C:\n    def m(self, a, *rest, k=0, **kw):\n        a = 1\n\n"
            "def f(x, y):\n    return g(y=x)\n\n"
            "def h(z):\n    return lambda w: z\n"
        )
        unread = {("mod", "m", n) for n in ("a", "rest", "k", "kw")}
        unread |= {("mod", "f", "y"), ("mod", "<lambda>", "w")}
        assert unread_parameters({"mod": source}) == unread

    def test_a_helper_called_only_by_an_unused_helper_has_no_use(self):
        source = (
            "def entry():\n    return _kept()\n\n"
            "def _kept():\n    return 1\n\n"
            "def _orphan():\n    return _helper()\n\n"
            "def _helper():\n    return 2\n"
        )
        unused = {("mod", "_orphan"), ("mod", "_helper")}
        assert package_unused({"mod": source}, ["entry"]) == unused
