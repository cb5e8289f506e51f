"""One benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-only
    python3 perfbench/workload.py --record-golden

Every workload is a closed loop with one client: the next op starts when
the previous one has returned and passed the gate.  The last line printed
is a JSON object that run.py reads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from datagen import (
    DEFAULT_SEED,
    P19_EXCEPTIONAL,
    SPECS,
    Dataset,
    generate,
    parse_dataset,
    simple_roots,
)
from reportgate import (
    LARGE_IMAGE,
    GateError,
    check_exit_code,
    check_json_report,
    check_text_report,
)
from spans import Span, Tracer, load

T0 = time.perf_counter()  # workload start: set-up is timed from here
T0_WALL = time.time_ns()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_sha256.json"
WORK = HERE / "_work"
CLI_DATASETS = (
    "weight28_level1.dataset",
    "weight28_level1_a3zero.dataset",
    "weight28_level1_fully_split.dataset",
)
CLI_P = 7
CLI_TIMEOUT_S = 60
Q_EQUALS_P_WARNING = "warning: ignoring eigenvalues at q = "
WORKLOADS = ("cli_p7",) + tuple(SPECS)


class Digests:
    """Byte-level gate: each op key must give the same report every time
    and, where golden_sha256.json records one, that digest."""

    def __init__(self, golden: dict[str, str] | None):
        self.golden = golden
        self.seen: dict[str, tuple[str, list[str]]] = {}

    def check(self, key: str, report: str, full_check) -> list[str]:
        """Return the report's verdicts; full_check runs once per key."""
        digest = hashlib.sha256(report.encode()).hexdigest()
        if key in self.seen:
            first, verdicts = self.seen[key]
            if digest != first:
                raise GateError(f"{key}: report bytes changed between ops")
            return verdicts
        if self.golden is not None and self.golden.get(key) != digest:
            raise GateError(f"{key}: report differs from the recorded sha256")
        verdicts = full_check()
        self.seen[key] = (digest, verdicts)
        return verdicts

    def output_sha256(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.seen):
            h.update(f"{key} {self.seen[key][0]}\n".encode())
        return h.hexdigest()

    def large_image_frac(self) -> float:
        verdicts = [v for _, vs in self.seen.values() for v in vs]
        return verdicts.count(LARGE_IMAGE) / len(verdicts)


@dataclass(frozen=True)
class Op:
    key: str
    ds: Dataset
    path: Path
    root: int | None = None  # None: every embedding root (the CLI's --root all)
    fmt: str = "json"


class LibWorkload:
    """Warm certify() + render_json in this process on seeded datasets.

    The public functions are called through the gspcert.cli namespace,
    where the tracer rebinds them, so a traced op is the same call."""

    def __init__(self, name: str, seed: int, workdir: Path, tracer: Tracer | None,
                 golden: dict[str, str] | None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.digests = Digests(golden)
        self.p = SPECS[name].p

    def setup(self) -> None:
        t = time.perf_counter()
        from gspcert import ExceptionalTable, cli

        self.import_ms = (time.perf_counter() - t) * 1e3
        self.cli = cli
        self.table = ExceptionalTable(self.p, P19_EXCEPTIONAL) if self.p == 19 else None
        if self.tracer:
            self.tracer.install()
        self.workdir.mkdir(parents=True)
        self.ops = []
        self.loaded = {}
        for ds in generate(self.name, self.seed):
            path = self.workdir / f"{ds.name}.dataset"
            path.write_text(ds.text())
            loaded = cli.ingest(path)
            roots = sorted(r.lift() for r in cli.embedding_roots(loaded.defining_poly, self.p))
            if roots != simple_roots(ds.defining_poly, self.p):
                raise GateError(f"{ds.name}: embedding roots {roots} are wrong")
            self.loaded[ds.name] = loaded
            self.ops += [Op(f"{ds.name}:{r}", ds, path, r) for r in roots]
        attempt(self, self.ops[0])  # untimed warm-up at p: builds the F_{p^4} tables
        if self.tracer:
            self.tracer.uninstall()

    def run(self, op: Op) -> str:
        cert = self.cli.certify(self.loaded[op.ds.name], self.p, op.root, self.table)
        return self.cli.render_json([cert])

    def gate(self, op: Op, report: str) -> None:
        full = partial(check_json_report, report, op.ds, self.p, [op.root])
        self.digests.check(op.key, report, full)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliWorkload:
    """`gspcert certify` as a child process, one child at a time."""

    p = CLI_P

    def __init__(self, name: str, seed: int, workdir: Path, tracer: Tracer | None,
                 golden: dict[str, str] | None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.digests = Digests(golden)
        self.children: dict[int, dict] = {}  # traced op tag -> what the child recorded

    def setup(self) -> None:
        ops = []
        for filename in CLI_DATASETS:
            path = SRC / "gspcert" / "datasets" / filename
            ds = parse_dataset(filename, path.read_text())
            ops += [Op(f"{filename}/{fmt}", ds, path, fmt=fmt) for fmt in ("text", "json")]
        random.Random(f"{self.name}:{self.seed}").shuffle(ops)
        self.ops = ops
        self.workdir.mkdir(parents=True)
        warm = next(op for op in ops if op.fmt == "json")
        attempt(self, warm)  # untimed warm-up: file cache and byte-compiled modules

    def run(self, op: Op) -> tuple[str, str, int]:
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        trace_path = None
        if self.tracer and self.tracer.op is not None:
            trace_path = self.workdir / f"trace-{self.tracer.op}.json"
            cmd += ["--trace-out", str(trace_path)]
        cmd += ["certify", str(op.path), "--prime", str(self.p), "--root", "all",
                "--format", op.fmt]
        spawned = time.time_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if trace_path is not None:
            child = json.loads(trace_path.read_text())
            child["process_start_ns"] = child["t0"] - spawned
            child["spans"] = load(child["spans"])
            self.children[self.tracer.op] = child
        return proc.stdout, proc.stderr, proc.returncode

    def gate(self, op: Op, result: tuple[str, str, int]) -> None:
        report, stderr, code = result
        noise = [ln for ln in stderr.splitlines() if not ln.startswith(Q_EQUALS_P_WARNING)]
        if noise:
            raise GateError(f"{op.key}: unexpected stderr {noise[:3]}")
        roots = simple_roots(op.ds.defining_poly, self.p)
        if op.fmt == "json":
            full = partial(check_json_report, report, op.ds, self.p, roots)
        else:
            full = partial(check_text_report, report, len(roots))
        check_exit_code(code, self.digests.check(op.key, report, full))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def golden_for(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded report digests: for the default seed, and for every
    seed of cli_p7, whose inputs the seed only reorders."""
    if seed != DEFAULT_SEED and workload != "cli_p7":
        return None
    return json.loads(GOLDEN.read_text())[workload]


def attempt(wl, op: Op) -> tuple[int, int]:
    """Run and gate one op; return (wall ns of the op, report bytes).
    Raises GateError or whatever the program raised."""
    t = time.perf_counter_ns()
    result = wl.run(op)
    ns = time.perf_counter_ns() - t
    wl.gate(op, result)
    report = result if isinstance(result, str) else result[0]
    return ns, len(report.encode())


class Loop:
    """Closed-loop op runner that counts attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def one(self, op: Op) -> tuple[int, int] | None:
        self.attempted += 1
        try:
            return attempt(self.wl, op)
        except Exception as exc:  # a failed op is counted, reported and skipped
            self.failed += 1
            if self.failed <= 3:
                print(f"op {op.key} failed: {exc!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None

    def timed(self, seconds: float) -> tuple[dict[str, list[int]], float]:
        """Cycle through the ops for `seconds`, and at least one full pass;
        return the wall ns of each op by input, and the loop's wall time."""
        ops = self.wl.ops
        lat: dict[str, list[int]] = {}
        start = time.perf_counter()
        i = 0
        while i < len(ops) or time.perf_counter() - start < seconds:
            op = ops[i % len(ops)]
            done = self.one(op)
            i += 1
            if done is not None:
                lat.setdefault(op.key, []).append(done[0])
        return lat, time.perf_counter() - start


def percentile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def plain_run(wl, seconds: float) -> dict:
    """latency_ms_p50 is the median over inputs of each input's mean op
    time: averaging an input's repeats first keeps the median from jumping
    when the host's speed changes during the run."""
    loop = Loop(wl)
    by_input, wall = loop.timed(seconds)
    if not by_input:
        raise GateError("every op failed")
    lat = [ns for times in by_input.values() for ns in times]
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "latency_ms_p50": statistics.median(map(statistics.fmean, by_input.values())) / 1e6,
        "latency_ms_p90": percentile(lat, 0.9) / 1e6 if len(lat) >= 100 else None,
        "ops": len(lat),
        "throughput_ops_s": len(lat) / wall,
        "peak_rss_mb": wl.peak_rss_kb() / 1024,
        "large_image_frac": wl.digests.large_image_frac(),
        "output_sha256": wl.digests.output_sha256(),
        "reports": len(wl.digests.seen),
    }


def traced_run(wl, seconds: float, process_start_ms: float) -> dict:
    """Whole passes over the ops for `seconds`, each op run untraced (the
    overhead baseline) and then traced, so both see the same host speed."""
    loop = Loop(wl)
    tracer = wl.tracer
    lib = isinstance(wl, LibWorkload)
    untraced: list[int] = []
    traced: list[tuple[int, int, int]] = []  # (op tag, wall ns, report bytes)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in wl.ops:
            done = loop.one(op)
            if done is not None:
                untraced.append(done[0])
            tracer.op = loop.attempted
            if lib:
                tracer.install()
            done = loop.one(op)
            if lib:
                tracer.uninstall()
            if done is not None:
                traced.append((tracer.op, *done))
            tracer.op = None
        passes += 1
    if not traced or not untraced:
        raise GateError("every traced or untraced op failed")

    if isinstance(wl, CliWorkload):
        children = [wl.children[tag] for tag, _, _ in traced]
        op_spans = [c["spans"] for c in children]
        cold = op_spans
        extra = {
            "cli.process_start_ms": statistics.fmean(c["process_start_ns"] for c in children) / 1e6,
            "cli.import_ms": statistics.fmean(c["import_ns"] for c in children) / 1e6,
        }
    else:
        by_op: dict[int, list[Span]] = {}
        for span in tracer.spans:
            by_op.setdefault(span.op, []).append(span)
        op_spans = [by_op.get(tag, []) for tag, _, _ in traced]
        cold = [by_op.get(None, [])]
        extra = {
            "cli.process_start_ms": process_start_ms,
            "cli.import_ms": wl.import_ms,
            "cli.ingest_ms": mean_ms(cold[0], "cli.ingest"),
            "eigen_data.embedding_roots_ms": mean_ms(cold[0], "eigen_data.embedding_roots"),
        }
    metrics = layer_metrics(op_spans, cold, [t[1] for t in traced], [t[2] for t in traced],
                            wl.p, statistics.median(untraced))
    metrics.update(extra)
    return {"attempted": loop.attempted, "failed": loop.failed, "layers": metrics,
            "output_sha256": wl.digests.output_sha256(), "reports": len(wl.digests.seen)}


# layers timed inside each op: reported as ms per op and as a share of op time
OP_LAYERS = (
    "cli.render_text",
    "cli.render_json",
    "eigen_data.specialize",
    "eigen_data.hecke_quartic",
    "polynomial.factor",
    "polynomial.roots_in_base",
    "polynomial.roots_in_ext",
    "symplectic.projective_order",
    "certifier.build_records",
    "certifier.check.linear_constituent",
    "certifier.check.rational_22_split",
    "certifier.check.conjugate_22_split",
    "certifier.check.primitivity",
    "certifier.check.exceptional",
    "certifier.check.multiplier_surjective",
    "certifier.certify",
    "certifier.self",
)


def mean_ms(spans: list[Span], name: str) -> float:
    times = [s.ns for s in spans if s.name == name]
    return statistics.fmean(times) / 1e6 if times else 0.0


def layer_metrics(op_spans, cold, op_ns, op_bytes, p, untraced_p50_ns) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced ops.  cold lists the
    spans of each fresh process's first certificates (make_field and the
    first F_{p^4} scan, which builds the lazy tables)."""
    n = len(op_spans)
    total_ns = sum(op_ns)
    layer_ns = dict.fromkeys(OP_LAYERS + ("cli.ingest", "eigen_data.embedding_roots"), 0)
    calls = {"eigen_data.hecke_quartic": 0, "polynomial.factor": 0,
             "polynomial.roots_in_ext": 0, "symplectic.projective_order": 0}
    matrix_products = 0
    for spans in op_spans:
        for s in spans:
            if s.name in layer_ns:
                layer_ns[s.name] += s.ns
            if s.name in calls:
                calls[s.name] += 1
            if s.name == "certifier.certify":
                layer_ns["certifier.self"] += s.self_ns
            elif s.name == "symplectic.projective_order":
                matrix_products += s.value
    out: dict[str, float] = {}
    for name in OP_LAYERS:
        out[f"{name}_ms"] = layer_ns[name] / n / 1e6
        out[f"{name}_share"] = layer_ns[name] / total_ns
    out["cli.ingest_ms"] = layer_ns["cli.ingest"] / n / 1e6
    out["eigen_data.embedding_roots_ms"] = layer_ns["eigen_data.embedding_roots"] / n / 1e6
    out["finite_field.make_field_ms"] = statistics.fmean(
        sum(s.ns for s in spans if s.name == "finite_field.make_field") for spans in cold
    ) / 1e6
    out["finite_field.ext_first_scan_ms"] = statistics.fmean(
        next((s.ns for s in spans if s.name == "polynomial.roots_in_ext"), 0) for spans in cold
    ) / 1e6
    records = calls["eigen_data.hecke_quartic"]
    out["cli.report_bytes"] = sum(op_bytes) / n
    out["eigen_data.records_per_op"] = records / n
    out["eigen_data.squarefree_frac"] = calls["symplectic.projective_order"] / records
    out["polynomial.factor_calls"] = calls["polynomial.factor"] / n
    out["polynomial.roots_in_ext_calls"] = calls["polynomial.roots_in_ext"] / n
    out["finite_field.ext_elements_scanned"] = calls["polynomial.roots_in_ext"] * (p**4 - 1) / n
    out["symplectic.matrix_products"] = matrix_products / n
    out["trace.overhead_frac"] = statistics.median(op_ns) / untraced_p50_ns - 1
    return out


def record_golden() -> None:
    """Write the sha256 of every default-seed report to golden_sha256.json."""
    golden = {}
    for name in WORKLOADS:
        workdir = WORK / f"golden-{name}-{os.getpid()}"
        try:
            wl = make_workload(name, DEFAULT_SEED, workdir, None, golden=None)
            for op in wl.ops:
                attempt(wl, op)
            golden[name] = {key: d for key, (d, _) in sorted(wl.digests.seen.items())}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def make_workload(name, seed, workdir, tracer, golden):
    """Set up one workload, including its untimed warm-up op."""
    sys.path.insert(0, str(SRC))
    cls = CliWorkload if name == "cli_p7" else LibWorkload
    wl = cls(name, seed, workdir, tracer, golden)
    wl.setup()
    return wl


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-ns", type=int, default=T0_WALL)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if args.record_golden:
        record_golden()
        return 0
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        wl = make_workload(args.workload, args.seed, workdir, tracer,
                           golden_for(args.workload, args.seed))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            result = {}
        elif args.trace:
            result = traced_run(wl, args.seconds, (T0_WALL - args.spawned_ns) / 1e6)
        else:
            result = plain_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
