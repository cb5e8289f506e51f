"""The gspcert benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 the last line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a separate traced run.  Lines before it are for people: sample
counts, fail_frac, p90 where a run has 100 ops, the output digest and the
machine-speed sentinel.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "latency_ms_p50": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_frac")):
        return "frac"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


def sentinel_ms() -> float:
    """A fixed pure-Python loop: how fast the host runs right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t) * 1e3


def run_workload(args, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-ns", str(time.time_ns()), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gspcert" / "__init__.py").is_file():
        print(f"error: no gspcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sentinel_start = sentinel_ms()
    setup = []
    if not args.trace:
        setup = [run_workload(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = run_workload(args)
    setup.append(result["setup_s"])
    sentinel_end = sentinel_ms()

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed, fail_frac {failed / attempted:.4f} ratio")
    print(f"output_sha256 {result['output_sha256']} over {result['reports']} distinct reports")
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {name: result[name] for name in END_TO_END_UNITS}
        metrics["setup_s"] = statistics.median(setup)
        p90 = result["latency_ms_p90"]
        print(f"latency_ms_p50 {result['latency_ms_p50']:.3f} ms, latency_ms_p90 "
              + (f"{p90:.3f} ms" if p90 is not None else "not reported (< 100 ops)")
              + f", over {result['ops']} ops")
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
        print(f"LARGE_IMAGE share of certificates: {result['large_image_frac']:.3f}")
    print(f"sentinel_ms start {sentinel_start:.2f} end {sentinel_end:.2f}")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
