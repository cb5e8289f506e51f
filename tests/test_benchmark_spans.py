"""The layer names the benchmark's tracer reads stay visible.

perfbench/spans.py rebinds the layer functions in the modules that call
them (gspcert.cli, .certifier, .eigen_data) and records a span per call.
A refactor that calls a layer through another name, or drops the
`.lift()` the library workloads still call on the int roots from
embedding_roots, hides that layer from the benchmark without failing
anything else; this test fails instead.
The tracer's source is only read, never imported as a module, so nothing
is written under perfbench/.
"""
from __future__ import annotations

import runpy
from importlib import resources
from pathlib import Path

from cli_runner import invoke
from gspcert import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PAPER = str(resources.files("gspcert") / "datasets" / "weight28_level1.dataset")

READ_SPANS = {
    "cli.ingest",
    "eigen_data.embedding_roots",
    "certifier.certify",
    "cli.render_json",
    "cli.render_text",
    "eigen_data.specialize",
    "certifier.build_records",
    "eigen_data.hecke_quartic",
    "polynomial.factor",
    "symplectic.projective_order",
} | {
    f"certifier.check.{name}"
    for name in (
        "linear_constituent",
        "rational_22_split",
        "conjugate_22_split",
        "primitivity",
        "exceptional",
        "multiplier_surjective",
    )
}


def installed_tracer():
    tracer = runpy.run_path(str(SPANS))["Tracer"]()
    tracer.install()
    return tracer


def test_tracer_records_every_layer_the_benchmark_reads():
    tracer = installed_tracer()
    try:
        # one library op, as the library workloads make it
        ds = cli.ingest(PAPER)
        roots = [r.lift() for r in cli.embedding_roots(ds.defining_poly, 7)]
        cli.render_json([cli.certify(ds, 7, roots[0])])
        # one command run in this process
        res = invoke(["certify", PAPER])
    finally:
        tracer.uninstall()
    assert res.exit_code == 0, res.stderr
    assert READ_SPANS <= {span.name for span in tracer.spans}


def test_certify_command_takes_its_roots_through_the_traced_layer():
    # the CLI workload's children see its choice of roots only through the
    # eigen_data.embedding_roots span
    tracer = installed_tracer()
    try:
        res = invoke(["certify", PAPER])
    finally:
        tracer.uninstall()
    assert res.exit_code == 0, res.stderr
    assert "eigen_data.embedding_roots" in {span.name for span in tracer.spans}
