"""Tests of the benchmark's generators and report gate.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys

import pytest

from datagen import (
    SPECS,
    generate,
    hecke_quartic,
    is_squarefree,
    parse_dataset,
    root_count,
    simple_roots,
)
from reportgate import GateError, check_json_report
from workload import SRC, Digests

sys.path.insert(0, str(SRC))


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_same_seed_same_datasets(workload):
    first = [ds.text() for ds in generate(workload, 5)]
    assert first == [ds.text() for ds in generate(workload, 5)]
    assert first != [ds.text() for ds in generate(workload, 6)]


def charpolys(workload: str, seed: int):
    spec = SPECS[workload]
    for ds in generate(workload, seed):
        for root in simple_roots(ds.defining_poly, spec.p):
            res = ds.residues(spec.p, root)
            for q in spec.primes:
                yield hecke_quartic(res[q], res[q * q], q, ds.weight, spec.p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_reducible_charpoly_has_an_fp_root(seed):
    polys = list(charpolys("lib_p7_reducible", seed))
    assert polys and all(root_count(f, 7) >= 1 for f in polys)
    # the controls include repeated roots, not only distinct linear factors
    assert not all(is_squarefree(f, 7) for f in polys)


def test_p19_charpolys_are_squarefree():
    assert all(is_squarefree(f, 19) for f in charpolys("lib_p19", 0))


@pytest.fixture(scope="module")
def paper_report():
    from gspcert import certify, ingest, render_json

    path = SRC / "gspcert" / "datasets" / "weight28_level1.dataset"
    ds = parse_dataset(path.name, path.read_text())
    return ds, render_json([certify(ingest(path), 7, 1)])


def test_gate_accepts_the_paper_report(paper_report):
    ds, report = paper_report
    assert check_json_report(report, ds, 7, [1]) == ["LARGE_IMAGE"]


def test_gate_flags_one_flipped_byte(paper_report):
    ds, report = paper_report
    digests = Digests(None)
    digests.check("paper", report, lambda: check_json_report(report, ds, 7, [1]))
    golden = {"paper": digests.seen["paper"][0]}
    for pos in range(0, len(report), 97):
        flipped = report[:pos] + chr(ord(report[pos]) ^ 1) + report[pos + 1:]
        with pytest.raises(GateError):
            Digests(golden).check("paper", flipped, lambda: None)


def test_gate_flags_a_wrong_charpoly_without_a_digest(paper_report):
    ds, report = paper_report
    tree = json.loads(report)
    coeffs = tree["certificates"][0]["frobenius_records"][0]["charpoly"]
    coeffs[1] = (coeffs[1] + 1) % 7
    with pytest.raises(GateError, match="Hecke formula"):
        check_json_report(json.dumps(tree), ds, 7, [1])


def test_gate_flags_a_verdict_that_contradicts_the_checks(paper_report):
    ds, report = paper_report
    flipped = report.replace('"verdict": "LARGE_IMAGE"', '"verdict": "INCONCLUSIVE"')
    with pytest.raises(GateError, match="verdict"):
        check_json_report(flipped, ds, 7, [1])

