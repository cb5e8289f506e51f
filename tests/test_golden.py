"""Byte-for-byte regression of the reports.

tests/golden/<dataset>.p7.{txt,json} hold the output of

    gspcert certify src/gspcert/datasets/<dataset>.dataset \
        --prime 7 --root all --format text|json

Any change to a certificate, its wording or its rendering shows up here.
tests/golden/large_p.p{103,1019,10007}.{txt,json} pin the library path
beyond the built-in table: render_text and render_json of certify(ds, p,
r, LARGE_P_TABLES[p]) over the roots r of embedding_roots, in its order,
for the synthetic dataset tests/golden/large_p.dataset.  The p = 10007
bytes were written by the route that stepped through the powers of x to
each projective order, about a minute per root.
The conjugate-pair count takes no power of x: it reads the factor degrees,
and the charpolys are factored through y = x + nu/x without powers of x.
Only the projective orders of irreducible records take powers of x.  That
no reference maths of tests/ stands behind a certificate is checked in a
fresh interpreter (test_cli.TestFreshInterpreter).
"""
from __future__ import annotations

from functools import cache
from importlib import resources
from pathlib import Path
from time import perf_counter

import pytest

from cli_runner import invoke
from gspcert import certifier, eigen_data, polynomial
from gspcert.certifier import ExceptionalTable, VERDICT_INCONCLUSIVE, VERDICT_LARGE_IMAGE, certify
from gspcert.eigen_data import embedding_roots, ingest
from gspcert.report import render_json, render_text
from oracles import check_order_by_x_powers

DATASETS = resources.files("gspcert") / "datasets"
GOLDEN = Path(__file__).parent / "golden"

# dataset -> exit code: the paper table certifies, both controls do not
EXPECTED_EXIT = {
    "weight28_level1": 0,
    "weight28_level1_a3zero": 2,
    "weight28_level1_fully_split": 2,
}

# p -> the exceptional table the large-p goldens are certified with
LARGE_P_TABLES = {
    p: ExceptionalTable(
        p, ((f"PGL(2,{p})", p * (p * p - 1)), ("2^4.O4^-(2).2", 3840), ("A6.2", 720))
    )
    for p in (103, 1019, 10007)
}


def check_golden(dataset: str, fmt: str, suffix: str) -> None:
    args = ["certify", str(DATASETS / f"{dataset}.dataset"),
            "--prime", "7", "--root", "all", "--format", fmt]
    res = invoke(args)
    assert res.exit_code == EXPECTED_EXIT[dataset]
    assert res.stderr == ""
    assert res.stdout.encode() == (GOLDEN / f"{dataset}.p7.{suffix}").read_bytes()


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("dataset", sorted(EXPECTED_EXIT))
def test_report_matches_golden_bytes(dataset, fmt, suffix):
    check_golden(dataset, fmt, suffix)


@pytest.mark.parametrize("dataset", sorted(EXPECTED_EXIT))
def test_embedding_roots_certify_as_plain_ints(dataset):
    ds = ingest(DATASETS / f"{dataset}.dataset")
    for r in embedding_roots(ds.defining_poly, 7):
        cert, lifted = certify(ds, 7, r), certify(ds, 7, r.lift())
        assert type(cert.root) is int
        for render in (render_json, render_text):
            assert render([cert]).encode() == render([lifted]).encode()


@pytest.mark.parametrize("dataset", sorted(EXPECTED_EXIT))
def test_conjugate_pair_count_takes_no_power(dataset, monkeypatch):
    # the pairing count reads the factor degrees: no x^((p^2 + 1)(p - 1)) is
    # taken, whether through fp_powmod or the projective orders' x-powers
    ds = ingest(DATASETS / f"{dataset}.dataset")
    exponents = []
    powmod, x_power = polynomial.fp_powmod, polynomial._x_power_is_constant

    def powmod_spy(a, e, m, p):
        exponents.append(e)
        return powmod(a, e, m, p)

    def x_power_spy(e, f, p):
        exponents.append(e)
        return x_power(e, f, p)

    # certifier too, so that a name imported there again is spied on as well
    for module in (polynomial, certifier, eigen_data):
        monkeypatch.setattr(module, "fp_powmod", powmod_spy, raising=False)
    monkeypatch.setattr(polynomial, "_x_power_is_constant", x_power_spy)
    roots = [r.lift() for r in embedding_roots(ds.defining_poly, 7)]
    assert exponents == [7]  # the spy is live: x^p mod E for the roots
    certs = [certify(ds, 7, root) for root in roots]
    assert (7 * 7 + 1) * (7 - 1) not in exponents
    assert render_json(certs).encode() == (GOLDEN / f"{dataset}.p7.json").read_bytes()


@cache
def large_p_certificates(p: int) -> list:
    # certified once per session, though all three primes take a few ms
    ds = ingest(GOLDEN / "large_p.dataset")
    return [certify(ds, p, r, LARGE_P_TABLES[p]) for r in embedding_roots(ds.defining_poly, p)]


@pytest.mark.parametrize("render, suffix", [(render_text, "txt"), (render_json, "json")])
@pytest.mark.parametrize("p", sorted(LARGE_P_TABLES))
def test_large_p_report_matches_golden_bytes(p, render, suffix):
    report = render(large_p_certificates(p))
    assert report.encode() == (GOLDEN / f"large_p.p{p}.{suffix}").read_bytes()


def test_large_p_goldens_cover_every_factor_pattern_and_both_verdicts():
    certs = [cert for p in sorted(LARGE_P_TABLES) for cert in large_p_certificates(p)]
    # a record with a repeated factor has no projective order (null)
    patterns = {
        tuple(len(g) - 1 for g, _ in rec.factorization.factors)
        if rec.squarefree else "repeated"
        for cert in certs for rec in cert.records
    }
    assert patterns == {(4,), (2, 2), (1, 1, 2), (1, 1, 1, 1), "repeated"}
    assert {cert.verdict for cert in certs} == {VERDICT_LARGE_IMAGE, VERDICT_INCONCLUSIVE}


def test_large_p_route_takes_under_five_seconds_a_root():
    # each root takes milliseconds, against about a minute for the route
    # that stepped through up to p^2 + 1 powers of x: a return to that
    # cost fails here instead of only slowing the suite down
    ds = ingest(GOLDEN / "large_p.dataset")
    for r in embedding_roots(ds.defining_poly, 10007):
        start = perf_counter()
        certify(ds, 10007, r, LARGE_P_TABLES[10007])
        assert perf_counter() - start < 5.0, r


def test_every_golden_order_matches_the_x_powers():
    # every record of every golden: a squarefree one's order against the
    # powers of x that decide the two order checks, the others orderless
    certs = [(cert, LARGE_P_TABLES[p]) for p in sorted(LARGE_P_TABLES)
             for cert in large_p_certificates(p)]
    for dataset in sorted(EXPECTED_EXIT):
        ds = ingest(DATASETS / f"{dataset}.dataset")
        certs += [(certify(ds, 7, r), certifier.supported_table(7))
                  for r in embedding_roots(ds.defining_poly, 7)]
    divides_none = []
    for cert, table in certs:
        orders = tuple(n for _, n in table.entries)
        for rec in cert.records:
            if rec.squarefree:
                divides_none.append(check_order_by_x_powers(rec, orders, cert.p))
            else:
                assert rec.projective_order is None, rec
    assert set(divides_none) == {True, False}
