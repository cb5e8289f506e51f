"""Byte-for-byte regression of the CLI reports on the bundled datasets.

tests/golden/<dataset>.p7.{txt,json} hold the output of

    gspcert certify src/gspcert/datasets/<dataset>.dataset \
        --prime 7 --root all --format text|json

Any change to a certificate, its wording or its rendering shows up here.
The same bytes must come back with the 4x4 matrix route of
tests/symplectic.py disabled: the certificate's projective orders are taken
in F_p[x], not from matrices.
They must also come back from certify and the renderers with FFElement and
Polynomial construction disabled: the certificate runs on ints and int
tuples from specialize to the report.  And certify raises x to no power
at all: the conjugate-pair count reads the projective order, and the
charpolys are factored through y = x + nu/x without powers of x.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

import pytest

import symplectic
from cli_runner import invoke
from field_elements import FFElement
from field_polynomial import Polynomial
from gspcert import certifier, eigen_data, polynomial
from gspcert.certifier import certify
from gspcert.cli import ingest, render_json, render_text
from gspcert.eigen_data import embedding_roots

DATASETS = resources.files("gspcert") / "datasets"
GOLDEN = Path(__file__).parent / "golden"

# dataset -> exit code: the paper table certifies, both controls do not
EXPECTED_EXIT = {
    "weight28_level1": 0,
    "weight28_level1_a3zero": 2,
    "weight28_level1_fully_split": 2,
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


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("dataset", sorted(EXPECTED_EXIT))
def test_no_matrix_product_on_the_certify_path(dataset, fmt, suffix, monkeypatch):
    def no_matrices(*args):
        raise AssertionError("a 4x4 matrix was built while certifying")

    monkeypatch.setattr(symplectic, "_mul_rows", no_matrices)
    monkeypatch.setattr(symplectic, "companion", no_matrices)
    check_golden(dataset, fmt, suffix)


@pytest.mark.parametrize("render, suffix", [(render_text, "txt"), (render_json, "json")])
@pytest.mark.parametrize("dataset", sorted(EXPECTED_EXIT))
def test_no_field_element_or_polynomial_on_the_certify_path(dataset, render, suffix, monkeypatch):
    ds = ingest(DATASETS / f"{dataset}.dataset")
    roots = [r.lift() for r in embedding_roots(ds.defining_poly, 7)]

    def no_objects(*args):
        raise AssertionError("an FFElement or a Polynomial was built while certifying")

    monkeypatch.setattr(FFElement, "__init__", no_objects)
    monkeypatch.setattr(Polynomial, "__init__", no_objects)
    report = render([certify(ds, 7, root) for root in roots])
    assert report.encode() == (GOLDEN / f"{dataset}.p7.{suffix}").read_bytes()


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
    ds = ingest(DATASETS / f"{dataset}.dataset")
    exponents = []
    powmod = polynomial.fp_powmod

    def spy(a, e, m, p):
        exponents.append(e)
        return powmod(a, e, m, p)

    # certifier too, so that a name imported there again is spied on as well
    for module in (polynomial, certifier, eigen_data):
        monkeypatch.setattr(module, "fp_powmod", spy, raising=False)
    roots = [r.lift() for r in embedding_roots(ds.defining_poly, 7)]
    assert exponents == [7]  # the spy is live: x^p mod E for the roots
    certs = [certify(ds, 7, root) for root in roots]
    assert exponents == [7]  # certifying raises x to no power at all
    assert render_json(certs).encode() == (GOLDEN / f"{dataset}.p7.json").read_bytes()
