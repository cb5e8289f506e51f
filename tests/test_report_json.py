"""The JSON report is written by gspcert itself, byte for byte as
json.dumps(tree, indent=2, sort_keys=True) + newline writes the tree of the
same fields (tests/oracles.py keeps that tree and call as the reference)."""
from __future__ import annotations

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from gspcert.certifier import ExceptionalTable, certify, supported_table
from gspcert.eigen_data import EigenformDataset, embedding_roots, ingest
from gspcert.report import render_json, render_text
from oracles import reference_render_json

DATASETS = resources.files("gspcert") / "datasets"
GOLDEN = Path(__file__).parent / "golden"
BUNDLED = ("weight28_level1", "weight28_level1_a3zero", "weight28_level1_fully_split")
PRIMES = (2, 3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# group names json must escape: a quote, a backslash, a control character
# and text outside ASCII (a BMP character and one needing a surrogate pair)
AWKWARD_NAMES = ('PSL(2,"q")', "2^4\\O4", "tab\there\n", "A₆.2 é", "M\U0001d4d2")


def bundled_certificates(name: str) -> list:
    ds = ingest(DATASETS / f"{name}.dataset")
    return [certify(ds, 7, r.lift()) for r in embedding_roots(ds.defining_poly, 7)]


def seeded_certificates(p: int, seed: int, count: int, table=None) -> list:
    """Certificates for datasets with E = x, random residues at 1-11 primes
    q != p and a random weight: every factor pattern, squarefree or not,
    passing and failing checks."""
    rng = random.Random(seed)
    certs = []
    for _ in range(count):
        qs = rng.sample([q for q in PRIMES if q != p], rng.randint(1, 11))
        eigenvalues = {}
        for q in qs:
            eigenvalues[q] = (rng.randrange(p),)
            eigenvalues[q * q] = (rng.randrange(p),)
        ds = EigenformDataset(
            weight=rng.randint(2, 40), level=1, defining_poly=(0, 1),
            eigenvalues=eigenvalues,
            assumptions=frozenset(rng.sample(["not_maass_spezialform", "conductor_one"], 1)),
        )
        certs.append(certify(ds, p, 0, table))
    return certs


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_datasets_match_json_dumps(name):
    certs = bundled_certificates(name)
    assert render_json(certs) == reference_render_json(certs)
    for cert in certs:
        assert render_json([cert]) == reference_render_json([cert])


def test_seeded_certificates_p7_match_json_dumps():
    certs = seeded_certificates(7, 7, 60)
    assert {c.verdict for c in certs} == {"LARGE_IMAGE", "INCONCLUSIVE"}
    assert any(r.projective_order is None for c in certs for r in c.records)
    assert any(not check.witnesses for cert in certs for check in cert.checks)
    for cert in certs:
        assert render_json([cert]) == reference_render_json([cert])
    assert render_json(certs) == reference_render_json(certs)


@pytest.mark.parametrize("p", [19, 23])
def test_caller_table_names_are_escaped_as_json_dumps_escapes_them(p):
    table = ExceptionalTable(p, tuple((name, 120 * (i + 1)) for i, name in enumerate(AWKWARD_NAMES)))
    certs = seeded_certificates(p, p, 10, table)
    report = render_json(certs)
    assert report == reference_render_json(certs)
    assert report.isascii()
    exceptional = json.loads(report)["certificates"][0]["checks"][4]
    assert set(exceptional["data"]["subgroup_orders"]) == set(AWKWARD_NAMES)


def test_empty_list_matches_json_dumps():
    assert render_json([]) == reference_render_json([]) == (
        '{\n  "certificates": [],\n  "format": "gspcert.certify-report/1"\n}\n'
    )


def test_empty_list_text_is_the_summary_line_alone():
    # no blank lines before the summary when there is no certificate block
    assert render_text([]) == "0 certificate(s): 0 LARGE_IMAGE, 0 INCONCLUSIVE\n"


@pytest.mark.parametrize("name", BUNDLED)
def test_goldens_need_no_json_encoder(name, monkeypatch):
    def no_encoder(*args, **kwargs):
        raise AssertionError("the report went through json's encoder")

    monkeypatch.setattr(json, "dumps", no_encoder)
    monkeypatch.setattr(json.JSONEncoder, "encode", no_encoder)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", no_encoder)
    report = render_json(bundled_certificates(name))
    assert report.encode() == (GOLDEN / f"{name}.p7.json").read_bytes()


# check data holds ints, lists and dicts with str keys, and nothing else:
# the report writer refuses the other JSON types and tuples too
@pytest.mark.parametrize(
    "data",
    [{"x": 1.5}, {"x": {1, 2}}, {"x": b"7"}, {"x": object()}, {"x": [1, [2, 3.0]]}, {7: 1},
     {"x": "é"}, {"x": [True, False]}, {"x": None}, {"x": (1, 2)}, {"x": {"1": [1, (2,)]}}],
    ids=["float", "set", "bytes", "object", "nested float", "int key",
         "str", "bool", "None", "tuple", "nested tuple"],
)
def test_data_outside_the_json_types_raises_type_error(data):
    cert = bundled_certificates("weight28_level1")[0]
    check = cert.checks[0]._replace(data=data)
    with pytest.raises(TypeError):
        render_json([cert._replace(checks=(check,) + cert.checks[1:])])


def test_data_of_every_json_type_matches_json_dumps():
    cert = bundled_certificates("weight28_level1")[0]
    data = {"i": -7, "e": {}, "l": [], "m": [1, [2, 3], {"k": 4}], "n": {"1": [[]]}}
    check = cert.checks[0]._replace(data=data)
    certs = [cert._replace(checks=(check,) + cert.checks[1:])]
    assert render_json(certs) == reference_render_json(certs)


@pytest.mark.parametrize(
    "entries",
    [(("A6.2", 720.0),), (("A6.2", True),), ((720, "A6.2"),), (("A6.2",),), (("A6.2", 720, 1),),
     (["A6.2", 720],)],
    ids=["float order", "bool order", "swapped", "short", "long", "list"],
)
def test_table_entries_must_be_str_int_pairs(entries):
    with pytest.raises(ValueError, match="not a \\(str, int\\) pair"):
        supported_table(19, ExceptionalTable(19, entries))
