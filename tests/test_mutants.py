"""The mutation gate's list against the source it mutates.

mutation/run.py applies each must_fail mutant of mutation/mutants.py to a
copy and requires the tests to fail.  A refactor that moves or rewrites
mutated code must update the list in the same change: this test fails
until it does.  run.py deselects it, as every mutant removes its text."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutation" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_matches_the_source_once():
    mutants = load_mutants()
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text().count(m.before) == 1, m
        assert m.kind in (mutants.MUST_FAIL, mutants.EQUIVALENT), m
        assert m.reason.strip() and "\n" not in m.reason, m  # an equivalent's proof
