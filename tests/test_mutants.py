"""The mutation gate's list against the source it mutates.

mutation/run.py applies each must_fail mutant of mutation/mutants.py to a
copy and requires the tests to fail.  A refactor that moves or rewrites
mutated code must update the list in the same change: this test fails
until it does.  run.py deselects it, as every mutant removes its text.

An equivalent mutant whose proof is a finite claim is held to it here: its
module's source, with the mutant applied in memory, must give what the
live function gives on every Hecke quartic at p = 7, 11, 19 and 23."""
from __future__ import annotations

import functools
import importlib.util
import inspect
import itertools
from pathlib import Path

import pytest

from gspcert import certifier, polynomial
from gspcert.eigen_data import FrobeniusRecord

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


def mutated(function, mutant) -> object:
    """function as its module's source defines it with mutant applied,
    compiled and run in memory: src/ is never written."""
    module = inspect.getmodule(function)
    source = Path(module.__file__).read_text()
    namespace = {"__name__": f"{module.__name__}_mutant", "__package__": "gspcert"}
    exec(compile(source.replace(mutant.before, mutant.after), module.__file__, "exec"), namespace)
    return namespace[function.__name__]


@functools.cache
def hecke_factorizations(p: int) -> list:
    """(f, nu, its factorization) for every Hecke quartic f = (nu^2, nu f3,
    f2, f3, 1), nu in F_p^*: f3 = 0 gives each f for nu and -nu."""
    out = []
    for nu, f3, f2 in itertools.product(range(1, p), range(p), range(p)):
        f = (nu * nu % p, nu * f3 % p, f2, f3, 1)
        out.append((f, nu, polynomial.fp_hecke_factorization(f, nu, p)))
    return out


# the live function each finite-claim mutant edits, and its arguments built
# from (f, nu, factorization): the order and the pairing count are taken on
# squarefree quartics only
FINITE_CLAIMS = {
    "fp_hecke_factorization": (polynomial.fp_hecke_factorization,
                               lambda f, nu, fac: (f, nu, fac.p), False),
    "fp_projective_order": (polynomial.fp_projective_order, lambda f, nu, fac: (fac,), True),
    "_conjugate_pairings": (certifier._conjugate_pairings,
                            lambda f, nu, fac: (FrobeniusRecord(2, f, fac, True, None, nu),), True),
}


@pytest.mark.parametrize("name", FINITE_CLAIMS)
def test_finite_claim_equivalents_agree_on_every_hecke_quartic(name):
    mutants = load_mutants()
    live, arguments, squarefree_only = FINITE_CLAIMS[name]
    source = inspect.getsource(live)
    [mutant] = [m for m in mutants.MUTANTS
                if m.kind == mutants.EQUIVALENT and m.before in source]
    mutant_function = mutated(live, mutant)
    for p in (7, 11, 19, 23):
        for f, nu, fac in hecke_factorizations(p):
            if fac.is_squarefree() or not squarefree_only:
                args = arguments(f, nu, fac)
                assert mutant_function(*args) == live(*args), (p, f, nu)
