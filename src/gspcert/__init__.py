"""Certify that the mod-p Galois representation attached to a genus-2
Siegel eigenform has full projective symplectic image PGSp(4, p).

The argument is a maximal-subgroup exclusion: six one-sided checks, each
ruling out one way the image could be smaller, each backed by exact
finite-field computations on the Frobenius characteristic polynomials.
"""
from .certifier import (
    Certificate,
    CheckResult,
    ExceptionalTable,
    VERDICT_INCONCLUSIVE,
    VERDICT_LARGE_IMAGE,
    builtin_exceptional_table,
    certify,
)
from .eigen_data import (
    EigenformDataset,
    FrobeniusRecord,
    ResidualDataset,
    embedding_roots,
    hecke_charpoly,
    hecke_quartic,
    residual_roots,
    specialize,
)
from .finite_field import legendre
from .polynomial import Factorization

__version__ = "0.1.0"

# The command-line names load cli on first use, so that `python -m
# gspcert.cli` does not find cli imported by its own package.
_CLI_NAMES = ("DatasetError", "ingest", "render_json", "render_text")


def __getattr__(name: str):
    if name not in _CLI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli

    value = globals()[name] = getattr(cli, name)
    return value


# the public API, as the README's "Library use" lists it
__all__ = [
    "Certificate",
    "CheckResult",
    "DatasetError",
    "EigenformDataset",
    "ExceptionalTable",
    "Factorization",
    "FrobeniusRecord",
    "ResidualDataset",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_LARGE_IMAGE",
    "builtin_exceptional_table",
    "certify",
    "embedding_roots",
    "hecke_charpoly",
    "hecke_quartic",
    "ingest",
    "legendre",
    "render_json",
    "render_text",
    "residual_roots",
    "specialize",
    "__version__",
]
