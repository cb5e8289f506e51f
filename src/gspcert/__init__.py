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
    certify,
)
from .eigen_data import DatasetError, EigenformDataset, FrobeniusRecord, embedding_roots, ingest
from .polynomial import Factorization
from .report import render_json, render_text

__version__ = "0.1.0"

# the public API, as the README's "Library use" lists it
__all__ = [
    "Certificate",
    "CheckResult",
    "DatasetError",
    "EigenformDataset",
    "ExceptionalTable",
    "Factorization",
    "FrobeniusRecord",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_LARGE_IMAGE",
    "certify",
    "embedding_roots",
    "ingest",
    "render_json",
    "render_text",
    "__version__",
]
