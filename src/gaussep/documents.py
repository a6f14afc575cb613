"""File formats of the command-line surface.

One self-describing JSON document format carries covariance matrices in and
out: named fields ``hbar``, ``ordering``, ``n_A``, ``n_B`` and ``sigma`` (row
major).  Separability is a property of the covariance alone, so any other
key, a ``mean`` included, is ignored.  Parsing converts ``sigma`` to the
interleaved ordering once and builds the ``CovarianceMatrix``, whose
constructor is the one gate on ``sigma``'s values and on ``hbar``.
Matrices are serialized at full precision (the shortest decimal that
round-trips), so parsing a document back reproduces the exact floats.  Reports are plain JSON
objects built in :mod:`.cli`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .checks import INGEST_WARN_TOL, relative_asymmetry
from .phase_space import ModePartition, Ordering, convert_ordering
from .spectral import CovarianceMatrix


class DocumentError(ValueError):
    """The document is malformed: bad JSON, schema violation, or bad dimensions."""


def _as_float(raw, key: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DocumentError(f"field {key!r} must be a number, got {type(raw).__name__}")
    try:
        return float(raw)
    except OverflowError:  # a JSON integer past the float64 maximum
        raise DocumentError(f"field {key!r} is beyond the float64 range") from None


def _as_positive_int(raw, key: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        # worded from the type and sign: echoing a huge value would make a huge message
        got = type(raw).__name__ if type(raw) is not int else "0" if raw == 0 else "a negative integer"
        raise DocumentError(f"field {key!r} must be a positive integer, got {got}")
    return raw


def _require_numbers(entries, key: str) -> None:
    """Raise unless every entry is a JSON number: an int or a float, not a bool or a string.

    ``np.array(raw, dtype=float)`` would convert ``true`` and ``"1"`` as well.
    """
    for entry in entries:
        if type(entry) not in (int, float):
            raise DocumentError(f"field {key!r} must hold only numbers, got {type(entry).__name__}")


def _as_matrix(raw, key: str) -> np.ndarray:
    try:
        matrix = np.array(raw, dtype=float)
    except OverflowError:  # a JSON integer past the float64 maximum
        raise DocumentError(f"field {key!r} has an entry beyond the float64 range") from None
    except (TypeError, ValueError):
        # not numpy's message, which can quote a huge entry or describe a huge shape
        raise DocumentError(f"field {key!r} is not a numeric matrix") from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DocumentError(f"field {key!r} must be a square matrix, got shape {matrix.shape}")
    # two dimensions: raw is a list of equally long lists of scalars
    _require_numbers(itertools.chain.from_iterable(raw), key)
    return matrix


def _parse_json(text: str) -> dict:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, or CPython's limits on integer digits and on nesting depth
        raise DocumentError(f"invalid JSON: {str(exc).partition('; use sys.')[0]}") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    return raw


@dataclass
class InputDocument:
    """A parsed document: its state's interleaved ``CovarianceMatrix``, digest and warnings."""

    cov: CovarianceMatrix
    digest: str
    warnings: list[str] = field(default_factory=list)


def parse_input_document(text: str) -> InputDocument:
    """Parse a covariance-matrix document into its ``CovarianceMatrix``.

    Raises DocumentError on any schema or consistency violation; a ``sigma``
    or ``hbar`` that the ``CovarianceMatrix`` constructor refuses (an odd
    dimension, a non-finite entry, an asymmetric or indefinite matrix, a
    non-positive ``hbar``) raises it with the constructor's message.  An
    asymmetry above ``checks.INGEST_WARN_TOL`` that the constructor accepts
    is repaired by it and reported in ``warnings``.  Keys other than the five
    fields, such as ``mean``, are not read.
    """
    raw = _parse_json(text)
    for key in ("n_A", "n_B", "sigma"):
        if key not in raw:
            raise DocumentError(f"missing required field {key!r}")
    n_a = _as_positive_int(raw["n_A"], "n_A")
    n_b = _as_positive_int(raw["n_B"], "n_B")
    partition = ModePartition(n_a, n_b)

    hbar = _as_float(raw.get("hbar", 1.0), "hbar")
    try:
        ordering = Ordering.parse(raw.get("ordering", "interleaved"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    sigma = _as_matrix(raw["sigma"], "sigma")
    if sigma.shape[0] != partition.dim:
        # worded from sigma alone: a huge n_A or n_B would make a huge or unprintable message
        dim = sigma.shape[0]
        raise DocumentError(f"sigma is {dim}x{dim} but n_A + n_B modes require 2(n_A + n_B) rows")

    try:
        cov = CovarianceMatrix(convert_ordering(sigma, ordering, Ordering.INTERLEAVED), partition, hbar)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    warnings: list[str] = []
    asym = relative_asymmetry(sigma)
    if asym > INGEST_WARN_TOL:
        warnings.append(f"sigma symmetrized on ingest (relative asymmetry {asym:.3e})")
    # the parsed state's digest: hbar, n_A and n_B, then the symmetrized interleaved sigma
    header = struct.pack("<dqq", cov.hbar, n_a, n_b)
    digest = "sha256:" + hashlib.sha256(header + cov.sigma.tobytes()).hexdigest()
    return InputDocument(cov=cov, digest=digest, warnings=warnings)


def render_input_document(cov: CovarianceMatrix) -> str:
    """Serialize a covariance matrix as an interleaved input document (fixed key order)."""
    doc = {
        "hbar": cov.hbar,
        "ordering": Ordering.INTERLEAVED.value,
        "n_A": cov.partition.n_a,
        "n_B": cov.partition.n_b,
        "sigma": cov.sigma.tolist(),
    }
    return json.dumps(doc, indent=2)
