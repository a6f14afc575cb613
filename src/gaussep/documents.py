"""File formats of the command-line surface.

One self-describing JSON document format carries covariance matrices in and
out: named fields ``hbar``, ``ordering``, ``n_A``, ``n_B``, ``sigma`` (row
major), optional ``mean``; parsing converts ``sigma`` and ``mean`` to the
interleaved ordering once.  Matrices are serialized at full precision (the
shortest decimal that round-trips), so parsing a document back reproduces
the exact floats.  Reports are plain JSON objects built in :mod:`.cli`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .checks import INGEST_WARN_TOL, hbar_input, relative_asymmetry, symmetric_input
from .phase_space import ModePartition, Ordering, convert_ordering, convert_vector_ordering
from .spectral import CovarianceMatrix


class DocumentError(ValueError):
    """The document is malformed: bad JSON, schema violation, or bad dimensions."""


def _as_float(raw, key: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DocumentError(f"field {key!r} must be a number, got {type(raw).__name__}")
    return float(raw)


def _as_positive_int(raw, key: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise DocumentError(f"field {key!r} must be a positive integer, got {raw!r}")
    return raw


def _require_numbers(entries, key: str) -> None:
    """Raise unless every entry is a JSON number: an int or a float, not a bool or a string.

    ``np.array(raw, dtype=float)`` would convert ``true`` and ``"1"`` as well.
    """
    for entry in entries:
        if type(entry) not in (int, float):
            raise DocumentError(
                f"field {key!r} must hold only numbers, got {type(entry).__name__} {entry!r}"
            )


def _as_matrix(raw, key: str) -> np.ndarray:
    try:
        matrix = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"field {key!r} is not a numeric matrix: {exc}") from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DocumentError(f"field {key!r} must be a square matrix, got shape {matrix.shape}")
    # two dimensions: raw is a list of equally long lists of scalars
    _require_numbers(itertools.chain.from_iterable(raw), key)
    if matrix.shape[0] % 2 != 0 or matrix.shape[0] == 0:
        raise DocumentError(f"field {key!r} must have even positive dimension")
    if not np.all(np.isfinite(matrix)):
        raise DocumentError(f"field {key!r} contains non-finite entries")
    return matrix


def _parse_json(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    return raw


def content_digest(raw: dict) -> str:
    """Digest of the parsed document, stable against whitespace and key order."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class InputDocument:
    """Parsed covariance-matrix document, validated, symmetrized and interleaved."""

    hbar: float
    partition: ModePartition
    sigma: np.ndarray
    mean: np.ndarray
    digest: str
    hbar_explicit: bool
    warnings: list[str] = field(default_factory=list)

    def to_covariance(self, hbar_override: float | None = None) -> CovarianceMatrix:
        """The CovarianceMatrix, applying an optional hbar override."""
        hbar = self.hbar if hbar_override is None else hbar_override
        return CovarianceMatrix(self.sigma, self.partition, hbar)


def parse_input_document(text: str) -> InputDocument:
    """Parse and validate a covariance-matrix document.

    Raises DocumentError on any schema or consistency violation, including
    an ``hbar`` that fails ``checks.hbar_input`` and a ``sigma`` that fails
    ``checks.symmetric_input``; an asymmetry above
    ``checks.INGEST_WARN_TOL`` that the gate accepts is repaired by it and
    reported in ``warnings``.  ``sigma`` and ``mean`` come back interleaved.
    """
    raw = _parse_json(text)
    for key in ("n_A", "n_B", "sigma"):
        if key not in raw:
            raise DocumentError(f"missing required field {key!r}")
    n_a = _as_positive_int(raw["n_A"], "n_A")
    n_b = _as_positive_int(raw["n_B"], "n_B")
    partition = ModePartition(n_a, n_b)

    hbar_explicit = "hbar" in raw
    try:
        hbar = hbar_input(_as_float(raw.get("hbar", 1.0), "hbar"))
        ordering = Ordering.parse(raw.get("ordering", "interleaved"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    sigma = _as_matrix(raw["sigma"], "sigma")
    if sigma.shape[0] != partition.dim:
        raise DocumentError(
            f"sigma is {sigma.shape[0]}x{sigma.shape[0]} but n_A + n_B = {partition.n} "
            f"modes require {partition.dim}x{partition.dim}"
        )

    try:
        symmetric = symmetric_input(sigma, "sigma")
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    warnings: list[str] = []
    asym = relative_asymmetry(sigma)
    if asym > INGEST_WARN_TOL:
        warnings.append(f"sigma symmetrized on ingest (relative asymmetry {asym:.3e})")

    if "mean" in raw:
        try:
            mean = np.array(raw["mean"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"field 'mean' is not a numeric vector: {exc}") from None
        if mean.shape != (partition.dim,):
            raise DocumentError(
                f"mean has shape {mean.shape}, expected ({partition.dim},)"
            )
        _require_numbers(raw["mean"], "mean")
        if not np.all(np.isfinite(mean)):
            raise DocumentError("field 'mean' contains non-finite entries")
    else:
        mean = np.zeros(partition.dim)

    return InputDocument(
        hbar=hbar,
        partition=partition,
        sigma=convert_ordering(symmetric, ordering, Ordering.INTERLEAVED),
        mean=convert_vector_ordering(mean, ordering, Ordering.INTERLEAVED),
        digest=content_digest(raw),
        hbar_explicit=hbar_explicit,
        warnings=warnings,
    )


def render_input_document(
    sigma: np.ndarray,
    partition: ModePartition,
    hbar: float,
    ordering: Ordering,
    mean: np.ndarray | None = None,
) -> str:
    """Serialize a covariance matrix as an input document (fixed key order)."""
    if mean is None:
        mean = np.zeros(sigma.shape[0])
    doc = {
        "hbar": float(hbar),
        "ordering": ordering.value,
        "n_A": partition.n_a,
        "n_B": partition.n_b,
        "sigma": sigma.tolist(),
        "mean": mean.tolist(),
    }
    return json.dumps(doc, indent=2)
