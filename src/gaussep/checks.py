"""Residual bookkeeping shared by every verification gate in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Default relative tolerance for all pass/fail gates.
DEFAULT_TOL = 1e-10
#: Largest ``relative_asymmetry`` of a matrix accepted as symmetric.
SYMMETRY_TOL = 1e-9


class VerificationError(RuntimeError):
    """A post-condition that should hold by construction failed its tolerance."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a tolerance-gated check.

    ``passed`` is equivalent to ``margin >= -tol * scale``.  ``margin`` is
    the signed quantity driving the verdict: a minimum eigenvalue for
    positive-semidefiniteness gates, minus the relative residual for
    equation gates.  ``residuals`` collects every named diagnostic computed
    along the way; ``note`` carries human-oriented context (boundary cases,
    conclusiveness caveats).
    """

    passed: bool
    margin: float
    scale: float
    tol: float
    residuals: dict[str, float] = field(default_factory=dict)
    note: str = ""


def margin_report(margin, scale, tol, residuals=None, note=""):
    """Build a CheckReport enforcing the pass <=> margin >= -tol*scale contract."""
    margin = float(margin)
    scale = float(scale)
    tol = float(tol)
    return CheckReport(
        passed=bool(margin >= -tol * scale),
        margin=margin,
        scale=scale,
        tol=tol,
        residuals={k: float(v) for k, v in (residuals or {}).items()},
        note=note,
    )


def fro(matrix) -> float:
    """Frobenius norm, the norm used by every residual in this package.

    Computed as ``np.linalg.norm`` computes it for real input, without its
    argument dispatch; every caller passes a real floating-point array.
    """
    x = np.asarray(matrix).ravel(order="K")
    return math.sqrt(x.dot(x))


def relative_asymmetry(matrix) -> float:
    """``||M - M^T|| / max(1, ||M||)``, which every symmetry gate compares to SYMMETRY_TOL."""
    return fro(matrix - matrix.T) / max(1.0, fro(matrix))


def min_eig_hermitian(real_part: np.ndarray, imag_part: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix ``real_part + i*imag_part``.

    ``real_part`` must be symmetric and ``imag_part`` antisymmetric.
    """
    return float(np.linalg.eigvalsh(real_part + 1j * imag_part)[0])


def min_eig_symmetric(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric real matrix (``eigvalsh`` reads one triangle)."""
    return float(np.linalg.eigvalsh(matrix)[0])


def sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix.

    ``eigh`` reads one triangle only, so ``matrix`` must be exactly
    symmetric, as every ``CovarianceMatrix.sigma`` is.
    """
    w, v = np.linalg.eigh(matrix)
    if w[0] <= 0.0:
        raise ValueError("matrix is not positive definite")
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)
