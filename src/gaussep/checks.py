"""Numerical policy and residual bookkeeping shared by every gate in the package.

The table below holds every gate threshold with its reason; ``symmetric_input``
is the one gate every symmetric phase-space matrix passes on its way in.

Every gate on a quantity that scales with Sigma compares it with ``tol`` times the
Frobenius norm of the matrix judged, with no floor; only the symplectic group checks
divide by ``max(1, ||S||^2)``, as ``S^T J S = J`` is not homogeneous: J fixes the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)  #: float64 unit roundoff, the unit of every roundoff band.
TINY = float(np.finfo(float).tiny)  #: Smallest normal float64: a sum of squares below it has lost digits.
HUGE = float(np.finfo(float).max)  #: Largest float64; an input's norm must stay below half of it.
DEFAULT_TOL = 1e-10  #: Default relative tolerance of every pass/fail gate (``--tol``).
SYMMETRY_TOL = 1e-9  #: Largest ``relative_asymmetry`` of an input accepted as symmetric.
INGEST_WARN_TOL = 1e-12  #: A document's asymmetry above this is repaired with a warning.
PAIR_TOL = 1e-7  #: P's mirrored eigenvalues must multiply to 1 within this (reciprocity).
ROUNDTRIP_TOL = 1e-12  #: Relative match of one float computed twice: a witness's hbar and Sigma's.
SPECTRUM_PAIR_TOL = 1e-6  #: Relative gap allowed between the two singular values of K per nu_k.
FRAME_GROUP_TOL = 1e-3  #: nu_k within this*nu_max share a frame; SVD mixes planes g apart by eps*nu_max/g.
UNIT_BAND = 8.0  #: Unit band UNIT_BAND*n*EPS*kappa(P): exact units of P spread <= 2.6 eps kappa.
POLAR_P_FACTOR = 10  #: A polar P, rebuilt from an SVD of S, is symplectic within this times tol.
ROUTE_BAND = 10.0  #: A route sign clash within ROUTE_BAND*max(tol, ROUTE_FLOOR)*scale is noise.
ROUTE_FLOOR = 1e-12  #: Floor of that band, so that a tiny or zero tol does not shrink it away.


class VerificationError(RuntimeError):
    """A post-condition that should hold by construction failed its tolerance."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a tolerance-gated check.

    ``passed`` is equivalent to ``margin >= -tol * scale``.  ``margin`` is
    the signed quantity driving the verdict: a minimum eigenvalue for
    positive-semidefiniteness gates, minus the relative residual for
    equation gates.  ``scale`` is ``||Sigma||``, however small, for an eigenvalue
    margin and 1 for a relative residual.  ``residuals`` collects every named
    diagnostic computed along the way; ``note`` carries human-oriented context
    (boundary cases, conclusiveness caveats).
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


def _require_even_square(matrix: np.ndarray) -> int:
    """Validate a 2n x 2n shape and return n."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] % 2 != 0 or matrix.shape[0] == 0:
        raise ValueError(f"phase-space dimension must be even, got {matrix.shape[0]}")
    return matrix.shape[0] // 2


def symmetric_input(matrix, name: str) -> np.ndarray:
    """The input gate: the exact symmetric part ``(M + M^T) / 2`` of ``matrix``, read-only.

    Raises ValueError, naming the input ``name``, unless ``matrix`` is
    2n x 2n, finite and symmetric to SYMMETRY_TOL.
    """
    matrix = np.asarray(matrix, dtype=float)
    _require_even_square(matrix)
    # a non-finite entry makes the norm nan or inf, so only then are the entries scanned;
    # below HUGE / 2 no entry of M + M^T overflows
    norm = fro(matrix)
    if not norm <= 0.5 * HUGE:
        if not np.isfinite(matrix).all():
            raise ValueError(f"{name} contains non-finite entries")
        raise ValueError(
            f"{name} is beyond the float64 range: its norm {norm:.3e} exceeds "
            f"{0.5 * HUGE:.3e}, half the float64 maximum"
        )
    asym = relative_asymmetry(matrix)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric (relative asymmetry {asym:.3e})")
    sym = 0.5 * (matrix + matrix.T)
    sym.setflags(write=False)
    return sym


def hbar_input(hbar) -> float:
    """The hbar gate: ``hbar`` as a float; raises ValueError unless it is finite and positive."""
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar}")
    return float(hbar)


def fro(matrix) -> float:
    """Frobenius norm, the norm used by every residual in this package.

    Computed as ``np.linalg.norm`` computes it for real input, without its
    argument dispatch; every caller passes a real floating-point array.  Only
    where that sum of squares overflows or underflows are the entries scaled by
    their largest modulus first, so every finite norm comes out finite and
    every nonzero one nonzero.
    """
    x = np.asarray(matrix).ravel(order="K")
    # vdot is x.dot(x) without numpy's overflow warning: the overflow is handled here
    sq = np.vdot(x, x)
    if TINY <= sq < math.inf:
        return math.sqrt(sq)
    peak = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < peak < math.inf:  # zero, or a non-finite entry
        return math.sqrt(sq)
    x = x / peak
    return peak * math.sqrt(np.vdot(x, x))


def relative_asymmetry(matrix) -> float:
    """``||M - M^T|| / ||M||``, which the input gate compares to SYMMETRY_TOL; 0 for M = 0."""
    norm = fro(matrix)
    return fro(matrix - matrix.T) / norm if norm else 0.0


def min_eig_hermitian(real_part: np.ndarray, imag_part: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix ``real_part + i*imag_part``.

    ``real_part`` must be symmetric and ``imag_part`` antisymmetric.
    """
    return float(np.linalg.eigvalsh(real_part + 1j * imag_part)[0])


def min_eig_symmetric(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric real matrix (``eigvalsh`` reads one triangle)."""
    return float(np.linalg.eigvalsh(matrix)[0])


def sym_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric square root ``v diag(sqrt(w)) v^T`` from the eigensystem of a matrix.

    ``(w, v)`` is the ``eigh`` that ``CovarianceMatrix`` keeps; its constructor
    has already decided from ``w`` that Sigma is positive definite.
    """
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)
