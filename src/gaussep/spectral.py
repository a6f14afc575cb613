"""Quantum condition, symplectic spectra, and the Williamson normal form.

A real symmetric positive-definite matrix Sigma is the covariance matrix of a
quantum state exactly when the Hermitian matrix ``Sigma + (i*hbar/2) J`` is
positive semidefinite, equivalently when every symplectic eigenvalue nu_k is
at least hbar/2.  Both routes, computed here and cross-checked, rest on the
antisymmetric core ``K = Sigma^(1/2) J Sigma^(1/2)``, whose singular values
list each nu_k twice; Sigma^(1/2) comes from the eigensystem
``CovarianceMatrix`` keeps.  The Williamson construction returns a symplectic
S with ``S D S^T = Sigma``, ``D = diag(nu_1, nu_1, ..., nu_n, nu_n)``, from
the same SVD of K: its right singular vectors span K's invariant planes, and
an orthogonal frame of them brings K to its 2x2 block form, so only
orthogonal maps touch the data and every command reports one spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import (
    DEFAULT_TOL,
    EPS,
    FRAME_GROUP_TOL,
    ROUTE_BAND,
    ROUTE_FLOOR,
    SPECTRUM_PAIR_TOL,
    CheckReport,
    VerificationError,
    fro,
    hbar_input,
    margin_report,
    min_eig_hermitian,
    sym_sqrt,
    symmetric_input,
)
from .phase_space import ModePartition, _complex_frame, is_symplectic, symplectic_form


class QuantumConditionError(ValueError):
    """The covariance matrix does not satisfy the quantum condition.

    ``report`` is the failing quantum-condition report when the raiser had
    one, so callers can render it without recomputing it.
    """

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Covariance matrix of an n-mode Gaussian state with its context.

    ``sigma`` is in the interleaved ordering ``(x1, p1, ..., xn, pn)``; blocked
    data is converted first (``phase_space.convert_ordering``, or an input
    document).  It must pass ``checks.symmetric_input`` and be positive
    definite.  The stored array is the gate's exact symmetric part, read-only,
    so every later computation sees the same matrix whichever triangle it reads.
    Its ``eigh`` here, the only eigendecomposition of Sigma, decides positive
    definiteness and is kept, read-only, for every Sigma^(1/2).  The quantum
    condition is not part of the type, so that non-quantum matrices (for example
    a matrix below the quantum limit, to be judged by ``quantum_condition_check``)
    can be represented.  ``hbar`` travels with the data because the quantum
    verdict depends on its numerical value; it must pass ``checks.hbar_input``.
    """

    sigma: np.ndarray
    partition: ModePartition
    hbar: float = 1.0
    _eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        sigma = symmetric_input(self.sigma, "sigma")
        if sigma.shape[0] != self.partition.dim:
            raise ValueError(
                f"sigma is {sigma.shape[0]}x{sigma.shape[0]} but the partition "
                f"has {self.partition.n} modes (expected {self.partition.dim} rows)"
            )
        object.__setattr__(self, "hbar", hbar_input(self.hbar))
        w, V = np.linalg.eigh(sigma)
        if w[0] <= 0.0:
            if w[0] < -sigma.shape[0] * EPS * w[-1]:
                raise ValueError("sigma is not positive definite")
            raise ValueError(
                f"sigma is not positive definite in float64 (smallest eigenvalue {w[0]:.3e}, "
                f"largest {w[-1]:.3e}): the float64 matrix is the limit"
            )
        w.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_eigh", (w, V))

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dim(self) -> int:
        return 2 * self.partition.n

    def scale(self) -> float:
        """Norm scale used for relative tolerance gates."""
        return max(1.0, fro(self.sigma))


@dataclass(frozen=True, eq=False)
class WilliamsonForm:
    """Symplectic congruence Sigma = S D S^T with D = (+)_k nu_k I_2."""

    S: np.ndarray
    nu: np.ndarray
    residuals: dict[str, float]


def _spectral_core(cov: CovarianceMatrix, form: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sigma^(1/2), K = Sigma^(1/2) F Sigma^(1/2) (antisymmetrized) and ``s, Yt`` of ``svd(K)``.

    F is ``form``: J, or ``ppt_test``'s J_A (+) -J_B.  K's eigenvalues are
    +-i*nu_k, so the descending ``s`` lists each nu_k twice.  The vectors are
    always computed: LAPACK's singular values differ in the last bits with
    and without them, and every route must report one spectrum.
    """
    root = sym_sqrt(*cov._eigh)
    K = root @ form @ root
    K = 0.5 * (K - K.T)
    _, s, Yt = np.linalg.svd(K)
    return root, K, s, Yt


def _paired_spectrum(s: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, descending, from the paired singular values of K."""
    pair_gap = float(np.max(np.abs(s[0::2] - s[1::2])))
    if pair_gap > SPECTRUM_PAIR_TOL * max(1.0, float(s[0])):
        raise VerificationError(
            f"singular values of the antisymmetric core failed to pair (gap {pair_gap:.3e})"
        )
    return 0.5 * (s[0::2] + s[1::2])


def symplectic_eigenvalues(cov: CovarianceMatrix) -> np.ndarray:
    """Moduli of the eigenvalues of J Sigma, one per mode, sorted descending."""
    return _paired_spectrum(_spectral_core(cov, symplectic_form(cov.n))[2])


def quantum_condition_check(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """Decide whether Sigma + (i*hbar/2) J is positive semidefinite.

    The margin is the smallest eigenvalue of that Hermitian matrix.  The
    equivalent route ``min_k nu_k >= hbar/2`` is computed as well; a sign
    disagreement well outside the noise band raises VerificationError.
    """
    return _quantum_condition(cov, tol, symplectic_form(cov.n))[0]


def _quantum_condition(cov: CovarianceMatrix, tol: float, form: np.ndarray) -> tuple:
    """The report, spectrum and ``_spectral_core`` of ``Sigma + (i*hbar/2) form >= 0``."""
    margin = min_eig_hermitian(cov.sigma, 0.5 * cov.hbar * form)
    core = _spectral_core(cov, form)
    nu = _paired_spectrum(core[2])
    nu_gap = float(nu[-1] - 0.5 * cov.hbar)
    scale = cov.scale()
    band = ROUTE_BAND * max(tol, ROUTE_FLOOR) * scale
    if abs(margin) > band and abs(nu_gap) > band and (margin > 0) != (nu_gap > 0):
        raise VerificationError(
            f"quantum-condition routes disagree: Hermitian margin {margin:.3e}, "
            f"nu_min - hbar/2 = {nu_gap:.3e}"
        )
    residuals = {
        "hermitian_min_eig": margin,
        "nu_min": float(nu[-1]),
        "nu_min_gap": nu_gap,
    }
    return margin_report(margin, scale, tol, residuals), nu, core


def williamson(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> WilliamsonForm:
    """Williamson normal form of a positive-definite covariance matrix.

    Algorithm: the SVD ``K = X diag(s) Y^T`` of ``_spectral_core``, with
    ``K = Sigma^(1/2) J Sigma^(1/2)``, gives nu_k (descending, the spectrum
    ``symplectic_eigenvalues`` reports) and Y's K-invariant column pairs.  Runs
    of nu_k closer than ``FRAME_GROUP_TOL`` nu_max share one span, framed by
    ``_complex_frame`` so that ``Q^T K Q = (+)_k mu_k J2`` with Q orthogonal,
    and ``S = Sigma^(1/2) Q diag(nu_k^(-1/2))``.  Both defining residuals are
    verified before returning.

    Raises
    ------
    ValueError
        If roundoff leaves a symplectic eigenvalue at or below zero (a
        spectrum too wide for float64).
    VerificationError
        If the singular values of K fail to pair, or a reconstruction or
        symplecticity residual exceeds ``tol``.
    """
    return _williamson(cov, tol, _spectral_core(cov, symplectic_form(cov.n)))


def _williamson(cov: CovarianceMatrix, tol: float, core: tuple) -> WilliamsonForm:
    """``williamson`` from a ``_spectral_core`` of ``cov`` against J already computed."""
    root, K, s, Yt = core
    nu = _paired_spectrum(s)
    if nu[-1] <= 0.0:
        raise ValueError(
            f"the symplectic spectrum is too wide for float64: its smallest value "
            f"comes out as {nu[-1]:.3e}"
        )
    Q = np.empty_like(K)
    starts = [0] + [k for k in range(1, cov.n) if nu[k - 1] - nu[k] >= FRAME_GROUP_TOL * nu[0]]
    for a, b in zip(starts, starts[1:] + [cov.n]):
        Q[:, 2 * a : 2 * b] = _complex_frame(Yt[2 * a : 2 * b].T, K)[1]
    S = (root @ Q) / np.sqrt(np.repeat(nu, 2))[None, :]

    D = np.diag(np.repeat(nu, 2))
    recon = fro(S @ D @ S.T - cov.sigma) / fro(cov.sigma)
    symp = is_symplectic(S, tol).residuals["symplectic"]
    residuals = {"reconstruction": recon, "symplectic": symp}
    if recon > tol or symp > tol:
        raise VerificationError(
            f"Williamson residuals exceed tolerance: reconstruction {recon:.3e}, "
            f"symplectic {symp:.3e} (tol {tol:.1e})"
        )
    return WilliamsonForm(S=S, nu=nu, residuals=residuals)


def admissible_S(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symplectic S mapping the ball of radius sqrt(hbar) into the covariance ellipsoid.

    Exists exactly when the quantum condition holds; the returned matrix is
    the Williamson S.  The inclusion ``(hbar/2) * lambda_max(S^T Sigma^(-1) S) <= 1``
    is checked with a solve, independently of the eigensystem S is built from.
    """
    report, _, core = _quantum_condition(cov, tol, symplectic_form(cov.n))
    if not report.passed:
        raise QuantumConditionError(
            f"no admissible symplectic matrix: quantum condition fails "
            f"(margin {report.margin:.3e}, nu_min {report.residuals['nu_min']:.6g}, "
            f"hbar/2 = {0.5 * cov.hbar:.6g})",
            report,
        )
    form = _williamson(cov, tol, core)
    gram = form.S.T @ np.linalg.solve(cov.sigma, form.S)
    lam_max = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])
    if 0.5 * cov.hbar * lam_max > 1.0 + tol:
        raise VerificationError(
            f"ball inclusion test failed: (hbar/2)*lambda_max = {0.5 * cov.hbar * lam_max:.12g}"
        )
    return form.S
