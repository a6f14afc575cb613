"""Quantum condition, symplectic spectra, and the Williamson normal form.

A real symmetric positive-definite matrix Sigma is the covariance matrix of
a quantum state exactly when the Hermitian matrix ``Sigma + (i*hbar/2) J``
is positive semidefinite, equivalently when every symplectic eigenvalue
nu_k is at least hbar/2.  Both routes are computed here and cross-checked.
The Williamson construction returns a symplectic S with
``S D S^T = Sigma`` and ``D = diag(nu_1, nu_1, ..., nu_n, nu_n)``; it is
built from the real Schur form of the antisymmetric matrix
``K = Sigma^(1/2) J Sigma^(1/2)`` so that only orthogonal transformations
touch the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .checks import (
    DEFAULT_TOL,
    CheckReport,
    VerificationError,
    fro,
    margin_report,
    min_eig_hermitian,
    sym_sqrt,
)
from .phase_space import (
    ModePartition,
    Ordering,
    _require_even_square,
    convert_ordering,
    is_symplectic,
    symplectic_form,
)

#: Relative asymmetry allowed in a covariance matrix.
SYMMETRY_TOL = 1e-9


class QuantumConditionError(ValueError):
    """The covariance matrix does not satisfy the quantum condition."""


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Covariance matrix of an n-mode Gaussian state with its context.

    ``sigma`` must be symmetric (within ``SYMMETRY_TOL`` relative) and
    positive definite; the quantum condition is deliberately not part of
    the type so that non-quantum matrices (for example partial transposes)
    can still be represented.  ``hbar`` travels with the data because the
    quantum verdict depends on its numerical value.
    """

    sigma: np.ndarray
    partition: ModePartition
    hbar: float = 1.0
    ordering: Ordering = Ordering.INTERLEAVED

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        n = _require_even_square(sigma)
        if n != self.partition.n:
            raise ValueError(
                f"sigma is {sigma.shape[0]}x{sigma.shape[0]} but the partition "
                f"has {self.partition.n} modes (expected {self.partition.dim} rows)"
            )
        if not (self.hbar > 0):
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        asym = fro(sigma - sigma.T) / max(1.0, fro(sigma))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"sigma is not symmetric (relative asymmetry {asym:.3e})")
        if np.linalg.eigvalsh(0.5 * (sigma + sigma.T))[0] <= 0.0:
            raise ValueError("sigma is not positive definite")
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dim(self) -> int:
        return 2 * self.partition.n

    def as_interleaved(self) -> "CovarianceMatrix":
        """This matrix re-indexed to the interleaved ordering (no-op if already)."""
        if self.ordering is Ordering.INTERLEAVED:
            return self
        sigma = convert_ordering(self.sigma, self.ordering, Ordering.INTERLEAVED)
        return CovarianceMatrix(sigma, self.partition, self.hbar, Ordering.INTERLEAVED)

    def scale(self) -> float:
        """Norm scale used for relative tolerance gates."""
        return max(1.0, fro(self.sigma))


@dataclass(frozen=True, eq=False)
class WilliamsonForm:
    """Symplectic congruence Sigma = S D S^T with D = (+)_k nu_k I_2."""

    S: np.ndarray
    nu: np.ndarray
    residuals: dict[str, float]

    @property
    def D(self) -> np.ndarray:
        return np.diag(np.repeat(self.nu, 2))


def _antisym_core(sigma: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sigma^(1/2) and K = Sigma^(1/2) J Sigma^(1/2), antisymmetrized to kill roundoff drift."""
    root = sym_sqrt(sigma)
    K = root @ symplectic_form(n) @ root
    return root, 0.5 * (K - K.T)


def _symplectic_spectrum(sigma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive-definite matrix, descending.

    The eigenvalues of the antisymmetric K are +-i*nu_k, so its singular
    values list each nu_k twice; this avoids the non-normal product J Sigma.
    """
    n = _require_even_square(sigma)
    _, K = _antisym_core(sigma, n)
    svals = np.linalg.svd(K, compute_uv=False)
    pair_gap = float(np.max(np.abs(svals[0::2] - svals[1::2])))
    if pair_gap > 1e-6 * max(1.0, float(svals[0])):
        raise VerificationError(
            f"singular values of the antisymmetric core failed to pair (gap {pair_gap:.3e})"
        )
    return 0.5 * (svals[0::2] + svals[1::2])


def symplectic_eigenvalues(cov: CovarianceMatrix) -> np.ndarray:
    """Moduli of the eigenvalues of J Sigma, one per mode, sorted descending."""
    return _symplectic_spectrum(cov.as_interleaved().sigma)


def quantum_condition_check(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """Decide whether Sigma + (i*hbar/2) J is positive semidefinite.

    The margin is the smallest eigenvalue of that Hermitian matrix, computed
    over a real symmetric embedding.  The equivalent route
    ``min_k nu_k >= hbar/2`` is computed as well; a sign disagreement well
    outside the noise band raises VerificationError.
    """
    return _quantum_condition(cov, tol)[0]


def _quantum_condition(cov: CovarianceMatrix, tol: float) -> tuple[CheckReport, np.ndarray]:
    """``quantum_condition_check`` and the symplectic spectrum it computes on the way."""
    cov = cov.as_interleaved()
    J = symplectic_form(cov.n)
    margin = min_eig_hermitian(cov.sigma, 0.5 * cov.hbar * J)
    nu = _symplectic_spectrum(cov.sigma)
    nu_gap = float(nu[-1] - 0.5 * cov.hbar)
    scale = cov.scale()
    band = 10.0 * max(tol, 1e-12) * scale
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
    return margin_report(margin, scale, tol, residuals), nu


def williamson(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> WilliamsonForm:
    """Williamson normal form of a positive-definite covariance matrix.

    Algorithm: real Schur form of ``K = Sigma^(1/2) J Sigma^(1/2)``,
    ``K = Q T Q^T`` with orthogonal Q and T block diagonal with 2x2
    antisymmetric blocks; each block is canonicalized to
    ``[[0, nu], [-nu, 0]]`` with nu > 0 by a column swap inside the pair,
    modes are sorted by nu descending, and
    ``S = Sigma^(1/2) Q diag(nu_k^(-1/2))``.  Both defining residuals are
    verified before returning.

    Raises
    ------
    ValueError
        If sigma is not positive definite, or the Schur form cannot be
        canonicalized into 2x2 blocks (numerically defective input).
    VerificationError
        If a reconstruction or symplecticity residual exceeds ``tol``.
    """
    cov = cov.as_interleaved()
    sigma = cov.sigma
    n = cov.n
    root, K = _antisym_core(sigma, n)
    T, Q = scipy.linalg.schur(K, output="real")

    cut = 1e-12 * max(1.0, fro(K))
    nu = np.empty(n)
    block = 0
    i = 0
    while i < 2 * n:
        if i + 1 >= 2 * n or abs(T[i + 1, i]) <= cut:
            raise ValueError(
                "Schur canonicalization failure: the antisymmetric core has a "
                "(near-)real eigenvalue, the input is numerically defective"
            )
        val = 0.5 * (T[i, i + 1] - T[i + 1, i])
        if val < 0.0:
            Q[:, [i, i + 1]] = Q[:, [i + 1, i]]
            val = -val
        nu[block] = val
        block += 1
        i += 2

    order = np.argsort(-nu, kind="stable")
    cols = np.empty(2 * n, dtype=int)
    cols[0::2] = 2 * order
    cols[1::2] = 2 * order + 1
    Q = Q[:, cols]
    nu = nu[order]

    S = (root @ Q) / np.sqrt(np.repeat(nu, 2))[None, :]

    D = np.diag(np.repeat(nu, 2))
    recon = fro(S @ D @ S.T - sigma) / fro(sigma)
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
    the Williamson S, and the inclusion is verified through the equivalent
    matrix test ``(hbar/2) * lambda_max(S^T Sigma^(-1) S) <= 1``.
    """
    cov = cov.as_interleaved()
    report = quantum_condition_check(cov, tol)
    if not report.passed:
        raise QuantumConditionError(
            f"no admissible symplectic matrix: quantum condition fails "
            f"(margin {report.margin:.3e}, nu_min {report.residuals['nu_min']:.6g}, "
            f"hbar/2 = {0.5 * cov.hbar:.6g})"
        )
    form = williamson(cov, tol)
    gram = form.S.T @ np.linalg.solve(cov.sigma, form.S)
    lam_max = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])
    if 0.5 * cov.hbar * lam_max > 1.0 + tol:
        raise VerificationError(
            f"ball inclusion test failed: (hbar/2)*lambda_max = {0.5 * cov.hbar * lam_max:.12g}"
        )
    return form.S
