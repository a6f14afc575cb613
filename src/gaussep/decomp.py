"""Symplectic polar decomposition and rotation diagonalization of its positive factor.

Any symplectic S factors as S = P R with P = (S S^T)^(1/2) symmetric
positive-definite symplectic and R = P^(-1) S orthosymplectic (the left
polar form; it is the one for which S maps the centered ball like P does).
The eigenvalues of P come in reciprocal pairs (lambda, 1/lambda), and P is
diagonalized by a symplectic rotation U as P = U^T Delta U with
Delta = (+)_k diag(lambda_k, 1/lambda_k), lambda_k >= 1, sorted descending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import (
    DEFAULT_TOL,
    EPS,
    PAIR_TOL,
    POLAR_P_FACTOR,
    UNIT_BAND,
    VerificationError,
    fro,
    symmetric_input,
)
from .phase_space import (
    ModePartition,
    _complex_frame,
    is_orthosymplectic,
    is_symplectic,
    symplectic_form,
)


class PairingError(ValueError):
    """Eigenvalues of the input do not come in reciprocal pairs.

    Signals that the matrix handed to the diagonalizer was not symplectic.
    """


@dataclass(frozen=True, eq=False)
class PolarForm:
    """Factors of S = P R: symmetric positive-definite symplectic P, rotation R."""

    P: np.ndarray
    R: np.ndarray
    residuals: dict[str, float]


@dataclass(frozen=True, eq=False)
class RotationDiagonalization:
    """Rotation U and per-mode stretches lambda_k with P = U^T Delta U."""

    U: np.ndarray
    lambdas: np.ndarray
    residuals: dict[str, float]


def delta_matrix(lambdas) -> np.ndarray:
    """Diagonal symplectic (+)_k diag(lambda_k, 1/lambda_k) in interleaved ordering."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0 or np.any(lambdas <= 0):
        raise ValueError("lambdas must be a non-empty vector of positive reals")
    return np.diag(_delta_diagonal(lambdas))


def _delta_diagonal(lambdas: np.ndarray) -> np.ndarray:
    """The diagonal (lambda_1, 1/lambda_1, lambda_2, ...) of Delta."""
    diag = np.empty(2 * lambdas.size)
    diag[0::2] = lambdas
    diag[1::2] = 1.0 / lambdas
    return diag


def delta_blocks(lambdas, partition: ModePartition) -> tuple[np.ndarray, np.ndarray]:
    """Split Delta into its A-part (first n_a modes) and B-part."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size != partition.n:
        raise ValueError(
            f"{lambdas.size} mode stretches do not match a partition of {partition.n} modes"
        )
    return delta_matrix(lambdas[: partition.n_a]), delta_matrix(lambdas[partition.n_a :])


def reconstruct(U: np.ndarray, lambdas) -> np.ndarray:
    """Assemble U^T Delta U from a diagonalization."""
    U = np.asarray(U, dtype=float)
    delta = delta_matrix(lambdas)
    if U.shape != delta.shape:
        raise ValueError(f"rotation shape {U.shape} does not match {delta.shape[0] // 2} modes")
    return U.T @ delta @ U


def _left_polar(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positive factor P = (A A^T)^(1/2) from one SVD A = W diag(stretch) Zt.

    Returns P = W diag(stretch) W^T (symmetrized, so exactly symmetric),
    ``stretch`` (descending), W and Zt; the orthogonal factor is W Zt.
    """
    W, stretch, Zt = np.linalg.svd(A)
    P = (W * stretch) @ W.T
    return 0.5 * (P + P.T), stretch, W, Zt


def symplectic_polar(S: np.ndarray, tol: float = DEFAULT_TOL) -> PolarForm:
    """Left polar decomposition S = P R of a symplectic matrix.

    Both factors come from one SVD S = W diag(sigma) Z^T: P = W diag(sigma) W^T
    and R = W Z^T, so R is orthogonal by construction and kappa(S) is never
    squared.  The input is checked for symplecticity, and all factor
    properties (factorization residual, P symplectic, R orthosymplectic) are
    verified.
    """
    S = np.asarray(S, dtype=float)
    in_rep = is_symplectic(S, tol)
    if not in_rep.passed:
        raise ValueError(
            f"input is not symplectic (residual {in_rep.residuals['symplectic']:.3e}, "
            f"tol {tol:.1e})"
        )
    P, _, W, Zt = _left_polar(S)
    R = W @ Zt

    r_rep = is_orthosymplectic(R, tol)
    residuals = {
        "factorization": fro(P @ R - S) / fro(S),
        "P_symplectic": is_symplectic(P, tol).residuals["symplectic"],
        "R_orthogonal": r_rep.residuals["orthogonal"],
        "R_symplectic": r_rep.residuals["symplectic"],
        "input_symplectic": in_rep.residuals["symplectic"],
    }
    p_gate = POLAR_P_FACTOR * tol
    if residuals["factorization"] > tol or not r_rep.passed or residuals["P_symplectic"] > p_gate:
        raise VerificationError(f"polar factor verification failed: {residuals}")
    return PolarForm(P=P, R=R, residuals=residuals)


def ortho_diagonalize(P: np.ndarray, tol: float = DEFAULT_TOL) -> RotationDiagonalization:
    """Diagonalize a positive-definite symplectic P by a symplectic rotation.

    Steps: (i) eigenvalues w of P ascending, with eigenvectors; (ii) w[n + i]
    pairs with w[n - 1 - i], and their product must be 1 within
    ``10 * PAIR_TOL``; (iii) the middle eigenvalues that roundoff
    (``UNIT_BAND`` n eps kappa(P)) cannot tell from 1 form the unit class,
    split into planes by the complex eigenvectors of J restricted to it, one
    vector v per plane with lambda = 1; every larger eigenvalue keeps its
    own v and lambda; (iv) U^T gets columns (v_1, -J v_1, v_2, -J v_2, ...), where
    -J v is an eigenvector for 1/lambda (from P J = J P^(-1)), with modes
    sorted by lambda descending; (v) U is replaced by its orthogonal polar
    factor, which still commutes with J, so roundoff in the eigenvectors of
    nearly reciprocal classes cannot take U out of U(n); (vi) every
    RotationDiagonalization invariant is verified.

    Raises
    ------
    ValueError
        Input fails the input gate (``checks.symmetric_input``), or is not
        positive definite or not symplectic.
    PairingError
        Eigenvalues at mirrored positions are not reciprocal; the input was
        not symplectic.
    VerificationError
        The assembled rotation fails its own invariants at ``tol``.
    """
    P = symmetric_input(P, "input")
    symp_rep = is_symplectic(P, tol)
    if not symp_rep.passed:
        raise ValueError(
            f"input is not symplectic (residual {symp_rep.residuals['symplectic']:.3e})"
        )
    w, V = np.linalg.eigh(P)
    if w[0] <= 0.0:
        raise ValueError("input is not positive definite")
    rotation = _rotation_from_eigensystem(P, w, V, tol)
    residuals = {**rotation.residuals, "input_symplectic": symp_rep.residuals["symplectic"]}
    return RotationDiagonalization(U=rotation.U, lambdas=rotation.lambdas, residuals=residuals)


def _rotation_from_eigensystem(
    P: np.ndarray, w: np.ndarray, V: np.ndarray, tol: float = DEFAULT_TOL
) -> RotationDiagonalization:
    """Steps (ii)-(vi) of ``ortho_diagonalize`` for a P whose eigensystem is known.

    ``w`` holds the eigenvalues of P ascending and the columns of ``V`` the
    matching orthonormal eigenvectors.
    """
    n = P.shape[0] // 2
    # the same float64 arithmetic on Python floats, without numpy scalar overhead
    wf = w.tolist()
    # w ascends, so w[n + i] and w[n - 1 - i] are reciprocal partners
    defect = max(abs(wf[n + i] * wf[n - 1 - i] - 1.0) for i in range(n))
    if defect > 10.0 * PAIR_TOL:
        raise PairingError(
            f"eigenvalues are not reciprocal: a pair's product is off 1 by {defect:.3e}"
        )
    # the unit class: the 2k middle eigenvalues that the eigensolver's roundoff,
    # about eps * kappa(P) each, cannot tell from 1; larger ones keep their lambda
    band = 1.0 + UNIT_BAND * n * EPS * wf[-1] / wf[0]
    k = sum(x <= band for x in wf[n:])
    upper = V[:, n + k :]
    lam = w[n + k :]
    if k:
        # an orthonormal frame of this J-invariant class that brings the
        # restricted form B^T J B to 2x2 blocks consists of (v, -Jv) planes
        B = V[:, n - k : n + k]
        C = B.T @ symplectic_form(n) @ B
        planes = B @ _complex_frame(0.5 * (C - C.T))[1]
        upper = np.hstack([upper, planes[:, 0::2]])
        lam = np.concatenate([lam, np.ones(k)])
    # every companion is -Jv
    companions = np.empty_like(upper)
    companions[0::2] = -upper[1::2]
    companions[1::2] = upper[0::2]

    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    basis = np.empty((2 * n, 2 * n))
    basis[:, 0::2] = upper[:, order]
    basis[:, 1::2] = companions[:, order]
    # (v, -Jv) columns make the basis commute with J, and so does its orthogonal
    # polar factor: snapping onto it restores the orthogonality that
    # eigenvectors of nearly reciprocal classes lose, and keeps U in U(n)
    left, _, right = np.linalg.svd(basis)
    U = (left @ right).T

    rot_rep = is_orthosymplectic(U, tol)
    # U^T Delta U, with the diagonal Delta applied as a column scaling
    recon = fro((U.T * _delta_diagonal(lam)) @ U - P) / fro(P)
    residuals = {
        "rotation_orthogonal": rot_rep.residuals["orthogonal"],
        "rotation_symplectic": rot_rep.residuals["symplectic"],
        "reconstruction": recon,
    }
    if not rot_rep.passed or recon > tol:
        raise VerificationError(f"rotation diagonalization verification failed: {residuals}")
    return RotationDiagonalization(U=U, lambdas=lam, residuals=residuals)
