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
    _complex_frame,
    _gram_operand,
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
    own v and lambda; (iv) column k of the n x n complex b is x + ip of the
    k-th v by lambda descending, and i times it is -J v, an eigenvector for
    1/lambda (from P J = J P^(-1)); (v) U^T is the real form of b's unitary
    polar factor u, columns (v_1, -J v_1, ...) up to that snap, so U is in
    U(n) by type however roundoff bends nearly reciprocal classes; (vi) the
    unitarity of u and P = U^T Delta U are verified.

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
        # an orthonormal frame of this J-invariant class that brings J,
        # restricted to it, to 2x2 blocks consists of (v, -Jv) planes
        planes = _complex_frame(V[:, n - k : n + k], symplectic_form(n))[1]
        upper = np.hstack([upper, planes[:, 0::2]])
        lam = np.concatenate([lam, np.ones(k)])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    # (v, -Jv) is (z, iz) for z = x + ip; the unitary polar factor of the z columns
    # restores the orthogonality that eigenvectors of nearly reciprocal classes lose
    left, _, right = np.linalg.svd(upper[0::2, order] + 1j * upper[1::2, order])
    u = left @ right
    Ut = np.empty((2 * n, 2 * n))
    Ut[0::2, 0::2] = Ut[1::2, 1::2] = u.real
    Ut[1::2, 0::2] = u.imag
    Ut[0::2, 1::2] = -u.imag
    U = Ut.T
    # a group check, relative to max(1, ||u||^2); fro reads complex arrays as real views
    unitary = fro((u.conj().T @ u - np.eye(n)).view(float)) / _gram_operand(u.view(float))[2]
    # U^T Delta U, with the diagonal Delta applied as a column scaling
    recon = fro((Ut * _delta_diagonal(lam)) @ U - P) / fro(P)
    residuals = {"rotation_unitary": unitary, "reconstruction": recon}
    if unitary > tol or recon > tol:
        raise VerificationError(f"rotation diagonalization verification failed: {residuals}")
    return RotationDiagonalization(U=U, lambdas=lam, residuals=residuals)
