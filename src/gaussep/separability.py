"""Werner-Wolf certificates, the PPT detector, and the disentangling pipeline.

A Gaussian state with covariance matrix Sigma is AB-separable exactly when
there are partial covariance matrices Sigma_A, Sigma_B satisfying their own
quantum conditions with ``Sigma >= Sigma_A (+) Sigma_B``.  The pipeline
below constructs, for any valid state, a symplectic rotation U such that
the rotated matrix ``Sigma_U = U Sigma U^T`` admits such a witness: with
P = (S S^T)^(1/2) for an admissible S and P = U^T Delta U, the blocks
``Sigma_A = (hbar/2) Delta_A^2`` and ``Sigma_B = (hbar/2) Delta_B^2`` are
minimal-uncertainty squeezed covariances dominated by Sigma_U.

P needs no S: every admissible S has
``S S^T = Sigma^(1/2) |K|^(-1) Sigma^(1/2)`` with
``K = Sigma^(1/2) J Sigma^(1/2)``, so with ``K = X s Y^T`` the matrix
``M = Sigma^(1/2) Y s^(-1/2)`` has ``M M^T = S S^T`` and one SVD of M gives
P together with its eigensystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import (
    DEFAULT_TOL,
    ROUNDTRIP_TOL,
    CheckReport,
    VerificationError,
    margin_report,
    min_eig_hermitian,
    min_eig_symmetric,
    symmetric_input,
)
from .decomp import _left_polar, _rotation_from_eigensystem, delta_blocks
from .phase_space import direct_sum, is_symplectic, symplectic_form
from .spectral import (
    CovarianceMatrix,
    QuantumConditionError,
    _quantum_condition,
    quantum_condition_check,
    williamson,  # noqa: F401  (unused here; bench/test_bench.py traces this binding)
)


@dataclass(frozen=True, eq=False)
class SeparabilityWitness:
    """Pair (Sigma_A, Sigma_B) certifying Werner-Wolf separability of some Sigma.

    Each block must pass ``checks.symmetric_input``; like
    ``CovarianceMatrix.sigma`` it is stored as the gate's exact symmetric
    part, read-only, in the interleaved ordering.
    """

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("sigma_a", "sigma_b"):
            object.__setattr__(self, name, symmetric_input(getattr(self, name), name))
        if not (self.hbar > 0):
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def n_a(self) -> int:
        return self.sigma_a.shape[0] // 2

    @property
    def n_b(self) -> int:
        return self.sigma_b.shape[0] // 2


@dataclass(frozen=True, eq=False)
class DisentangleResult:
    """Rotation U, rotated covariance, witness, mode stretches, and all margins.

    The reports the pipeline computed on the way are kept as well:
    ``quantum_condition`` for the input, its ``symplectic_eigenvalues``
    (descending) and ``werner_wolf`` for ``witness`` against ``sigma_U``.
    """

    U: np.ndarray
    sigma_U: CovarianceMatrix
    witness: SeparabilityWitness
    lambdas: np.ndarray
    residuals: dict[str, float]
    quantum_condition: CheckReport
    symplectic_eigenvalues: np.ndarray
    werner_wolf: CheckReport


def werner_wolf_check(
    cov: CovarianceMatrix, witness: SeparabilityWitness, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Verify the three Werner-Wolf conditions for (Sigma, Sigma_A, Sigma_B).

    (i) Sigma_A + (i*hbar/2) J_A >= 0, (ii) the same for B, and
    (iii) Sigma - Sigma_A (+) Sigma_B >= 0.  The margin is the smallest of
    the three minimum eigenvalues, gated at ``-tol * max(1, ||Sigma||)``.
    Conditions landing within the gate of zero are flagged in ``note``;
    the witness blocks of the disentangling pipeline are minimal-uncertainty
    states, so (i) and (ii) sit on the boundary by design.
    """
    if witness.n_a != cov.partition.n_a or witness.n_b != cov.partition.n_b:
        raise ValueError(
            f"witness blocks of {witness.n_a}+{witness.n_b} modes do not match the "
            f"partition {cov.partition.n_a}+{cov.partition.n_b}"
        )
    if abs(witness.hbar - cov.hbar) > ROUNDTRIP_TOL * max(1.0, cov.hbar):
        raise ValueError(f"hbar mismatch: witness {witness.hbar}, state {cov.hbar}")

    half = 0.5 * cov.hbar
    margins = {
        "A_quantum_min_eig": min_eig_hermitian(
            witness.sigma_a, half * symplectic_form(witness.n_a)
        ),
        "B_quantum_min_eig": min_eig_hermitian(
            witness.sigma_b, half * symplectic_form(witness.n_b)
        ),
        "domination_min_eig": min_eig_symmetric(
            cov.sigma - direct_sum(witness.sigma_a, witness.sigma_b)
        ),
    }
    scale = cov.scale()
    boundary = [name for name, value in margins.items() if abs(value) <= tol * scale]
    note = f"boundary (within tol of zero): {', '.join(boundary)}" if boundary else ""
    return margin_report(min(margins.values()), scale, tol, margins, note)


def disentangle(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> DisentangleResult:
    """Construct a symplectic rotation making the state certifiably separable.

    Pipeline: the quantum condition and the SVD ``K = X s Y^T`` of
    ``K = Sigma^(1/2) J Sigma^(1/2)``; the positive factor
    ``P = (S S^T)^(1/2) = W diag(sigma) W^T`` of every admissible S from the
    SVD ``M = Sigma^(1/2) Y s^(-1/2) = W sigma Z^T``; rotation
    diagonalization P = U^T Delta U from the eigensystem (sigma, W); rotated
    matrix Sigma_U = U Sigma U^T; witness blocks (hbar/2) Delta_A^2 and
    (hbar/2) Delta_B^2.  Every stage is verified: P must be symplectic, U
    orthosymplectic with U^T Delta U = P, and the squeeze bound
    (hbar/2) Delta^2 <= Sigma_U and the full Werner-Wolf check must pass;
    all margins are recorded.  The squeeze bound is Werner-Wolf condition
    (iii) for this witness, so ``squeeze_bound_min_eig`` is read from the
    Werner-Wolf domination margin; its gate is applied first.  The run is
    deterministic: identical inputs produce identical outputs.

    Raises
    ------
    QuantumConditionError
        The input does not satisfy the quantum condition (not a state); the
        error carries the failing report.
    VerificationError
        A downstream stage failed its tolerance; the message names the stage.
    """
    report, nu, (root, s, Yt) = _quantum_condition(cov, tol)
    if not report.passed:
        raise QuantumConditionError(
            f"cannot disentangle: quantum condition fails (margin {report.margin:.3e})", report
        )
    # M = Sigma^(1/2) Y s^(-1/2) has M M^T = S S^T for every admissible S
    P, stretch, W, _ = _left_polar((root @ Yt.T) / np.sqrt(s))
    p_symplectic = is_symplectic(P, tol).residuals["symplectic"]
    if p_symplectic > tol:
        raise VerificationError(
            f"positive factor P is not symplectic (residual {p_symplectic:.3e})"
        )
    try:
        rotation = _rotation_from_eigensystem(P, stretch[::-1], W[:, ::-1], tol)
    except ValueError as exc:
        # our own intermediates failed a precondition: that is a pipeline bug
        # or an input at the edge of conditioning, not a caller error
        raise VerificationError(f"disentangle pipeline stage failed: {exc}") from exc

    U = rotation.U
    lam = rotation.lambdas
    half = 0.5 * cov.hbar
    sigma_U = CovarianceMatrix(U @ cov.sigma @ U.T, cov.partition, cov.hbar)

    delta_a, delta_b = delta_blocks(lam, cov.partition)
    witness = SeparabilityWitness(half * delta_a @ delta_a, half * delta_b @ delta_b, cov.hbar)

    ww = werner_wolf_check(sigma_U, witness, tol)
    # the squeeze bound (hbar/2) Delta^2 <= Sigma_U is Werner-Wolf condition (iii)
    # for this witness, so its margin is the domination margin
    squeeze_margin = ww.residuals["domination_min_eig"]
    if squeeze_margin < -tol * cov.scale():
        raise VerificationError(
            f"squeeze bound (hbar/2) Delta^2 <= Sigma_U failed: margin {squeeze_margin:.3e}"
        )
    if not ww.passed:
        raise VerificationError(f"witness failed the Werner-Wolf check: margin {ww.margin:.3e}")

    residuals = {
        "quantum_condition_margin": report.margin,
        "P_symplectic": p_symplectic,
        "rotation_orthogonal": rotation.residuals["rotation_orthogonal"],
        "rotation_symplectic": rotation.residuals["rotation_symplectic"],
        "rotation_reconstruction": rotation.residuals["reconstruction"],
        "squeeze_bound_min_eig": squeeze_margin,
        "werner_wolf_margin": ww.margin,
    }
    return DisentangleResult(
        U=U,
        sigma_U=sigma_U,
        witness=witness,
        lambdas=lam,
        residuals=residuals,
        quantum_condition=report,
        symplectic_eigenvalues=nu,
        werner_wolf=ww,
    )


def ppt_test(cov: CovarianceMatrix, tol: float = DEFAULT_TOL) -> CheckReport:
    """Partial-transpose entanglement detector on the covariance level.

    Flips the sign of every B-mode momentum (Lambda = I_A (+) diag(1,-1)
    per B mode) and runs the quantum condition on
    ``Sigma~ = Lambda Sigma Lambda``.  A failure certifies entanglement
    (``passed`` False).  A pass is PPT-consistency only; it decides
    separability conclusively just for 1 x m partitions, which the note
    spells out rather than overclaiming.
    """
    signs = np.ones(cov.dim)
    signs[2 * cov.partition.n_a + 1 :: 2] = -1.0
    tilde = CovarianceMatrix(
        cov.sigma * np.outer(signs, signs), cov.partition, cov.hbar
    )
    report = quantum_condition_check(tilde, tol)
    residuals = dict(report.residuals)
    residuals["nu_min_tilde"] = residuals.pop("nu_min")
    if report.passed:
        if min(cov.partition.n_a, cov.partition.n_b) == 1:
            note = "PPT holds; conclusive for a 1 x m partition: state is separable"
        else:
            note = "PPT holds; inconclusive for this partition, no entanglement detected"
    else:
        note = "entangled: partial transpose violates the quantum condition"
    return CheckReport(
        passed=report.passed,
        margin=report.margin,
        scale=report.scale,
        tol=report.tol,
        residuals=residuals,
        note=note,
    )
