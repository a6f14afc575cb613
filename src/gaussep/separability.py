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

from dataclasses import dataclass, replace

import numpy as np

from .checks import (
    DEFAULT_TOL,
    ROUNDTRIP_TOL,
    CheckReport,
    VerificationError,
    hbar_input,
    margin_report,
    min_eig_hermitian,
    min_eig_symmetric,
    symmetric_input,
)
from .decomp import _delta_diagonal, _left_polar, _rotation_from_eigensystem
from .phase_space import direct_sum, is_symplectic, symplectic_form
from .spectral import (
    CovarianceMatrix,
    _quantum_condition,
    _require_state,
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
        object.__setattr__(self, "hbar", hbar_input(self.hbar))

    @property
    def n_a(self) -> int:
        return self.sigma_a.shape[0] // 2

    @property
    def n_b(self) -> int:
        return self.sigma_b.shape[0] // 2


@dataclass(frozen=True, eq=False)
class DisentangleResult:
    """Rotation U, rotated covariance, witness, mode stretches, and every check.

    ``residuals`` holds the three stage residuals of P and the rotation, which no
    report carries.  The reports the pipeline computed on the way are kept as
    well: ``quantum_condition`` for the input, its ``symplectic_eigenvalues``
    (descending) and ``werner_wolf`` for ``witness`` against ``sigma_U``.
    The witness is one block ``min(hbar/2, nu_min) diag(lambda_k^2, lambda_k^-2)``
    per mode, so it certifies ``sigma_U`` as fully n-partite separable, not only A|B.
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
    the three minimum eigenvalues, gated at ``-tol * ||Sigma||``.
    Conditions landing within the gate of zero are flagged in ``note``;
    the pipeline's witness blocks are minimal-uncertainty states at the
    input's own limit ``min(hbar/2, nu_min)``: on the boundary of (i) and (ii)
    by design, or outside it by the input's own defect.
    """
    if witness.n_a != cov.partition.n_a or witness.n_b != cov.partition.n_b:
        raise ValueError(
            f"witness blocks of {witness.n_a}+{witness.n_b} modes do not match the "
            f"partition {cov.partition.n_a}+{cov.partition.n_b}"
        )
    if abs(witness.hbar - cov.hbar) > ROUNDTRIP_TOL * cov.hbar:
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

    Pipeline: the statehood gate ``spectral._require_state`` with its SVD
    ``K = X s Y^T`` of ``K = Sigma^(1/2) J Sigma^(1/2)``; the positive factor
    ``P = (S S^T)^(1/2) = W diag(sigma) W^T`` of every admissible S from the
    SVD ``M = Sigma^(1/2) Y s^(-1/2) = W sigma Z^T``; rotation
    diagonalization P = U^T Delta U from the eigensystem (sigma, W); rotated
    matrix Sigma_U = U Sigma U^T; witness blocks nu_eff Delta_A^2 and
    nu_eff Delta_B^2 with ``nu_eff = min(hbar/2, nu_min)``, one single-mode
    block per mode, so a pass certifies Sigma_U as fully n-partite separable.
    Every stage is verified once: P must be symplectic, U the real form of a
    unitary u with U^T Delta U = P, and the witness must pass the Werner-Wolf
    check against Sigma_U, whose condition (iii) is the squeeze bound
    nu_eff Delta^2 <= Sigma_U.  Each number is stored once: the
    margins in the two reports, the other stage residuals in ``residuals``.
    The run is deterministic: identical inputs produce identical outputs.

    Raises
    ------
    QuantumConditionError
        The input does not satisfy the quantum condition (not a state); the
        error carries the failing report.
    ValueError
        The rotated matrix ``sigma_U`` is not positive definite in float64;
        the message names ``sigma_U`` and the float64 limit.
    VerificationError
        A downstream stage failed its tolerance; the message names the stage,
        and for the Werner-Wolf check its tightest condition and margin.
    """
    report, nu, (root, _, s, Yt) = _require_state(cov, tol, "cannot disentangle")
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
    try:
        sigma_U = CovarianceMatrix(U @ cov.sigma @ U.T, cov.partition, cov.hbar)
    except ValueError as exc:
        # the constructor's message names its matrix sigma, which here is not the input
        raise ValueError(f"the rotated matrix sigma_U{str(exc).removeprefix('sigma')}") from exc

    # at the input's own quantum limit: a stored state may sit below hbar/2 by roundoff
    nu_eff = min(0.5 * cov.hbar, float(nu[-1]))
    d = _delta_diagonal(lam)
    w = (nu_eff * d) * d
    cut = 2 * cov.partition.n_a
    witness = SeparabilityWitness(np.diag(w[:cut]), np.diag(w[cut:]), cov.hbar)

    ww = werner_wolf_check(sigma_U, witness, tol)
    if not ww.passed:
        tightest = min(ww.residuals, key=ww.residuals.get)
        raise VerificationError(
            f"witness failed the Werner-Wolf check: {tightest} {ww.residuals[tightest]:.3e}"
        )

    residuals = {
        "P_symplectic": p_symplectic,
        "rotation_unitary": rotation.residuals["rotation_unitary"],
        "rotation_reconstruction": rotation.residuals["reconstruction"],
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

    The partial transpose flips every B momentum (Lambda), and
    ``Lambda Sigma Lambda + (i*hbar/2) J >= 0`` exactly when
    ``Sigma + (i*hbar/2) Lambda J Lambda >= 0``, with Lambda J Lambda =
    J_A (+) -J_B: the quantum condition runs against that form, on Sigma's own
    eigensystem.  A failure certifies entanglement (``passed`` False).  A pass
    is PPT-consistency only; it decides separability conclusively just for
    1 x m partitions, which the note spells out rather than overclaiming.
    A non-state has no partial transpose to judge: the statehood gate
    ``spectral._require_state`` runs first, as in ``disentangle``, and raises
    QuantumConditionError carrying the failing report.  ``disentangle``
    does not call this test, since the Werner-Wolf witness is its
    certificate; ``gaussep ppt`` reports it.
    """
    _require_state(cov, tol, "cannot run the PPT test")
    flipped = direct_sum(symplectic_form(cov.partition.n_a), -symplectic_form(cov.partition.n_b))
    report = _quantum_condition(cov, tol, flipped)[0]
    residuals = dict(report.residuals)
    residuals["nu_min_tilde"] = residuals.pop("nu_min")
    if report.passed:
        if min(cov.partition.n_a, cov.partition.n_b) == 1:
            note = "PPT holds; conclusive for a 1 x m partition: state is separable"
        else:
            note = "PPT holds; inconclusive for this partition, no entanglement detected"
    else:
        note = "entangled: partial transpose violates the quantum condition"
    return replace(report, residuals=residuals, note=note)
