"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np

from gaussep import (
    CovarianceMatrix,
    ModePartition,
    random_covariance,
    random_symplectic,
    symplectic_form,
)
from gaussep.checks import SYMMETRY_TOL, fro


def two_mode_squeezer(r: float) -> np.ndarray:
    """Two-mode squeezing symplectic in interleaved ordering (oracle construction)."""
    c, s = math.cosh(r), math.sinh(r)
    Z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * Z])
    bot = np.hstack([s * Z, c * np.eye(2)])
    return np.vstack([top, bot])


def hermitian_min_eig_oracle(sigma: np.ndarray, hbar: float) -> float:
    """Min eigenvalue of sigma + (i*hbar/2) J via the complex eigensolver."""
    n = sigma.shape[0] // 2
    H = sigma + 0.5j * hbar * symplectic_form(n)
    return float(np.linalg.eigvalsh(H)[0].real)


def symplectic_spectrum_oracle(sigma: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of J Sigma via the general eigensolver, descending."""
    n = sigma.shape[0] // 2
    mods = np.abs(np.linalg.eigvals(symplectic_form(n) @ sigma))
    mods = np.sort(mods)[::-1]
    return 0.5 * (mods[0::2] + mods[1::2])


def pure_2_2_state() -> CovarianceMatrix:
    """A pure 2+2 state: every symplectic eigenvalue sits on the quantum limit."""
    return random_covariance(ModePartition(2, 2), seed=5, mix_max=0.0)


def raw_random_sigma(partition: ModePartition, seed: int, squeeze_max: float) -> np.ndarray:
    """The symmetrized sigma ``random_covariance`` (hbar 1, mix_max 1) hands its constructor.

    Strong squeezing puts it at the float64 limit, where the constructor
    may refuse it; this gives the matrix itself, for a document.
    """
    rng = np.random.default_rng(seed)
    nu = 0.5 * (1.0 + rng.uniform(0.0, 1.0, partition.n))
    S = random_symplectic(partition.n, rng, squeeze_max)
    sigma = (S * np.repeat(nu, 2)[None, :]) @ S.T
    return 0.5 * (sigma + sigma.T)


def antisymmetric_perturbation(matrix: np.ndarray, seed: int, factor: float = 0.99) -> np.ndarray:
    """``matrix`` plus a random antisymmetric term at factor * SYMMETRY_TOL relative asymmetry."""
    a = np.random.default_rng(seed).standard_normal(matrix.shape)
    a = a - a.T
    return matrix + a * (factor * SYMMETRY_TOL * max(1.0, fro(matrix)) / fro(2.0 * a))


ACCEPTANCE_PARTITIONS = [(1, 1), (1, 2), (2, 2), (2, 3)]
ACCEPTANCE_HBARS = [0.5, 1.0, 2.0]


def acceptance_states(count: int = 200):
    """The seeded random-state family used by the acceptance criteria."""
    for seed in range(count):
        n_a, n_b = ACCEPTANCE_PARTITIONS[seed % len(ACCEPTANCE_PARTITIONS)]
        hbar = ACCEPTANCE_HBARS[seed % len(ACCEPTANCE_HBARS)]
        cov = random_covariance(
            ModePartition(n_a, n_b), hbar=hbar, seed=seed, squeeze_max=1.5, mix_max=2.0
        )
        yield seed, cov


def assert_valid_quantum(cov: CovarianceMatrix, tol: float = 1e-10) -> None:
    from gaussep import quantum_condition_check

    report = quantum_condition_check(cov, tol)
    assert report.passed, f"margin {report.margin}"
