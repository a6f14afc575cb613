"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np

from gaussep import (
    CovarianceMatrix,
    ModePartition,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    symplectic_form,
    two_mode_squeezed_vacuum,
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
    return matrix + a * (factor * SYMMETRY_TOL * fro(matrix) / fro(2.0 * a))


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


def near_unit_corpus(count: int, seed: int = 12345):
    """Pure states with near-unit stretches under one rotation of all modes: ``(r, cov)`` pairs.

    Each state holds 1-2 copies of TMSV(r), r = 10^U(-14, log10 3), beside 1-3
    vacua; part A is the copies' first modes and the vacua, part B their second
    modes.  One ``random_orthosymplectic`` of all modes mixes A and B, so P's
    near-unit and unit eigenvalue classes share no coordinate axes.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_tmsv = int(rng.integers(1, 3))
        n_vac = int(rng.integers(1, 4))
        r = 10.0 ** rng.uniform(-14.0, math.log10(3.0))
        n = 2 * n_tmsv + n_vac
        sigma = 0.5 * np.eye(2 * n)
        tmsv = two_mode_squeezed_vacuum(r).sigma
        for k in range(n_tmsv):
            a, b = k, n_tmsv + n_vac + k
            idx = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1]
            sigma[np.ix_(idx, idx)] = tmsv
        rotation = random_orthosymplectic(n, rng)
        sigma = rotation @ sigma @ rotation.T
        yield r, CovarianceMatrix(0.5 * (sigma + sigma.T), ModePartition(n_tmsv + n_vac, n_tmsv))


def assert_valid_quantum(cov: CovarianceMatrix, tol: float = 1e-10) -> None:
    from gaussep import quantum_condition_check

    report = quantum_condition_check(cov, tol)
    assert report.passed, f"margin {report.margin}"
