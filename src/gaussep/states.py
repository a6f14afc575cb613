"""Gaussian state model: Wigner densities, rotations, random fixtures.

A state is a covariance matrix plus a phase-space mean.  The Wigner
distribution of a Gaussian state is the normal density with those moments;
metaplectic rotations and more general symplectic transformations act
exactly on this data as congruences, which is all the package ever needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checks import DEFAULT_TOL, HUGE, hbar_input
from .decomp import _delta_diagonal
from .phase_space import ModePartition, is_orthosymplectic, symplectic_form
from .spectral import CovarianceMatrix, _require_state


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian quantum state (Sigma, mean); the statehood gate enforces the quantum condition.

    ``mean`` is in the interleaved ordering of ``cov``, defaults to zero and
    must be finite.
    """

    cov: CovarianceMatrix
    mean: np.ndarray | None = None

    def __post_init__(self):
        cov = self.cov
        mean = self.mean
        if mean is None:
            mean = np.zeros(cov.dim)
        mean = np.array(mean, dtype=float)
        if mean.shape != (cov.dim,):
            raise ValueError(f"mean has shape {mean.shape}, expected ({cov.dim},)")
        if not np.isfinite(mean).all():
            raise ValueError("mean contains non-finite entries")
        _require_state(cov, DEFAULT_TOL, "covariance matrix is not a quantum state")
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

    @property
    def n(self) -> int:
        return self.cov.n

    @cached_property
    def _cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.cov.sigma)

    @cached_property
    def _whitener(self) -> np.ndarray:
        # L^(-1) for Sigma = L L^T, so |L^(-1) y|^2 = y^T Sigma^(-1) y
        return np.linalg.inv(self._cholesky)

    @cached_property
    def _log_norm(self) -> float:
        # log of (2 pi)^(-n) det(Sigma)^(-1/2)
        return -self.n * math.log(2.0 * math.pi) - float(
            np.sum(np.log(np.diag(self._cholesky)))
        )


def wigner_eval(state: GaussianState, z) -> np.ndarray | float:
    """Wigner density (2 pi)^(-n) det(Sigma)^(-1/2) exp(-(z-m)^T Sigma^(-1) (z-m) / 2).

    Accepts a single phase-space point of shape (2n,) or a batch with
    trailing axis 2n; the inverse Cholesky factor of Sigma is cached on the state.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (2 * state.n,):
        raise ValueError(f"phase-space points must have trailing length {2 * state.n}")
    if not np.all(np.isfinite(z)):
        raise ValueError("phase-space point contains non-finite entries")
    y = np.atleast_2d(z - state.mean)
    w = state._whitener @ y.reshape(-1, 2 * state.n).T
    quad = np.sum(w * w, axis=0)
    values = np.exp(state._log_norm - 0.5 * quad)
    if z.ndim == 1:
        return float(values[0])
    return values.reshape(z.shape[:-1])


def rotate_state(state: GaussianState, U: np.ndarray, tol: float = DEFAULT_TOL) -> GaussianState:
    """Apply a symplectic rotation: Sigma -> U Sigma U^T, mean -> U mean.

    This is the exact covariance-level action of either metaplectic operator
    covering U, so pointwise ``wigner(rotated, z) == wigner(state, U^T z)``.
    Restricted to rotations on purpose: a general symplectic S acts as
    ``CovarianceMatrix(S @ Sigma @ S.T, ...)``.
    """
    U = np.asarray(U, dtype=float)
    dim = state.cov.dim
    if U.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {U.shape} does not match the {state.n}-mode state ({dim}x{dim})"
        )
    report = is_orthosymplectic(U, tol)
    if not report.passed:
        raise ValueError(f"matrix is not orthosymplectic (residuals {report.residuals})")
    cov = CovarianceMatrix(U @ state.cov.sigma @ U.T, state.cov.partition, state.cov.hbar)
    return GaussianState(cov, U @ state.mean)


def random_orthosymplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Random symplectic rotation from orthonormalizing a random frame.

    Vectors are drawn Gaussian, orthonormalized against the frame built so
    far, and completed with companions -J v, which keeps the frame both
    orthogonal and symplectic.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    dim = 2 * n_modes
    J = symplectic_form(n_modes)
    frame = np.empty((dim, 0))
    for _ in range(n_modes):
        for _attempt in range(16):
            v = rng.standard_normal(dim)
            v = v - frame @ (frame.T @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                break
        else:
            raise RuntimeError("failed to draw an independent frame vector")
        v = v / norm
        # second pass keeps orthogonality at roundoff for larger frames
        v = v - frame @ (frame.T @ v)
        v = v / np.linalg.norm(v)
        w = -J @ v
        frame = np.concatenate([frame, v[:, None], w[:, None]], axis=1)
    return frame


def _draw_bound(value, name: str) -> float:
    """``value`` as a float; raises ValueError naming ``name`` unless it is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def _overflow(what: str) -> ValueError:
    """The error for a matrix computed with overflow warnings off that came out non-finite."""
    return ValueError(f"{what} overflows float64: an entry passes the float64 maximum {HUGE:.3e}")


def random_symplectic(
    n_modes: int, rng: np.random.Generator, squeeze_max: float = 1.0
) -> np.ndarray:
    """Random symplectic matrix: rotations alternating with single-mode squeezes.

    Raises ValueError naming ``squeeze_max`` unless it is finite and
    nonnegative, and naming the float64 limit when the squeezes overflow.
    """
    squeeze_max = _draw_bound(squeeze_max, "squeeze_max")
    what = f"the random symplectic matrix for squeeze_max {squeeze_max:g}"
    if squeeze_max > 0.5 * HUGE:  # the draw's range 2 * squeeze_max itself overflows
        raise _overflow(what)
    S = random_orthosymplectic(n_modes, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            r = rng.uniform(-squeeze_max, squeeze_max, n_modes)
            S = (S * _delta_diagonal(np.exp(r))) @ random_orthosymplectic(n_modes, rng)
    if not np.isfinite(S).all():
        raise _overflow(what)
    return S


def random_covariance(
    partition: ModePartition,
    hbar: float = 1.0,
    seed: int | None = None,
    squeeze_max: float = 1.0,
    mix_max: float = 1.0,
) -> CovarianceMatrix:
    """Seeded random covariance matrix that always satisfies the quantum condition.

    Symplectic eigenvalues are drawn uniformly in
    ``[hbar/2, hbar/2 * (1 + mix_max)]`` and conjugated by a random
    symplectic built from rotations and squeezes with r in
    ``[-squeeze_max, squeeze_max]``.  Deterministic for a fixed seed.
    Raises ValueError naming ``squeeze_max`` or ``mix_max`` unless it is
    finite and nonnegative, and naming the float64 limit when Sigma overflows.
    """
    mix_max = _draw_bound(mix_max, "mix_max")
    hbar = hbar_input(hbar)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        nu = 0.5 * hbar * (1.0 + rng.uniform(0.0, mix_max, partition.n))
    S = random_symplectic(partition.n, rng, squeeze_max)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = (S * np.repeat(nu, 2)[None, :]) @ S.T
    if not np.isfinite(sigma).all():
        raise _overflow(
            f"the random covariance matrix for squeeze_max {squeeze_max:g}, "
            f"mix_max {mix_max:g}, hbar {hbar:g}"
        )
    return CovarianceMatrix(sigma, partition, hbar)


def two_mode_squeezed_vacuum(r: float, hbar: float = 1.0) -> CovarianceMatrix:
    """Covariance matrix of the two-mode squeezed vacuum with squeezing r.

    The canonical pure entangled Gaussian state; used as the fixture family
    of the tests and demo scripts.
    """
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    sigma = 0.5 * hbar * np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return CovarianceMatrix(sigma, ModePartition(1, 1), hbar)
