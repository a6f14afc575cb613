import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gaussep import (
    CovarianceMatrix,
    GaussianState,
    ModePartition,
    QuantumConditionError,
    delta_matrix,
    disentangle,
    direct_sum,
    is_orthosymplectic,
    is_symplectic,
    purity,
    push_symplectic,
    quantum_condition_check,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    rotate_state,
    symplectic_eigenvalues,
    two_mode_squeezed_vacuum,
    wigner_eval,
)
from gaussep.checks import EPS

PART11 = ModePartition(1, 1)


def vacuum_state(n_b=1, hbar=1.0):
    part = ModePartition(1, n_b)
    return GaussianState(CovarianceMatrix(0.5 * hbar * np.eye(part.dim), part, hbar))


def mode_plane_grid(half_width, points):
    """2D (x, p) grid embedded in the A plane of a two-mode phase space."""
    axis = np.linspace(-half_width, half_width, points)
    x, p = np.meshgrid(axis, axis, indexing="ij")
    z = np.zeros(x.shape + (4,))
    z[..., 0] = x
    z[..., 1] = p
    step = axis[1] - axis[0]
    return z, x, p, step


class TestWigner:
    def test_vacuum_peak_value(self):
        # each vacuum mode contributes the single-mode peak
        # (2 pi)^-1 det(I/2)^(-1/2) = 1/pi, so two modes give 1/pi^2
        state = GaussianState(CovarianceMatrix(0.5 * np.eye(4), PART11), np.zeros(4))
        assert wigner_eval(state, np.zeros(4)) == pytest.approx(1.0 / math.pi**2, rel=1e-12)

    def test_matches_density_formula(self):
        # independent evaluation through a linear solve with Sigma and its determinant
        cov = random_covariance(ModePartition(2, 3), seed=4, squeeze_max=1.0)
        rng = np.random.default_rng(4)
        mean = rng.standard_normal(10)
        points = mean + rng.standard_normal((7, 10))
        y = points - mean
        quad = np.sum(y * np.linalg.solve(cov.sigma, y.T).T, axis=1)
        norm = (2.0 * math.pi) ** 5 * math.sqrt(np.linalg.det(cov.sigma))
        expected = np.exp(-0.5 * quad) / norm
        state = GaussianState(cov, mean)
        assert wigner_eval(state, points) == pytest.approx(expected, rel=1e-12)
        assert wigner_eval(state, points[0]) == pytest.approx(expected[0], rel=1e-12)

    def test_decays_along_rays(self):
        state = vacuum_state()
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        values = [wigner_eval(state, t * direction) for t in (0.0, 5.0, 10.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-30

    def test_rejects_non_finite(self):
        state = vacuum_state()
        with pytest.raises(ValueError, match="finite"):
            wigner_eval(state, np.array([np.inf, 0.0, 0.0, 0.0]))

    def test_single_mode_normalization_quadrature(self):
        # vacuum A times vacuum B is a product, so the A-plane slice is the
        # single-mode density scaled by the B peak 1/pi; the grid quadrature
        # of the slice must integrate the mode density to 1
        state = vacuum_state()
        z, _, _, step = mode_plane_grid(6.0, 601)
        integral = wigner_eval(state, z.reshape(-1, 4)).sum() * step**2
        assert integral * math.pi == pytest.approx(1.0, abs=1e-3)

    def test_two_mode_normalization_quadrature(self):
        # correlated two-mode state: rotate a product of squeezed vacua
        base = direct_sum(
            0.5 * np.diag([math.exp(0.8), math.exp(-0.8)]),
            0.5 * np.diag([math.exp(-0.4), math.exp(0.4)]),
        )
        U = random_orthosymplectic(2, np.random.default_rng(13))
        sigma = 0.5 * ((U @ base @ U.T) + (U @ base @ U.T).T)
        state = GaussianState(CovarianceMatrix(sigma, PART11))
        half_width = 6.0 * math.sqrt(np.linalg.eigvalsh(sigma)[-1])
        axis = np.linspace(-half_width, half_width, 33)
        step = axis[1] - axis[0]
        grid = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
        integral = wigner_eval(state, grid.reshape(-1, 4)).sum() * step**4
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_second_moments_match_sigma(self):
        # quadrature over the A plane of a product state recovers the A block
        sigma_a = np.array([[0.8, 0.25], [0.25, 0.6]])
        full = direct_sum(sigma_a, 0.5 * np.eye(2))
        state = GaussianState(CovarianceMatrix(full, PART11))
        width = 6.0 * math.sqrt(np.linalg.eigvalsh(sigma_a)[-1])
        z, x, p, step = mode_plane_grid(width, 401)
        values = wigner_eval(state, z.reshape(-1, 4)).reshape(x.shape) * math.pi
        moments = np.array(
            [
                [(values * x * x).sum(), (values * x * p).sum()],
                [(values * x * p).sum(), (values * p * p).sum()],
            ]
        ) * step**2
        assert np.allclose(moments, sigma_a, rtol=1e-2)


class TestRotateState:
    def test_identity_rotation(self):
        state = vacuum_state()
        rotated = rotate_state(state, np.eye(4))
        assert np.allclose(rotated.cov.sigma, state.cov.sigma)
        assert np.allclose(rotated.mean, state.mean)

    def test_disentangling_rotation_gives_product(self):
        cov = two_mode_squeezed_vacuum(1.0)
        result = disentangle(cov)
        rotated = rotate_state(GaussianState(cov), result.U)
        target = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
        assert np.allclose(rotated.cov.sigma, target, atol=1e-9)

    def test_pointwise_wigner_consistency(self):
        rng = np.random.default_rng(21)
        cov = random_covariance(PART11, seed=21, squeeze_max=1.0, mix_max=1.0)
        state = GaussianState(cov, rng.standard_normal(4))
        U = random_orthosymplectic(2, rng)
        rotated = rotate_state(state, U)
        points = rng.standard_normal((100, 4)) * 2.0
        direct = wigner_eval(rotated, points)
        pulled = wigner_eval(state, points @ U)  # rows are U^T z
        assert np.max(np.abs(direct - pulled)) <= 1e-12

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="orthosymplectic"):
            rotate_state(vacuum_state(), np.diag([2.0, 0.5, 1.0, 1.0]))

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        state = GaussianState(
            random_covariance(PART11, seed=3), rng.standard_normal(4)
        )
        U = random_orthosymplectic(2, rng)
        back = rotate_state(rotate_state(state, U), U.T)
        assert np.allclose(back.cov.sigma, state.cov.sigma, atol=1e-12)
        assert np.allclose(back.mean, state.mean, atol=1e-12)


class TestPushSymplectic:
    def test_identity(self):
        state = vacuum_state()
        assert np.allclose(push_symplectic(state, np.eye(4)).cov.sigma, state.cov.sigma)

    def test_single_mode_squeeze_on_vacuum(self):
        r = 0.7
        S = direct_sum(np.diag([math.exp(r), math.exp(-r)]), np.eye(2))
        pushed = push_symplectic(vacuum_state(), S)
        expected = direct_sum(
            0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)]), 0.5 * np.eye(2)
        )
        assert np.allclose(pushed.cov.sigma, expected, atol=1e-12)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="symplectic"):
            push_symplectic(vacuum_state(), np.diag([2.0, 2.0, 1.0, 1.0]))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_spectrum_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = GaussianState(random_covariance(PART11, seed=seed, mix_max=1.0))
        S = random_symplectic(2, rng, squeeze_max=1.0)
        pushed = push_symplectic(state, S)
        assert np.allclose(
            symplectic_eigenvalues(pushed.cov),
            symplectic_eigenvalues(state.cov),
            atol=1e-9,
        )


class TestPurity:
    def test_vacuum_is_pure(self):
        for hbar in (0.5, 1.0, 2.0):
            assert purity(vacuum_state(hbar=hbar)) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_single_mode(self):
        # Sigma = hbar * I on one mode gives purity 1/2 (per mode), here with a
        # vacuum spectator on the B side
        hbar = 1.0
        sigma = direct_sum(hbar * np.eye(2), 0.5 * hbar * np.eye(2))
        state = GaussianState(CovarianceMatrix(sigma, PART11, hbar))
        assert purity(state) == pytest.approx(0.5, abs=1e-12)

    @example(seed=724)  # kappa(S Sigma S^T) = 1.2e5: the error is 2.2e-12
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_symplectic_pushforward(self, seed):
        rng = np.random.default_rng(seed)
        state = GaussianState(random_covariance(PART11, seed=seed, mix_max=1.0))
        S = random_symplectic(2, rng, squeeze_max=1.0)
        pushed = push_symplectic(state, S)
        # purity = (hbar/2)^n det(Sigma)^(-1/2), and a perturbation dSigma moves
        # log det by tr(Sigma^-1 dSigma) <= dim * kappa * ||dSigma|| / ||Sigma||;
        # rounding in S Sigma S^T and slogdet makes that relative size a few eps,
        # so the error is below purity * dim * eps * kappa (observed: 0.36 of it)
        expected = purity(state)
        bound = expected * pushed.cov.dim * EPS * np.linalg.cond(pushed.cov.sigma)
        assert purity(pushed) == pytest.approx(expected, abs=bound)

    def test_equals_one_iff_spectrum_saturates(self):
        cov = random_covariance(PART11, seed=2, mix_max=0.0)
        assert purity(GaussianState(cov)) == pytest.approx(1.0, abs=1e-10)
        mixed = random_covariance(PART11, seed=2, mix_max=1.0)
        assert purity(GaussianState(mixed)) < 1.0 - 1e-6


class TestRandomFixtures:
    def test_no_squeeze_no_mix_is_vacuum(self):
        for hbar in (0.5, 1.0, 2.0):
            cov = random_covariance(PART11, hbar=hbar, seed=4, squeeze_max=0.0, mix_max=0.0)
            assert np.allclose(cov.sigma, 0.5 * hbar * np.eye(4), atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_always_quantum(self, seed):
        cov = random_covariance(
            ModePartition(2, 1), hbar=0.5, seed=seed, squeeze_max=1.5, mix_max=2.0
        )
        assert quantum_condition_check(cov).margin >= -1e-10

    def test_seed_determinism(self):
        a = random_covariance(PART11, seed=42, squeeze_max=1.0, mix_max=1.0)
        b = random_covariance(PART11, seed=42, squeeze_max=1.0, mix_max=1.0)
        assert np.array_equal(a.sigma, b.sigma)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_random_frames_are_orthosymplectic(self, seed, n):
        rng = np.random.default_rng(seed)
        assert is_orthosymplectic(random_orthosymplectic(n, rng), 1e-10).passed

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_random_symplectics_are_symplectic(self, seed, n):
        rng = np.random.default_rng(seed)
        assert is_symplectic(random_symplectic(n, rng, squeeze_max=1.5), 1e-10).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 25, 50])
    def test_random_symplectic_matches_the_dense_delta_product(self, n):
        # the squeezes are applied as column scalings; the dense product S Delta R
        # from the same RNG stream is the reference, bit for bit
        for seed in range(10 if n > 5 else 40):
            rng = np.random.default_rng(seed)
            S = random_orthosymplectic(n, rng)
            for _ in range(2):
                r = rng.uniform(-1.5, 1.5, n)
                S = S @ delta_matrix(np.exp(r)) @ random_orthosymplectic(n, rng)
            assert np.array_equal(random_symplectic(n, np.random.default_rng(seed), 1.5), S), seed


class TestGaussianState:
    def test_rejects_non_quantum_covariance(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError):
            GaussianState(cov)

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError, match="mean"):
            GaussianState(CovarianceMatrix(0.5 * np.eye(4), PART11), np.zeros(3))
