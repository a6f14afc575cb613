import math

import numpy as np
import pytest
from hypothesis import given
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
    quantum_condition_check,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    rotate_state,
    two_mode_squeezed_vacuum,
    wigner_eval,
)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("name", ["squeeze_max", "mix_max"])
    def test_draw_bounds_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
            random_covariance(PART11, seed=0, **{name: value})
        if name == "squeeze_max":
            with pytest.raises(ValueError, match="^squeeze_max must be finite and nonnegative"):
                random_symplectic(1, np.random.default_rng(0), value)

    @pytest.mark.parametrize("squeeze", [200.0, 400.0, 720.0, 1e308])
    def test_overflowing_squeeze_names_the_float64_limit(self, squeeze):
        # RuntimeWarning is an error in this suite, so an overflow warning fails here too
        with pytest.raises(ValueError, match="overflows float64: .* float64 maximum"):
            random_covariance(PART11, seed=0, squeeze_max=squeeze)

    @pytest.mark.parametrize("r", [356.0, -356.0, 1e6, 1e308, math.inf, -math.inf])
    def test_overflowing_tmsv_names_the_float64_limit(self, r):
        # math.cosh raises OverflowError from r = 356 but returns inf for an infinite 2r;
        # either way the caller sees the float64 limit
        with pytest.raises(ValueError, match="overflows float64: .* float64 maximum"):
            two_mode_squeezed_vacuum(r)

    def test_nan_tmsv_names_r(self):
        with pytest.raises(ValueError, match="^r must be a number, got nan"):
            two_mode_squeezed_vacuum(math.nan)


class TestGaussianState:
    def test_rejects_non_quantum_covariance(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError):
            GaussianState(cov)

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError, match="mean"):
            GaussianState(CovarianceMatrix(0.5 * np.eye(4), PART11), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mean(self, bad):
        # wigner_eval would turn such a mean into nan with a RuntimeWarning
        with pytest.raises(ValueError, match="^mean contains non-finite entries$"):
            GaussianState(two_mode_squeezed_vacuum(0.5), [0.0, 0.0, bad, 0.0])

    def test_non_state_message_is_the_statehood_gate_format(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError) as exc:
            GaussianState(cov)
        assert str(exc.value) == (
            "covariance matrix is not a quantum state: quantum condition fails "
            "(margin -1.019e-01, nu_min 0.353553, hbar/2 = 0.5)"
        )
        assert exc.value.report == quantum_condition_check(cov)


@pytest.mark.parametrize("transform", [rotate_state])
@pytest.mark.parametrize("dim", [2, 6])
def test_transform_of_the_wrong_size_names_both_dimensions(transform, dim):
    # the identity is orthosymplectic at every size, so only the size check refuses it
    message = rf"^matrix shape \({dim}, {dim}\) does not match the 2-mode state \(4x4\)$"
    with pytest.raises(ValueError, match=message):
        transform(vacuum_state(), np.eye(dim))
