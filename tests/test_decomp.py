import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussep import (
    ModePartition,
    PairingError,
    VerificationError,
    delta_matrix,
    is_orthosymplectic,
    is_symplectic,
    ortho_diagonalize,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    reconstruct,
    symplectic_form,
    symplectic_polar,
)
from gaussep.phase_space import _complex_frame

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
# closed form for the shear: (M + I)/sqrt(tr M + 2) is the root of M = S S^T when det M = 1
SHEAR_P = np.array([[3.0, 1.0], [1.0, 2.0]]) / math.sqrt(5.0)
SHEAR_R = np.array([[2.0, 1.0], [-1.0, 2.0]]) / math.sqrt(5.0)
# a lambda = 2 class of dimension 3, a 1.5 pair split by 1e-9 and two unit modes
SPLIT_CLASSES = [2.0, 2.0, 2.0, 1.5 * (1.0 + 1e-9), 1.5, 1.0, 1.0]


class TestSymplecticPolar:
    def test_symmetric_input_is_its_own_P(self):
        form = symplectic_polar(np.diag([2.0, 0.5]))
        assert np.allclose(form.P, np.diag([2.0, 0.5]), atol=1e-12)
        assert np.allclose(form.R, np.eye(2), atol=1e-12)

    def test_rotation_input_is_its_own_R(self):
        c, s = np.cos(1.1), np.sin(1.1)
        rot = np.array([[c, -s], [s, c]])
        form = symplectic_polar(rot)
        assert np.allclose(form.P, np.eye(2), atol=1e-12)
        assert np.allclose(form.R, rot, atol=1e-12)

    def test_shear_closed_form(self):
        assert np.allclose(SHEAR_P @ SHEAR_R, SHEAR, atol=1e-12)
        assert np.allclose(SHEAR_R.T @ SHEAR_R, np.eye(2), atol=1e-12)
        form = symplectic_polar(SHEAR)
        assert np.allclose(form.P, SHEAR_P, atol=1e-12)
        assert np.allclose(form.R, SHEAR_R, atol=1e-12)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            symplectic_polar(np.diag([2.0, 2.0]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_factor_properties_random(self, seed, n):
        rng = np.random.default_rng(seed)
        S = random_symplectic(n, rng, squeeze_max=1.0)
        form = symplectic_polar(S)
        J = symplectic_form(n)
        assert np.linalg.norm(form.R.T @ form.R - np.eye(2 * n)) <= 1e-10
        assert np.linalg.norm(form.R.T @ J @ form.R - J) <= 1e-10 * max(
            1.0, np.linalg.norm(form.R) ** 2
        )
        assert np.linalg.norm(form.P @ form.R - S) <= 1e-10 * np.linalg.norm(S)
        assert np.linalg.norm(form.P @ J @ form.P - J) <= 1e-9 * max(
            1.0, np.linalg.norm(form.P) ** 2
        )

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_positive_factor_spectrum_reciprocal(self, seed, n):
        rng = np.random.default_rng(seed)
        S = random_symplectic(n, rng, squeeze_max=1.2)
        eigs = np.linalg.eigvalsh(symplectic_polar(S).P)
        assert np.allclose(eigs * eigs[::-1], 1.0, atol=1e-9)


class TestOrthoDiagonalize:
    def test_already_diagonal(self):
        result = ortho_diagonalize(np.diag([4.0, 0.25]))
        assert np.allclose(result.lambdas, [4.0])
        assert np.allclose(np.abs(result.U), np.eye(2), atol=1e-12)

    def test_identity(self):
        result = ortho_diagonalize(np.eye(6))
        assert np.allclose(result.lambdas, 1.0)
        assert is_orthosymplectic(result.U).passed
        assert np.allclose(reconstruct(result.U, result.lambdas), np.eye(6), atol=1e-12)

    def test_golden_ratio_case(self):
        result = ortho_diagonalize(SHEAR_P)
        assert result.lambdas[0] == pytest.approx(PHI, abs=1e-12)
        # the leading row of U is the unit eigenvector for phi, up to sign
        eigvec = np.array([math.sqrt(5.0) + 1.0, 2.0])
        eigvec = eigvec / np.linalg.norm(eigvec)
        # hand check: SHEAR_P @ eigvec == phi * eigvec
        assert np.allclose(SHEAR_P @ eigvec, PHI * eigvec, atol=1e-12)
        assert abs(np.dot(result.U[0], eigvec)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ortho_diagonalize(SHEAR)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            ortho_diagonalize(np.diag([2.0, 2.0]))

    def test_pairing_failure_surfaces(self):
        # loose tolerance lets a non-symplectic matrix through the entry gate;
        # the reciprocal-pair bookkeeping must then fail loudly
        with pytest.raises(PairingError):
            ortho_diagonalize(np.diag([2.0, 2.0]), tol=10.0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_round_trip_random(self, seed, n):
        rng = np.random.default_rng(seed)
        T = random_symplectic(n, rng, squeeze_max=1.0)
        P = T.T @ T
        P = 0.5 * (P + P.T)
        result = ortho_diagonalize(P)
        assert is_orthosymplectic(result.U, 1e-10).passed
        assert np.all(result.lambdas >= 1.0 - 1e-12)
        recon = reconstruct(result.U, result.lambdas)
        assert np.linalg.norm(recon - P) <= 1e-10 * np.linalg.norm(P)

    def test_modes_sorted_descending_across_and_within_classes(self):
        P = _rotated_delta(SPLIT_CLASSES)
        result = ortho_diagonalize(P)
        assert np.all(np.diff(result.lambdas) <= 0.0)
        assert np.allclose(result.lambdas, SPLIT_CLASSES, rtol=1e-12, atol=0.0)
        assert is_orthosymplectic(result.U).passed
        recon = reconstruct(result.U, result.lambdas)
        assert np.linalg.norm(recon - P) <= 1e-10 * np.linalg.norm(P)

    @pytest.mark.parametrize(
        "lambdas", [[1.7], [2.0, 1.3, 1.1], [3.0, 1.0, 1.0, 1.3], SPLIT_CLASSES, [1 + 1e-9, 1.0]]
    )
    def test_basis_matches_per_mode_loop(self, lambdas):
        P = _rotated_delta(lambdas)
        U, lam = _loop_rotation(P, *np.linalg.eigh(P))
        result = ortho_diagonalize(P)
        assert np.array_equal(result.U, U)
        assert np.array_equal(result.lambdas, lam)


def _rotated_delta(lambdas, seed=6):
    """``O^T Delta O`` for a random orthosymplectic O, exactly symmetric."""
    O = random_orthosymplectic(len(lambdas), np.random.default_rng(seed))
    P = O.T @ delta_matrix(lambdas) @ O
    return 0.5 * (P + P.T)


def _loop_rotation(P, w, V):
    """Reference: the (v, -Jv) basis assembled mode by mode, sorted, then snapped.

    Eigenvalues pair by position in the ascending ``w``; the unit class is the
    middle 2k of them within 8 n eps kappa(P) of 1.
    """
    n = P.shape[0] // 2
    band = 1.0 + 8.0 * n * np.finfo(float).eps * w[-1] / w[0]
    k = int(np.count_nonzero(w[n:] <= band))
    J = symplectic_form(n)
    modes = [(float(w[i]), V[:, i]) for i in range(n + k, 2 * n)]
    if k:
        planes = _complex_frame(V[:, n - k : n + k], J)[1]
        modes += [(1.0, planes[:, c]) for c in range(0, 2 * k, 2)]
    lam = np.array([mode[0] for mode in modes])
    order = np.argsort(-lam, kind="stable")
    basis = np.empty((2 * n, 2 * n))
    for pos, idx in enumerate(order):
        basis[:, 2 * pos] = modes[idx][1]
        basis[:, 2 * pos + 1] = -J @ modes[idx][1]
    left, _, right = np.linalg.svd(basis)
    return (left @ right).T, lam[order]


class TestDeltaHelpers:
    def test_reconstruct_single_mode(self):
        assert np.allclose(reconstruct(np.eye(2), [2.0]), np.diag([2.0, 0.5]))

    def test_delta_matrix_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            delta_matrix([1.0, -2.0])


def test_ball_mapping_agrees_through_polar():
    # S w and P(R w) trace identical ellipsoid membership: S = P R pointwise
    rng = np.random.default_rng(11)
    cov = random_covariance(ModePartition(1, 1), seed=11, squeeze_max=1.0, mix_max=1.0)
    from gaussep import admissible_S

    S = admissible_S(cov)
    form = symplectic_polar(S)
    sigma_inv = np.linalg.inv(cov.sigma)
    hbar = cov.hbar
    raw = rng.standard_normal((10_000, 4))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = math.sqrt(hbar) * rng.uniform(0.0, 1.0, (10_000, 1)) ** 0.25
    w = raw * radii
    through_S = np.einsum("ki,ij,kj->k", w @ S.T, sigma_inv, w @ S.T)
    through_PR = np.einsum("ki,ij,kj->k", w @ form.R.T @ form.P.T, sigma_inv, w @ form.R.T @ form.P.T)
    assert np.max(np.abs(through_S - through_PR)) <= 1e-10 * max(1.0, np.max(through_S))
    inside_S = 0.5 * through_S <= 1.0
    inside_PR = 0.5 * through_PR <= 1.0
    boundary = np.abs(0.5 * through_S - 1.0) < 1e-9
    assert np.array_equal(inside_S[~boundary], inside_PR[~boundary])
    # the admissible S maps the whole ball inside the covariance ellipsoid
    assert np.all(0.5 * through_S <= 1.0 + 1e-9)
