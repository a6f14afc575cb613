import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussep import (
    ModePartition,
    PairingError,
    delta_matrix,
    disentangle,
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
from gaussep import separability
from gaussep.decomp import _rotation_from_eigensystem
from gaussep.phase_space import _complex_frame
from helpers import acceptance_states, near_unit_corpus

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


def test_polar_of_a_squeezer_past_the_square_root_of_float64():
    # ||S||^2 overflows, so the symplectic residuals scale S by its largest entry
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        form = symplectic_polar(np.diag([1e200, 1e-200]))
    assert not caught, [str(w.message) for w in caught]
    assert form.residuals["input_symplectic"] == 0.0
    assert np.array_equal(form.P, np.diag(np.diag(form.P)))
    assert np.diag(form.P) == pytest.approx([1e200, 1e-200], rel=1e-15, abs=0.0)


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

    def test_negative_identity_is_not_positive_definite(self):
        # -I is symmetric and symplectic, so only the positivity gate refuses it
        assert is_symplectic(-np.eye(2)).passed
        with pytest.raises(ValueError, match="^input is not positive definite$"):
            ortho_diagonalize(-np.eye(2))

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
        # the real 2n x 2n snap of the same (v, -Jv) basis is the same polar factor
        U_real, lam_real = _real_snap_rotation(P, *np.linalg.eigh(P))
        assert np.array_equal(result.lambdas, lam_real)
        assert np.max(np.abs(result.U - U_real)) <= 1e-13


def test_pipeline_rotation_commutes_with_J_exactly(monkeypatch):
    # U is the real form of an n x n unitary, so U J = J U holds bit for bit, and it
    # stays within 1e-13 of the real snap of the same basis, with the same lambdas
    seen = []

    def recording(P, w, V, tol):
        seen.append((P, w, V))
        return _rotation_from_eigensystem(P, w, V, tol)

    monkeypatch.setattr(separability, "_rotation_from_eigensystem", recording)
    covs = [cov for _, cov in acceptance_states()] + [cov for _, cov in near_unit_corpus(60)]
    for i, cov in enumerate(covs):
        result = disentangle(cov)
        J = symplectic_form(cov.n)
        assert np.array_equal(result.U @ J, J @ result.U), i
        U_real, lam_real = _real_snap_rotation(*seen[-1])
        assert np.array_equal(result.lambdas, lam_real), i
        assert np.max(np.abs(result.U - U_real)) <= 1e-13, i


def _rotated_delta(lambdas, seed=6):
    """``O^T Delta O`` for a random orthosymplectic O, exactly symmetric."""
    O = random_orthosymplectic(len(lambdas), np.random.default_rng(seed))
    P = O.T @ delta_matrix(lambdas) @ O
    return 0.5 * (P + P.T)


def _loop_modes(P, w, V):
    """Reference modes ``(lambda, v)`` sorted by lambda descending.

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
    return lam[order], [modes[idx][1] for idx in order]


def _loop_rotation(P, w, V):
    """Reference: x + ip of each mode's v as a complex column, snapped by a complex SVD.

    ``U^T`` is the real form of the unitary polar factor u: column 2k holds
    (Re, Im) of u's column k, column 2k + 1 those of i times it.
    """
    n = P.shape[0] // 2
    lam, vectors = _loop_modes(P, w, V)
    b = np.empty((n, n), dtype=complex)
    for pos, v in enumerate(vectors):
        b[:, pos] = v[0::2] + 1j * v[1::2]
    left, _, right = np.linalg.svd(b)
    u = left @ right
    Ut = np.empty((2 * n, 2 * n))
    for pos in range(n):
        Ut[0::2, 2 * pos] = u[:, pos].real
        Ut[1::2, 2 * pos] = u[:, pos].imag
        Ut[0::2, 2 * pos + 1] = (1j * u[:, pos]).real
        Ut[1::2, 2 * pos + 1] = (1j * u[:, pos]).imag
    return Ut.T, lam


def _real_snap_rotation(P, w, V):
    """Tolerance reference: the real (v, -Jv) basis snapped to its orthogonal polar factor."""
    n = P.shape[0] // 2
    J = symplectic_form(n)
    lam, vectors = _loop_modes(P, w, V)
    basis = np.empty((2 * n, 2 * n))
    for pos, v in enumerate(vectors):
        basis[:, 2 * pos] = v
        basis[:, 2 * pos + 1] = -J @ v
    left, _, right = np.linalg.svd(basis)
    return (left @ right).T, lam


class TestDeltaHelpers:
    def test_reconstruct_single_mode(self):
        assert np.allclose(reconstruct(np.eye(2), [2.0]), np.diag([2.0, 0.5]))

    @pytest.mark.parametrize("dim", [4, 3])
    def test_reconstruct_refuses_a_rotation_of_the_wrong_shape(self, dim):
        with pytest.raises(ValueError, match=rf"^rotation shape \({dim}, {dim}\) does not match 1 modes$"):
            reconstruct(np.eye(dim), [2.0])

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
