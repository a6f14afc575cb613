import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussep import (
    CovarianceMatrix,
    ModePartition,
    QuantumConditionError,
    admissible_S,
    disentangle,
    is_orthosymplectic,
    is_symplectic,
    quantum_condition_check,
    random_covariance,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from gaussep.checks import SYMMETRY_TOL, relative_asymmetry
from helpers import (
    antisymmetric_perturbation,
    hermitian_min_eig_oracle,
    pure_2_2_state,
    symplectic_spectrum_oracle,
)

PART11 = ModePartition(1, 1)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        sigma = 0.5 * np.eye(4)
        sigma[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(sigma, PART11)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0]), PART11)

    def test_rejects_partition_mismatch(self):
        with pytest.raises(ValueError, match="partition"):
            CovarianceMatrix(0.5 * np.eye(6), PART11)

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError, match="hbar"):
            CovarianceMatrix(0.5 * np.eye(4), PART11, hbar=0.0)

    def test_sigma_is_read_only(self):
        cov = CovarianceMatrix(np.eye(4), PART11)
        with pytest.raises(ValueError):
            cov.sigma[0, 0] = 2.0

    def test_stores_the_exact_symmetric_part(self):
        # LAPACK reads one triangle: an asymmetry the gate accepts must not
        # move the Hermitian margin of a state on the quantum limit
        base = pure_2_2_state()
        for seed in range(10):
            sigma = antisymmetric_perturbation(base.sigma, seed)
            assert 0.9 * SYMMETRY_TOL < relative_asymmetry(sigma) < SYMMETRY_TOL
            cov = CovarianceMatrix(sigma, base.partition)
            assert np.array_equal(cov.sigma, cov.sigma.T)
            assert np.array_equal(cov.sigma, 0.5 * (sigma + sigma.T))
            assert quantum_condition_check(cov).passed

    def test_float64_limit_is_decided_once(self):
        # eigvalsh saw +1.1e-8 here and eigh -3.0e-8: two factorizations let the
        # constructor accept sigma and the square root refuse it
        with pytest.raises(ValueError, match="float64 matrix is the limit"):
            random_covariance(ModePartition(2, 2), seed=32, squeeze_max=5.5)

    def test_sigma_is_factorized_once(self, monkeypatch):
        sigma = random_covariance(ModePartition(2, 2), seed=3).sigma
        seen = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def spy(a, *args, _real=real, **kwargs):
                seen.append(np.array(a, copy=True))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        cov = CovarianceMatrix(sigma, ModePartition(2, 2))
        assert sum(np.array_equal(a, sigma) for a in seen) == 1
        seen.clear()
        disentangle(cov)
        williamson(cov)
        assert seen and not any(np.array_equal(a, sigma) for a in seen)


class TestQuantumCondition:
    def test_vacuum_saturates(self):
        report = quantum_condition_check(CovarianceMatrix(0.5 * np.eye(4), PART11))
        assert report.passed
        assert abs(report.margin) < 1e-12
        # eigenvalues of (1/2)(I + iJ) are {0, 1}
        eigs = np.linalg.eigvalsh(0.5 * (np.eye(4) + 1j * symplectic_form(2)))
        assert np.allclose(sorted(eigs.real), [0, 0, 1, 1], atol=1e-12)

    def test_squeezed_below_limit_fails(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        report = quantum_condition_check(cov)
        assert not report.passed
        assert report.margin == pytest.approx(
            hermitian_min_eig_oracle(cov.sigma, 1.0), abs=1e-12
        )
        assert report.residuals["nu_min"] == pytest.approx(math.sqrt(0.125), abs=1e-12)

    def test_balanced_squeeze_passes(self):
        cov = CovarianceMatrix(np.diag([2.0, 0.5, 2.0, 0.5]), PART11)
        report = quantum_condition_check(cov)
        assert report.passed
        # eigenvalues of J.Sigma are +-i, so nu = 1
        assert np.allclose(symplectic_eigenvalues(cov), [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("hbar,expected", [(0.5, True), (1.0, True), (2.0, False)])
    def test_verdict_depends_on_hbar(self, hbar, expected):
        cov = CovarianceMatrix(0.6 * np.eye(4), PART11, hbar=hbar)
        assert quantum_condition_check(cov).passed is expected

    @given(seed=st.integers(0, 2**32 - 1))
    def test_routes_agree_in_sign(self, seed):
        rng = np.random.default_rng(seed)
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        cov = random_covariance(PART11, hbar=hbar, seed=seed, squeeze_max=1.5, mix_max=1.0)
        # shrink some draws below the quantum limit to exercise both verdicts
        factor = float(rng.uniform(0.5, 1.5))
        cov = CovarianceMatrix(factor * cov.sigma, PART11, hbar)
        report = quantum_condition_check(cov)
        gap = report.residuals["nu_min_gap"]
        if abs(gap) > 1e-9:
            assert (report.margin > 0) == (gap > 0)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        for hbar in (0.5, 1.0, 2.0):
            cov = CovarianceMatrix(0.5 * hbar * np.eye(6), ModePartition(1, 2), hbar)
            assert np.allclose(symplectic_eigenvalues(cov), 0.5 * hbar, atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n_b=st.integers(1, 4))
    def test_matches_general_eigensolver_oracle(self, seed, n_b):
        cov = random_covariance(ModePartition(1, n_b), seed=seed, squeeze_max=1.2, mix_max=1.0)
        assert np.allclose(
            symplectic_eigenvalues(cov), symplectic_spectrum_oracle(cov.sigma), atol=1e-9
        )

    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.1, 10.0))
    def test_scaling_covariance(self, seed, c):
        cov = random_covariance(PART11, seed=seed)
        scaled = CovarianceMatrix(c * cov.sigma, PART11)
        nu = symplectic_eigenvalues(cov)
        assert np.allclose(symplectic_eigenvalues(scaled), c * nu, rtol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_symplectic_congruence(self, seed):
        rng = np.random.default_rng(seed)
        cov = random_covariance(ModePartition(2, 1), seed=seed, mix_max=1.0)
        T = random_symplectic(3, rng, squeeze_max=1.0)
        moved = CovarianceMatrix(
            0.5 * (T @ cov.sigma @ T.T + (T @ cov.sigma @ T.T).T), ModePartition(2, 1)
        )
        assert np.allclose(
            symplectic_eigenvalues(moved), symplectic_eigenvalues(cov), atol=1e-8
        )


class TestWilliamson:
    def test_vacuum_gives_rotation(self):
        cov = CovarianceMatrix(0.5 * np.eye(4), PART11)
        form = williamson(cov)
        assert np.allclose(form.nu, 0.5, atol=1e-12)
        assert is_orthosymplectic(form.S).passed
        assert form.residuals["reconstruction"] <= 1e-12
        assert form.residuals["symplectic"] <= 1e-12

    def test_balanced_squeeze(self):
        cov = CovarianceMatrix(np.diag([2.0, 0.5, 2.0, 0.5]), PART11)
        form = williamson(cov)
        assert np.allclose(form.nu, 1.0, atol=1e-12)
        # with D = I the congruence factor satisfies S S^T = Sigma exactly
        assert np.allclose(form.S @ form.S.T, cov.sigma, atol=1e-12)

    def test_seeded_three_modes(self):
        cov = random_covariance(ModePartition(1, 2), seed=3, squeeze_max=1.0, mix_max=1.0)
        form = williamson(cov)
        # independent recomputation of both defining residuals
        D = np.diag(np.repeat(form.nu, 2))
        recon = np.linalg.norm(form.S @ D @ form.S.T - cov.sigma) / np.linalg.norm(cov.sigma)
        assert recon <= 1e-10
        assert is_symplectic(form.S).passed
        assert np.all(np.diff(form.nu) <= 1e-15)  # descending

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_reconstruction_up_to_ten_modes(self, seed, n):
        partition = ModePartition(1, n) if n > 1 else PART11
        cov = random_covariance(partition, seed=seed, squeeze_max=1.0, mix_max=1.0)
        form = williamson(cov)
        J = symplectic_form(form.nu.size)
        assert form.residuals["reconstruction"] <= 1e-10
        symp = np.linalg.norm(form.S.T @ J @ form.S - J)
        assert symp <= 1e-10 * max(1.0, np.linalg.norm(form.S) ** 2)


class TestAdmissibleS:
    def test_vacuum_saturates_inclusion(self):
        cov = CovarianceMatrix(0.5 * np.eye(4), PART11)
        S = admissible_S(cov)
        gram = S.T @ np.linalg.inv(cov.sigma) @ S
        assert np.linalg.eigvalsh(gram)[-1] * 0.5 == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_quantum(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError):
            admissible_S(cov)

    def test_balanced_squeeze_inclusion(self):
        cov = CovarianceMatrix(np.diag([2.0, 0.5, 2.0, 0.5]), PART11)
        S = admissible_S(cov)
        gram = S.T @ np.linalg.inv(cov.sigma) @ S
        assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(1.0, abs=1e-10)
