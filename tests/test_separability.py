import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaussep
from gaussep import (
    CovarianceMatrix,
    ModePartition,
    QuantumConditionError,
    SeparabilityWitness,
    VerificationError,
    admissible_S,
    delta_matrix,
    direct_sum,
    disentangle,
    is_orthosymplectic,
    ortho_diagonalize,
    ppt_test,
    quantum_condition_check,
    random_covariance,
    random_symplectic,
    symplectic_form,
    symplectic_polar,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
)
from gaussep.checks import EPS, fro
from helpers import (
    acceptance_states,
    antisymmetric_perturbation,
    near_unit_corpus,
    pure_2_2_state,
    raw_random_sigma,
    symplectic_spectrum_oracle,
    two_mode_squeezer,
)

PART11 = ModePartition(1, 1)


def test_tmsv_fixture_matches_squeezer_oracle():
    # independent construction: Sigma = (hbar/2) S S^T for the two-mode squeezer
    for r in (0.5, 1.0, 2.0):
        S = two_mode_squeezer(r)
        assert np.allclose(
            two_mode_squeezed_vacuum(r).sigma, 0.5 * S @ S.T, atol=1e-12
        )


class TestWernerWolfCheck:
    def test_identity_with_vacuum_witness(self):
        cov = CovarianceMatrix(np.eye(4), PART11)
        witness = SeparabilityWitness(0.5 * np.eye(2), 0.5 * np.eye(2))
        report = werner_wolf_check(cov, witness)
        assert report.passed
        assert abs(report.margin) <= 1e-12  # partial quantum conditions saturate
        assert report.residuals["domination_min_eig"] == pytest.approx(0.5, abs=1e-12)

    def test_identity_with_identity_witness(self):
        cov = CovarianceMatrix(np.eye(4), PART11)
        witness = SeparabilityWitness(np.eye(2), np.eye(2))
        report = werner_wolf_check(cov, witness)
        assert report.passed
        assert abs(report.residuals["domination_min_eig"]) <= 1e-12
        assert report.residuals["A_quantum_min_eig"] == pytest.approx(0.5, abs=1e-12)

    def test_entangled_state_rejects_local_witness(self):
        cov = two_mode_squeezed_vacuum(1.0)
        block = 0.5 * np.diag([math.e**2, math.e**-2])
        report = werner_wolf_check(cov, SeparabilityWitness(block, block))
        assert not report.passed
        # oracle: smallest eigenvalue of Sigma - Sigma_A (+) Sigma_B
        gap = np.linalg.eigvalsh(cov.sigma - direct_sum(block, block))[0]
        assert report.residuals["domination_min_eig"] == pytest.approx(gap, abs=1e-12)
        assert gap < 0

    def test_rejects_dimension_mismatch(self):
        cov = CovarianceMatrix(np.eye(4), PART11)
        witness = SeparabilityWitness(0.5 * np.eye(4), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="partition"):
            werner_wolf_check(cov, witness)

    def test_rejects_hbar_mismatch(self):
        cov = CovarianceMatrix(np.eye(4), PART11, hbar=2.0)
        witness = SeparabilityWitness(np.eye(2), np.eye(2), hbar=1.0)
        with pytest.raises(ValueError, match="hbar"):
            werner_wolf_check(cov, witness)

    def test_boundary_block_with_accepted_asymmetry_passes(self):
        result = disentangle(pure_2_2_state())
        for seed in range(10):
            sigma_a = antisymmetric_perturbation(result.witness.sigma_a, seed)
            witness = SeparabilityWitness(sigma_a, result.witness.sigma_b, result.witness.hbar)
            assert np.array_equal(witness.sigma_a, witness.sigma_a.T)
            assert werner_wolf_check(result.sigma_U, witness).passed


class TestDisentangle:
    def test_vacuum_is_fixed(self):
        for hbar in (0.5, 1.0, 2.0):
            cov = CovarianceMatrix(0.5 * hbar * np.eye(4), PART11, hbar)
            result = disentangle(cov)
            assert is_orthosymplectic(result.U).passed
            assert np.allclose(result.lambdas, 1.0, atol=1e-12)
            assert np.allclose(result.witness.sigma_a, 0.5 * hbar * np.eye(2), atol=1e-12)
            assert np.allclose(result.witness.sigma_b, 0.5 * hbar * np.eye(2), atol=1e-12)
            assert result.werner_wolf.margin >= -1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_two_mode_squeezed_vacuum(self, r):
        cov = two_mode_squeezed_vacuum(r)
        # oracle: eigenvalues of 2*Sigma are exp(+-2r), twice each, so the
        # positive polar factor has eigenvalues exp(+-r) and lambda = exp(r)
        doubled = np.sort(np.linalg.eigvalsh(2.0 * cov.sigma))
        assert np.allclose(doubled, np.repeat([math.exp(-2 * r), math.exp(2 * r)], 2), atol=1e-10)
        result = disentangle(cov)
        assert np.allclose(result.lambdas, math.exp(r), atol=1e-9)
        expected_block = 0.5 * np.diag([math.exp(2 * r), math.exp(-2 * r)])
        assert np.allclose(result.witness.sigma_a, expected_block, atol=1e-9)
        assert np.allclose(result.witness.sigma_b, expected_block, atol=1e-9)
        # purity-one input saturates the squeeze bound: Sigma_U is the direct sum
        target = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
        gap = np.linalg.norm(result.sigma_U.sigma - target) / np.linalg.norm(target)
        assert gap <= 1e-9

    def test_product_input_stays_separable(self):
        sigma = np.diag([2.0, 0.5, 3.0, 1.0 / 3.0])
        result = disentangle(CovarianceMatrix(sigma, PART11))
        report = werner_wolf_check(result.sigma_U, result.witness)
        assert report.passed
        # rotated matrix is block diagonal: the state is a product of squeezed modes
        off = result.sigma_U.sigma[:2, 2:]
        assert np.linalg.norm(off) <= 1e-9

    def test_rejects_non_quantum(self):
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError):
            disentangle(cov)

    def test_pure_state_with_accepted_asymmetry(self):
        base = pure_2_2_state()
        for seed in range(10):
            cov = CovarianceMatrix(antisymmetric_perturbation(base.sigma, seed), base.partition)
            result = disentangle(cov)
            assert result.quantum_condition.passed
            assert result.werner_wolf.passed

    def test_deterministic(self):
        cov = random_covariance(ModePartition(2, 1), seed=5)
        a = disentangle(cov)
        b = disentangle(cov)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.lambdas, b.lambdas)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_states_end_to_end(self, seed):
        rng = np.random.default_rng(seed)
        n_a = int(rng.integers(1, 3))
        n_b = int(rng.integers(1, 3))
        hbar = float(rng.choice([0.5, 1.0, 2.0]))
        cov = random_covariance(
            ModePartition(n_a, n_b), hbar=hbar, seed=seed, squeeze_max=1.5, mix_max=2.0
        )
        result = disentangle(cov)
        report = werner_wolf_check(result.sigma_U, result.witness)
        assert report.passed
        assert report.margin >= -1e-9 * np.linalg.norm(cov.sigma)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_witness_blocks_are_minimal_uncertainty(self, seed):
        cov = random_covariance(PART11, hbar=2.0, seed=seed, squeeze_max=1.5, mix_max=2.0)
        result = disentangle(cov)
        hbar = cov.hbar
        J1 = symplectic_form(1)
        for block_matrix in (result.witness.sigma_a, result.witness.sigma_b):
            H = block_matrix + 0.5j * hbar * J1
            assert abs(np.linalg.det(H).real) <= 1e-9 * hbar**2
            assert np.linalg.eigvalsh(H)[0] >= -1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    def test_squeeze_bound_holds_by_construction(self, seed):
        cov = random_covariance(ModePartition(1, 2), seed=seed, squeeze_max=1.5, mix_max=2.0)
        result = disentangle(cov)
        delta_sq = np.diag(np.repeat(result.lambdas, 2) ** np.tile([2.0, -2.0], 3))
        gap = np.linalg.eigvalsh(result.sigma_U.sigma - 0.5 * cov.hbar * delta_sq)[0]
        assert gap >= -1e-9 * np.linalg.norm(cov.sigma)

    def test_squeeze_bound_gate_raises_first(self):
        # the squeeze bound is Werner-Wolf condition (iii), gated once with (i) and (ii):
        # on this state at the float64 limit the error names the tightest condition
        part = ModePartition(2, 2)
        cov = CovarianceMatrix(raw_random_sigma(part, seed=0, squeeze_max=6.5), part)
        with pytest.raises(
            VerificationError,
            match=r"^witness failed the Werner-Wolf check: B_quantum_min_eig -7\.6\d\de-03$",
        ):
            disentangle(cov)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_pure_states_reach_equality(self, seed):
        rng = np.random.default_rng(seed)
        S = random_symplectic(2, rng, squeeze_max=1.0)
        sigma = 0.5 * S @ S.T
        cov = CovarianceMatrix(0.5 * (sigma + sigma.T), PART11)
        result = disentangle(cov)
        target = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
        assert np.linalg.norm(result.sigma_U.sigma - target) <= 1e-9 * np.linalg.norm(cov.sigma)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_margin_invariant_under_rotation(self, seed):
        from gaussep import random_orthosymplectic

        rng = np.random.default_rng(seed)
        cov = random_covariance(PART11, seed=seed, squeeze_max=1.0, mix_max=1.0)
        U = random_orthosymplectic(2, rng)
        rotated = CovarianceMatrix(
            0.5 * ((U @ cov.sigma @ U.T) + (U @ cov.sigma @ U.T).T), PART11
        )
        a = quantum_condition_check(cov)
        b = quantum_condition_check(rotated)
        assert a.margin == pytest.approx(b.margin, abs=1e-9)


@pytest.fixture(scope="module")
def family_results():
    """``(cov, disentangle(cov))`` over the acceptance family, its first 100 states at
    hbar 0.7 (hbar/2 not a power of two, so the order of the roundings shows) and 60
    near-unit corpus states."""
    covs = [cov for _, cov in acceptance_states()]
    covs += [CovarianceMatrix(cov.sigma * (0.7 / cov.hbar), cov.partition, 0.7) for cov in covs[:100]]
    covs += [cov for _, cov in near_unit_corpus(60)]
    return [(cov, disentangle(cov)) for cov in covs]


def _nu_eff(cov, result):
    """The witness's limit: hbar/2, or the input's own nu_min where roundoff put it below."""
    return min(0.5 * cov.hbar, result.symplectic_eigenvalues[-1])


class TestPerModeWitness:
    """The witness is (+)_k nu_eff diag(lambda_k^2, lambda_k^-2): one block per mode."""

    def test_matches_the_dense_delta_reference_bit_for_bit(self, family_results):
        for cov, result in family_results:
            nu_eff = _nu_eff(cov, result)
            d_a = delta_matrix(result.lambdas[: cov.partition.n_a])
            d_b = delta_matrix(result.lambdas[cov.partition.n_a :])
            assert np.array_equal(result.witness.sigma_a, nu_eff * d_a @ d_a)
            assert np.array_equal(result.witness.sigma_b, nu_eff * d_b @ d_b)

    def test_every_mode_is_a_minimal_uncertainty_block(self, family_results):
        for cov, result in family_results:
            w = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
            assert np.array_equal(w, np.diag(np.diag(w)))
            diag = np.diag(w)
            # det of each 2x2 block is nu_eff^2: three roundings per diagonal entry
            det = diag[0::2] * diag[1::2]
            assert np.all(np.abs(det / _nu_eff(cov, result) ** 2 - 1.0) <= 8 * EPS)

    def test_werner_wolf_holds_for_every_contiguous_cut(self, family_results):
        # the same witness, split at mode m, certifies Sigma_U for the cut m | n - m
        for cov, result in family_results:
            w = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
            for m in range(1, cov.n):
                cut = CovarianceMatrix(result.sigma_U.sigma, ModePartition(m, cov.n - m), cov.hbar)
                witness = SeparabilityWitness(w[: 2 * m, : 2 * m], w[2 * m :, 2 * m :], cov.hbar)
                assert werner_wolf_check(cut, witness).passed, (cov.partition, m)

    def test_no_dense_delta_in_the_pipeline(self):
        # Delta is applied as its diagonal: the witness and the random squeezes form no
        # dense Delta, and the helper that split a dense Delta by parts is gone
        package = Path(gaussep.__file__).parent
        for name in ("separability.py", "states.py"):
            assert "delta_matrix" not in (package / name).read_text(), name
        assert not hasattr(gaussep, "delta_blocks")
        assert not hasattr(gaussep.decomp, "delta_blocks")


class TestPptTest:
    def test_vacuum_passes(self):
        report = ppt_test(CovarianceMatrix(0.5 * np.eye(4), PART11))
        assert report.passed
        assert "conclusive" in report.note

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_tmsv_detected(self, r):
        cov = two_mode_squeezed_vacuum(r)
        report = ppt_test(cov)
        assert not report.passed
        # oracle: symplectic spectrum of the momentum-flipped matrix
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        nu_min = symplectic_spectrum_oracle(flip @ cov.sigma @ flip)[-1]
        assert nu_min == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-9)
        assert report.residuals["nu_min_tilde"] == pytest.approx(nu_min, abs=1e-9)

    def test_disentangled_output_passes(self):
        result = disentangle(two_mode_squeezed_vacuum(1.0))
        report = ppt_test(result.sigma_U)
        assert report.passed

    def test_non_state_raises_with_its_quantum_condition(self):
        # nu = 0.354 < hbar/2: a non-state has no partial transpose to call entangled
        cov = CovarianceMatrix(np.diag([1.0, 0.125, 1.0, 0.125]), PART11)
        with pytest.raises(QuantumConditionError, match="PPT test") as exc:
            ppt_test(cov)
        assert exc.value.report == quantum_condition_check(cov)
        assert not exc.value.report.passed

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_consistency_with_unrotated_witness(self, r):
        # the Delta construction applied without rotating cannot certify an
        # entangled state: the same matrix that fails PPT fails this witness
        cov = two_mode_squeezed_vacuum(r)
        assert not ppt_test(cov).passed
        S = admissible_S(cov)
        rotation = ortho_diagonalize(symplectic_polar(S).P)
        d_a = delta_matrix(rotation.lambdas[: cov.partition.n_a])
        d_b = delta_matrix(rotation.lambdas[cov.partition.n_a :])
        witness = SeparabilityWitness(
            0.5 * cov.hbar * d_a @ d_a, 0.5 * cov.hbar * d_b @ d_b, cov.hbar
        )
        assert not werner_wolf_check(cov, witness).passed

    @pytest.mark.parametrize("hbar", [1e-6, 1.0, 1e6])
    def test_matches_the_partial_transpose_reference(self, hbar):
        # reference: the quantum condition of the covariance Lambda Sigma Lambda.
        # The Hermitian route matches it bit for bit.  The SVD of K against the
        # flipped J is K~ up to the similarity Lambda, which LAPACK's SVD does not
        # keep bit for bit: here seed 193 at hbar 1e6 moves nu_min by 1 ulp, so
        # the spectrum gets the backward-error band dim * eps * ||Sigma||.
        for seed, family_cov in acceptance_states(200):
            cov = CovarianceMatrix(
                family_cov.sigma * (hbar / family_cov.hbar), family_cov.partition, hbar
            )
            signs = np.ones(cov.dim)
            signs[2 * cov.partition.n_a + 1 :: 2] = -1.0
            tilde = CovarianceMatrix(cov.sigma * np.outer(signs, signs), cov.partition, hbar)
            expected = quantum_condition_check(tilde)
            report = ppt_test(cov)
            assert report.passed is expected.passed, seed
            assert report.margin == expected.margin, seed
            assert report.residuals.keys() == {"hermitian_min_eig", "nu_min_tilde", "nu_min_gap"}
            got = report.residuals
            want = expected.residuals
            assert got["hermitian_min_eig"] == want["hermitian_min_eig"], seed
            band = cov.dim * EPS * fro(cov.sigma)
            assert abs(got["nu_min_tilde"] - want["nu_min"]) <= band, seed
            assert abs(got["nu_min_gap"] - want["nu_min_gap"]) <= band, seed
            conclusive = min(cov.partition.n_a, cov.partition.n_b) == 1
            assert report.note.startswith(
                "PPT holds; conclusive" if conclusive and expected.passed
                else "PPT holds; inconclusive" if expected.passed
                else "entangled"
            ), seed

    def test_inconclusive_note_for_larger_partitions(self):
        cov = CovarianceMatrix(0.5 * np.eye(8), ModePartition(2, 2))
        report = ppt_test(cov)
        assert report.passed
        assert "inconclusive" in report.note
