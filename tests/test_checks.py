import numpy as np

from gaussep import ModePartition, random_covariance, symplectic_form
from gaussep.checks import fro, min_eig_hermitian
from helpers import hermitian_min_eig_oracle


def test_fro_matches_numpy_norm_bit_for_bit():
    m = np.random.default_rng(0).standard_normal((7, 6))
    for x in (m, m.T, m[::2, 1::2], m[:, 2], m.ravel()):
        assert fro(x) == float(np.linalg.norm(x))


def test_min_eig_hermitian_matches_block_embedding():
    # the real symmetric embedding [[A, -B], [B, A]] has the spectrum of A + iB, doubled
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8):
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        a, b = a + a.T, b - b.T
        expected = np.linalg.eigvalsh(np.block([[a, -b], [b, a]]))[0]
        assert abs(min_eig_hermitian(a, b) - expected) <= 1e-13 * max(1.0, abs(expected))


def test_min_eig_hermitian_agrees_with_complex_oracle():
    cov = random_covariance(ModePartition(2, 3), hbar=2.0, seed=4, squeeze_max=1.5, mix_max=2.0)
    margin = min_eig_hermitian(cov.sigma, 0.5 * cov.hbar * symplectic_form(cov.n))
    assert abs(margin - hermitian_min_eig_oracle(cov.sigma, cov.hbar)) <= 1e-12
