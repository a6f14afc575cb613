"""Conditioning envelope of the pipeline: strong and near-unit squeezing, degenerate spectra."""

import math

import numpy as np
import pytest

from gaussep import (
    DEFAULT_TOL,
    CovarianceMatrix,
    ModePartition,
    VerificationError,
    direct_sum,
    disentangle,
    is_orthosymplectic,
    is_symplectic,
    random_covariance,
    random_orthosymplectic,
    reconstruct,
    symplectic_polar,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
    williamson,
)

from helpers import two_mode_squeezer


def _assert_certified(result):
    assert werner_wolf_check(result.sigma_U, result.witness).passed
    assert is_orthosymplectic(result.U).passed


@pytest.mark.parametrize("squeeze", [3.0, 4.0, 5.0])
def test_strongly_squeezed_random_states_disentangle(squeeze):
    for seed in range(20):
        cov = random_covariance(ModePartition(2, 2), seed=seed, squeeze_max=squeeze)
        _assert_certified(disentangle(cov))


@pytest.mark.parametrize("squeeze", [5.5, 6.0, 6.5, 7.0])
def test_float64_limit_states_fail_naming_the_limit(squeeze):
    # these states sit at the float64 limit: the constructor refuses some, and a
    # definiteness verdict, on sigma or on the rotated sigma_U, must say so
    # rather than fail bare once sigma has been accepted
    for seed in range(60):
        try:
            disentangle(random_covariance(ModePartition(2, 2), seed=seed, squeeze_max=squeeze))
        except VerificationError:
            pass
        except ValueError as exc:
            assert "float64 matrix is the limit" in str(exc), (seed, str(exc))


@pytest.mark.parametrize("r", [5.0, 6.0])
def test_strong_tmsv_stretch_matches_stored_input(r):
    # the stored matrix holds cosh(2r) and sinh(2r) rounded; its exact stretch is
    # ((c+s)/(c-s))^(1/4), where c - s is exact, while e^r is off by up to 6e-7
    result = disentangle(two_mode_squeezed_vacuum(r))
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    expected = ((c + s) / (c - s)) ** 0.25
    assert result.lambdas[0] == pytest.approx(expected, rel=1e-12)
    _assert_certified(result)


@pytest.mark.parametrize("r", [1e-12, 1e-11, 1e-8, 1e-7, 1e-6])
def test_near_unit_tmsv_disentangles(r):
    result = disentangle(two_mode_squeezed_vacuum(r))
    _assert_certified(result)
    assert result.lambdas == pytest.approx(math.exp(r), rel=1e-10)


@pytest.mark.parametrize("r", [1e-10, 3e-10, 1e-9, 3e-9])
def test_near_unit_tmsv_stretch_matches_stored_input(r):
    # 1 +- r lies within 1e-8 of 1 but far outside roundoff: lambda must be resolved
    cov = two_mode_squeezed_vacuum(r)
    c, s = cov.sigma[0, 0] / 0.5, cov.sigma[0, 2] / 0.5
    result = disentangle(cov)
    _assert_certified(result)
    assert result.lambdas == pytest.approx(((c + s) / (c - s)) ** 0.25, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("r", [5.0, 6.0, 7.0, 8.0])
def test_polar_of_strong_squeezer_keeps_rotation_orthogonal(r):
    S = two_mode_squeezer(r)
    form = symplectic_polar(S)
    assert np.linalg.norm(form.R.T @ form.R - np.eye(4)) <= 1e-12
    assert np.linalg.norm(form.P @ form.R - S) <= 1e-12 * np.linalg.norm(S)


def _two_tmsv_and_vacuum(r: float = 1.0) -> CovarianceMatrix:
    """TMSV(r) on modes (A1, B1) and (A2, B2), vacuum on A3, under random local rotations.

    Every nu is 1/2, and P has the eigenvalue classes e^r and e^-r (four-fold)
    around a two-dimensional unit class; the local rotations keep none of
    their eigenvectors on the coordinate axes.
    """
    sigma = 0.5 * np.eye(10)
    tmsv = two_mode_squeezed_vacuum(r).sigma
    for a, b in ((0, 3), (1, 4)):  # interleaved mode order A1, A2, A3, B1, B2
        idx = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1]
        sigma[np.ix_(idx, idx)] = tmsv
    rng = np.random.default_rng(0)
    local = direct_sum(random_orthosymplectic(3, rng), random_orthosymplectic(2, rng))
    sigma = local @ sigma @ local.T
    return CovarianceMatrix(0.5 * (sigma + sigma.T), ModePartition(3, 2))


@pytest.mark.parametrize("r", [1e-12, 1e-11, 1e-10, 1e-9, 1e-8])
def test_near_unit_classes_beside_the_unit_class(r):
    # the classes 1 +- r are four-fold and the vacuum's unit class sits between them
    result = disentangle(_two_tmsv_and_vacuum(r))
    _assert_certified(result)
    assert result.lambdas[:4] - 1.0 == pytest.approx(r, rel=0.0, abs=1e-14)
    assert result.lambdas[4] == pytest.approx(1.0, rel=0.0, abs=1e-14)


DEGENERATE = {
    "two tmsv and vacuum": (_two_tmsv_and_vacuum, 0.5, [math.e] * 4 + [1.0]),
    "thermal": (lambda: CovarianceMatrix(0.7 * np.eye(10), ModePartition(2, 3)), 0.7, [1.0] * 5),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_spectra(name):
    build, nu, lambdas = DEGENERATE[name]
    cov = build()
    form = williamson(cov)
    assert form.nu == pytest.approx(nu, rel=1e-12)
    assert is_symplectic(form.S).passed
    D = np.diag(np.repeat(form.nu, 2))
    recon = np.linalg.norm(form.S @ D @ form.S.T - cov.sigma)
    assert recon <= DEFAULT_TOL * np.linalg.norm(cov.sigma)

    result = disentangle(cov)
    _assert_certified(result)
    assert result.lambdas == pytest.approx(lambdas, rel=1e-10)
    # P = (S S^T)^(1/2) is the same for every Williamson S
    P = symplectic_polar(form.S).P
    recon = np.linalg.norm(reconstruct(result.U, result.lambdas) - P)
    assert recon <= DEFAULT_TOL * np.linalg.norm(P)


@pytest.mark.parametrize("r", [5.0, 7.0, 8.0, 9.0])
def test_strong_tmsv_williamson_residuals(r):
    form = williamson(two_mode_squeezed_vacuum(r))
    assert form.residuals["reconstruction"] <= 1e-12
    assert form.residuals["symplectic"] <= 1e-12


def test_williamson_rejects_spectrum_too_wide_for_float64():
    # positive definite, but its symplectic spectrum spans 16 decades: roundoff puts
    # the smallest eigenvalue of iK below zero (ValueError), which must not turn into
    # a NaN S; a LAPACK that rounds it above zero fails the symplectic gate instead
    O = random_orthosymplectic(2, np.random.default_rng(46))
    sigma = O @ np.diag([3e15, 3e15, 0.5, 0.5]) @ O.T
    cov = CovarianceMatrix(0.5 * (sigma + sigma.T), ModePartition(1, 1))
    with pytest.raises((ValueError, VerificationError)):
        williamson(cov)
