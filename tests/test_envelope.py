"""Conditioning envelope of the disentangling pipeline: strong and near-unit squeezing."""

import math

import numpy as np
import pytest

from gaussep import (
    ModePartition,
    disentangle,
    is_orthosymplectic,
    random_covariance,
    symplectic_polar,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
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


@pytest.mark.parametrize("r", [5.0, 6.0, 7.0, 8.0])
def test_polar_of_strong_squeezer_keeps_rotation_orthogonal(r):
    S = two_mode_squeezer(r)
    form = symplectic_polar(S)
    assert np.linalg.norm(form.R.T @ form.R - np.eye(4)) <= 1e-12
    assert np.linalg.norm(form.P @ form.R - S) <= 1e-12 * np.linalg.norm(S)
