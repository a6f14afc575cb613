import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaussep import (
    ModePartition,
    Ordering,
    build_J,
    convert_ordering,
    convert_vector_ordering,
    direct_sum,
    is_orthosymplectic,
    is_symplectic,
    random_symplectic,
    symplectic_form,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_partition_requires_both_parts():
    with pytest.raises(ValueError):
        ModePartition(1, 0)
    with pytest.raises(ValueError):
        ModePartition(0, 3)


def test_single_mode_block():
    J = build_J(ModePartition(1, 1))
    assert np.array_equal(J[:2, :2], J2)


def test_build_J_is_direct_sum_of_mode_blocks():
    J = build_J(ModePartition(1, 1), Ordering.INTERLEAVED)
    expected = np.zeros((4, 4))
    expected[:2, :2] = J2
    expected[2:, 2:] = J2
    assert np.array_equal(J, expected)


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 3), (3, 3)])
def test_J_invariants_exact(n_a, n_b):
    J = build_J(ModePartition(n_a, n_b))
    dim = 2 * (n_a + n_b)
    assert np.array_equal(J.T, -J)
    assert np.array_equal(J @ J, -np.eye(dim))
    assert set(np.unique(J)) <= {-1.0, 0.0, 1.0}


def test_interleaved_to_blocked_index_map():
    # n=2: interleaved index i lands at blocked position (0,1,2,3) -> (0,2,1,3)
    M = np.arange(16, dtype=float).reshape(4, 4)
    B = convert_ordering(M, Ordering.INTERLEAVED, Ordering.BLOCKED)
    landing = {0: 0, 1: 2, 2: 1, 3: 3}
    for i in range(4):
        for j in range(4):
            assert B[landing[i], landing[j]] == M[i, j]


def test_convert_fixes_identity():
    assert np.array_equal(
        convert_ordering(np.eye(6), Ordering.INTERLEAVED, Ordering.BLOCKED), np.eye(6)
    )


def test_J_blocked_form():
    # applying the permutation by hand to the 4x4 interleaved J gives [[0, I], [-I, 0]]
    J = build_J(ModePartition(1, 1), Ordering.BLOCKED)
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    assert np.array_equal(J, expected)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_convert_round_trip_bit_exact(seed, n):
    M = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    for a, b in [(Ordering.INTERLEAVED, Ordering.BLOCKED), (Ordering.BLOCKED, Ordering.INTERLEAVED)]:
        assert np.array_equal(convert_ordering(convert_ordering(M, a, b), b, a), M)
    v = np.random.default_rng(seed + 1).standard_normal(2 * n)
    round_trip = convert_vector_ordering(
        convert_vector_ordering(v, Ordering.INTERLEAVED, Ordering.BLOCKED),
        Ordering.BLOCKED,
        Ordering.INTERLEAVED,
    )
    assert np.array_equal(round_trip, v)


def test_convert_rejects_odd_dimension():
    with pytest.raises(ValueError):
        convert_ordering(np.eye(3), Ordering.INTERLEAVED, Ordering.BLOCKED)


@pytest.mark.parametrize("n", range(1, 7))
def test_symplectic_form_is_direct_sum_of_mode_blocks(n):
    expected = np.zeros((2 * n, 2 * n))
    for k in range(n):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
    J = symplectic_form(n)
    assert np.array_equal(J, expected)
    assert not np.signbit(J[J == 0.0]).any()


def test_symplectic_form_is_shared_and_read_only():
    J = symplectic_form(3)
    assert symplectic_form(3) is J
    with pytest.raises(ValueError):
        J[0, 1] = 2.0
    assert J[0, 1] == 1.0


def test_symplectic_form_rejects_zero_modes_and_recovers():
    with pytest.raises(ValueError):
        symplectic_form(0)
    assert np.array_equal(symplectic_form(1), J2)


def test_build_J_returns_writable_copy():
    partition = ModePartition(1, 2)
    for ordering in Ordering:
        J = build_J(partition, ordering)
        J[0, 0] = 5.0
        assert symplectic_form(3)[0, 0] == 0.0


def test_direct_sum_of_unequal_blocks():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((6, 6))
    expected = np.zeros((8, 8))
    expected[:2, :2] = A
    expected[2:, 2:] = B
    assert np.array_equal(direct_sum(A, B), expected)
    expected = np.zeros((8, 8))
    expected[:6, :6] = B
    expected[6:, 6:] = A
    assert np.array_equal(direct_sum(B, A), expected)


def test_direct_sum_examples():
    assert np.array_equal(direct_sum(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(direct_sum(symplectic_form(1), symplectic_form(1)), symplectic_form(2))
    assert np.array_equal(
        direct_sum(np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])),
        np.diag([2.0, 0.5, 3.0, 1.0 / 3.0]),
    )


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 3), n_b=st.integers(1, 3))
def test_direct_sum_spectrum_is_multiset_union(seed, n_a, n_b):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n_a, 2 * n_a))
    A = A + A.T
    B = rng.standard_normal((2 * n_b, 2 * n_b))
    B = B + B.T
    merged = np.sort(np.concatenate([np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)]))
    assert np.allclose(np.linalg.eigvalsh(direct_sum(A, B)), merged, atol=1e-10)


def test_is_symplectic_examples():
    assert is_symplectic(np.eye(4)).passed
    assert is_symplectic(np.eye(4)).residuals["symplectic"] == 0.0
    assert is_symplectic(np.diag([2.0, 0.5])).passed
    assert not is_symplectic(np.diag([2.0, 2.0])).passed


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_is_symplectic_agrees_with_inverse(seed, n):
    rng = np.random.default_rng(seed)
    S = random_symplectic(n, rng, squeeze_max=1.0)
    assert is_symplectic(S).passed
    assert is_symplectic(np.linalg.inv(S)).passed
    # a clearly broken matrix fails in both directions too
    T = S.copy()
    T[0, 0] += 0.1
    assert not is_symplectic(T).passed
    assert not is_symplectic(np.linalg.inv(T)).passed


def test_is_orthosymplectic_examples():
    assert is_orthosymplectic(np.eye(4)).passed
    c, s = np.cos(0.7), np.sin(0.7)
    assert is_orthosymplectic(np.array([[c, -s], [s, c]])).passed
    report = is_orthosymplectic(np.diag([2.0, 0.5]))
    assert not report.passed
    assert report.residuals["symplectic"] < report.residuals["orthogonal"]


def test_check_report_margin_contract():
    report = is_symplectic(np.diag([2.0, 2.0]), tol=1e-10)
    assert report.passed == (report.margin >= -report.tol * report.scale)
