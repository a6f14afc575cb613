"""Bipartite phase-space geometry: orderings, the symplectic form, structure checks.

Coordinates follow the interleaved convention ``(x1, p1, ..., xn, pn)``
everywhere inside the package.  The blocked convention
``(x1, ..., xn, p1, ..., pn)`` exists for interoperability with other
toolkits and is converted away at I/O boundaries.  With interleaved
coordinates the standard symplectic form is the direct sum of per-mode
blocks ``[[0, 1], [-1, 0]]``, so a bipartition into the first ``n_A`` modes
and the remaining ``n_B`` modes splits J as ``J_A (+) J_B`` literally.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .checks import DEFAULT_TOL, CheckReport, _require_even_square, fro, margin_report

#: Single-mode symplectic form.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class Ordering(enum.Enum):
    """Phase-space variable ordering tag."""

    INTERLEAVED = "interleaved"
    BLOCKED = "blocked"

    @classmethod
    def parse(cls, tag: str) -> "Ordering":
        try:
            return cls(str(tag).lower())
        except ValueError:
            raise ValueError(
                f"unknown ordering {tag!r}; expected 'interleaved' or 'blocked'"
            ) from None


@dataclass(frozen=True)
class ModePartition:
    """Bipartition of n modes into an A block of n_a modes and a B block of n_b."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(
                f"both parts of a bipartition need at least one mode, "
                f"got n_a={self.n_a}, n_b={self.n_b}"
            )

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    @property
    def dim(self) -> int:
        """Phase-space dimension 2n."""
        return 2 * self.n


@functools.lru_cache(maxsize=64)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form for n modes in interleaved ordering.

    The array is built once per mode count and shared by every caller, so it
    is read-only: copy it before writing to it (``build_J`` returns a copy).
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    # filled rather than np.kron(I, J2), which writes -0.0 off the diagonal blocks
    J = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    J[x, x + 1] = 1.0
    J[x + 1, x] = -1.0
    J.setflags(write=False)
    return J


def build_J(partition: ModePartition, ordering: Ordering = Ordering.INTERLEAVED) -> np.ndarray:
    """Symplectic form J = J_A (+) J_B of a bipartite system, entries 0 and +-1.

    Unlike ``symplectic_form`` the result is a fresh, writable array.
    """
    J = symplectic_form(partition.n)
    return convert_ordering(J, Ordering.INTERLEAVED, ordering)


def _blocked_from_interleaved(n: int) -> np.ndarray:
    # blocked position i reads interleaved position perm[i]: all x's, then all p's
    return np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])


def _ordering_index(n: int, frm: Ordering, to: Ordering) -> np.ndarray:
    perm = _blocked_from_interleaved(n)
    if (frm, to) == (Ordering.INTERLEAVED, Ordering.BLOCKED):
        return perm
    return np.argsort(perm)


def convert_ordering(matrix: np.ndarray, frm: Ordering, to: Ordering) -> np.ndarray:
    """Re-index a 2n x 2n matrix between the two orderings.

    The conversion is a pure permutation (conjugation by a permutation
    matrix), so a round trip reproduces the input bit-exactly.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = _require_even_square(matrix)
    if frm == to:
        return matrix.copy()
    idx = _ordering_index(n, frm, to)
    return matrix[np.ix_(idx, idx)]


def convert_vector_ordering(vector: np.ndarray, frm: Ordering, to: Ordering) -> np.ndarray:
    """Re-index a phase-space vector between the two orderings."""
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1 or vector.size % 2 != 0 or vector.size == 0:
        raise ValueError(f"expected a vector of even length, got shape {vector.shape}")
    if frm == to:
        return vector.copy()
    return vector[_ordering_index(vector.size // 2, frm, to)]


def direct_sum(block_a: np.ndarray, block_b: np.ndarray) -> np.ndarray:
    """Block-diagonal embedding with the A block in the leading rows/columns."""
    block_a = np.asarray(block_a, dtype=float)
    block_b = np.asarray(block_b, dtype=float)
    dim_a = 2 * _require_even_square(block_a)
    dim_b = 2 * _require_even_square(block_b)
    out = np.zeros((dim_a + dim_b, dim_a + dim_b))
    out[:dim_a, :dim_a] = block_a
    out[dim_a:, dim_a:] = block_b
    return out


def _complex_frame(B: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mu`` descending and ``B Q``, Q orthogonal with ``Q^T C Q = (+)_k mu_k J2``.

    ``C = B^T A B``, antisymmetrized, restricts the form A to the A-invariant
    span of B's orthonormal columns, where A must be nonsingular.  The
    Hermitian ``iC`` has eigenvalues +-mu_k; each eigenvector ``a + ib`` for
    +mu_k gives the columns ``(sqrt(2) a, -sqrt(2) b)``.  Its conjugate
    belongs to -mu_k, so the real and imaginary parts of the positive half are
    orthonormal after scaling, degenerate mu_k included.
    """
    C = B.T @ A @ B
    m = C.shape[0] // 2
    w, Z = np.linalg.eigh(1j * (0.5 * (C - C.T)))
    Z = np.sqrt(2.0) * Z[:, m:][:, ::-1]
    Q = np.empty(C.shape)
    Q[:, 0::2] = Z.real
    Q[:, 1::2] = -Z.imag
    return w[m:][::-1], B @ Q


def _gram_operand(matrix: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(A, c, scale)`` with ``||M^T F M - T|| / max(1, ||M||^2) = ||A^T F A - c T|| / scale``.

    In range that is ``(M, 1, max(1, ||M||^2))``.  Where ``||M||^2`` overflows
    (``**`` raises there), it is ``A = M / max|M|`` and ``c = max|M|^-2``, so no
    product overflows and the ratio stays the same.
    """
    try:
        scale = max(1.0, fro(matrix) ** 2)
    except OverflowError:
        scale = math.inf
    # a non-finite entry fails the check whichever way it is scaled
    if scale < math.inf or not np.isfinite(matrix).all():
        return matrix, 1.0, scale
    peak = float(np.max(np.abs(matrix)))
    unit = matrix / peak
    return unit, peak**-2, fro(unit) ** 2


def is_symplectic(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check S^T J S = J; the residual is relative to max(1, ||S||^2)."""
    matrix = np.asarray(matrix, dtype=float)
    n = _require_even_square(matrix)
    J = symplectic_form(n)
    unit, c, scale = _gram_operand(matrix)
    residual = fro(unit.T @ J @ unit - c * J) / scale
    return margin_report(-residual, 1.0, tol, {"symplectic": residual})


def is_orthosymplectic(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check membership in U(n) = Sp(n) intersected with O(2n): both residuals must pass."""
    matrix = np.asarray(matrix, dtype=float)
    n = _require_even_square(matrix)
    unit, c, scale = _gram_operand(matrix)
    J = symplectic_form(n)
    r_symp = fro(unit.T @ J @ unit - c * J) / scale
    r_orth = fro(unit.T @ unit - c * np.eye(2 * n)) / scale
    return margin_report(
        -max(r_symp, r_orth),
        1.0,
        tol,
        {"symplectic": r_symp, "orthogonal": r_orth},
    )
