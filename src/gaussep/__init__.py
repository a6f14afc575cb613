"""Disentangling Gaussian covariance matrices by symplectic rotations.

Given the covariance matrix of any Gaussian quantum state, the package
constructs a symplectic rotation that maps the state to one whose
separability is certified by an explicit Werner-Wolf witness, and verifies
every step of the construction with reported residuals.
"""

from .checks import DEFAULT_TOL, CheckReport, VerificationError
from .decomp import (
    PairingError,
    PolarForm,
    RotationDiagonalization,
    delta_matrix,
    ortho_diagonalize,
    reconstruct,
    symplectic_polar,
)
from .phase_space import (
    ModePartition,
    Ordering,
    build_J,
    convert_ordering,
    convert_vector_ordering,
    direct_sum,
    is_orthosymplectic,
    is_symplectic,
    symplectic_form,
)
from .separability import (
    DisentangleResult,
    SeparabilityWitness,
    disentangle,
    ppt_test,
    werner_wolf_check,
)
from .spectral import (
    CovarianceMatrix,
    QuantumConditionError,
    WilliamsonForm,
    admissible_S,
    quantum_condition_check,
    symplectic_eigenvalues,
    williamson,
)
from .states import (
    GaussianState,
    purity,
    push_symplectic,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    rotate_state,
    two_mode_squeezed_vacuum,
    wigner_eval,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "CheckReport",
    "CovarianceMatrix",
    "DisentangleResult",
    "GaussianState",
    "ModePartition",
    "Ordering",
    "PairingError",
    "PolarForm",
    "QuantumConditionError",
    "RotationDiagonalization",
    "SeparabilityWitness",
    "VerificationError",
    "WilliamsonForm",
    "admissible_S",
    "build_J",
    "convert_ordering",
    "convert_vector_ordering",
    "delta_matrix",
    "direct_sum",
    "disentangle",
    "is_orthosymplectic",
    "is_symplectic",
    "ortho_diagonalize",
    "ppt_test",
    "purity",
    "push_symplectic",
    "quantum_condition_check",
    "random_covariance",
    "random_orthosymplectic",
    "random_symplectic",
    "reconstruct",
    "rotate_state",
    "symplectic_eigenvalues",
    "symplectic_form",
    "symplectic_polar",
    "two_mode_squeezed_vacuum",
    "werner_wolf_check",
    "wigner_eval",
    "williamson",
]
