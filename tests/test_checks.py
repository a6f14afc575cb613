import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussep
from gaussep import (
    CovarianceMatrix,
    ModePartition,
    SeparabilityWitness,
    is_orthosymplectic,
    is_symplectic,
    ortho_diagonalize,
    random_covariance,
    random_symplectic,
    reconstruct,
    symplectic_form,
)
from gaussep.checks import SYMMETRY_TOL, fro, min_eig_hermitian, relative_asymmetry
from gaussep.cli import main
from gaussep.documents import DocumentError, parse_input_document
from helpers import antisymmetric_perturbation, hermitian_min_eig_oracle


def test_fro_matches_numpy_norm_bit_for_bit():
    m = np.random.default_rng(0).standard_normal((7, 6))
    for x in (m, m.T, m[::2, 1::2], m[:, 2], m.ravel()):
        assert fro(x) == float(np.linalg.norm(x))


@pytest.mark.parametrize("peak", [1e200, 1e-200, 1e-310])
def test_fro_rescales_only_out_of_range(peak):
    # the plain sum of squares overflows at 1e200 and underflows at 1e-200 and 1e-310
    m = np.random.default_rng(0).standard_normal((4, 4))
    expected = fro(m / np.abs(m).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fro(m * (peak / np.abs(m).max()))
    assert got / peak == pytest.approx(expected, rel=1e-14)


def test_fro_of_non_finite_or_zero_entries():
    assert fro(np.zeros((2, 2))) == 0.0
    assert fro(np.array([1.0, np.inf])) == np.inf
    assert math.isnan(fro(np.array([1.0, np.nan])))


def test_relative_asymmetry_has_no_unit_floor():
    # relative to the matrix however small; the zero matrix is symmetric, not a 0/0
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    for c in (2.0**-100, 1.0, 2.0**100):  # exact scalings
        assert relative_asymmetry(c * m) == relative_asymmetry(m)
    assert relative_asymmetry(np.zeros((2, 2))) == 0.0


def test_symplectic_checks_past_the_square_root_of_float64():
    # ||M||^2 overflows: the relative residual is taken from M / max|M|
    big = np.diag([1e200, 1e-200, 3e160, 1.0 / 3e160])
    assert is_symplectic(big).passed
    assert is_symplectic(big).residuals["symplectic"] == 0.0
    # 1e200 I: ||M^T J M - J|| / ||M||^2 = ||J|| / ||I||^2 = 1/2 to float64 precision
    for check in (is_symplectic, is_orthosymplectic):
        report = check(1e200 * np.eye(4))
        assert not report.passed
        assert report.residuals["symplectic"] == 0.5
    assert is_orthosymplectic(1e200 * np.eye(4)).residuals["orthogonal"] == 0.5


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


def test_no_tolerance_literal_outside_the_table():
    # every gate threshold lives in the table at the top of checks.py; the 1e-6 in
    # states.random_orthosymplectic is a fixture redraw threshold and gates no verdict
    found = []
    for path in sorted(Path(gaussep.__file__).parent.glob("*.py")):
        if path.name == "checks.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        for func in ast.walk(tree):
            if path.name == "states.py" and getattr(func, "name", None) == "random_orthosymplectic":
                exempt.update(id(node) for node in ast.walk(func))
        for node in ast.walk(tree):
            value = getattr(node, "value", None)
            if (
                isinstance(node, ast.Constant)
                and type(value) is float
                and 0.0 < value < 1e-3
                and id(node) not in exempt
            ):
                found.append(f"{path.name}:{node.lineno}: {value!r}")
    assert not found, found


def test_no_unit_floor_outside_the_group_checks():
    # a gate on a quantity that scales with Sigma divides by the norm of the matrix it
    # judges; only S^T J S = J, not homogeneous in S, is relative to max(1, ||S||^2)
    found = []
    for path in sorted(Path(gaussep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        for func in ast.walk(tree):
            if path.name == "phase_space.py" and getattr(func, "name", None) == "_gram_operand":
                exempt.update(id(node) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in (1, 1.0)
                and id(node) not in exempt
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found


def test_quantum_condition_error_is_raised_by_the_one_gate_only():
    # statehood is decided in spectral._require_state; every caller goes through it
    found = []
    for path in sorted(Path(gaussep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        gate = set()
        for func in ast.walk(tree):
            if path.name == "spectral.py" and getattr(func, "name", None) == "_require_state":
                gate.update(id(node) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "QuantumConditionError"
            ):
                where = "gate" if id(node) in gate else f"{path.name}:{node.lineno}"
                found.append(where)
    assert found == ["gate"], found


def _imported_names(tree) -> dict:
    """Each name an import binds, mapped to its line; ``__future__`` features bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    return names


def _dunder_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return [element.value for element in node.value.elts]
    return []


def test_every_import_is_used_or_exported():
    # a deleted caller leaves its imports behind, and no linter runs on the package
    found = []
    for path in sorted(Path(gaussep.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_dunder_all(tree))
        for name, lineno in _imported_names(tree).items():
            if name not in used and "# noqa: F401" not in lines[lineno - 1]:
                found.append(f"{path.name}:{lineno}: {name}")
    assert not found, found


def test_dunder_all_is_the_public_import_list():
    # a name left in __all__ after its function is deleted breaks ``from gaussep import *``
    tree = ast.parse(Path(gaussep.__file__).read_text())
    exported = gaussep.__all__
    assert len(exported) == len(set(exported)), exported
    missing = [name for name in exported if not hasattr(gaussep, name)]
    assert not missing, missing
    public = {name for name in _imported_names(tree) if not name.startswith("_")}
    assert set(exported) == public


def _symplectic_positive(seed):
    # S S^T of a symplectic S: a positive symplectic P and, at hbar = 1, a valid covariance
    S = random_symplectic(2, np.random.default_rng(seed))
    P = S @ S.T
    return 0.5 * (P + P.T)


def _asymmetric(matrix, factor):
    out = antisymmetric_perturbation(matrix, 1, factor)
    assert (relative_asymmetry(out) > SYMMETRY_TOL) == (factor > 1.0)
    return out


def _with_entry(matrix, value):
    out = matrix.copy()
    out[0, 1] = out[1, 0] = value
    return out


def _through_document(matrix, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n_A": 1, "n_B": 1, "sigma": matrix.tolist()}))
    code = main(["validate", "--json", str(path)])
    err = capsys.readouterr().err
    if code == 2:
        raise ValueError(err)
    assert code == 0, err
    return parse_input_document(path.read_text()).cov.sigma


def _through_rotation(matrix, *_):
    rotation = ortho_diagonalize(matrix)
    return reconstruct(rotation.U, rotation.lambdas)


# each entry point returns the symmetric matrix it stores (the rotation: rebuilds)
ENTRY_POINTS = {
    "CovarianceMatrix": lambda m, *_: CovarianceMatrix(m, ModePartition(1, 1)).sigma,
    "SeparabilityWitness": lambda m, *_: SeparabilityWitness(m, 2.0 * m).sigma_a,
    "ortho_diagonalize": _through_rotation,
    "document": _through_document,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda P: _asymmetric(P, 0.99), None),
        (lambda P: _asymmetric(P, 1.01), "not symmetric"),
        (lambda P: _with_entry(P, np.nan), "non-finite"),
        (lambda P: _with_entry(P, np.inf), "non-finite"),
        (lambda P: _with_entry(P, -np.inf), "non-finite"),
    ],
    ids=["asymmetry-0.99", "asymmetry-1.01", "nan", "+inf", "-inf"],
)
def test_every_symmetric_input_passes_one_gate(entry, make, expected, tmp_path, capsys):
    matrix = make(_symplectic_positive(3))
    if expected is not None:
        with pytest.raises(ValueError, match=expected):
            ENTRY_POINTS[entry](matrix, tmp_path, capsys)
        return
    stored = ENTRY_POINTS[entry](matrix, tmp_path, capsys)
    symmetric = 0.5 * (matrix + matrix.T)
    if entry == "ortho_diagonalize":
        assert fro(stored - symmetric) <= 1e-10 * fro(symmetric)
    else:
        assert np.array_equal(stored, symmetric)
        assert np.array_equal(stored, stored.T)


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("inf"), float("nan")], ids=str)
@pytest.mark.parametrize(
    "build",
    [
        lambda hbar: CovarianceMatrix(np.eye(4), ModePartition(1, 1), hbar),
        lambda hbar: SeparabilityWitness(np.eye(2), np.eye(2), hbar),
        lambda hbar: random_covariance(ModePartition(1, 1), hbar=hbar, seed=0),
    ],
    ids=["CovarianceMatrix", "SeparabilityWitness", "random_covariance"],
)
def test_one_hbar_gate_names_hbar(build, hbar):
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        build(hbar)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "Infinity", "NaN", "0", "-1"])
def test_document_hbar_must_be_finite_and_positive(literal):
    text = '{"hbar": %s, "n_A": 1, "n_B": 1, "sigma": [[1, 0, 0, 0], [0, 1, 0, 0], ' \
        '[0, 0, 1, 0], [0, 0, 0, 1]]}' % literal
    with pytest.raises(DocumentError, match="hbar must be finite and positive"):
        parse_input_document(text)
