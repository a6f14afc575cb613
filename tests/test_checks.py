import ast
import json
from pathlib import Path

import numpy as np
import pytest

import gaussep
from gaussep import (
    CovarianceMatrix,
    ModePartition,
    SeparabilityWitness,
    ortho_diagonalize,
    random_covariance,
    random_symplectic,
    reconstruct,
    symplectic_form,
)
from gaussep.checks import SYMMETRY_TOL, fro, min_eig_hermitian, relative_asymmetry
from gaussep.cli import main
from gaussep.documents import parse_input_document
from helpers import antisymmetric_perturbation, hermitian_min_eig_oracle


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


def test_no_tolerance_literal_outside_the_table():
    # every gate threshold lives in the table at the top of checks.py; the 1e-6
    # in states.py is a fixture redraw threshold and gates no verdict
    found = []
    for path in sorted(Path(gaussep.__file__).parent.glob("*.py")):
        if path.name in ("checks.py", "states.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            value = getattr(node, "value", None)
            if isinstance(node, ast.Constant) and type(value) is float and 0.0 < value < 1e-3:
                found.append(f"{path.name}:{node.lineno}: {value!r}")
    assert not found, found


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
    return parse_input_document(path.read_text()).sigma


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
