import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import gaussep
from gaussep import (
    CovarianceMatrix,
    ModePartition,
    SeparabilityWitness,
    quantum_condition_check,
    symplectic_eigenvalues,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
)
from gaussep.checks import DEFAULT_TOL
from gaussep.cli import build_parser, main
from gaussep.documents import parse_input_document, render_input_document
from gaussep.phase_space import Ordering, convert_ordering

from helpers import raw_random_sigma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def vacuum_doc(tmp_path, hbar=1.0, name="vacuum.json"):
    return write_doc(
        tmp_path,
        name,
        {
            "hbar": hbar,
            "n_A": 1,
            "n_B": 1,
            "sigma": (0.5 * hbar * np.eye(4)).tolist(),
        },
    )


def tmsv_doc(tmp_path, r=1.0, name="tmsv.json"):
    cov = two_mode_squeezed_vacuum(r)
    return write_doc(
        tmp_path, name, {"hbar": 1.0, "n_A": 1, "n_B": 1, "sigma": cov.sigma.tolist()}
    )


def bad_doc(tmp_path, name="bad.json"):
    return write_doc(
        tmp_path,
        name,
        {"n_A": 1, "n_B": 1, "sigma": np.diag([1.0, 0.125, 1.0, 0.125]).tolist()},
    )


class TestValidate:
    def test_vacuum_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", vacuum_doc(tmp_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert abs(report["quantum_condition"]["margin"]) < 1e-12

    def test_below_limit_fails(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", bad_doc(tmp_path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["symplectic_eigenvalues"][-1] == pytest.approx(
            math.sqrt(0.125), abs=1e-12
        )

    def test_report_matches_independent_calls(self, tmp_path, capsys):
        code, doc_text, _ = run(capsys, "random", "--nA", "2", "--nB", "3", "--seed", "5")
        assert code == 0
        code, out, _ = run(capsys, "validate", write_doc(tmp_path, "r.json", doc_text), "--json")
        assert code == 0
        report = json.loads(out)
        cov = parse_input_document(doc_text).cov
        assert report["quantum_condition"] == asdict(quantum_condition_check(cov))
        assert report["symplectic_eigenvalues"] == symplectic_eigenvalues(cov).tolist()

    def test_truncated_file_is_malformed(self, tmp_path, capsys):
        path = write_doc(tmp_path, "trunc.json", '{"n_A": 1, "n_B"')
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert "JSON" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"n_A": 1, "sigma": np.eye(4).tolist()},
            {"n_A": 1, "n_B": 2, "sigma": np.eye(4).tolist()},
            {"n_A": 1, "n_B": 1, "sigma": np.eye(3).tolist()},
            {"n_A": 1, "n_B": 1, "sigma": [[1, 0.5], [0.0, 1]] * 1},
            {"n_A": 1, "n_B": 1, "hbar": -1.0, "sigma": np.eye(4).tolist()},
            {"n_A": 1, "n_B": 1, "ordering": "weird", "sigma": np.eye(4).tolist()},
            {"n_A": 0, "n_B": 2, "sigma": np.eye(4).tolist()},
        ],
    )
    def test_schema_violations_exit_2(self, tmp_path, capsys, payload):
        code, _, err = run(capsys, "validate", write_doc(tmp_path, "doc.json", payload))
        assert code == 2
        assert err != ""

    def test_asymmetric_sigma_rejected(self, tmp_path, capsys):
        sigma = np.eye(4)
        sigma[0, 1] = 0.1
        path = write_doc(tmp_path, "asym.json", {"n_A": 1, "n_B": 1, "sigma": sigma.tolist()})
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert "symmetric" in err

    def test_tiny_asymmetry_warns_and_passes(self, tmp_path, capsys):
        sigma = 0.5 * np.eye(4)
        sigma[0, 1] = 1e-11
        path = write_doc(tmp_path, "warn.json", {"n_A": 1, "n_B": 1, "sigma": sigma.tolist()})
        code, _, err = run(capsys, "validate", path)
        assert code == 0
        assert "symmetrized" in err

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        doc = json.dumps({"n_A": 1, "n_B": 1, "sigma": (0.5 * np.eye(4)).tolist()})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, _ = run(capsys, "validate", "-")
        assert code == 0

    def test_document_hbar_changes_verdict(self, tmp_path, capsys):
        sigma = 0.5 * np.eye(4)
        path = write_doc(tmp_path, "h2.json", {"hbar": 2.0, "n_A": 1, "n_B": 1, "sigma": sigma.tolist()})
        code, _, _ = run(capsys, "validate", path)
        assert code == 1  # vacuum at hbar=1 violates the hbar=2 condition


class TestDisentangle:
    def test_tmsv_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "disentangle", tmsv_doc(tmp_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["lambdas"], math.e, atol=1e-9)
        sigma_a = np.array(report["sigma_A"])
        assert np.allclose(
            np.diag(sigma_a), [0.5 * math.e**2, 0.5 * math.e**-2], atol=1e-9
        )
        assert "ppt" not in report
        assert report["werner_wolf"]["passed"] is True

    def test_near_unit_tmsv_report(self, tmp_path, capsys):
        # 1 +- 1e-9 is far outside roundoff of 1: lambda is resolved, not rounded to 1
        code, out, _ = run(capsys, "disentangle", "--json", tmsv_doc(tmp_path, r=1e-9))
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["lambdas"], 1.0 + 1e-9, rtol=0.0, atol=1e-14)
        assert report["werner_wolf"]["passed"] is True

    @pytest.mark.parametrize("r", [7.0, 8.0, 9.0])
    def test_strong_tmsv_exits_0(self, tmp_path, capsys, r):
        # the float64 TMSV sits below hbar/2 by roundoff; the witness is built at its nu_min
        code, out, err = run(capsys, "disentangle", tmsv_doc(tmp_path, r=r), "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report["verdict"] == "pass" and report["symplectic_eigenvalues"][-1] < 0.5

    def test_pure_states_a_hair_inside_the_limit_exit_0_or_1(self, tmp_path, capsys):
        # 0.5 (1 - 1e-9) S S^T: the statehood gate refuses 10 of 40 (exit 1), none exits 3
        codes = []
        for seed in range(40):
            S = gaussep.random_symplectic(4, np.random.default_rng(seed))
            sigma = 0.5 * (1.0 - 1e-9) * S @ S.T
            doc = {"n_A": 2, "n_B": 2, "sigma": (0.5 * (sigma + sigma.T)).tolist()}
            codes.append(run(capsys, "disentangle", write_doc(tmp_path, "p.json", doc))[0])
        assert codes.count(0) == 30 and codes.count(1) == 10

    def test_vacuum_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "disentangle", vacuum_doc(tmp_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["werner_wolf"]["margin"] >= -1e-12
        assert np.allclose(report["lambdas"], 1.0, atol=1e-12)

    def test_invalid_sigma_exits_1_without_witness(self, tmp_path, capsys):
        code, out, err = run(capsys, "disentangle", bad_doc(tmp_path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert "sigma_A" not in report and "U" not in report
        assert "quantum condition" in err

    def test_report_reverifies_from_serialized_values(self, tmp_path, capsys):
        code, out, _ = run(capsys, "disentangle", tmsv_doc(tmp_path, r=0.5), "--json")
        assert code == 0
        report = json.loads(out)
        cov = CovarianceMatrix(
            np.array(report["sigma_U"]), ModePartition(report["n_A"], report["n_B"]),
            report["hbar"],
        )
        witness = SeparabilityWitness(
            np.array(report["sigma_A"]), np.array(report["sigma_B"]), report["hbar"]
        )
        check = werner_wolf_check(cov, witness, report["tolerance"])
        assert check.passed
        assert abs(check.margin - report["werner_wolf"]["margin"]) <= 1e-12

    def test_reused_checks_match_independent_calls(self, tmp_path, capsys):
        code, doc_text, _ = run(capsys, "random", "--nA", "2", "--nB", "2", "--seed", "11")
        assert code == 0
        code, out, _ = run(capsys, "disentangle", write_doc(tmp_path, "r.json", doc_text), "--json")
        assert code == 0
        report = json.loads(out)
        cov = parse_input_document(doc_text).cov
        sigma_U = CovarianceMatrix(np.array(report["sigma_U"]), cov.partition, cov.hbar)
        witness = SeparabilityWitness(
            np.array(report["sigma_A"]), np.array(report["sigma_B"]), cov.hbar
        )
        assert report["quantum_condition"] == asdict(quantum_condition_check(cov))
        assert report["symplectic_eigenvalues"] == symplectic_eigenvalues(cov).tolist()
        assert report["werner_wolf"] == asdict(werner_wolf_check(sigma_U, witness))

    def test_failure_report_matches_independent_check(self, tmp_path, capsys):
        path = bad_doc(tmp_path)
        code, out, _ = run(capsys, "disentangle", path, "--json")
        assert code == 1
        cov = parse_input_document(Path(path).read_text()).cov
        assert json.loads(out)["quantum_condition"] == asdict(quantum_condition_check(cov))

    def test_text_and_json_carry_identical_numerics(self, tmp_path, capsys):
        path = tmsv_doc(tmp_path)
        code, json_out, _ = run(capsys, "disentangle", path, "--json")
        assert code == 0
        code, text_out, _ = run(capsys, "disentangle", path)
        assert code == 0
        report = json.loads(json_out)
        margin_lines = [
            line for line in text_out.splitlines() if line.startswith("werner_wolf.margin = ")
        ]
        assert len(margin_lines) == 1
        assert float(margin_lines[0].split("=")[1]) == report["werner_wolf"]["margin"]
        lambda_line = [l for l in text_out.splitlines() if l.startswith("lambdas = ")][0]
        assert [float(v) for v in lambda_line.split("=")[1].split()] == report["lambdas"]


class TestPpt:
    def test_vacuum_exits_0(self, tmp_path, capsys):
        code, out, _ = run(capsys, "ppt", vacuum_doc(tmp_path), "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "ppt"

    def test_tmsv_exits_1(self, tmp_path, capsys):
        code, out, _ = run(capsys, "ppt", tmsv_doc(tmp_path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "entangled"
        assert report["ppt"]["residuals"]["nu_min_tilde"] == pytest.approx(
            0.5 * math.exp(-2.0), abs=1e-9
        )

    def test_non_state_fails_with_its_quantum_condition(self, tmp_path, capsys):
        # nu = 0.354 < hbar/2: the verdict is fail, as for disentangle, not entangled
        code, out, err = run(capsys, "ppt", bad_doc(tmp_path), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail" and "ppt" not in report
        assert report["quantum_condition"]["passed"] is False
        # the smallest eigenvalue of [[1, i/2], [-i/2, 1/8]]
        expected = 0.5 * (1.125 - math.hypot(0.875, 1.0))
        assert report["quantum_condition"]["margin"] == pytest.approx(expected, rel=1e-12)
        assert "quantum condition fails" in err


class TestWilliamson:
    def test_balanced_squeeze(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "w.json",
            {"n_A": 1, "n_B": 1, "sigma": np.diag([2.0, 0.5, 2.0, 0.5]).tolist()},
        )
        code, out, _ = run(capsys, "williamson", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["symplectic_eigenvalues"], 1.0, atol=1e-12)

    def test_runs_below_quantum_limit(self, tmp_path, capsys):
        # the normal form exists for any positive-definite sigma
        code, out, _ = run(capsys, "williamson", bad_doc(tmp_path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["symplectic_eigenvalues"][0] == pytest.approx(
            math.sqrt(0.125), abs=1e-12
        )

    def test_indefinite_sigma_is_malformed(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "indef.json",
            {"n_A": 1, "n_B": 1, "sigma": np.diag([1.0, -1.0, 1.0, 1.0]).tolist()},
        )
        code, _, err = run(capsys, "williamson", path)
        assert code == 2
        assert err != ""


class TestRandomAndConvert:
    def test_random_validates(self, tmp_path, capsys):
        code, out, _ = run(capsys, "random", "--nA", "1", "--nB", "1", "--seed", "7")
        assert code == 0
        path = write_doc(tmp_path, "r.json", out)
        code, _, _ = run(capsys, "validate", path)
        assert code == 0

    def test_random_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "random", "--nA", "2", "--nB", "1", "--seed", "3")
        _, second, _ = run(capsys, "random", "--nA", "2", "--nB", "1", "--seed", "3")
        assert first == second

    def test_blocked_document_validates_identically(self, tmp_path, capsys):
        _, doc, _ = run(capsys, "random", "--nA", "1", "--nB", "1", "--seed", "9")
        original = write_doc(tmp_path, "orig.json", doc)
        blocked = json.loads(doc)
        blocked["ordering"] = "blocked"
        blocked["sigma"] = convert_ordering(
            np.array(blocked["sigma"]), Ordering.INTERLEAVED, Ordering.BLOCKED
        ).tolist()
        blocked_path = write_doc(tmp_path, "blocked.json", blocked)
        parsed = parse_input_document(json.dumps(blocked))
        assert parsed.cov.sigma.tolist() == json.loads(doc)["sigma"]
        code_a, out_a, _ = run(capsys, "validate", original, "--json")
        code_b, out_b, _ = run(capsys, "validate", blocked_path, "--json")
        assert code_a == code_b == 0
        a = json.loads(out_a)
        b = json.loads(out_b)
        assert a["quantum_condition"]["margin"] == b["quantum_condition"]["margin"]


def test_internal_verification_failure_exits_3(tmp_path, capsys, monkeypatch):
    import gaussep.cli as cli_mod
    from gaussep import VerificationError

    def boom(cov, tol):
        raise VerificationError("synthetic stage failure")

    monkeypatch.setattr(cli_mod, "disentangle", boom)
    code, _, err = run(capsys, "disentangle", vacuum_doc(tmp_path))
    assert code == 3
    assert "internal verification" in err


def test_corrupted_rotation_is_refused_before_printing(tmp_path, capsys, monkeypatch):
    import gaussep.cli as cli_mod

    def perturbed(cov, tol):
        result = gaussep.disentangle(cov, tol)
        U = result.U.copy()
        U[0, 1] += 1e-6
        return dataclasses.replace(result, U=U)

    monkeypatch.setattr(cli_mod, "disentangle", perturbed)
    code, out, err = run(capsys, "disentangle", tmsv_doc(tmp_path), "--json")
    assert code == 3
    assert "serialized rotation fails the orthosymplectic check" in err
    assert out == ""


def test_console_entry_point_subprocess(tmp_path):
    doc = subprocess.run(
        [sys.executable, "-m", "gaussep", "random", "--nA", "1", "--nB", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        check=True,
    )
    path = tmp_path / "doc.json"
    path.write_text(doc.stdout)
    result = subprocess.run(
        [sys.executable, "-m", "gaussep", "disentangle", str(path), "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "pass"


NO_SCIPY_SCRIPT = """
import contextlib, io, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from gaussep import (
    GaussianState, ModePartition, admissible_S, random_covariance, symplectic_polar, wigner_eval,
    williamson,
)
from gaussep.cli import main
from gaussep.documents import render_input_document

work = sys.argv[1]
doc = os.path.join(work, "doc.json")
with open(doc, "w") as handle:
    # squeezed, but mixed enough to pass the PPT test, so that every command exits 0
    cov = random_covariance(ModePartition(2, 2), seed=3, squeeze_max=0.3, mix_max=2.0)
    handle.write(render_input_document(cov))
for argv in (["validate", doc], ["disentangle", doc, "--json"], ["ppt", doc], ["williamson", doc]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)

# the library routines the CLI does not reach
cov = random_covariance(ModePartition(1, 2), seed=0)
assert williamson(cov).nu.shape == (3,)
assert admissible_S(cov).shape == (6, 6)
assert wigner_eval(GaussianState(cov), np.zeros(6)) > 0.0
assert symplectic_polar(np.array([[1.0, 1.0], [0.0, 1.0]])).R.shape == (2, 2)
print("ok")
"""


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(gaussep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_runs_without_scipy(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_importing_the_cli_does_not_load_scipy():
    probe = "import sys, gaussep.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_tmsv_demo_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "disentangle_tmsv.py"
    result = subprocess.run(
        [sys.executable, str(script), "1e-9", "0.5", "1", "7"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    blocks = result.stdout.strip().split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == ["r = 1e-09", "r = 0.5", "r = 1.0", "r = 7.0"]
    for block in blocks:
        assert "(pass)" in block
        assert "rotated state PPT: ppt" in block


def test_blocked_document_reports_like_its_interleaved_form(tmp_path, capsys):
    cov = gaussep.random_covariance(ModePartition(2, 3), hbar=2.0, seed=11, squeeze_max=1.5)
    doc = {"hbar": 2.0, "n_A": 2, "n_B": 3, "sigma": cov.sigma.tolist()}
    interleaved = write_doc(tmp_path, "i.json", doc)
    blocked = {
        **doc,
        "ordering": "blocked",
        "sigma": convert_ordering(cov.sigma, Ordering.INTERLEAVED, Ordering.BLOCKED).tolist(),
    }
    assert blocked["sigma"] != doc["sigma"]
    blocked_path = write_doc(tmp_path, "b.json", blocked)
    for path in (blocked_path, interleaved):
        parsed = parse_input_document(Path(path).read_text())
        assert np.array_equal(parsed.cov.sigma, cov.sigma)
    for command in ("validate", "disentangle"):
        reports = []
        for path in (blocked_path, interleaved):
            code, out, _ = run(capsys, command, path, "--json")
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1]


def test_tmsv_beyond_float64_names_the_limit(tmp_path, capsys):
    # at r = 10, cosh(2r) and sinh(2r) round to the same double: sigma is singular
    with pytest.raises(ValueError, match="float64"):
        two_mode_squeezed_vacuum(10.0)
    c, s = math.cosh(20.0), math.sinh(20.0)
    sigma = 0.5 * np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    path = write_doc(tmp_path, "tmsv10.json", {"n_A": 1, "n_B": 1, "sigma": sigma.tolist()})
    for command in ("validate", "disentangle"):
        code, _, err = run(capsys, command, path, "--json")
        assert code == 2
        assert "float64" in err and "2.426e+08" in err
    # a matrix the constructor judges at the limit is refused before any command runs
    sigma = raw_random_sigma(ModePartition(2, 2), seed=32, squeeze_max=5.5)
    path = write_doc(tmp_path, "seed32.json", {"n_A": 2, "n_B": 2, "sigma": sigma.tolist()})
    for command in ("validate", "disentangle"):
        code, _, err = run(capsys, command, path, "--json")
        assert code == 2 and "float64" in err
    # a matrix that is indefinite beyond roundoff keeps the plain message
    indefinite = {"n_A": 1, "n_B": 1, "sigma": np.diag([1.0, -1.0, 1.0, 1.0]).tolist()}
    code, _, err = run(capsys, "validate", write_doc(tmp_path, "indef.json", indefinite))
    assert code == 2 and "not positive definite" in err and "float64" not in err


@pytest.mark.parametrize(
    "r", [1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.5] + [float(r) for r in range(1, 13)], ids=repr
)
def test_tmsv_from_near_unit_to_past_float64_never_exits_3(tmp_path, capsys, r):
    # the stored matrix, not the constructor's: from r = 10 its float64 rounding is singular
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    sigma = 0.5 * np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
    path = write_doc(tmp_path, "tmsv.json", {"n_A": 1, "n_B": 1, "sigma": sigma.tolist()})
    code, out, err = run(capsys, "disentangle", path, "--json")
    if r <= 9:
        assert code == 0 and json.loads(out)["verdict"] == "pass", err
    else:
        assert code == 2 and out == "" and "the float64 matrix is the limit" in err


def test_rotated_matrix_beyond_float64_names_sigma_U(tmp_path, capsys):
    # the constructor accepts this input, and the rotated sigma_U is at the limit
    sigma = raw_random_sigma(ModePartition(2, 2), seed=1, squeeze_max=6.0)
    path = write_doc(tmp_path, "seed1.json", {"n_A": 2, "n_B": 2, "sigma": sigma.tolist()})
    code, _, err = run(capsys, "disentangle", path, "--json")
    assert code == 2
    assert "sigma_U is not" in err and "the float64 matrix is the limit" in err


@pytest.mark.parametrize("n_a, n_b, seed", [(2, 3, 3), (25, 25, 7)])
def test_validate_and_williamson_print_one_spectrum(tmp_path, capsys, n_a, n_b, seed):
    code, doc, _ = run(capsys, "random", "--nA", str(n_a), "--nB", str(n_b), "--seed", str(seed))
    assert code == 0
    path = write_doc(tmp_path, "doc.json", doc)
    spectra = []
    for command in ("validate", "williamson"):
        code, out, _ = run(capsys, command, path, "--json")
        assert code == 0
        spectra.append(re.search(r'"symplectic_eigenvalues": \[[^\]]*\]', out).group(0))
    assert spectra[0] == spectra[1]


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "abc"])
@pytest.mark.parametrize("command", ["validate", "disentangle"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, command, tol):
    # 0.1 I is far below the quantum limit: an infinite --tol used to pass it
    path = write_doc(tmp_path, "low.json", {"n_A": 1, "n_B": 1, "sigma": (0.1 * np.eye(4)).tolist()})
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


def test_tol_zero_is_accepted(tmp_path, capsys):
    path = write_doc(tmp_path, "thermal.json", {"n_A": 1, "n_B": 1, "sigma": np.eye(4).tolist()})
    code, out, _ = run(capsys, "validate", path, "--tol", "0", "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("hbar", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("command", ["validate", "disentangle", "ppt", "williamson"])
def test_hbar_override_is_gated_by_name(tmp_path, capsys, command, hbar):
    # the document's hbar is the only one: every judging command refuses it by name
    literal = {"inf": "Infinity", "nan": "NaN"}.get(hbar, hbar)
    text = '{"hbar": %s, "n_A": 1, "n_B": 1, "sigma": %s}' % (literal, json.dumps(IDENTITY))
    code, out, err = run(capsys, command, write_doc(tmp_path, "hbar.json", text))
    assert code == 2 and out == ""
    # the gate's own message alone, with no sigma prefix
    assert err.startswith("gaussep: hbar must be finite and positive")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["validate"], ["disentangle"]])
def test_document_hbar_overflow_exits_2_naming_hbar(tmp_path, capsys, command):
    path = write_doc(
        tmp_path, "big.json",
        '{"hbar": 1e400, "n_A": 1, "n_B": 1, "sigma": %s}' % json.dumps(np.eye(4).tolist()),
    )
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 2 and out == ""
    assert "hbar must be finite and positive" in err


def run_without_warnings(capsys, *argv):
    """``run``, asserting that no warning of any kind was issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert not caught, [str(w.message) for w in caught]
    return result


def diagonal_doc(tmp_path, diagonal, hbar=1.0, name="diagonal.json"):
    return write_doc(
        tmp_path, name, {"n_A": 1, "n_B": 1, "hbar": hbar, "sigma": np.diag(diagonal).tolist()}
    )


def test_norm_past_the_square_root_of_float64_keeps_the_gate_relative(tmp_path, capsys):
    # the plain sum of squares of sigma overflows; an infinite scale passed every gate
    path = diagonal_doc(tmp_path, [1e200, 1e200, 0.1, 0.1])
    for command in ("validate", "disentangle"):
        code, out, _ = run_without_warnings(capsys, command, path, "--json")
        # nu = 0.1 misses hbar/2 by 0.4, inside tol * ||sigma||: a backward-error pass
        assert code == 0
        report = json.loads(out)["quantum_condition"]
        assert report["scale"] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert report["margin"] == pytest.approx(-0.4)
    code, _, _ = run_without_warnings(capsys, "validate", path, "--tol", "0")
    assert code == 1
    # a miss beyond tol * ||sigma|| fails
    path = diagonal_doc(tmp_path, [1e200, 1e200, 1e191, 1e191], hbar=1e192, name="hbar.json")
    for command in ("validate", "disentangle"):
        code, out, _ = run_without_warnings(capsys, command, path, "--json")
        assert code == 1 and json.loads(out)["verdict"] == "fail"


def test_tiny_vacuum_has_a_williamson_form(tmp_path, capsys):
    # the plain sum of squares of sigma underflows to 0, which williamson divided by
    path = diagonal_doc(tmp_path, [1e-200] * 4, hbar=1e-200)
    for command in ("validate", "disentangle", "williamson"):
        code, out, _ = run_without_warnings(capsys, command, path, "--json")
        assert code == 0, command
    nu = json.loads(out)["symplectic_eigenvalues"]
    assert nu == pytest.approx([1e-200, 1e-200], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("command", ["validate", "disentangle", "ppt", "williamson"])
def test_sigma_beyond_float64_range_exits_2_naming_the_limit(tmp_path, capsys, command):
    # every entry is finite, but sigma + sigma^T is not
    path = diagonal_doc(tmp_path, [1e308, 1e308, 1.0, 1.0])
    code, out, err = run_without_warnings(capsys, command, path)
    assert code == 2 and out == ""
    assert "beyond the float64 range" in err and "non-finite" not in err


IDENTITY = np.eye(4).tolist()


@pytest.mark.parametrize(
    "field, payload",
    [
        ("sigma", {"sigma": [[True, 0, 0, 0], [0, True, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
        ("sigma", {"sigma": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "1", 0], [0, 0, 0, "1.0"]]}),
        ("sigma", {"sigma": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, None]]}),
    ],
    ids=["sigma-bool", "sigma-string", "sigma-null"],
)
def test_document_entries_must_be_json_numbers(tmp_path, capsys, field, payload):
    path = write_doc(tmp_path, "doc.json", {"n_A": 1, "n_B": 1, **payload})
    for command in ("validate", "disentangle"):
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == ""
        assert f"field '{field}' must hold only numbers" in err


def _scaled_doc(tmp_path, name, sigma, hbar, partition):
    return write_doc(
        tmp_path, name,
        {"hbar": hbar, "n_A": partition[0], "n_B": partition[1], "sigma": sigma.tolist()},
    )


def test_tiny_non_states_fail_relative_to_their_own_norm(tmp_path, capsys):
    # both are below the quantum limit by a margin far above tol * ||sigma||, but
    # below the tolerance itself: a gate floored at max(1, ||sigma||) passed them
    c = 4.0**-20
    pure = gaussep.random_covariance(ModePartition(2, 2), seed=0, mix_max=0.0)
    docs = [
        _scaled_doc(tmp_path, "tiny.json", 1e-13 * np.eye(4), 1e-12, (1, 1)),
        _scaled_doc(tmp_path, "shrunk.json", c * (1.0 - 1e-6) * pure.sigma, c, (2, 2)),
    ]
    for path in docs:
        for command in ("validate", "disentangle"):
            code, out, _ = run(capsys, command, path, "--json")
            assert code == 1, (path, command)
            report = json.loads(out)
            assert report["verdict"] == "fail"
            assert report["quantum_condition"]["margin"] < -report["quantum_condition"]["scale"] * 1e-10


@pytest.mark.parametrize(
    "argv, payload, expected",
    [
        (["validate"], "[1, 2]", "document must be a JSON object"),
        (
            ["validate"],
            {"sigma": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            "field 'sigma' is not a numeric matrix",
        ),
        (
            ["validate"],
            {"sigma": [[1, 0], [0, 1], [0, 0], [0, 0]]},
            "field 'sigma' must be a square matrix, got shape (4, 2)",
        ),
        # Python's json reads the NaN literal; the constructor's gate names the fault
        (
            ["disentangle"],
            '{"n_A": 1, "n_B": 1, "sigma": [[1, 0, 0, 0], [0, NaN, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            "sigma contains non-finite entries",
        ),
        (["validate"], {"sigma": np.eye(3).tolist()}, "sigma is 3x3 but n_A + n_B modes require"),
        (["ppt"], {"sigma": np.eye(6).tolist()}, "sigma is 6x6 but n_A + n_B modes require"),
        (["ppt"], {"sigma": IDENTITY, "hbar": "1"}, "field 'hbar' must be a number, got str"),
        (["williamson"], None, "cannot read"),
    ],
    ids=[
        "top-level-array", "ragged-sigma", "non-square-sigma", "sigma-nan", "odd-sigma",
        "sigma-too-large", "hbar-string", "unreadable-path",
    ],
)
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, argv, payload, expected):
    if payload is None:
        path = str(tmp_path / "missing.json")
    elif isinstance(payload, dict):
        path = write_doc(tmp_path, "doc.json", {"n_A": 1, "n_B": 1, **payload})
    else:
        path = write_doc(tmp_path, "doc.json", payload)
    code, out, err = run_without_warnings(capsys, *argv, path, "--json")
    assert code == 2 and out == ""
    assert expected in err


BEYOND_FLOAT64 = "1" + "0" * 400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize(
    "text, expected",
    [
        ('{"hbar": %s, "n_A": 1, "n_B": 1, "sigma": %s}' % (BEYOND_FLOAT64, IDENTITY), "field 'hbar'"),
        (
            '{"n_A": 1, "n_B": 1, "sigma": [[%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'
            % BEYOND_FLOAT64,
            "field 'sigma'",
        ),
        ('{"n_A": 1, "n_B": 1, "sigma": %s}' % ("[" * 100000 + "]" * 100000), "invalid JSON: "),
        ('{"hbar": %s, "n_A": 1, "n_B": 1, "sigma": %s}' % ("1" * 5001, IDENTITY), "invalid JSON: "),
    ],
    ids=["hbar-int-overflow", "sigma-int-overflow", "deep-nesting", "5001-digits"],
)
def test_json_beyond_float64_or_parser_limits_exits_2(tmp_path, capsys, text, expected):
    # exit 1 means a valid input failed its verdict: no malformed document may reach it
    code, out, err = run_without_warnings(capsys, "validate", write_doc(tmp_path, "doc.json", text))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gaussep: ") and expected in err
    assert "set_int_max_str_digits" not in err


HUGE_MODE_COUNTS = {
    "300": "9" * 300,
    # 4300 nines plus one has 4301 digits, one more than CPython prints by default
    "4300": "9" * 4300,
    "negative-4300": "-" + "9" * 4300,
    "long-string": json.dumps("9" * 4300),
    "long-list": json.dumps([9] * 2000),
}


#: Every document field with each huge value, but for an hbar of 300 nines: that is
#: the float 1e300, a valid hbar, and the covariance's verdict decides the document.
HUGE_FIELD_VALUES = {
    f"{field}-{name}": (field, value)
    for field in ("n_A", "n_B", "hbar", "ordering", "sigma")
    for name, value in HUGE_MODE_COUNTS.items()
    if (field, name) != ("hbar", "300")
}


@pytest.mark.parametrize("field, value", HUGE_FIELD_VALUES.values(), ids=HUGE_FIELD_VALUES.keys())
def test_huge_mode_count_exits_2_with_one_short_line(tmp_path, capsys, field, value):
    # the message is worded from the value's type, sign or shape, never from the value
    doc = {"n_A": 1, "n_B": 1, "sigma": IDENTITY}
    if field == "sigma":
        # off the diagonal: a huge diagonal entry would make a valid state
        doc["sigma"] = [row[:] for row in IDENTITY]
        doc["sigma"][0][1] = "HUGE"
    else:
        doc[field] = "HUGE"
    text = json.dumps(doc).replace('"HUGE"', value)
    code, out, err = run_without_warnings(capsys, "validate", write_doc(tmp_path, "doc.json", text))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err.encode()) < 200
    assert "sigma" in err or field in err


MEAN_VALUES = {
    "valid": "[0.5, -1.0, 2.0, 0.0]",
    "nan": "[0, NaN, 0, 0]",
    "wrong-length": "[0, 0, 0]",
    "strings": '["0", "x", null, true]',
    "beyond-float64": "[%s, 0, 0, 0]" % BEYOND_FLOAT64,
}


@pytest.mark.parametrize("mean", MEAN_VALUES.values(), ids=MEAN_VALUES.keys())
def test_a_mean_key_is_ignored(tmp_path, capsys, mean):
    # separability is a property of the covariance alone: no command reads a mean
    sigma = two_mode_squeezed_vacuum(0.5, hbar=2.0).sigma.tolist()
    doc = json.dumps({"hbar": 2.0, "n_A": 1, "n_B": 1, "sigma": sigma})
    plain = write_doc(tmp_path, "plain.json", doc)
    with_mean = write_doc(tmp_path, "mean.json", '{"mean": %s, %s' % (mean, doc[1:]))
    for command in ("validate", "disentangle", "ppt", "williamson"):
        results = []
        for path in (plain, with_mean):
            code, out, err = run_without_warnings(capsys, command, path, "--json")
            results.append((code, json.loads(out), err))
        assert results[0] == results[1], command


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_surface_is_pinned():
    # a new option or subcommand has to change this test on purpose
    subcommands = _subcommands(build_parser())
    judging = {"file", "--tol", "--json"}
    expected = {
        "validate": judging, "disentangle": judging, "ppt": judging, "williamson": judging,
        "random": {"--nA", "--nB", "--seed"},
    }
    assert set(subcommands) == set(expected)
    for name, sub in subcommands.items():
        options = set()
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                options.update(action.option_strings or [action.dest])
        assert options == expected[name], name
    # the default tolerance lives in the checks table only
    assert f"(default {DEFAULT_TOL})" in subcommands["validate"].format_help()
    # README's CLI code block lists exactly the parser's subcommands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert {line.split()[1] for line in block.splitlines() if line.startswith("gaussep ")} == set(expected)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["convert", "doc.json", "--to", "blocked"], "invalid choice"),
        (["validate", "doc.json", "--hbar", "2"], "unrecognized arguments"),
        (["disentangle", "doc.json", "--text"], "unrecognized arguments"),
        (["random", "--nA", "1", "--nB", "1", "--squeeze", "2"], "unrecognized arguments"),
        (["random", "--nA", "1", "--nB", "1", "--mix", "2"], "unrecognized arguments"),
        (["random", "--nA", "1", "--nB", "1", "--hbar", "2"], "unrecognized arguments"),
    ],
    ids=["convert", "hbar", "text", "random-squeeze", "random-mix", "random-hbar"],
)
def test_removed_options_exit_2(capsys, argv, expected):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert expected in capsys.readouterr().err


#: Every numpy.linalg factorization and solve, as the benchmark's trace counts them.
LINALG_FACTORIZATIONS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "qr", "solve", "cholesky")


def _count_factorizations(monkeypatch) -> dict:
    counts = dict.fromkeys(LINALG_FACTORIZATIONS, 0)
    for name in LINALG_FACTORIZATIONS:
        real = getattr(np.linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return counts


@pytest.mark.parametrize(
    "command, expected",
    [
        ("validate", {"eigh": 1, "eigvalsh": 1, "svd": 1}),
        # the input's eigh and disentangle's 8; the printed U is checked without a factorization
        ("disentangle", {"eigh": 2, "eigvalsh": 4, "svd": 3}),
        ("ppt", {"eigh": 1, "eigvalsh": 2, "svd": 2}),
        # an isolated symplectic eigenvalue's plane is oriented without a factorization
        ("williamson", {"eigh": 1, "svd": 1}),
        (None, {"eigh": 1, "eigvalsh": 4, "svd": 3}),
    ],
    ids=["validate", "disentangle", "ppt", "williamson", "disentangle-in-process"],
)
def test_factorization_budget(tmp_path, capsys, monkeypatch, command, expected):
    # statehood is decided once per call, and disentangle --json runs no PPT test
    cov = gaussep.random_covariance(ModePartition(2, 2), seed=5)
    doc = render_input_document(cov)
    path = write_doc(tmp_path, "doc.json", doc)
    counts = _count_factorizations(monkeypatch)
    if command is None:
        gaussep.disentangle(cov)
    else:
        code, _, _ = run(capsys, command, path, "--json")
        assert code in (0, 1)
    assert {name: k for name, k in counts.items() if k} == expected


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize(
    "routine, expected",
    [
        (gaussep.williamson, {"svd": 1}),
        # the statehood gate's eigvalsh, the core's SVD, the inclusion test's solve and eigvalsh
        (gaussep.admissible_S, {"eigvalsh": 2, "svd": 1, "solve": 1}),
    ],
    ids=["williamson", "admissible_S"],
)
def test_separated_spectra_frame_without_an_eigensolver(monkeypatch, routine, expected, n):
    # nu_k = (k + 1) / 2 are far apart, so every plane is oriented by a sign test
    S = gaussep.random_symplectic(n, np.random.default_rng(n))
    sigma = (S * np.repeat(0.5 * np.arange(2, n + 2), 2)) @ S.T
    cov = CovarianceMatrix(0.5 * (sigma + sigma.T), ModePartition(1, n - 1))
    counts = _count_factorizations(monkeypatch)
    routine(cov)
    assert {name: k for name, k in counts.items() if k} == expected
