import json
import math
import os
import subprocess
import sys
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
from gaussep.cli import main
from gaussep.documents import parse_input_document, render_input_document
from gaussep.phase_space import Ordering

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
        cov = parse_input_document(doc_text).to_covariance()
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

    def test_hbar_override_warns_and_changes_verdict(self, tmp_path, capsys):
        path = vacuum_doc(tmp_path, hbar=1.0)
        code, _, err = run(capsys, "validate", path, "--hbar", "2.0")
        assert code == 1  # vacuum at hbar=1 violates the hbar=2 condition
        assert "overrides" in err


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
        assert report["ppt"]["note"].startswith("entangled")
        assert report["werner_wolf"]["passed"] is True

    def test_near_unit_tmsv_report(self, tmp_path, capsys):
        # 1 +- 1e-9 is far outside roundoff of 1: lambda is resolved, not rounded to 1
        code, out, _ = run(capsys, "disentangle", "--json", tmsv_doc(tmp_path, r=1e-9))
        assert code == 0
        report = json.loads(out)
        assert np.allclose(report["lambdas"], 1.0 + 1e-9, rtol=0.0, atol=1e-14)
        assert report["werner_wolf"]["passed"] is True

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
        cov = parse_input_document(doc_text).to_covariance()
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
        cov = parse_input_document(Path(path).read_text()).to_covariance()
        assert json.loads(out)["quantum_condition"] == asdict(quantum_condition_check(cov))

    def test_text_and_json_carry_identical_numerics(self, tmp_path, capsys):
        path = tmsv_doc(tmp_path)
        code, json_out, _ = run(capsys, "disentangle", path, "--json")
        assert code == 0
        code, text_out, _ = run(capsys, "disentangle", path, "--text")
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


class TestPolar:
    def test_shear(self, tmp_path, capsys):
        path = write_doc(tmp_path, "s.json", {"matrix": [[1.0, 1.0], [0.0, 1.0]]})
        code, out, _ = run(capsys, "polar", path, "--json")
        assert code == 0
        report = json.loads(out)
        expected = np.array([[3.0, 1.0], [1.0, 2.0]]) / math.sqrt(5.0)
        assert np.allclose(report["P"], expected, atol=1e-12)

    def test_non_symplectic_exits_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, "ns.json", {"matrix": [[2.0, 0.0], [0.0, 2.0]]})
        code, out, err = run(capsys, "polar", path)
        assert code == 1
        assert "symplectic" in err

    def test_missing_matrix_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "nm.json", {"m": [[1.0]]})
        code, _, _ = run(capsys, "polar", path)
        assert code == 2


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

    def test_convert_round_trip_is_byte_identical(self, tmp_path, capsys):
        _, doc, _ = run(capsys, "random", "--nA", "1", "--nB", "2", "--seed", "5")
        original = write_doc(tmp_path, "orig.json", doc)
        code, blocked, _ = run(capsys, "convert", original, "--to", "blocked")
        assert code == 0
        blocked_path = write_doc(tmp_path, "blocked.json", blocked)
        code, back, _ = run(capsys, "convert", blocked_path, "--to", "interleaved")
        assert code == 0
        assert json.loads(back)["sigma"] == json.loads(doc)["sigma"]
        back_path = write_doc(tmp_path, "back.json", back)
        code, blocked_again, _ = run(capsys, "convert", back_path, "--to", "blocked")
        assert blocked_again == blocked

    def test_blocked_document_validates_identically(self, tmp_path, capsys):
        _, doc, _ = run(capsys, "random", "--nA", "1", "--nB", "1", "--seed", "9")
        original = write_doc(tmp_path, "orig.json", doc)
        _, blocked, _ = run(capsys, "convert", original, "--to", "blocked")
        blocked_path = write_doc(tmp_path, "blocked.json", blocked)
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
import contextlib, io, json, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
from gaussep import (
    GaussianState, ModePartition, admissible_S, random_covariance, wigner_eval, williamson,
)
from gaussep.cli import main

work = sys.argv[1]
doc = os.path.join(work, "doc.json")
with open(doc, "w") as handle, contextlib.redirect_stdout(handle):
    # squeezed, but mixed enough to pass the PPT test, so that every command exits 0
    argv = ["random", "--nA", "2", "--nB", "2", "--seed", "3", "--squeeze", "0.3", "--mix", "2"]
    assert main(argv) == 0
shear = os.path.join(work, "shear.json")
with open(shear, "w") as handle:
    json.dump({"matrix": [[1.0, 1.0], [0.0, 1.0]]}, handle)
for argv in (["validate", doc], ["disentangle", doc, "--json"], ["ppt", doc],
             ["williamson", doc], ["polar", shear], ["convert", doc, "--to", "blocked"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)

# the library routines the CLI does not reach
cov = random_covariance(ModePartition(1, 2), seed=0)
assert williamson(cov).nu.shape == (3,)
assert admissible_S(cov).shape == (6, 6)
assert wigner_eval(GaussianState(cov), np.zeros(6)) > 0.0
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
        [sys.executable, str(script), "1e-9", "0.5", "1"],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    blocks = result.stdout.strip().split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == ["r = 1e-09", "r = 0.5", "r = 1.0"]
    for block in blocks:
        assert "(pass)" in block
        assert "rotated state PPT: ppt" in block


def test_blocked_document_with_mean_reports_like_its_interleaved_form(tmp_path, capsys):
    cov = gaussep.random_covariance(ModePartition(2, 3), hbar=2.0, seed=11, squeeze_max=1.5)
    mean = np.linspace(-1.0, 2.0, cov.dim)
    text = render_input_document(cov.sigma, cov.partition, 2.0, Ordering.INTERLEAVED, mean)
    interleaved = write_doc(tmp_path, "i.json", text)
    _, blocked, _ = run(capsys, "convert", interleaved, "--to", "blocked")
    assert json.loads(blocked)["mean"] != mean.tolist()
    blocked_path = write_doc(tmp_path, "b.json", blocked)
    code, back, _ = run(capsys, "convert", blocked_path, "--to", "interleaved")
    assert code == 0 and back == text + "\n"
    _, again, _ = run(capsys, "convert", write_doc(tmp_path, "back.json", back), "--to", "blocked")
    assert again == blocked
    for command in ("validate", "disentangle"):
        reports = []
        for path in (blocked_path, interleaved):
            code, out, _ = run(capsys, command, path, "--json")
            assert code == 0
            reports.append({k: v for k, v in json.loads(out).items() if k != "input_digest"})
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
