import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

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
from gaussep.documents import parse_input_document


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
