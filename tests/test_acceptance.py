"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np

from gaussep import (
    CovarianceMatrix,
    GaussianState,
    ModePartition,
    direct_sum,
    disentangle,
    ppt_test,
    quantum_condition_check,
    random_covariance,
    random_orthosymplectic,
    random_symplectic,
    rotate_state,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_polar,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
    wigner_eval,
    williamson,
)
from gaussep.cli import main
from helpers import acceptance_states


def report_line(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_disentangle_end_to_end():
    worst_rot = 0.0
    worst_margin_ratio = math.inf
    for seed, cov in acceptance_states(200):
        result = disentangle(cov)
        U = result.U
        dim = U.shape[0]
        J = symplectic_form(dim // 2)
        orth = np.linalg.norm(U.T @ U - np.eye(dim))
        symp = np.linalg.norm(U.T @ J @ U - J) / max(1.0, np.linalg.norm(U) ** 2)
        assert orth <= 1e-10, f"seed {seed}: ||U^T U - I|| = {orth:.3e}"
        assert symp <= 1e-10, f"seed {seed}: symplectic residual {symp:.3e}"
        margin = werner_wolf_check(result.sigma_U, result.witness).margin
        scale = np.linalg.norm(cov.sigma)
        assert margin >= -1e-9 * scale, f"seed {seed}: margin {margin:.3e}"
        worst_rot = max(worst_rot, orth, symp)
        worst_margin_ratio = min(worst_margin_ratio, margin / scale)
    report_line(
        1,
        True,
        f"200/200 random states disentangled; worst rotation residual "
        f"{worst_rot:.2e}, worst witness margin {worst_margin_ratio:.2e}*||Sigma||",
    )


def test_criterion_2_tmsv_family():
    for r in (0.5, 1.0, 2.0):
        cov = two_mode_squeezed_vacuum(r)
        ppt = ppt_test(cov)
        assert not ppt.passed, f"r={r}: PPT failed to flag entanglement"
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        tilde = CovarianceMatrix(flip @ cov.sigma @ flip, cov.partition, cov.hbar)
        nu_min = symplectic_eigenvalues(tilde)[-1]
        assert abs(nu_min - 0.5 * math.exp(-2 * r)) <= 1e-9, f"r={r}: nu_min {nu_min}"
        result = disentangle(cov)
        assert np.all(np.abs(result.lambdas - math.exp(r)) <= 1e-9), f"r={r}"
        target = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
        gap = np.linalg.norm(result.sigma_U.sigma - target) / np.linalg.norm(target)
        assert gap <= 1e-9, f"r={r}: equality gap {gap:.3e}"
    report_line(
        2,
        True,
        "TMSV r in {0.5, 1, 2}: PPT detects with nu_min = exp(-2r)/2, "
        "lambda = exp(r), and Sigma_U equals the witness direct sum",
    )


def test_criterion_3_williamson_round_trip():
    worst = 0.0
    for seed, cov in acceptance_states(200):
        form = williamson(cov)
        D = np.diag(np.repeat(form.nu, 2))
        recon = np.linalg.norm(form.S @ D @ form.S.T - cov.sigma) / np.linalg.norm(cov.sigma)
        J = symplectic_form(cov.n)
        symp = np.linalg.norm(form.S.T @ J @ form.S - J) / max(
            1.0, np.linalg.norm(form.S) ** 2
        )
        assert recon <= 1e-10, f"seed {seed}: reconstruction {recon:.3e}"
        assert symp <= 1e-10, f"seed {seed}: symplectic {symp:.3e}"
        worst = max(worst, recon, symp)
    report_line(3, True, f"200/200 Williamson round trips; worst residual {worst:.2e}")


def test_criterion_4_polar_decomposition():
    worst = 0.0
    for seed in range(200):
        n = 1 + seed % 5
        rng = np.random.default_rng(1_000 + seed)
        S = random_symplectic(n, rng, squeeze_max=1.5)
        form = symplectic_polar(S)
        J = symplectic_form(n)
        fact = np.linalg.norm(form.P @ form.R - S) / np.linalg.norm(S)
        orth = np.linalg.norm(form.R.T @ form.R - np.eye(2 * n)) / max(
            1.0, np.linalg.norm(form.R) ** 2
        )
        symp = np.linalg.norm(form.R.T @ J @ form.R - J) / max(
            1.0, np.linalg.norm(form.R) ** 2
        )
        assert fact <= 1e-10, f"seed {seed}: factorization {fact:.3e}"
        assert max(orth, symp) <= 1e-10, f"seed {seed}: R residuals {orth:.3e} {symp:.3e}"
        eigs = np.linalg.eigvalsh(form.P)
        pairing = np.max(np.abs(eigs * eigs[::-1] - 1.0))
        assert pairing <= 1e-9, f"seed {seed}: reciprocal pairing {pairing:.3e}"
        worst = max(worst, fact, orth, symp)
    report_line(4, True, f"200/200 polar decompositions verified; worst residual {worst:.2e}")


def test_criterion_5_witness_minimality():
    worst_det = 0.0
    worst_eig = 0.0
    blocks = 0
    for _seed, cov in acceptance_states(200):
        result = disentangle(cov)
        hbar = cov.hbar
        J1 = symplectic_form(1)
        for witness_part in (result.witness.sigma_a, result.witness.sigma_b):
            modes = witness_part.shape[0] // 2
            for k in range(modes):
                block = witness_part[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
                H = block + 0.5j * hbar * J1
                det = abs(np.linalg.det(H).real)
                low = np.linalg.eigvalsh(H)[0]
                assert det <= 1e-9 * hbar**2, f"block determinant {det:.3e}"
                assert low >= -1e-10, f"block minimum eigenvalue {low:.3e}"
                worst_det = max(worst_det, det / hbar**2)
                worst_eig = min(worst_eig, low)
                blocks += 1
    report_line(
        5,
        True,
        f"{blocks} witness blocks are minimal uncertainty; worst |det|/hbar^2 "
        f"{worst_det:.2e}, worst min eigenvalue {worst_eig:.2e}",
    )


def test_criterion_6_symplectic_invariance():
    base = random_covariance(ModePartition(1, 1), seed=123, squeeze_max=1.0, mix_max=1.0)
    nu = symplectic_eigenvalues(base)
    worst_nu = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5_000 + trial)
        T = random_symplectic(2, rng, squeeze_max=1.0)
        sigma = T @ base.sigma @ T.T
        moved = CovarianceMatrix(0.5 * (sigma + sigma.T), base.partition, base.hbar)
        drift = np.max(np.abs(symplectic_eigenvalues(moved) - nu))
        assert drift <= 1e-8, f"trial {trial}: spectrum drift {drift:.3e}"
        worst_nu = max(worst_nu, drift)
    margin = quantum_condition_check(base).margin
    worst_margin = 0.0
    for trial in range(100):
        rng = np.random.default_rng(9_000 + trial)
        U = random_orthosymplectic(2, rng)
        sigma = U @ base.sigma @ U.T
        moved = CovarianceMatrix(0.5 * (sigma + sigma.T), base.partition, base.hbar)
        drift = abs(quantum_condition_check(moved).margin - margin)
        assert drift <= 1e-9, f"trial {trial}: margin drift {drift:.3e}"
        worst_margin = max(worst_margin, drift)
    report_line(
        6,
        True,
        f"100 symplectic congruences: spectrum drift <= {worst_nu:.2e}; "
        f"100 rotations: margin drift <= {worst_margin:.2e}",
    )


def test_criterion_7_wigner_layer():
    # 1-mode normalization through the product factorization (B peak is 1/pi)
    state = GaussianState(CovarianceMatrix(0.5 * np.eye(4), ModePartition(1, 1)))
    axis = np.linspace(-6.0, 6.0, 601)
    x, p = np.meshgrid(axis, axis, indexing="ij")
    z = np.zeros(x.shape + (4,))
    z[..., 0] = x
    z[..., 1] = p
    step = axis[1] - axis[0]
    integral = wigner_eval(state, z.reshape(-1, 4)).sum() * step**2 * math.pi
    norm_ok = abs(integral - 1.0) <= 1e-3

    rng = np.random.default_rng(77)
    cov = random_covariance(ModePartition(1, 1), seed=77, squeeze_max=1.0, mix_max=1.0)
    random_state = GaussianState(cov, rng.standard_normal(4))
    U = random_orthosymplectic(2, rng)
    rotated = rotate_state(random_state, U)
    points = rng.standard_normal((100, 4)) * 2.0
    drift = np.max(np.abs(wigner_eval(rotated, points) - wigner_eval(random_state, points @ U)))
    point_ok = drift <= 1e-12
    report_line(
        7,
        norm_ok and point_ok,
        f"1-mode quadrature integral {integral:.6f}; pointwise rotation "
        f"consistency drift {drift:.2e}",
    )


def test_criterion_8_cli_contract(tmp_path, capsys):
    partitions = [(1, 1), (1, 2), (2, 3)]
    for seed in range(100):
        n_a, n_b = partitions[seed % len(partitions)]
        code = main(
            ["random", "--nA", str(n_a), "--nB", str(n_b), "--seed", str(seed)]
        )
        doc = capsys.readouterr().out
        assert code == 0, f"seed {seed}: random exited {code}"
        path = tmp_path / f"doc_{seed}.json"
        path.write_text(doc)
        code = main(["validate", str(path)])
        capsys.readouterr()
        assert code == 0, f"seed {seed}: validate exited {code}"
        code = main(["disentangle", str(path)])
        capsys.readouterr()
        assert code == 0, f"seed {seed}: disentangle exited {code}"

    malformed = tmp_path / "broken.json"
    malformed.write_text('{"n_A": 1,')
    code_malformed = main(["validate", str(malformed)])
    capsys.readouterr()

    violating = tmp_path / "violating.json"
    violating.write_text(
        json.dumps(
            {"n_A": 1, "n_B": 1, "sigma": np.diag([1.0, 0.125, 1.0, 0.125]).tolist()}
        )
    )
    code_violating = main(["validate", str(violating)])
    capsys.readouterr()
    code_violating_pipeline = main(["disentangle", str(violating)])
    capsys.readouterr()

    ok = code_malformed == 2 and code_violating == 1 and code_violating_pipeline == 1
    report_line(
        8,
        ok,
        f"100 random->validate->disentangle pipelines exit 0; malformed exits "
        f"{code_malformed}; quantum-violating exits {code_violating}",
    )


SCALINGS = [4.0**k for k in (-40, -20, -5, 5, 20)]


def _outcome(func, cov):
    """``(exception type name or "ok", result)``: the verdict a caller sees."""
    try:
        return "ok", func(cov)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, None


def _homogeneity_inputs():
    """Pure 2+2 states shrunk below the quantum limit, acceptance states, and a tiny non-state."""
    for seed in range(40):
        pure = random_covariance(ModePartition(2, 2), seed=seed, mix_max=0.0)
        for shrink in (1.0 - 1e-6, 1.0 - 1e-9):
            yield f"pure seed {seed} x {shrink!r}", CovarianceMatrix(shrink * pure.sigma, pure.partition)
    for seed, cov in acceptance_states(40):
        yield f"acceptance seed {seed}", cov
    yield "1e-13 I, hbar 1e-12", CovarianceMatrix(1e-13 * np.eye(4), ModePartition(1, 1), 1e-12)


def test_criterion_9_verdicts_are_homogeneous_in_sigma_and_hbar():
    # Sigma + (i hbar/2) J >= 0 and the Werner-Wolf conditions are homogeneous in
    # (Sigma, hbar); scaling by a power of 4 is exact in float64, so every verdict
    # must repeat and every number of a pass must scale bit for bit
    passes = cases = 0
    for label, cov in _homogeneity_inputs():
        base_qc = quantum_condition_check(cov)
        base_ppt = _outcome(ppt_test, cov)
        base = _outcome(disentangle, cov)
        for c in SCALINGS:
            cases += 1
            scaled = CovarianceMatrix(c * cov.sigma, cov.partition, c * cov.hbar)
            where = f"{label}, c = {c!r}"
            qc = quantum_condition_check(scaled)
            assert qc.passed == base_qc.passed, where
            assert qc.margin == c * base_qc.margin, where
            ppt = _outcome(ppt_test, scaled)
            assert ppt[0] == base_ppt[0], where
            if ppt[0] == "ok":
                assert ppt[1].passed == base_ppt[1].passed, where
                assert ppt[1].margin == c * base_ppt[1].margin, where
            got = _outcome(disentangle, scaled)
            assert got[0] == base[0], where
            if got[0] == "ok":
                passes += 1
                result, reference = got[1], base[1]
                assert np.array_equal(result.U, reference.U), where
                assert np.array_equal(result.lambdas, reference.lambdas), where
                assert result.residuals == reference.residuals, where
                assert result.werner_wolf.margin == c * reference.werner_wolf.margin, where
                assert result.werner_wolf.passed, where
    report_line(
        9,
        passes > 0,
        f"{cases} scaled copies (c = 4^k, k in -40..20) keep their verdicts; "
        f"{passes} passes repeat U and lambda bit for bit",
    )
