"""The benchmark's workloads: seeded inputs, the timed operation and its output check.

Every workload is a closed loop driven by one caller in one process: the
next operation starts when the previous one has returned.  Inputs are built
from the seed during set-up, so the library only ever sees generated data.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gaussep
from gaussep import (
    CovarianceMatrix,
    ModePartition,
    SeparabilityWitness,
    is_orthosymplectic,
    random_covariance,
    two_mode_squeezed_vacuum,
    werner_wolf_check,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Relative tolerance of the TMSV check lambdas[0] == e^r.
LAMBDA_RTOL = 1e-9

SWEEP_STATES = 200
LARGE_MODES = (50, 50)
LARGE_STATES = 8
CLI_MODES = (25, 25)

NEAR_UNIT_R = [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]
STRONG_R = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
ENVELOPE_SQUEEZES = [2.0, 3.0, 4.0, 5.0]
ENVELOPE_SEEDS = 10
EXTREME_HBARS = [1e-6, 1e6]


@dataclass
class Case:
    """One input: a label for reports, the data, and the TMSV r when it has one."""

    label: str
    data: object
    r: float | None = None


def _acceptance_constants():
    """ACCEPTANCE_PARTITIONS and ACCEPTANCE_HBARS from tests/helpers.py."""
    spec = importlib.util.spec_from_file_location("_gaussep_test_helpers", ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return helpers.ACCEPTANCE_PARTITIONS, helpers.ACCEPTANCE_HBARS


def _result_digest(result) -> str:
    h = hashlib.sha256()
    for array in (result.U, result.lambdas, result.sigma_U.sigma,
                  result.witness.sigma_a, result.witness.sigma_b):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(repr(sorted(result.residuals.items())).encode())
    return h.hexdigest()


class InProcess:
    """``gaussep.disentangle`` called in the benchmark's own process."""

    def __init__(self, cases: list[Case], warmup: int, fails_by_design: bool = False):
        self.cases = cases
        self.warmup = warmup
        #: Some inputs fail today and stay in the workload.  Its failures are
        #: measured, not defects of the run, and it reports no latency.
        self.fails_by_design = fails_by_design

    def call(self, case: Case, traced: bool):
        # through the package attribute, which the traced run rebinds
        return gaussep.disentangle(case.data)

    def check(self, case: Case, result) -> str | None:
        """Why the result is wrong, or None when it passes."""
        if not werner_wolf_check(result.sigma_U, result.witness).passed:
            return "witness fails the Werner-Wolf check"
        if not is_orthosymplectic(result.U).passed:
            return "U is not orthosymplectic"
        if case.r is not None:
            expected = math.exp(case.r)
            if abs(result.lambdas[0] - expected) > LAMBDA_RTOL * expected:
                return f"lambdas[0] = {result.lambdas[0]!r}, expected e^r = {expected!r}"
        return None

    def digest(self, result) -> str:
        return _result_digest(result)


@dataclass
class CliRun:
    stdout: bytes
    rss_kb: int
    spans: list | None


class Cli:
    """One ``python -m gaussep disentangle --json <doc>`` subprocess per operation."""

    fails_by_design = False
    warmup = 1

    def __init__(self, doc: Path, work: Path):
        self.cases = [Case(f"disentangle --json {doc.name}", doc)]
        self.stderr_path = work / "cli-stderr.txt"
        self.spans_path = work / "cli-spans.json"

    def call(self, case: Case, traced: bool) -> CliRun:
        if traced:
            self.spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "gaussep"]
        argv += ["disentangle", "--json", str(case.data)]
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            message = self.stderr_path.read_text(errors="replace").strip().splitlines()
            raise RuntimeError(f"exit {proc.returncode}: {message[-1] if message else ''}")
        spans = None
        if traced:
            spans = json.loads(self.spans_path.read_text())
        return CliRun(stdout, usage.ru_maxrss, spans)

    def check(self, case: Case, run: CliRun) -> str | None:
        report = json.loads(run.stdout)
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')!r}"
        if not is_orthosymplectic(np.array(report["U"])).passed:
            return "serialized U is not orthosymplectic"
        hbar = report["hbar"]
        cov = CovarianceMatrix(
            np.array(report["sigma_U"]), ModePartition(report["n_A"], report["n_B"]), hbar
        )
        witness = SeparabilityWitness(np.array(report["sigma_A"]), np.array(report["sigma_B"]), hbar)
        if not werner_wolf_check(cov, witness).passed:
            return "serialized witness fails the Werner-Wolf check"
        return None

    def digest(self, run: CliRun) -> str:
        return hashlib.sha256(run.stdout).hexdigest()


def sweep(seed: int) -> InProcess:
    """The acceptance family of tests/helpers.py, offset by 200 * seed (seed 0 is that family)."""
    partitions, hbars = _acceptance_constants()
    cases = []
    for i in range(SWEEP_STATES):
        n_a, n_b = partitions[i % len(partitions)]
        hbar = hbars[i % len(hbars)]
        state_seed = SWEEP_STATES * seed + i
        cov = random_covariance(
            ModePartition(n_a, n_b), hbar=hbar, seed=state_seed, squeeze_max=1.5, mix_max=2.0
        )
        cases.append(Case(f"{n_a}+{n_b} hbar={hbar} seed={state_seed}", cov))
    return InProcess(cases, warmup=20)


def large(seed: int) -> InProcess:
    cases = []
    for k in range(LARGE_STATES):
        state_seed = LARGE_STATES * seed + k
        cov = random_covariance(ModePartition(*LARGE_MODES), seed=state_seed, squeeze_max=1.0, mix_max=1.0)
        cases.append(Case(f"{LARGE_MODES[0]}+{LARGE_MODES[1]} seed={state_seed}", cov))
    return InProcess(cases, warmup=1)


def cli(seed: int, work: Path) -> Cli:
    doc = work / f"cli-{CLI_MODES[0]}+{CLI_MODES[1]}-seed{seed}.json"
    with open(doc, "wb") as handle:
        subprocess.run(
            [sys.executable, "-m", "gaussep", "random", "--nA", str(CLI_MODES[0]),
             "--nB", str(CLI_MODES[1]), "--seed", str(seed)],
            stdout=handle, cwd=ROOT, check=True,
        )
    return Cli(doc, work)


def envelope(seed: int) -> InProcess:
    """Conditioning edges; failures are part of the measurement, never filtered.

    Half the calls fail fast today, so the workload reports goodput and no latency.
    """
    cases = [Case(f"tmsv r={r:g}", two_mode_squeezed_vacuum(r), r) for r in NEAR_UNIT_R + STRONG_R]
    for squeeze in ENVELOPE_SQUEEZES:
        for k in range(ENVELOPE_SEEDS):
            state_seed = ENVELOPE_SEEDS * seed + k
            cov = random_covariance(ModePartition(2, 2), seed=state_seed, squeeze_max=squeeze)
            cases.append(Case(f"random 2+2 squeeze={squeeze:g} seed={state_seed}", cov))
    for hbar in EXTREME_HBARS:
        cases.append(Case(f"tmsv r=1 hbar={hbar:g}", two_mode_squeezed_vacuum(1.0, hbar), 1.0))
        state_seed = ENVELOPE_SEEDS * seed
        cov = random_covariance(ModePartition(2, 2), hbar=hbar, seed=state_seed)
        cases.append(Case(f"random 2+2 hbar={hbar:g} seed={state_seed}", cov))
    return InProcess(cases, warmup=len(cases), fails_by_design=True)


def build(name: str, seed: int, work: Path):
    if name == "cli":
        return cli(seed, work)
    return {"sweep": sweep, "large": large, "envelope": envelope}[name](seed)
