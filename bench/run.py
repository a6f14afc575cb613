"""Run one workload of the gaussep benchmark, check its outputs and print its metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload {sweep,large,cli,envelope} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  A readable report of everything measured
comes first.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
metrics BENCHMARK.json declares.  The full record, with the
environment, is also written under ``.bench_build/gaussep/``.  README.md in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS or OpenMP thread per call, so timings do not depend on how many
#: cores other processes leave free.  Set here, before any child starts;
#: every child, and through it numpy, inherits them.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gaussep"
WORKLOADS = ("sweep", "large", "cli", "envelope")

#: Set-ups per run, spread before and after the timed loop; setup_s is their median.
SETUP_REPEATS = 5
#: Fresh interpreters per import measurement; each import metric is their median.
IMPORT_REPEATS = 3
#: Longest a set-up may take before the run is abandoned.
SETUP_TIMEOUT_S = 60

#: Fresh-interpreter import probes: modules imported in order, and the metric of each.
IMPORT_PROBES = [
    (("numpy", "scipy.linalg"), ("import.numpy_ms", "import.scipy_ms")),
    (("gaussep",), ("import.gaussep_ms",)),
]
IMPORT_PROBE = """
import importlib, time
for name in {modules!r}:
    start = time.perf_counter()
    importlib.import_module(name)
    print(time.perf_counter() - start)
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_worker(args, env: dict, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py once; returns its set-up time (spawn to ``ready_at``) and its result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(WORK),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S + (0 if setup_only else 2 * args.seconds)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - start, result


def import_times(env: dict) -> dict[str, tuple[float, str]]:
    """Cold import times, each the median over fresh interpreters."""
    metrics = {}
    for modules, names in IMPORT_PROBES:
        samples = []
        for _ in range(IMPORT_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE.format(modules=modules)], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
            )
            samples.append([float(x) for x in out.stdout.split()])
        for name, values in zip(names, zip(*samples)):
            metrics[name] = (1e3 * statistics.median(values), "ms")
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(args, worker_env: dict) -> dict:
    return {
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **worker_env,
        "git_commit": git_commit(),
        "seed": args.seed,
    }


def emitted(spec: dict, workload: str, key: str, computed: dict) -> dict:
    """The metrics of the JSON line: BENCHMARK.json's list for a listed workload.

    A per-layer metric whose function the library no longer has reads 0.  A
    workload that BENCHMARK.json does not list reports everything it measured.
    """
    if workload not in {w["name"] for w in spec["workloads"]}:
        return computed
    out = {}
    for entry in spec[key]:
        name = entry["name"]
        if name in computed:
            out[name] = computed[name]
        elif key == "per_layer":
            out[name] = (0.0, entry["unit"])
        else:
            raise BenchError(f"workload {workload} did not measure {name}")
    return out


def report(args, record: dict) -> None:
    print(f"gaussep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    details = record["details"]
    print(f"  attempted {record['attempted']}, failed {record['failed']}, correct {record['correct']}")
    if "latency_tail_percentile" in details:
        print(f"  latency_tail_ms: p{details['latency_tail_percentile']:.2f}, median over "
              f"{details['latency_tail_blocks']} block(s) of the n={record['attempted']} operations")
    for failure in details["failures"]:
        print(f"  failed: {failure['case']}: {failure['reason']}")
    for key in ("bitwise_cases_compared", "bitwise_mismatched"):
        if key in details:
            print(f"  {key}: {details[key]}")
    print(f"  environment: {json.dumps(record['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussep" / "__init__.py").is_file():
        print(f"run.py: no gaussep package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()

    try:
        setups = []
        extra = 0 if args.trace else SETUP_REPEATS - 1
        for _ in range(extra // 2):
            setups.append(spawn_worker(args, env, setup_only=True)[0])
        setup, result = spawn_worker(args, env, setup_only=False)
        for _ in range(extra - extra // 2):
            setups.append(spawn_worker(args, env, setup_only=True)[0])
        setups.append(setup)
        metrics = {name: tuple(pair) for name, pair in result["metrics"].items()}
        if args.trace:
            metrics.update(import_times(env))
            key = "per_layer"
        else:
            metrics["setup_s"] = (statistics.median(setups), "s")
            result["details"]["setup_samples_s"] = setups
            key = "end_to_end"
        line_metrics = emitted(spec, args.workload, key, metrics)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "details": result["details"],
        "environment": environment(args, result["environment"]),
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=list)
    )
    report(args, record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in line_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
