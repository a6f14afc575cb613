"""Steadiness check: sets of runs of the same code, judged by BENCHMARK.json's bounds.

Usage, from the root of the repository:

    python3 bench/steady.py

For each workload BENCHMARK.json lists, it makes two sets of ten runs, every
run with its own seed and lasting BENCHMARK.json's run_seconds.  For each
end-to-end metric it prints, per set, the median and the spread (distance
between the first and third quartile over the median).  It fails when a
spread exceeds the metric's bound, or when the second set's median is worse
than the first set's by more than the bound.  Spreads above a third of the
bound are flagged: the benchmark aims to stay below that.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETS = 2
RUNS = 10
FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    seed = FIRST_SEED
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, seconds))
                seed += 1
            sets.append(runs)
        print(f"{workload}: {SETS} sets of {RUNS} runs, {seconds} s each")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians, spreads = [], []
            for runs in sets:
                values = [run[name] for run in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "ok"
            if max(spreads) > bound:
                verdict = "FAIL spread"
            elif worse > bound:
                verdict = "FAIL median"
            elif max(spreads) > bound / 3:
                verdict = "ok (spread above bound/3)"
            ok &= not verdict.startswith("FAIL")
            print(f"  {name:16s} bound {bound:<5g} medians {' '.join(f'{m:.5g}' for m in medians):24s} "
                  f"spreads {' '.join(f'{s:.3f}' for s in spreads):14s} worse {worse:+.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
