"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers are installed from outside the library: for each traced
function, every module-level binding of it inside ``gaussep`` (and its
attribute on ``numpy.linalg`` / ``scipy.linalg``) is replaced by one
wrapper, so a call is recorded whichever name it goes through.  A class is
traced through its ``__init__``.  A target that the library no longer
defines is skipped and reports 0 calls.

A span is ``[name, start, end, parent, op, raised]``; ``parent`` is the index
of the enclosing span (-1 for none) and ``op`` the id of the benchmark
operation it belongs to.  Times come from ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux, so stamps taken in a child process compare with
the parent's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Traced library functions as (defining module, attribute), named after the module.
GAUSSEP_TARGETS = [
    ("gaussep.phase_space", "symplectic_form"),
    ("gaussep.phase_space", "is_symplectic"),
    ("gaussep.phase_space", "is_orthosymplectic"),
    ("gaussep.checks", "sym_sqrt"),
    ("gaussep.checks", "min_eig_hermitian"),
    ("gaussep.checks", "min_eig_symmetric"),
    ("gaussep.spectral", "CovarianceMatrix"),
    ("gaussep.spectral", "quantum_condition_check"),
    ("gaussep.spectral", "symplectic_eigenvalues"),
    ("gaussep.spectral", "williamson"),
    ("gaussep.decomp", "symplectic_polar"),
    ("gaussep.decomp", "ortho_diagonalize"),
    ("gaussep.separability", "disentangle"),
    ("gaussep.separability", "werner_wolf_check"),
    ("gaussep.separability", "ppt_test"),
    ("gaussep.documents", "parse_input_document"),
    ("gaussep.cli", "main"),
    ("gaussep.cli", "_reverify_report"),
]

#: Dense factorizations and solves; each call counts towards ``linalg.factorizations``.
FACTORIZATIONS = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "schur", "qr", "lu",
    "polar", "sqrtm", "solve", "cholesky",
)
#: Every traced ``numpy.linalg`` / ``scipy.linalg`` entry point.
LINALG_FUNCS = FACTORIZATIONS + ("block_diag",)
LINALG_MODULES = ("numpy.linalg", "scipy.linalg")

NAME, START, END, PARENT, OP, RAISED = range(6)


class Recorder:
    """In-memory span list with a stack of open spans; off until ``enabled``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            index = len(rec.spans)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.op, False]
            rec.spans.append(span)
            rec.stack.append(index)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                rec.stack.pop()

        return traced

    def begin_op(self) -> int:
        """Open the root span of the next benchmark operation; returns its index."""
        self.op += 1
        index = len(self.spans)
        self.spans.append(["op", 0.0, 0.0, -1, self.op, False])
        self.stack.append(index)
        return index

    def end_op(self, start: float, end: float, raised: bool) -> None:
        """Close the root span with the operation's own timestamps."""
        span = self.spans[self.stack.pop()]
        span[START] = start
        span[END] = end
        span[RAISED] = raised

    def adopt(self, child_spans: list[list], root: int) -> None:
        """Append spans recorded in a child process under the open root span ``root``."""
        offset = len(self.spans)
        for span in child_spans:
            parent = span[PARENT]
            self.spans.append(
                [span[NAME], span[START], span[END],
                 root if parent < 0 else parent + offset, self.op, span[RAISED]]
            )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _gaussep_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "gaussep" or key.startswith("gaussep."))]


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every traced name; returns the undo list for :func:`uninstall`."""
    targets = [(owner, attr, f"{owner.split('.')[-1]}.{attr}") for owner, attr in GAUSSEP_TARGETS]
    targets += [(owner, attr, f"linalg.{attr}") for owner in LINALG_MODULES for attr in LINALG_FUNCS]
    undo = []
    modules = _gaussep_modules()
    for owner_name, attr, span_name in targets:
        owner = sys.modules.get(owner_name)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            continue
        if isinstance(original, type):
            init = original.__init__
            original.__init__ = recorder.wrap(span_name, init)
            undo.append((original, "__init__", init))
            continue
        wrapper = recorder.wrap(span_name, original)
        for holder in [owner] + modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, self seconds, raised] summed over all spans.

    The root spans (name ``op``) contribute their self time, which is the
    operation time no library span covers.
    """
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[NAME], [0, 0.0, 0])
        entry[0] += 1
        entry[1] += own
        entry[2] += int(span[RAISED])
    return totals


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics named ``<module>.<name>.{calls,self_ms,raised}``."""
    totals = layer_totals(spans)
    metrics: dict[str, tuple[float, str]] = {}
    names = [f"{owner.split('.')[-1]}.{attr}" for owner, attr in GAUSSEP_TARGETS]
    for name in names:
        calls, own, raised = totals.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls / n_ops, "count")
        metrics[f"{name}.self_ms"] = (1e3 * own / n_ops, "ms")
        metrics[f"{name}.raised"] = (raised / n_ops, "count")
    linalg_self = 0.0
    factorizations = 0
    for attr in LINALG_FUNCS:
        calls, own, _ = totals.get(f"linalg.{attr}", (0, 0.0, 0))
        metrics[f"linalg.{attr}.calls"] = (calls / n_ops, "count")
        linalg_self += own
        if attr in FACTORIZATIONS:
            factorizations += calls
    metrics["linalg.factorizations"] = (factorizations / n_ops, "count")
    metrics["linalg.self_ms"] = (1e3 * linalg_self / n_ops, "ms")
    _, op_unattributed, _ = totals.get("op", (0, 0.0, 0))
    op_time = sum(s[END] - s[START] for s in spans if s[NAME] == "op")
    metrics["trace.unattributed_share"] = (op_unattributed / op_time if op_time > 0 else 0.0, "1")
    return metrics
