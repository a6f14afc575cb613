"""Command-line surface: validate, disentangle, ppt, williamson and random.

Every command that judges a state reads one covariance document, whose
``hbar`` (default 1) is the only source of hbar.  Exit
codes: 0 the check or pipeline passed, 1 a well-formed input failed its
mathematical verdict (quantum condition violated, entanglement detected),
2 malformed input, 3 an internal verification failed (a bug or an input at
the edge of conditioning).  Reports go to standard output, diagnostics to
standard error; the text and JSON renderings carry identical numerics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .checks import DEFAULT_TOL, VerificationError
from .documents import DocumentError, InputDocument, parse_input_document, render_input_document
from .phase_space import ModePartition, Ordering, is_orthosymplectic, symplectic_form
from .separability import disentangle, ppt_test
from .spectral import QuantumConditionError, _quantum_condition, williamson
from .states import random_covariance

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_VERIFY = 3


def _warn(message: str) -> None:
    print(f"gaussep: {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}") from None


def _load_document(args) -> InputDocument:
    doc = parse_input_document(_read_text(args.file))
    for message in doc.warnings:
        _warn(message)
    return doc


def _header(command: str, doc: InputDocument, tol: float) -> dict:
    return {
        "tool": "gaussep",
        "version": __version__,
        "command": command,
        "tolerance": tol,
        "hbar": doc.cov.hbar,
        "ordering": Ordering.INTERLEAVED.value,
        "n_A": doc.cov.partition.n_a,
        "n_B": doc.cov.partition.n_b,
        "input_digest": doc.digest,
    }


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                emit(f"{prefix}.{key}" if prefix else str(key), item)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{prefix}:")
            for row in value:
                lines.append("  " + " ".join(repr(float(x)) for x in row))
        elif isinstance(value, list):
            lines.append(f"{prefix} = " + " ".join(repr(float(x)) for x in value))
        elif isinstance(value, float):
            lines.append(f"{prefix} = {value!r}")
        else:
            lines.append(f"{prefix} = {value}")

    emit("", report)
    return "\n".join(lines)


def _print_report(report: dict, args) -> None:
    if args.json:
        print(json.dumps(report))
    else:
        print(_render_text(report))


def _reverify_report(U: np.ndarray, tol: float) -> None:
    """Check ``U``, whose exact ``tolist`` the report prints, by the group's definition at ``tol``.

    Every other printed number is the one its stage gated; the pipeline gates the
    ``n x n`` unitary ``u``, so only this real ``2n x 2n`` form is checked here.
    """
    if not is_orthosymplectic(U, tol).passed:
        raise VerificationError("serialized rotation fails the orthosymplectic check")


def _fail_not_a_state(out: dict, exc: QuantumConditionError, args) -> int:
    """Report the failing quantum condition only, with verdict ``fail``: the input is no state."""
    out["quantum_condition"] = asdict(exc.report)
    out["verdict"] = "fail"
    _print_report(out, args)
    _warn(str(exc))
    return EXIT_FAIL


def cmd_validate(args) -> int:
    doc = _load_document(args)
    cov = doc.cov
    report, nu, _ = _quantum_condition(cov, args.tol, symplectic_form(cov.n))
    out = _header("validate", doc, args.tol)
    out["quantum_condition"] = asdict(report)
    out["symplectic_eigenvalues"] = nu.tolist()
    out["verdict"] = "pass" if report.passed else "fail"
    _print_report(out, args)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_disentangle(args) -> int:
    """Report what ``disentangle`` computed, and nothing else: the input's PPT is ``gaussep ppt``'s."""
    doc = _load_document(args)
    out = _header("disentangle", doc, args.tol)
    try:
        result = disentangle(doc.cov, args.tol)
    except QuantumConditionError as exc:
        return _fail_not_a_state(out, exc, args)

    out["quantum_condition"] = asdict(result.quantum_condition)
    out["symplectic_eigenvalues"] = result.symplectic_eigenvalues.tolist()
    out["lambdas"] = result.lambdas.tolist()
    out["U"] = result.U.tolist()
    out["sigma_U"] = result.sigma_U.sigma.tolist()
    out["sigma_A"] = result.witness.sigma_a.tolist()
    out["sigma_B"] = result.witness.sigma_b.tolist()
    out["werner_wolf"] = asdict(result.werner_wolf)
    out["residuals"] = {k: float(v) for k, v in result.residuals.items()}
    out["verdict"] = "pass"
    _reverify_report(result.U, args.tol)
    _print_report(out, args)
    return EXIT_OK


def cmd_ppt(args) -> int:
    doc = _load_document(args)
    out = _header("ppt", doc, args.tol)
    try:
        report = ppt_test(doc.cov, args.tol)
    except QuantumConditionError as exc:
        return _fail_not_a_state(out, exc, args)
    out["ppt"] = asdict(report)
    out["verdict"] = "ppt" if report.passed else "entangled"
    _print_report(out, args)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_williamson(args) -> int:
    doc = _load_document(args)
    form = williamson(doc.cov, args.tol)
    out = _header("williamson", doc, args.tol)
    out["symplectic_eigenvalues"] = form.nu.tolist()
    out["S"] = form.S.tolist()
    out["residuals"] = {k: float(v) for k, v in form.residuals.items()}
    _print_report(out, args)
    return EXIT_OK


def cmd_random(args) -> int:
    """A random document at hbar 1, with ``random_covariance``'s default squeezing and mixing."""
    cov = random_covariance(ModePartition(args.n_a, args.n_b), seed=args.seed)
    print(render_input_document(cov))
    return EXIT_OK


def _tolerance(text: str) -> float:
    """The ``--tol`` type: a finite float >= 0, so that a bad value exits 2 at parse time."""
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussep",
        description="Validate, decompose, and disentangle Gaussian covariance matrices.",
    )
    parser.add_argument("--version", action="version", version=f"gaussep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("validate", cmd_validate, "run the quantum condition and symplectic spectrum"),
        ("disentangle", cmd_disentangle, "construct the disentangling rotation and witness"),
        ("ppt", cmd_ppt, "partial-transpose entanglement test"),
        ("williamson", cmd_williamson, "Williamson normal form of the covariance matrix"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input document ('-' for stdin)")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="relative tolerance for every gate (default %(default)s)")
        p.add_argument("--json", action="store_true", help="machine-readable report (default: text)")
        p.set_defaults(func=func)

    p = sub.add_parser("random", help="write a random valid input document to stdout")
    p.add_argument("--nA", dest="n_a", type=int, required=True, help="modes in part A")
    p.add_argument("--nB", dest="n_b", type=int, required=True, help="modes in part B")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (deterministic output)")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuantumConditionError as exc:
        _warn(str(exc))
        return EXIT_FAIL
    except VerificationError as exc:
        _warn(f"internal verification failed: {exc}")
        return EXIT_VERIFY
    except ValueError as exc:
        _warn(str(exc))
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())
