"""Command-line surface: validate, decompose, disentangle, and generate documents.

Exit codes: 0 the check or pipeline passed, 1 a well-formed input failed its
mathematical verdict (quantum condition violated, entanglement detected,
matrix not symplectic), 2 malformed input, 3 an internal verification
failed (a bug or an input at the edge of conditioning).  Reports go to
standard output, diagnostics to standard error; the text and JSON
renderings carry identical numerics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .checks import DEFAULT_TOL, POLAR_P_FACTOR, ROUNDTRIP_TOL, VerificationError, fro
from .decomp import symplectic_polar
from .documents import (
    DocumentError,
    InputDocument,
    parse_input_document,
    parse_matrix_document,
    render_input_document,
)
from .phase_space import (
    ModePartition,
    Ordering,
    convert_ordering,
    convert_vector_ordering,
    is_orthosymplectic,
    is_symplectic,
    symplectic_form,
)
from .separability import SeparabilityWitness, disentangle, ppt_test, werner_wolf_check
from .spectral import CovarianceMatrix, QuantumConditionError, _quantum_condition, williamson
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


def _load_covariance(args) -> tuple[InputDocument, CovarianceMatrix]:
    """The document and its covariance matrix, with ``--hbar`` applied."""
    doc = _load_document(args)
    cov = doc.to_covariance(args.hbar)
    if args.hbar is not None and doc.hbar_explicit and abs(args.hbar - doc.hbar) > 0:
        _warn(f"--hbar {args.hbar} overrides the document value {doc.hbar}; the verdict depends on hbar")
    return doc, cov


def _header(command: str, doc: InputDocument, hbar: float, tol: float) -> dict:
    return {
        "tool": "gaussep",
        "version": __version__,
        "command": command,
        "tolerance": tol,
        "hbar": hbar,
        "ordering": Ordering.INTERLEAVED.value,
        "n_A": doc.partition.n_a,
        "n_B": doc.partition.n_b,
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
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        print(_render_text(report))


def _reverify_report(report: dict) -> None:
    """Re-check every matrix claim in a report before it leaves the process."""
    tol = report["tolerance"]
    if report["command"] == "disentangle":
        hbar = report["hbar"]
        partition = ModePartition(report["n_A"], report["n_B"])
        U = np.array(report["U"], dtype=float)
        if not is_orthosymplectic(U, tol).passed:
            raise VerificationError("serialized rotation fails the orthosymplectic check")
        cov = CovarianceMatrix(np.array(report["sigma_U"], dtype=float), partition, hbar)
        witness = SeparabilityWitness(
            np.array(report["sigma_A"], dtype=float),
            np.array(report["sigma_B"], dtype=float),
            hbar,
        )
        ww = werner_wolf_check(cov, witness, tol)
        stored = report["werner_wolf"]["margin"]
        if not ww.passed or abs(ww.margin - stored) > ROUNDTRIP_TOL * max(1.0, abs(stored)):
            raise VerificationError("serialized witness fails re-verification")
    elif report["command"] == "williamson":
        S = np.array(report["S"], dtype=float)
        if not is_symplectic(S, tol).passed:
            raise VerificationError("serialized Williamson factor is not symplectic")
    elif report["command"] == "polar":
        P = np.array(report["P"], dtype=float)
        R = np.array(report["R"], dtype=float)
        S = np.array(report["S"], dtype=float)
        ok = (
            is_orthosymplectic(R, tol).passed
            and is_symplectic(P, POLAR_P_FACTOR * tol).passed
            and fro(P @ R - S) <= tol * max(1.0, fro(S))
        )
        if not ok:
            raise VerificationError("serialized polar factors fail re-verification")


def cmd_validate(args) -> int:
    doc, cov = _load_covariance(args)
    report, nu, _ = _quantum_condition(cov, args.tol, symplectic_form(cov.n))
    out = _header("validate", doc, cov.hbar, args.tol)
    out["quantum_condition"] = asdict(report)
    out["symplectic_eigenvalues"] = nu.tolist()
    out["verdict"] = "pass" if report.passed else "fail"
    _print_report(out, args)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_disentangle(args) -> int:
    doc, cov = _load_covariance(args)
    try:
        result = disentangle(cov, args.tol)
    except QuantumConditionError as exc:
        # no partial witness: report the failing quantum condition only
        out = _header("disentangle", doc, cov.hbar, args.tol)
        out["quantum_condition"] = asdict(exc.report)
        out["verdict"] = "fail"
        _print_report(out, args)
        _warn(str(exc))
        return EXIT_FAIL

    out = _header("disentangle", doc, cov.hbar, args.tol)
    out["quantum_condition"] = asdict(result.quantum_condition)
    out["symplectic_eigenvalues"] = result.symplectic_eigenvalues.tolist()
    out["lambdas"] = result.lambdas.tolist()
    out["U"] = result.U.tolist()
    out["sigma_U"] = result.sigma_U.sigma.tolist()
    out["sigma_A"] = result.witness.sigma_a.tolist()
    out["sigma_B"] = result.witness.sigma_b.tolist()
    out["werner_wolf"] = asdict(result.werner_wolf)
    out["ppt"] = asdict(ppt_test(cov, args.tol))
    out["residuals"] = {k: float(v) for k, v in result.residuals.items()}
    out["verdict"] = "pass"
    _reverify_report(out)
    _print_report(out, args)
    return EXIT_OK


def cmd_ppt(args) -> int:
    doc, cov = _load_covariance(args)
    report = ppt_test(cov, args.tol)
    out = _header("ppt", doc, cov.hbar, args.tol)
    out["ppt"] = asdict(report)
    out["verdict"] = "ppt" if report.passed else "entangled"
    _print_report(out, args)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_williamson(args) -> int:
    doc, cov = _load_covariance(args)
    form = williamson(cov, args.tol)
    out = _header("williamson", doc, cov.hbar, args.tol)
    out["symplectic_eigenvalues"] = form.nu.tolist()
    out["S"] = form.S.tolist()
    out["residuals"] = {k: float(v) for k, v in form.residuals.items()}
    _reverify_report(out)
    _print_report(out, args)
    return EXIT_OK


def cmd_polar(args) -> int:
    matrix, declared, digest = parse_matrix_document(_read_text(args.file))
    try:
        form = symplectic_polar(matrix, args.tol)
    except ValueError as exc:
        _warn(str(exc))
        return EXIT_FAIL
    n = matrix.shape[0] // 2
    out = {
        "tool": "gaussep",
        "version": __version__,
        "command": "polar",
        "tolerance": args.tol,
        "ordering": Ordering.INTERLEAVED.value,
        "declared_ordering": declared.value,
        "n": n,
        "input_digest": digest,
        "S": matrix.tolist(),
        "P": form.P.tolist(),
        "R": form.R.tolist(),
        "residuals": {k: float(v) for k, v in form.residuals.items()},
    }
    _reverify_report(out)
    _print_report(out, args)
    return EXIT_OK


def cmd_random(args) -> int:
    partition = ModePartition(args.n_a, args.n_b)
    cov = random_covariance(
        partition,
        hbar=args.hbar if args.hbar is not None else 1.0,
        seed=args.seed,
        squeeze_max=args.squeeze,
        mix_max=args.mix,
    )
    print(render_input_document(cov.sigma, partition, cov.hbar, Ordering.INTERLEAVED))
    return EXIT_OK


def cmd_convert(args) -> int:
    doc = _load_document(args)
    target = Ordering.parse(args.to)
    sigma = convert_ordering(doc.sigma, Ordering.INTERLEAVED, target)
    mean = convert_vector_ordering(doc.mean, Ordering.INTERLEAVED, target)
    print(render_input_document(sigma, doc.partition, doc.hbar, target, mean))
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


def _add_common(parser: argparse.ArgumentParser, with_hbar: bool = True) -> None:
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="relative tolerance for every gate (default 1e-10)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable report")
    fmt.add_argument("--text", action="store_true", help="human-readable report (default)")
    if with_hbar:
        parser.add_argument("--hbar", type=float, default=None, help="override the document hbar (warns on conflict)")


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
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("polar", help="symplectic polar decomposition of a matrix document")
    p.add_argument("file", help="matrix document ('-' for stdin)")
    _add_common(p, with_hbar=False)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("random", help="write a random valid input document to stdout")
    p.add_argument("--nA", dest="n_a", type=int, required=True, help="modes in part A")
    p.add_argument("--nB", dest="n_b", type=int, required=True, help="modes in part B")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (deterministic output)")
    p.add_argument("--squeeze", type=float, default=1.0, help="max squeeze parameter")
    p.add_argument("--mix", type=float, default=1.0, help="max relative thermal excess")
    p.add_argument("--hbar", type=float, default=None, help="hbar stored in the document")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("convert", help="re-index a document between orderings")
    p.add_argument("file", help="input document ('-' for stdin)")
    p.add_argument("--to", required=True, choices=["interleaved", "blocked"], help="target ordering")
    p.set_defaults(func=cmd_convert)

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
