"""Command-line interface.

Verbs: join, split, tpes, teleport-join, nogo-scan, run, cnot-demo.
Exit codes: 0 success, 1 usage error, 2 scheme/encoding/data error.

Reports are canonical JSON: keys sorted, floats printed with 17
significant digits, newline-terminated, and they embed the tool version,
the seed in effect and a digest of the inputs, so identical invocations
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .circuit import CircuitError, parse_circuit, run_circuit
from .fock import NonEmptyModeError, fidelity, state_from_dict, state_to_dict
from .gates import IllegalPatternError, build_postselected_cnot_network, network_input, postselect_rail_pairs, vacuum_failure_demo
from .nogo import adversarial_search, merge_certificates, rank_scan
from .optics import apply_unitary
from .schemes import (
    EncodingViolationError,
    join_deterministic,
    join_projective,
    split_deterministic,
    split_projective,
)
from .tpes import build_tpes, resolve_outcome, teleport_join, tpes_via_joining

_DATA_ERRORS = (
    EncodingViolationError,
    IllegalPatternError,
    NonEmptyModeError,
    CircuitError,
    ValueError,
    json.JSONDecodeError,
    OSError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, pieces: list[str]):
    if obj is None or isinstance(obj, bool):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                pieces.append(",")
            pieces.append(json.dumps(str(key)) + ":")
            _emit(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for k, item in enumerate(obj):
            if k:
                pieces.append(",")
            _emit(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _envelope(seed, digest_chunks) -> dict:
    return {
        "tool": "fockjoin",
        "version": __version__,
        "seed": seed,
        "input_digest": _digest(digest_chunks),
    }


def _load_state(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    return state_from_dict(json.loads(raw.decode("utf-8"))), raw


def _write_report(report: dict, path: str | None):
    text = canonical_json(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _scheme_args(sub, name: str, help_text: str):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--input", required=True, help="input state JSON file")
    p.add_argument("--variant", choices=("projective", "deterministic"), default="projective")
    p.add_argument("--branch", choices=("plus", "minus", "sample"), default="plus")
    p.add_argument("--seed", type=int, default=None, help="seed for --branch sample")
    p.add_argument("--feed-forward", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--report", default=None, help="report JSON path (stdout if omitted)")
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="fockjoin", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fockjoin {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    _scheme_args(sub, "join", "join two dual-rail qubits into one four-mode photon")
    _scheme_args(sub, "split", "split a four-mode photon into two dual-rail qubits")

    p = sub.add_parser("tpes", help="build a doubly-entangled three-photon state")
    p.add_argument("--pol", required=True, choices=("Phi+", "Phi-", "Psi+", "Psi-"))
    p.add_argument("--path", required=True, choices=("phi+", "phi-", "psi+", "psi-"))
    p.add_argument("--report", default=None)

    p = sub.add_parser("teleport-join", help="joining via Bell measurements on a shared resource")
    p.add_argument("--alpha", required=True, help="complex literal, e.g. 0.6 or 0.6+0j")
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--outcome", type=int, default=None, help="force Bell outcome index 0..15")
    group.add_argument("--sample", action="store_true", help="sample the Bell outcome")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("nogo-scan", help="certify the rank deficiency of two-photon joining")
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--restarts", type=int, default=0, help="adversarial search restarts")
    p.add_argument("--iterations", type=int, default=500, help="optimizer iterations per restart")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="certificate JSON path (stdout if omitted)")

    p = sub.add_parser("run", help="run a circuit file on an input state")
    p.add_argument("--circuit", required=True, help="circuit file (.pc)")
    p.add_argument("--input", required=True, help="input state JSON file")
    p.add_argument("--report", default=None)

    p = sub.add_parser("cnot-demo", help="post-selected CNOT truth table and vacuum failure")
    p.add_argument("--report", default=None)
    return parser


def _cmd_scheme(args) -> int:
    state, raw = _load_state(args.input)
    if args.verb == "join":
        if args.variant == "deterministic":
            report = join_deterministic(state)
        else:
            report = join_projective(state, branch=args.branch, feed_forward=args.feed_forward, seed=args.seed)
    else:
        if args.variant == "deterministic":
            report = split_deterministic(state)
        else:
            report = split_projective(state, branch=args.branch, feed_forward=args.feed_forward, seed=args.seed)
    payload = _envelope(args.seed, [raw])
    payload.update(
        {
            "verb": args.verb,
            "variant": args.variant,
            "success_probability": float(report.success_probability),
            "branch": report.branch,
            "feed_forward_applied": report.feed_forward_applied,
            "fidelity": float(report.fidelity_to_expected),
            "output": state_to_dict(report.output),
        }
    )
    _write_report(payload, args.report)
    return 0


def _cmd_tpes(args) -> int:
    built = build_tpes(args.pol, args.path)
    joined = tpes_via_joining(args.pol, args.path)
    payload = _envelope(None, [f"{args.pol}/{args.path}".encode()])
    payload.update(
        {
            "verb": "tpes",
            "pol": args.pol,
            "path": args.path,
            "joining_fidelity": float(fidelity(joined, built)),
            "output": state_to_dict(built),
        }
    )
    _write_report(payload, args.report)
    return 0


def _cmd_teleport(args) -> int:
    alpha, beta = complex(args.alpha), complex(args.beta)
    gamma, delta = complex(args.gamma), complex(args.delta)
    outcome = "sample" if args.sample or args.outcome is None else resolve_outcome(args.outcome)
    report = teleport_join((alpha, beta), (gamma, delta), outcome=outcome, seed=args.seed)
    payload = _envelope(args.seed, [f"{alpha}{beta}{gamma}{delta}".encode()])
    payload.update(
        {
            "verb": "teleport-join",
            "branch": report.branch,
            "success_probability": float(report.success_probability),
            "fidelity": float(report.fidelity_to_expected),
            "output": state_to_dict(report.output),
        }
    )
    _write_report(payload, args.report)
    return 0


def _cmd_nogo(args) -> int:
    cert = rank_scan(args.modes, args.trials, seed=args.seed)
    described = f"m={args.modes} trials={args.trials} restarts={args.restarts}"
    if args.restarts != 0:
        cert = merge_certificates(
            cert, adversarial_search(args.modes, restarts=args.restarts, iterations=args.iterations, seed=args.seed)
        )
        described += f" iterations={args.iterations}"
    payload = _envelope(args.seed, [described.encode()])
    payload.update(
        {
            "verb": "nogo-scan",
            "modes": args.modes,
            "trials": cert.trials,
            "max_sigma_min": float(cert.max_sigma_min),
            "argmax_seed": cert.argmax_seed,
            "optimizer_iterations": cert.optimizer_iterations,
            "verdict": cert.verdict,
        }
    )
    _write_report(payload, args.out)
    return 0


def _cmd_run(args) -> int:
    with open(args.circuit, "rb") as fh:
        circuit_raw = fh.read()
    parsed = parse_circuit(circuit_raw.decode("utf-8"))
    if isinstance(parsed, list):
        for diag in parsed:
            print(f"{args.circuit}:{diag.line}:{diag.column}: {diag.message}", file=sys.stderr)
        return 2
    state, raw = _load_state(args.input)
    final, probability, log = run_circuit(parsed, state)
    payload = _envelope(None, [circuit_raw, raw])
    payload.update(
        {
            "verb": "run",
            "probability": float(probability),
            "log": log,
            "output": state_to_dict(final),
        }
    )
    _write_report(payload, args.report)
    return 0


def _cmd_cnot_demo(args) -> int:
    network = build_postselected_cnot_network()
    table = []
    for control in ((1, 0), (0, 1)):
        for target in ((1, 0), (0, 1)):
            evolved = apply_unitary(network_input(control, target), network)
            surviving = postselect_rail_pairs(evolved)
            probability = sum(abs(a) ** 2 for a in surviving.terms.values())
            table.append(
                {
                    "control": list(control),
                    "target": list(target),
                    "success_probability": float(probability),
                    "output": state_to_dict(surviving),
                }
            )
    demo = vacuum_failure_demo(network)
    cases = [
        {
            "label": case.label,
            "intact_amplitude_re": float(case.intact_amplitude.real),
            "intact_amplitude_im": float(case.intact_amplitude.imag),
            "control_intact_probability": float(case.control_intact_probability),
            "target_leak_probability": float(case.target_leak_probability),
            "ancilla_leak_probability": float(case.ancilla_leak_probability),
            "consistent_with_scaled_identity": case.consistent_with_scaled_identity,
        }
        for case in demo.cases
    ]
    payload = _envelope(None, [b"cnot-demo"])
    payload.update(
        {
            "verb": "cnot-demo",
            "logical_success_amplitude": demo.logical_success_amplitude,
            "truth_table": table,
            "vacuum_cases": cases,
            "demonstrates_failure": demo.demonstrates_failure,
        }
    )
    _write_report(payload, args.report)
    return 0


_COMMANDS = {
    "join": _cmd_scheme,
    "split": _cmd_scheme,
    "tpes": _cmd_tpes,
    "teleport-join": _cmd_teleport,
    "nogo-scan": _cmd_nogo,
    "run": _cmd_run,
    "cnot-demo": _cmd_cnot_demo,
}


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
