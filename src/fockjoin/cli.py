"""Command-line interface.

Verbs: join, split, tpes, teleport-join, nogo-scan, run, cnot-demo.
Exit codes: 0 success; 1 usage error (unknown verb, missing or malformed
flag); 2 scheme/encoding/data error (bad state, circuit or budget, missing
file), with the message on stderr.

Each verb writes one report to --report (nogo-scan: --out), or to stdout
if that flag is omitted. Reports are canonical JSON: keys sorted, floats
printed with 17 significant digits, newline-terminated, and they embed
the tool version, the verb, a digest of the inputs and the seed in
effect. A state in a report is rendered in one pass, one % format over
its terms in report order (FockState._listing, which state_to_dict reads
too), to the bytes canonical_json(state_to_dict(s)) would give; a state
that carries its arrays is listed from them, without building its terms,
its occupations' text in one numpy pass. A run that samples a branch or a Bell outcome, and nogo-scan, uses
--seed (0 if omitted; a negative one exits 2) and reports it; a run that
samples nothing reports null, whether or not --seed was given. So identical
invocations produce byte-identical files, and so do deterministic runs that
differ only in --seed. The argparse parser is built once per process, on first use.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from itertools import chain

import numpy as np

from . import __version__
from .circuit import CircuitError, parse_circuit, run_circuit
from .fock import _clamped_overlap, _squared_norm, state_from_dict
from .gates import build_postselected_cnot_network, network_input, postselect_rail_pairs, vacuum_failure_demo
from .nogo import _require_budget, adversarial_search, merge_certificates, rank_scan
from .optics import apply_unitary
from .schemes import join_deterministic, join_projective, split_deterministic, split_projective
from .tpes import PATH_BELL_KINDS, POL_BELL_KINDS, build_tpes, teleport_join, tpes_via_joining

# Encoding, pattern and JSON errors are ValueErrors too.
_DATA_ERRORS = (CircuitError, ValueError, OSError)
_encode_str = json.encoder.encode_basestring_ascii


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Rendered(str):
    """JSON text that is already canonical, which _emit writes as it is."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces.append)
    return "".join(pieces)


def _emit(obj, write):
    # Containers first, as the most frequent; bool before int. Strings and
    # keys are encoded as json.dumps encodes a str, except _Rendered text
    # (a report's states, from _state_json), which is written as it is. A
    # report's terms never reach the walk, so no leaf has a faster branch.
    if isinstance(obj, dict):
        sep = "{"
        for key in sorted(obj):
            write(sep + _encode_str(str(key)) + ":")
            _emit(obj[key], write)
            sep = ","
        write("}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for item in obj:
            write(sep)
            _emit(item, write)
            sep = ","
        write("]" if obj else "[]")
    elif isinstance(obj, float):
        write(format(obj, ".17g"))
    elif isinstance(obj, str):
        write(obj if type(obj) is _Rendered else _encode_str(obj))
    elif obj is None:
        write("null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, int):
        write(str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _state_json(s) -> _Rendered:
    """canonical_json(state_to_dict(s)), in one % format over s._listing(): parts %.17g, photon numbers %d or row texts."""
    occs, re, im = s._listing()
    occ, columns = ("%s", [_occupation_texts(occs)]) if isinstance(occs, np.ndarray) else (",".join(["%d"] * s.modes), zip(*occs))
    term = '{"im":%.17g,"occ":[' + occ + '],"re":%.17g}'
    text = '{"modes":%d,"terms":[' + ",".join([term] * len(re)) + "]}"
    return _Rendered(text % (s.modes, *chain.from_iterable(zip(im, *columns, re))))


def _occupation_texts(counts: np.ndarray) -> list[str]:
    """The "n0,n1,..." text of each row of optics._Packed's (terms x modes) uint8 counts (at most 20), in one pass."""
    tens = counts // 10  # its digit, or a NUL (deleted below) where a count has none
    chars = np.empty((*counts.shape, 3), np.uint8)
    chars[..., 0], chars[..., 1], chars[..., 2] = (tens + 48) * (tens > 0), counts - tens * 10 + 48, 44  # 44: ","
    chars[:, -1, 2] = 10  # each row's last "," becomes the line break that ends it
    return chars.tobytes().translate(None, b"\0").decode("ascii").split("\n")


def _envelope(verb: str, seed, digest_chunks) -> dict:
    return {
        "tool": "fockjoin",
        "version": __version__,
        "verb": verb,
        "seed": seed,
        "input_digest": hashlib.sha256(b"".join(digest_chunks)).hexdigest(),
    }


def _load_state(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"malformed state: {path} is nested too deeply") from None
    return state_from_dict(data), raw


def _write_report(report: dict, path: str | None):
    text = canonical_json(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _scheme_args(sub, name: str, help_text: str, projective, deterministic):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(handler=_cmd_scheme, projective=projective, deterministic=deterministic)
    p.add_argument("--input", required=True, help="input state JSON file")
    p.add_argument("--variant", choices=("projective", "deterministic"), default="projective")
    p.add_argument("--branch", choices=("plus", "minus", "sample"), default="plus")
    p.add_argument("--seed", type=int, default=None, help="seed for --branch sample")
    p.add_argument("--feed-forward", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--report", default=None, help="report JSON path (stdout if omitted)")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fockjoin", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fockjoin {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    _scheme_args(sub, "join", "join two dual-rail qubits into one four-mode photon", join_projective, join_deterministic)
    _scheme_args(sub, "split", "split a four-mode photon into two dual-rail qubits", split_projective, split_deterministic)

    p = sub.add_parser("tpes", help="build a doubly-entangled three-photon state")
    p.set_defaults(handler=_cmd_tpes)
    p.add_argument("--pol", required=True, choices=POL_BELL_KINDS)
    p.add_argument("--path", required=True, choices=PATH_BELL_KINDS)
    p.add_argument("--report", default=None)

    p = sub.add_parser("teleport-join", help="joining via Bell measurements on a shared resource")
    p.set_defaults(handler=_cmd_teleport)
    for name in ("alpha", "beta", "gamma", "delta"):
        p.add_argument(
            f"--{name}", required=True, help=f"complex literal, e.g. 0.6 or 0.6+0j; negative values take the --{name}=-0.96j form"
        )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--outcome", type=int, default=None, help="force Bell outcome index 0..15")
    group.add_argument("--sample", action="store_true", help="sample the Bell outcome")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)

    p = sub.add_parser("nogo-scan", help="certify the rank deficiency of two-photon joining")
    p.set_defaults(handler=_cmd_nogo)
    p.add_argument("--modes", type=int, default=4)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--restarts", type=int, default=0, help="adversarial search restarts")
    p.add_argument("--iterations", type=int, default=500, help="optimizer iterations per restart")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="report", metavar="OUT", default=None, help="certificate JSON path (stdout if omitted)")

    p = sub.add_parser("run", help="run a circuit file on an input state")
    p.set_defaults(handler=_cmd_run)
    p.add_argument("--circuit", required=True, help="circuit file (.pc)")
    p.add_argument("--input", required=True, help="input state JSON file")
    p.add_argument("--report", default=None)

    p = sub.add_parser("cnot-demo", help="post-selected CNOT truth table and vacuum failure")
    p.set_defaults(handler=_cmd_cnot_demo)
    p.add_argument("--report", default=None)
    return parser


# Each handler returns (seed in effect, input digest chunks, report body);
# cli_dispatch adds the envelope and writes the report.


def _seed_in_effect(seed: int | None, samples: bool) -> int | None:
    """The seed a sampling run uses (--seed, else 0); None if nothing is sampled. A negative seed raises ValueError."""
    if samples and (seed or 0) < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return (seed or 0) if samples else None


def _scheme_body(report) -> dict:
    """Report fields shared by join, split and teleport-join."""
    return {
        "branch": report.branch,
        "success_probability": float(report.success_probability),
        "fidelity": float(report.fidelity_to_expected),
        "output": _state_json(report.output),
    }


def _cmd_scheme(args):
    state, raw = _load_state(args.input)
    seed = _seed_in_effect(args.seed, args.variant == "projective" and args.branch == "sample")
    if args.variant == "deterministic":
        report = args.deterministic(state)
    else:
        report = args.projective(state, branch=args.branch, feed_forward=args.feed_forward, seed=seed)
    body = _scheme_body(report) | {"variant": args.variant, "feed_forward_applied": report.feed_forward_applied}
    return seed, [raw], body


def _cmd_tpes(args):
    built = build_tpes(args.pol, args.path)
    joined = tpes_via_joining(args.pol, args.path)
    body = {
        "pol": args.pol,
        "path": args.path,
        "joining_fidelity": _clamped_overlap(joined, built),  # both built by the package from checked kinds
        "output": _state_json(built),
    }
    return None, [f"{args.pol}/{args.path}".encode()], body


def _qubit_flags(args, first: str, second: str) -> tuple[complex, complex]:
    """The two amplitude flags of one qubit; a malformed literal raises ValueError naming the pair."""
    texts = getattr(args, first), getattr(args, second)
    try:
        return complex(texts[0]), complex(texts[1])
    except ValueError:
        raise ValueError(f"{first}/{second} amplitudes must be complex literals, got {texts[0]!r} and {texts[1]!r}") from None


def _cmd_teleport(args):
    alpha, beta = _qubit_flags(args, "alpha", "beta")
    gamma, delta = _qubit_flags(args, "gamma", "delta")
    # --sample and --outcome exclude each other; without --outcome the run samples.
    seed = _seed_in_effect(args.seed, args.outcome is None)
    outcome = "sample" if args.outcome is None else args.outcome
    report = teleport_join((alpha, beta), (gamma, delta), outcome=outcome, seed=seed)
    return seed, [f"{alpha}{beta}{gamma}{delta}".encode()], _scheme_body(report)


def _cmd_nogo(args):
    seed = _seed_in_effect(args.seed, True)
    search = {"restarts": args.restarts, "iterations": args.iterations} if args.restarts != 0 else {}
    _require_budget(seed, args.modes, trials=args.trials, **search)  # every budget the run uses, before the scan
    cert = rank_scan(args.modes, args.trials, seed=seed)
    described = f"m={args.modes} trials={args.trials} restarts={args.restarts}"
    if search:
        cert = merge_certificates(cert, adversarial_search(args.modes, **search, seed=seed))
        described += f" iterations={args.iterations}"
    return args.seed, [described.encode()], {"modes": args.modes} | dataclasses.asdict(cert)


def _cmd_run(args):
    with open(args.circuit, "rb") as fh:
        circuit_raw = fh.read()
    parsed = parse_circuit(circuit_raw.decode("utf-8"))
    if isinstance(parsed, list):
        for diag in parsed:
            print(f"{args.circuit}:{diag.line}:{diag.column}: {diag.message}", file=sys.stderr)
        raise SystemExit(2)  # already reported, like argparse's own exits
    state, raw = _load_state(args.input)
    final, probability, log = run_circuit(parsed, state)
    return None, [circuit_raw, raw], {"probability": float(probability), "log": log, "output": _state_json(final)}


def _cmd_cnot_demo(args):
    network = build_postselected_cnot_network()
    table = []
    for control in ((1, 0), (0, 1)):
        for target in ((1, 0), (0, 1)):
            evolved = apply_unitary(network_input(control, target), network)
            surviving = postselect_rail_pairs(evolved)
            probability = _squared_norm(surviving.terms.values())
            table.append(
                {
                    "control": list(control),
                    "target": list(target),
                    "success_probability": float(probability),
                    "output": _state_json(surviving),
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
    body = {
        "logical_success_amplitude": demo.logical_success_amplitude,
        "truth_table": table,
        "vacuum_cases": cases,
        "demonstrates_failure": demo.demonstrates_failure,
    }
    return None, [b"cnot-demo"], body


def cli_dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        seed, digest_chunks, body = args.handler(args)
        _write_report(_envelope(args.verb, seed, digest_chunks) | body, args.report)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help, --version, run's parse diagnostics
        return int(exc.code or 0)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
