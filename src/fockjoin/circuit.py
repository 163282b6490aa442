"""Line-oriented circuit description language and interpreter.

Grammar (one instruction per line, ``#`` starts a comment, angles in
radians; the ``modes`` declaration must come first):

    modes N
    bs i j theta phi
    ps i phi
    perm p0 p1 ... p{N-1}
    had i j
    cnot c0 c1 t0 t1 [eta_re eta_im [etap_re etap_im]]
    rcnot c0 c1 t0 t1 [eta_re eta_im [etap_re etap_im]]
    zflip m0 m1
    project i0 a_re a_im [i1 b_re b_im ...]
    vac i0 [i1 ...]

Each op is defined once, as a row of ``_OPS``: its usage text, argument
parser, executor and canonical formatter. Adding an op means adding a row.

Parsing collects every diagnostic instead of stopping at the first, so a
fixture corpus can be validated in one pass. Execution folds instructions
over a Fock state; projections multiply the running success probability.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fock import FockState, _indices, _picker, _squared_norm, is_normalized, norm, postselect_vacuum
from .gates import (
    CnotSpec,
    DualRailQubit,
    IllegalPatternError,
    _vacuum_port_problem,
    apply_cnot,
    apply_reversed_cnot,
    logical_phase_flip,
)
from .optics import ProjectorSpec, apply_projector, apply_unitary, beamsplitter, hadamard_pair, mode_permutation, phase_shifter

_TOKEN = re.compile(r"\S+")


class CircuitError(RuntimeError):
    """Execution failure, annotated with the offending instruction index."""

    def __init__(self, message: str, instruction_index: int):
        super().__init__(message)
        self.instruction_index = instruction_index


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    token: str


@dataclass(frozen=True)
class Instruction:
    op: str
    args: tuple
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CircuitProgram:
    modes: int
    instructions: tuple[Instruction, ...]


@dataclass
class _Line:
    """One instruction line being parsed; parsers report problems through it."""

    number: int
    keyword: str
    key_col: int
    modes: int
    diagnostics: list[ParseDiagnostic]

    def complain(self, column: int, message: str, token: str = ""):
        self.diagnostics.append(ParseDiagnostic(self.number, column, message, token))

    def reject(self, message: str | None = None):
        """Complain at the op keyword, by default with the op's usage text."""
        self.complain(self.key_col, message or f"usage: {self.keyword} {_OPS[self.keyword].usage}", self.keyword)


def _tokenize(line: str):
    tokens = []
    for match in _TOKEN.finditer(line):
        text = match.group()
        if text.startswith("#"):
            break
        tokens.append((text, match.start() + 1))
    return tokens


def parse_circuit(text: str):
    """Parse a circuit; returns the program, or every diagnostic found."""
    diagnostics: list[ParseDiagnostic] = []
    instructions: list[Instruction] = []
    modes: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        (keyword, key_col), rest = tokens[0], tokens[1:]
        line = _Line(line_no, keyword, key_col, modes, diagnostics)

        if modes is None:
            modes = _parse_modes(line, rest)
            continue

        op = _OPS.get(keyword)
        if op is None:
            line.complain(key_col, f"unknown instruction {keyword!r}", keyword)
            continue
        args = op.parse(line, rest)
        if args is not None:
            instructions.append(Instruction(keyword, args, line_no))

    if modes is None and not diagnostics:
        diagnostics.append(ParseDiagnostic(1, 1, "empty program: missing 'modes N'", ""))
    if diagnostics:
        return diagnostics
    return CircuitProgram(modes, tuple(instructions))


def _parse_modes(line: _Line, tokens):
    """The mode count declared by a leading 'modes N' line, or None."""
    if line.keyword != "modes":
        line.complain(line.key_col, "the first instruction must declare 'modes N'", line.keyword)
        return None
    if not tokens:
        line.complain(1, "missing mode count")
        return None
    text, col = tokens[0]
    try:
        value = int(text)
    except ValueError:
        line.complain(col, "mode count must be an integer", text)
        return None
    if value < 1 or len(tokens) != 1:
        line.reject("usage: modes N with N >= 1")
        return None
    return value


def _numbers(line: _Line, tokens):
    """One finite float per token; no op takes inf or nan."""
    values = []
    for text, col in tokens:
        try:
            values.append(float(text))
        except ValueError:
            line.complain(col, "expected a numeric literal", text)
            return None
        if not math.isfinite(values[-1]):
            line.complain(col, f"{text} is not a finite number", text)
            return None
    return values


def _mode_args(line: _Line, tokens):
    """Distinct in-range mode indices, one per token."""
    out = []
    for text, col in tokens:
        try:
            value = int(text)
        except ValueError:
            line.complain(col, "mode index must be an integer", text)
            return None
        if value < 0 or value >= line.modes:
            line.complain(col, f"mode {value} out of range for {line.modes} modes", text)
            return None
        out.append(value)
    if len(set(out)) != len(out):
        line.complain(line.key_col, "mode indices must be distinct")
        return None
    return tuple(out)


def _fixed_arity(n_modes: int, n_numbers: int):
    """Parser for exactly n_modes distinct modes followed by n_numbers finite numbers (the angles of bs and ps)."""

    def parse(line: _Line, tokens):
        if len(tokens) != n_modes + n_numbers:
            return line.reject()
        modes = _mode_args(line, tokens[:n_modes])
        numbers = _numbers(line, tokens[n_modes:])
        if modes is None or numbers is None:
            return None
        return (*modes, *numbers)

    return parse


def _parse_perm(line: _Line, tokens):
    if len(tokens) != line.modes:
        return line.reject(f"perm needs exactly {line.modes} indices")
    return _mode_args(line, tokens)


def _parse_cnot(line: _Line, tokens):
    if len(tokens) not in (4, 6, 8):
        return line.reject()
    quads = _mode_args(line, tokens[:4])
    if quads is None:
        return None
    extras = _numbers(line, tokens[4:])
    if extras is None:
        return None
    eta = complex(extras[0], extras[1]) if len(extras) >= 2 else 1 + 0j
    etap = complex(extras[2], extras[3]) if len(extras) >= 4 else 1 + 0j
    problem = _vacuum_port_problem(eta, etap)
    if problem is not None:
        return line.reject(problem)
    return (*quads, eta, etap)


def _parse_project(line: _Line, tokens):
    if not tokens or len(tokens) % 3 != 0:
        return line.reject()
    entries = []
    seen = set()
    for k in range(0, len(tokens), 3):
        mode = _mode_args(line, tokens[k : k + 1])
        amps = _numbers(line, tokens[k + 1 : k + 3])
        if mode is None or amps is None:
            return None
        if mode[0] in seen:
            line.complain(tokens[k][1], f"mode {mode[0]} listed twice", tokens[k][0])
            return None
        seen.add(mode[0])
        entries.append((mode[0], complex(amps[0], amps[1])))
    total = _squared_norm(a for _, a in entries)
    # Looser than NORM_ATOL, for amplitudes written to a few digits: _project renormalizes them.
    if not abs(total - 1.0) <= 1e-6:
        return line.reject(f"projection amplitudes have squared norm {total:.6g}, expected 1")
    return tuple(entries)


def _parse_vac(line: _Line, tokens):
    if not tokens:
        return line.reject()
    return _mode_args(line, tokens)


def _unitary(build):
    """Executor applying the mode unitary build(modes, *args); no branch weight."""
    return lambda state, *args: (apply_unitary(state, build(state.modes, *args)), None)


def _cnot(gate):
    def execute(state, c0, c1, t0, t1, eta, etap):
        spec = CnotSpec(DualRailQubit(c0, c1), DualRailQubit(t0, t1), eta=eta, eta_prime=etap)
        return gate(state, spec), None

    return execute


def _zflip(state, m0, m1):
    return logical_phase_flip(state, DualRailQubit(m0, m1)), None


def _project(state, *entries):
    modes = _indices([mode for mode, _ in entries], "modes", state.modes, distinct=True)  # a hand-built line's too
    support = tuple(mode for mode, (_, amp) in zip(modes, entries) if amp)
    pick = _picker(support)
    for occ in state.terms:
        if sum(pick(occ)) > 1:
            raise IllegalPatternError(f"term {occ} holds more than one photon on the detected modes {support}")
    phi = np.zeros(state.modes, dtype=complex)
    phi[list(modes)] = [amp for _, amp in entries]
    phi /= math.sqrt(_squared_norm(phi))
    return apply_projector(state, ProjectorSpec(phi))


def _cnot_fields(c0, c1, t0, t1, eta, etap):
    return (c0, c1, t0, t1, eta.real, eta.imag, etap.real, etap.imag)


def _project_fields(*entries):
    return tuple(x for mode, amp in entries for x in (mode, amp.real, amp.imag))


@dataclass(frozen=True)
class _Op:
    """Everything the language knows about one op.

    ``parse(line, tokens)`` returns the argument tuple or None after
    complaining; ``execute(state, *args)`` returns the new state and the
    branch weight (None for deterministic ops); ``fields(*args)`` gives
    the canonical tokens after the op name. ``log`` names a weighted step
    in the run log.
    """

    usage: str
    parse: Callable
    execute: Callable
    fields: Callable = lambda *args: args
    log: str = ""


_CNOT_USAGE = "c0 c1 t0 t1 [eta_re eta_im [etap_re etap_im]]"

_OPS = {
    "bs": _Op("i j theta phi", _fixed_arity(2, 2), _unitary(beamsplitter)),
    "ps": _Op("i phi", _fixed_arity(1, 1), _unitary(phase_shifter)),
    "perm": _Op("p0 p1 ... p{N-1}", _parse_perm, _unitary(lambda m, *perm: mode_permutation(m, perm))),
    "had": _Op("i j", _fixed_arity(2, 0), _unitary(hadamard_pair)),
    "cnot": _Op(_CNOT_USAGE, _parse_cnot, _cnot(apply_cnot), _cnot_fields),
    "rcnot": _Op(_CNOT_USAGE, _parse_cnot, _cnot(apply_reversed_cnot), _cnot_fields),
    "zflip": _Op("m0 m1", _fixed_arity(2, 0), _zflip),
    "project": _Op("i0 a_re a_im [i1 b_re b_im ...]", _parse_project, _project, _project_fields, "project"),
    "vac": _Op("i0 [i1 ...]", _parse_vac, lambda state, *modes: postselect_vacuum(state, modes), log="vacuum check"),
}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def format_circuit(program: CircuitProgram) -> str:
    """Canonical text form; parsing it reproduces the program exactly."""
    lines = [f"modes {program.modes}"]
    for ins in program.instructions:
        parts = [ins.op, *_OPS[ins.op].fields(*ins.args)]
        lines.append(" ".join(_fmt(p) for p in parts))
    return "\n".join(lines) + "\n"


def run_circuit(program: CircuitProgram, state: FockState):
    """Execute a program on an input state.

    Returns (final state, cumulative success probability, branch log).
    Unitary instructions leave the probability untouched; each projection
    multiplies it by the branch weight (1 where rounding passes 1) and appends
    a log entry. A project line whose detected modes hold more than one photon
    in a term raises CircuitError. The input must be normalized, or that
    probability would mean nothing.
    """
    if state.modes != program.modes:
        raise ValueError(f"input has {state.modes} modes, program declares {program.modes}")
    if not is_normalized(state):
        raise ValueError(f"input state must be normalized (norm={norm(state):.6g})")
    probability = 1.0
    log: list[str] = []
    for index, ins in enumerate(program.instructions):
        op = _OPS.get(ins.op)
        if op is None:
            raise CircuitError(f"unsupported instruction {ins.op!r}", index)
        try:
            state, weight = op.execute(state, *ins.args)
        except IllegalPatternError as exc:
            raise CircuitError(f"instruction {index} (line {ins.line}, {ins.op}): {exc}", index) from exc
        if weight is not None:
            weight = min(weight, 1.0)
            log.append(f"instruction {index} (line {ins.line}): {op.log} weight {weight:.17g}")
            probability *= weight
    return state, probability, log
