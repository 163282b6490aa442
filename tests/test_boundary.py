"""Every library entry point that takes an amplitude from outside either accepts it or raises ValueError.

A state built from outside amplitudes stores each as a Python complex, whatever number type it was given as.
Every CLI run on a drawn input exits 0 with a report or 2 with one error line, which names what was wrong:
the circuit line of a non-finite number, the pair of a bad teleportation qubit.
"""
import cmath
import contextlib
import io
import json
import math
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockjoin.circuit import CircuitError, CircuitProgram, Instruction, run_circuit
from fockjoin.cli import cli_dispatch
from fockjoin.fock import FockState, add, basis_state, is_normalized, make_state, norm, postselect_vacuum, scale, state_from_dict, tensor
from fockjoin.gates import CnotSpec, DualRailQubit, apply_cnot, apply_reversed_cnot, logical_phase_flip
from fockjoin.nogo import end_to_end_projection_check, symmetrized_mode_matrix, unitary_from_angles
from fockjoin.optics import ModeUnitary, ProjectorSpec, apply_projector, apply_unitary, beamsplitter, compose, identity
from fockjoin.permanent import permanent
from fockjoin.schemes import EncodingViolationError, drop_control_photon, join_deterministic, joined_ququart, two_qubit_input
from fockjoin.tpes import derive_correction_table, expand_five_photon, teleport_join

_EDGES = [math.inf, -math.inf, math.nan, 1e154, 1e200, 1e308, -1e308, complex(1.5e308, 1.5e308), complex(1e308, 1e308), -0.0]

_AMPLITUDES = st.one_of(
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
    st.booleans(),
    st.fractions(),
    st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
    st.integers(-(10**400), 10**400),
    st.sampled_from(_EDGES),
    st.floats(),
    st.complex_numbers(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.complex_numbers().map(np.complex128),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)

_UNIT = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8j)])
_CONTROL, _TARGET = DualRailQubit(0, 1), DualRailQubit(2, 3)
_DETECTION = ProjectorSpec([0, 0, 1, 0])


def _state_builders(x):
    """One call per entry point that builds a state from x as one amplitude."""
    yield lambda: FockState(2, {(1, 0): x})
    yield lambda: make_state(2, [((1, 0), x)])
    yield lambda: make_state(2, [((1, 0), x), ((1, 0), x)])  # merged: x + x
    yield lambda: scale(_UNIT, x)
    yield lambda: two_qubit_input([x, 0.6, 0, 0.8])
    yield lambda: joined_ququart([0.6, 0, x, 0.8])
    yield lambda: state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": x, "im": 0.0}]})
    yield lambda: state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": 0.0, "im": x}]})
    yield lambda: add(FockState(1, {(1,): x}), FockState(1, {(1,): x}))
    yield lambda: tensor(FockState(1, {(1,): x}), FockState(1, {(1,): x}))
    yield lambda: postselect_vacuum(FockState(2, {(1, 0): x, (0, 1): 0.6}), [1])[0]


def _other_entry_points(x):
    """One call per other entry point, each with x as one amplitude."""
    yield lambda: teleport_join((x, 0), (1, 0), outcome=3).output
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta=x)
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta_prime=x)
    yield lambda: end_to_end_projection_check([x, 0.6, 0, 0.8], identity(4), _DETECTION)
    yield lambda: drop_control_photon(FockState(6, {(1, 0, 0, 0, 1, 0): x}))
    yield lambda: drop_control_photon(FockState(4, {(1, 0, 0, 0): x}))
    # Rails past the register.
    yield lambda: apply_cnot(FockState(4, {(1, 0, 1, 0): x}), CnotSpec(_CONTROL, DualRailQubit(8, 9)))
    yield lambda: apply_reversed_cnot(FockState(4, {(1, 0, 1, 0): x}), CnotSpec(DualRailQubit(8, 9), _TARGET))
    yield lambda: logical_phase_flip(FockState(4, {(1, 0, 1, 0): x}), DualRailQubit(2, 4))
    # A teleportation resource that is x, or a pair with x appended.
    for resource in (x, ("Phi-", "phi-", x)):
        yield lambda r=resource: teleport_join((0.6, 0.8j), (1, 0), outcome=3, resource=r).output
        yield lambda r=resource: expand_five_photon(0.6, 0.8j, 1, 0, resource=r)
        yield lambda r=resource: derive_correction_table(r)


@given(_AMPLITUDES)
@example("1")
@example("Phi-")
@example(b"1")
@example(None)
@example(10**400)
@example(math.nan)
@example(complex(1.5e308, 1.5e308))
@example(np.int64(-(2**63)))  # numpy's abs wraps it to a negative int
def test_entry_points_accept_an_amplitude_or_raise_value_error(x):
    builders = list(_state_builders(x))
    for call in [*builders, *_other_entry_points(x)]:
        try:
            result = call()
        except ValueError:
            continue
        # No string is an amplitude, though complex() would parse one.
        assert not isinstance(x, (str, bytes)), f"accepted {x!r}"
        if isinstance(result, FockState):
            assert all(cmath.isfinite(complex(a)) for a in result.terms.values())
        if call in builders:  # not a float32, numpy int, bool or Fraction carried into the arithmetic
            assert all(type(a) is complex for a in result.terms.values()), result


def test_float32_input_is_checked_in_double_precision():
    # 0.6f**2 + 0.8f**2 is 1 in single precision and 1 + 4.8e-8 in double.
    state = FockState(4, {(1, 0, 1, 0): np.float32(0.6), (0, 1, 0, 1): np.float32(0.8)})
    with pytest.raises(EncodingViolationError, match="^input state must be normalized$"):
        join_deterministic(state)


def test_numpy_int_amplitudes_do_not_wrap():
    assert norm(FockState(1, {(1,): np.int64(-(2**63))})) == 2.0**63
    s = FockState(1, {(1,): np.int64(2**40)})
    product = tensor(s, s)
    assert dict(product.terms) == {(1, 1): 2.0**80} and type(product.terms[(1, 1)]) is complex


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: make_state(1, [((1,), 1e308)] * 2), r"\(inf\+0j\) of occupation \(1,\) is not finite"),
        (lambda: make_state(1, [((1,), complex(0.65e308, 0.65e308))] * 2), r"\(1.3e\+308\+1.3e\+308j\) of occupation \(1,\) is too large to square"),
        (lambda: scale(FockState(1, {(1,): 1e308}), 10), r"\(inf\+0j\) of occupation \(1,\) is not finite"),
        (lambda: add(*[FockState(1, {(1,): 1e308})] * 2), r"\(inf\+0j\) of occupation \(1,\) is not finite"),
        (lambda: tensor(*[FockState(1, {(1,): 1e200})] * 2), r"\(inf\+0j\) of occupation \(1, 1\) is not finite"),
        (lambda: postselect_vacuum(FockState(2, {(1, 0): 1e200}), [1]), r"\(1e\+200\+0j\) of occupation \(1, 0\) is too large to square"),
    ],
    ids=["merged-sum-inf", "merged-sum-abs-overflow", "scaled-inf", "added-inf", "tensor-inf", "vacuum-check-total"],
)
def test_arithmetic_past_the_float_range_raises_value_error(call, problem):
    with pytest.raises(ValueError, match=f"^amplitude {problem}$"):
        call()


def test_control_photon_of_a_register_without_the_carrier_modes_raises_value_error():
    with pytest.raises(ValueError, match=r"^positions \[4, 5\] out of range for 4 modes$"):
        drop_control_photon(two_qubit_input([0.6, 0, 0, 0.8]))


def _bits(amp) -> bytes:
    return struct.pack("<dd", amp.real, amp.imag)


def test_array_pass_amplitudes_past_the_float_range_raise_value_error_without_a_numpy_warning():
    # apply_unitary outputs hold np.complex128, whose products numpy would overflow with a RuntimeWarning.
    big = apply_unitary(FockState(2, {(1, 0): 1e300}), beamsplitter(2, 0, 1, 0.3, 0.1))
    assert {type(a) for a in big.terms.values()} == {np.complex128}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r" is not finite$"):
            scale(big, 1e10)
        with pytest.raises(ValueError, match=r" is not finite$"):
            tensor(big, big)
    # A finite result keeps the bits of numpy's product.
    s = apply_unitary(make_state(2, [((2, 0), 0.6), ((1, 1), 0.8j)]), beamsplitter(2, 0, 1, 0.3, 0.1))
    factor = complex(0.7, -1.3)
    scaled = scale(s, factor)
    assert [_bits(scaled.terms[occ]) for occ in s.terms] == [_bits(amp * factor) for amp in s.terms.values()]
    product = tensor(scale(s, 1e149), scale(s, 1e149))  # past the guard's bound, still finite
    assert [_bits(a) for a in product.terms.values()] == [
        _bits(0j + complex(a) * complex(b)) for a in scale(s, 1e149).terms.values() for b in scale(s, 1e149).terms.values()
    ]


# --- the CLI: every run exits 0 or 2 ----------------------------------------------------------------------------------

_EXTREME_NUMBERS = [1e400, -1e400, 1e308, -1e308, 1e200, 1e154, 5e-324, 1e-13, 2e-12, 10**400, -(10**30)]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
_JSON_VALUES = st.one_of(st.sampled_from(_EXTREME_NUMBERS), st.floats(), _JUNK)
_CODES = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@st.composite
def _state_objects(draw):
    """A normalized two-qubit or ququart state object, then at most two of: an extreme, non-finite or wrong-type value,
    a wrong length, a duplicate term, a dropped key or a nesting."""
    raw = draw(st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=8, max_size=8))
    amps = [complex(re, im) for re, im in zip(raw[::2], raw[1::2])]
    total = math.sqrt(sum(abs(a) ** 2 for a in amps)) or 1.0
    terms = [{"occ": list(occ), "re": a.real / total, "im": a.imag / total} for occ, a in zip(draw(st.sampled_from(_CODES)), amps)]
    obj = state = {"modes": 4, "terms": terms}
    for _ in range(draw(st.integers(0, 2))):
        term = draw(st.sampled_from(terms))
        kind = draw(st.sampled_from(["value", "occ", "modes", "duplicate", "drop", "nest", "terms"]))
        if kind == "value":
            term[draw(st.sampled_from(["re", "im"]))] = draw(_JSON_VALUES)
        elif kind == "occ":
            term["occ"] = draw(st.one_of(st.lists(st.sampled_from([0, 1, 2, -1, 10**400, 1.5, True]), max_size=6), _JUNK))
        elif kind == "modes":
            state["modes"] = draw(st.one_of(st.sampled_from([0, 3, 5, 6, -4, 4.0, 4.5, 10**400]), _JUNK))
        elif kind == "duplicate":
            terms.append(dict(term))
        elif kind == "drop":
            term.pop(draw(st.sampled_from(sorted(term))))
        elif kind == "nest":
            obj = draw(st.sampled_from([[obj], {"state": obj}, {"modes": 4, "terms": [terms]}]))
        else:
            state["terms"] = draw(_JSON_VALUES)
    return obj


_LINES = [
    "bs 0 1 0.3 0.1", "bs 1 2 0.7853981633974483 0", "ps 2 1.5", "perm 1 0 3 2", "had 2 3",
    "cnot 0 1 2 3", "cnot 0 1 2 3 0.6 0.8", "rcnot 2 3 0 1 1 0 0 1", "zflip 2 3",
    "project 1 0.7071067811865476 0 2 0.7071067811865476 0", "project 0 1 0", "vac 1", "vac 0 3",
    "bs 0 1 1e308 0", "cnot 0 1 2 3 1.5e308 1.5e308", "project 0 1e200 0",
]
_TOKENS = [
    "1e400", "-1e400", "1e308", "-1e308", "1e200", "1e154", "nan", "inf", "-inf", "-0", "5e-324", "1e-13", "0.5", "1j",
    "0x1", "1_0", "é", "#", "99", "-1", "0", "1", "2", "3", "4", "modes", "project", "vac", "bs", "cnot",
]


@st.composite
def _circuit_texts(draw):
    """Lines of the _OPS grammar on 4 modes, with up to three tokens replaced, inserted or deleted."""
    program = [["modes", "4"], *(line.split() for line in draw(st.lists(st.sampled_from(_LINES), min_size=1, max_size=5)))]
    for _ in range(draw(st.integers(0, 3))):
        tokens = draw(st.sampled_from(program))
        at = draw(st.integers(0, len(tokens)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or at == len(tokens):
            tokens.insert(at, draw(st.sampled_from(_TOKENS)))
        elif kind == "replace":
            tokens[at] = draw(st.sampled_from(_TOKENS))
        else:
            del tokens[at]
    return "\n".join(" ".join(tokens) for tokens in program) + "\n"


_QUBIT_FLAGS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.6", "0.8j", "-0.96j", "0.7071067811865476", "1e400", "-1e400", "1e308", "1e200", "1e154",
                     "5e-324", "nan", "inf", "-infj", "1e308j", "(1+1j)", "1e-13", "abc", ""]),
    st.floats().map(repr),
    st.complex_numbers().map(str),
)
# A normalized pair, as the two flags of one qubit, or two drawn flags.
_QUBIT_PAIRS = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda t: [repr(math.cos(t)), f"{math.sin(t)!r}j"]),
    st.lists(_QUBIT_FLAGS, min_size=2, max_size=2),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def _dispatch(argv, circuit=None):
    """cli_dispatch(argv) in process: (its report and output state, "") on exit 0, or (None, stderr) after the one
    error line it must print (or, from run, parse diagnostics naming the circuit file)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "" and err.endswith("\n"), (argv, out, err)
        lines = err.splitlines()
        if not (circuit is not None and all(line.startswith(f"{circuit}:") for line in lines)):
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        return None, err
    assert err == "", (argv, err)
    report = json.loads(out)
    return (report, state_from_dict(report["output"])), err


def _assert_a_measured_branch(report, output):
    # Feed-forward clamps the sum of both projective branch weights at 1, so no rounding reads above it.
    assert 0.0 <= report["success_probability"] <= 1.0 and 0.0 <= report["fidelity"] <= 1.0, report
    assert is_normalized(output) or (output.is_zero and report["success_probability"] == 0.0), report


@settings(deadline=None)
@given(
    _state_objects(),
    st.sampled_from(["join", "split"]),
    st.sampled_from(["projective", "deterministic"]),
    st.sampled_from(["plus", "minus", "sample"]),
    st.sampled_from(["--feed-forward", "--no-feed-forward"]),
    st.sampled_from([[], ["--seed", "7"], ["--seed=-1"], ["--seed", str(2**70)]]),
    st.sampled_from([0, 1, 100_000]),
)
@example(
    {"modes": 4, "terms": [{"occ": [1, 0, 0, 0], "re": 0.6, "im": 0.0}, {"occ": [0, 0, 1, 0], "re": 0.0, "im": 0.8}]},
    "split", "projective", "sample", "--no-feed-forward", ["--seed=-1"], 0,
)
def test_join_and_split_runs_exit_zero_or_two(workdir, obj, verb, variant, branch, feed_forward, seed, depth):
    path = workdir / "state.json"
    path.write_text("[" * depth + json.dumps(obj) + "]" * depth)
    result, err = _dispatch([verb, "--input", str(path), "--variant", variant, "--branch", branch, feed_forward, *seed])
    if result is not None:
        _assert_a_measured_branch(*result)
    # A sampling run reads --seed once its state has loaded, before the scheme checks the encoding.
    if seed == ["--seed=-1"] and variant == "projective" and branch == "sample":
        assert result is None
        if depth == 0 and _loads(obj):
            assert err == "error: --seed must be a non-negative integer, got -1\n", (obj, err)


def _loads(obj):
    """Whether the state file of obj, written by json.dumps, loads."""
    try:
        state_from_dict(json.loads(json.dumps(obj)))
    except ValueError:
        return False
    return True


def _lines_with_a_non_finite_number(text):
    """The numbers of the lines with a token that reads as an infinite or NaN float before any # comment."""
    for number, line in enumerate(text.splitlines(), start=1):
        for token in line.split():
            if token.startswith("#"):
                break
            with contextlib.suppress(ValueError):
                if not math.isfinite(float(token)):
                    yield number
                    break


@settings(deadline=None)
@given(_circuit_texts(), st.sampled_from([[0.6, 0, 0, 0.8j], [0.5, 0.5j, -0.5, 0.5]]), st.sampled_from(_CODES))
@example("modes 4\nbs 0 1 nan 0\n", [0.6, 0, 0, 0.8j], _CODES[0])
@example("modes 4\nps 2 1.5\nps 2 -1e400\n", [0.6, 0, 0, 0.8j], _CODES[0])
def test_run_of_mutated_circuit_text_exits_zero_or_two(workdir, text, amps, code):
    circuit, state = workdir / "c.pc", workdir / "s.json"
    circuit.write_text(text)
    terms = [{"occ": list(occ), "re": complex(a).real, "im": complex(a).imag} for occ, a in zip(code, amps) if a]
    state.write_text(json.dumps({"modes": 4, "terms": terms}))
    result, err = _dispatch(["run", "--circuit", str(circuit), "--input", str(state)], circuit=circuit)
    # No op takes inf or nan: the parser reports each line holding one, as <circuit>:<line>:<col>:, before anything runs.
    for number in _lines_with_a_non_finite_number(text):
        assert re.search(rf"^{re.escape(str(circuit))}:{number}:\d+: ", err, re.MULTILINE), (text, err)
    if result is not None:
        report, _ = result
        # A project line detects on modes holding at most one photon per term, so its weight is a probability.
        assert 0.0 <= report["probability"] <= 1.0, report


_PAIRS = ("alpha/beta", "gamma/delta")


def _pair_fault(texts):
    """How one qubit's two flags fail: "literal" if one is no complex literal, "norm" if the pair's norm is off 1 by more
    than 1e-6 or not finite, None if it is within 1e-12 of 1, and "?" in between, too near the tolerance to tell."""
    try:
        a, b = (complex(text) for text in texts)
    except ValueError:
        return "literal"
    gap = abs(math.hypot(a.real, a.imag, b.real, b.imag) - 1.0)
    return None if gap <= 1e-12 else "norm" if not gap <= 1e-6 else "?"


@settings(deadline=None)
@given(
    _QUBIT_PAIRS,
    _QUBIT_PAIRS,
    st.one_of(st.just([]), st.just(["--sample"]), st.sampled_from([-1, 0, 3, 15, 16, 10**30]).map(lambda k: [f"--outcome={k}"])),
    st.sampled_from([[], ["--seed", "3"], ["--seed=-1"], ["--seed", str(2**70)]]),
)
@example(["nan", "0"], ["1", "0"], [], [])
@example(["1", "0"], ["0.6", "nan"], ["--outcome=3"], [])
@example(["1", "0"], ["abc", "0"], ["--outcome=16"], [])
def test_teleport_join_with_extreme_flags_exits_zero_or_two(alpha_beta, gamma_delta, outcome, seed):
    flags = [f"--{name}={value}" for name, value in zip(("alpha", "beta", "gamma", "delta"), alpha_beta + gamma_delta)]
    result, err = _dispatch(["teleport-join", *flags, *outcome, *seed])
    faults = [_pair_fault(pair) for pair in (alpha_beta, gamma_delta)]
    forced = outcome[0].partition("=")[2] if outcome and outcome != ["--sample"] else None
    # The flags are read first, then --seed if the run samples, then the outcome, then the pairs' norms, alpha/beta first.
    blamed = next((name for name, fault in zip(_PAIRS, faults) if fault == "literal"), None)
    if blamed is None and forced is None and seed == ["--seed=-1"]:
        assert err == "error: --seed must be a non-negative integer, got -1\n", (flags, err)
    elif blamed is None and (forced is None or 0 <= int(forced) <= 15) and "?" not in faults:
        blamed = next((name for name, fault in zip(_PAIRS, faults) if fault == "norm"), None)
    if blamed is not None:
        assert err.startswith(f"error: {blamed} amplitudes must be "), (flags, err)
    elif faults == [None, None]:
        assert not any(name in err for name in _PAIRS), (flags, err)
    if result is not None:
        _assert_a_measured_branch(*result)



@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ModeUnitary(2, np.eye(3)), ValueError, "matrix shape (3, 3) does not match dim 2"),
        (lambda: compose(), ValueError, "compose needs at least one element"),
        (lambda: compose(identity(2), identity(3)), ValueError, "all elements must share the same mode count"),
        (lambda: apply_projector(basis_state(2, (1, 0)), ProjectorSpec([1, 0, 0])), ValueError, "projector length 3 does not match state modes 2"),
        (lambda: add(basis_state(2, (1, 0)), basis_state(3, (1, 0, 0))), ValueError, "mode counts differ: 2 vs 3"),
        (lambda: symmetrized_mode_matrix([1, 0, 0]), ValueError, "expected four detection components"),
        (lambda: unitary_from_angles(np.zeros(3), 2), ValueError, "expected 4 parameters, got 3"),
        (lambda: end_to_end_projection_check([1, 0, 0], identity(4), ProjectorSpec([1, 0, 0, 0])), ValueError, "expected four input amplitudes"),
        (lambda: permanent(np.ones((2, 3))), ValueError, "matrix must be square"),
        (lambda: run_circuit(CircuitProgram(2, (Instruction("foo", ()),)), basis_state(2, (1, 0))), CircuitError, "unsupported instruction 'foo'"),
    ],
    ids=["unitary-shape", "compose-empty", "compose-mixed", "projector-length", "add-mixed", "symmetrized-components",
         "angle-count", "projection-check-amplitudes", "permanent-non-square", "circuit-unknown-op"],
)
def test_shape_and_count_mismatches_raise_their_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
