import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockjoin.circuit import CircuitError, CircuitProgram, Instruction, format_circuit, parse_circuit, run_circuit
from fockjoin.fock import discard_empty_modes, fidelity, make_state, norm, normalize, tensor, basis_state
from fockjoin.schemes import (
    joined_ququart,
    join_projective,
    split_projective,
    two_qubit_input,
    unfold_target,
)

ROOT_HALF = 1 / math.sqrt(2)


def random_alphas(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def test_parse_minimal_program():
    program = parse_circuit("modes 2\nbs 0 1 0.7853981633974483 0\n")
    assert isinstance(program, CircuitProgram)
    assert program.modes == 2
    assert len(program.instructions) == 1
    assert program.instructions[0].op == "bs"


def test_parse_collects_all_diagnostics():
    bad = parse_circuit("modes 2\nbs 0 5 0 0\nfoo 1\nbs 0 1\n")
    assert isinstance(bad, list)
    assert len(bad) == 3
    assert bad[0].line == 2 and "out of range" in bad[0].message and bad[0].token == "5"
    assert bad[1].line == 3 and "unknown instruction" in bad[1].message
    assert bad[2].line == 4


def test_parse_requires_modes_first():
    bad = parse_circuit("bs 0 1 0 0\n")
    assert isinstance(bad, list)
    assert "modes" in bad[0].message


def test_parse_non_numeric_literal():
    bad = parse_circuit("modes 2\nbs 0 1 half 0\n")
    assert isinstance(bad, list)
    assert bad[0].token == "half"


def test_parse_rejects_non_finite_angles_with_their_token():
    text = "modes 3\nps 0 inf\nbs 0 1 nan 0\nps 1 1e400\nbs 2 1 0.3 -inf\nbs 0 2 NaN 0.1\nps 2 1e308\n"
    assert _diagnostic_tuples(parse_circuit(text)) == [
        (2, 6, "inf is not a finite number", "inf"),
        (3, 8, "nan is not a finite number", "nan"),
        (4, 6, "1e400 is not a finite number", "1e400"),
        (5, 12, "-inf is not a finite number", "-inf"),
        (6, 8, "NaN is not a finite number", "NaN"),
    ]


def test_parse_comments_and_blank_lines():
    program = parse_circuit("# header\n\nmodes 2\nhad 0 1  # inline\n")
    assert isinstance(program, CircuitProgram)
    assert len(program.instructions) == 1


def test_format_parse_fixed_point():
    text = """modes 6
bs 0 1 0.7853981633974483 0.25
ps 2 1.5
perm 5 4 3 2 1 0
had 0 1
cnot 4 5 0 1
rcnot 4 5 2 3 0.5 0.5 1 0
zflip 0 1
project 4 0.7071067811865476 0 5 0.7071067811865476 0
vac 1 3
"""
    program = parse_circuit(text)
    assert isinstance(program, CircuitProgram)
    printed = format_circuit(program)
    assert parse_circuit(printed) == program
    assert format_circuit(parse_circuit(printed)) == printed


def test_run_empty_program_is_identity():
    program = parse_circuit("modes 2\n")
    state = make_state(2, [((1, 0), 1.0)])
    out, prob, log = run_circuit(program, state)
    assert out.terms == state.terms
    assert prob == 1.0
    assert log == []


def test_run_two_photon_interference_script():
    program = parse_circuit("modes 2\nbs 0 1 0.7853981633974483 0\n")
    out, prob, _ = run_circuit(program, make_state(2, [((1, 1), 1.0)]))
    assert prob == 1.0
    assert out.terms[(0, 2)] == pytest.approx(ROOT_HALF)
    assert out.terms[(2, 0)] == pytest.approx(-ROOT_HALF)


def test_run_mode_count_mismatch():
    program = parse_circuit("modes 3\n")
    with pytest.raises(ValueError):
        run_circuit(program, basis_state(2, (1, 0)))


def test_joining_script_matches_scheme():
    script = """modes 6
cnot 4 5 0 1
cnot 4 5 2 3
project 4 0.7071067811865476 0 5 0.7071067811865476 0
"""
    program = parse_circuit(script)
    rng = np.random.default_rng(90)
    for _ in range(5):
        alphas = random_alphas(rng)
        s = two_qubit_input(alphas)
        out6, prob, log = run_circuit(program, unfold_target(s))
        report = join_projective(s, branch="plus")
        assert prob == pytest.approx(report.success_probability, abs=1e-12)
        out4 = discard_empty_modes(out6, (4, 5))
        assert fidelity(out4, report.output) >= 1 - 1e-12
        assert len(log) == 1


def test_splitting_script_matches_scheme():
    script = """modes 6
cnot 0 1 4 5
cnot 2 3 4 5
had 0 1
had 2 3
vac 1 3
"""
    program = parse_circuit(script)
    rng = np.random.default_rng(91)
    for _ in range(5):
        q = joined_ququart(random_alphas(rng))
        state = tensor(q, basis_state(2, (1, 0)))
        out6, prob, _ = run_circuit(program, state)
        report = split_projective(q, branch="plus")
        assert prob == pytest.approx(0.5, abs=1e-12)
        out4 = discard_empty_modes(out6, (1, 3))
        assert fidelity(out4, report.output) >= 1 - 1e-12


def test_unitary_only_program_preserves_norm():
    script = """modes 4
bs 0 1 0.3 0.1
bs 2 3 1.1 -0.4
ps 1 2.2
perm 1 2 3 0
had 0 3
"""
    program = parse_circuit(script)
    rng = np.random.default_rng(92)
    terms = [
        (tuple(int(rng.integers(0, 2)) for _ in range(4)), complex(rng.standard_normal(), rng.standard_normal()))
        for _ in range(5)
    ]
    state = normalize(make_state(4, terms))
    out, prob, _ = run_circuit(program, state)
    assert prob == 1.0
    assert abs(norm(out) - 1.0) <= 1e-10


def test_gate_errors_carry_instruction_index():
    program = parse_circuit("modes 4\nhad 0 1\ncnot 0 1 2 3\n")
    bad_input = make_state(4, [((1, 1, 1, 0), 1.0)])
    with pytest.raises(CircuitError) as err:
        run_circuit(program, bad_input)
    assert err.value.instruction_index == 1
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "text, occ",
    [
        ("modes 2\nproject 0 1 0\n", (2, 0)),
        ("modes 3\nproject 0 0.6 0 1 0.8 0\n", (1, 1, 0)),
        ("modes 3\nbs 0 1 0.7853981633974483 0\nproject 0 1 0\n", (2, 0, 0)),
    ],
    ids=["two-on-one-mode", "one-on-each-of-two", "after-interference"],
)
def test_project_on_more_than_one_photon_raises_circuit_error(text, occ):
    state = basis_state(len(occ), occ)
    with pytest.raises(CircuitError, match=r"\(line \d, project\): term \(.*\) holds more than one photon on the detected modes"):
        run_circuit(parse_circuit(text), state)


def test_project_counts_only_its_support():
    # Mode 1 holds two photons, but the line detects on mode 0 alone: its zero-amplitude entry is no support.
    program = parse_circuit("modes 2\nproject 0 1 0 1 0 0\n")
    final, probability, log = run_circuit(program, basis_state(2, (1, 2)))
    assert final.terms == {(0, 2): 1.0} and probability == 1.0
    assert log == ["instruction 0 (line 2): project weight 1"]


@pytest.mark.parametrize(
    "entries, message",
    [
        (((-1, 1 + 0j),), "modes [-1] out of range for 3 modes"),
        (((3, 1 + 0j),), "modes [3] out of range for 3 modes"),
        (((1.0, 1 + 0j),), "modes [1.0] must hold integers"),
        (((True, 1 + 0j),), "modes [True] must hold integers"),
        (((2, 0.6 + 0j), (2, 0.8 + 0j)), "modes [2, 2] has a repeated entry"),
    ],
    ids=["negative", "past-the-end", "fraction", "bool", "repeated"],
)
def test_hand_built_project_line_reads_its_modes_by_the_index_rule(entries, message):
    # parse_circuit never builds these lines; a hand-built program gets the same ValueError as every other op.
    program = CircuitProgram(3, (Instruction("project", entries),))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_circuit(program, basis_state(3, (0, 0, 1)))


def test_project_weight_rounded_past_one_reads_one():
    # |<phi|phi>|^2 rounds to 1.0000000000000004 for this phi; a probability cannot pass 1.
    a, b = 0.9868491083539974, 0.1616441689047899
    program = parse_circuit(f"modes 2\nproject 0 {a!r} 0 1 {b!r} 0\n")
    _, probability, log = run_circuit(program, make_state(2, [((1, 0), a), ((0, 1), b)]))
    assert probability == 1.0
    assert log == ["instruction 0 (line 2): project weight 1"]


# Every parse branch, one malformed line each: (line, column, message, token).
MALFORMED = """modes 4
bs 0 1 0.5
ps 0
perm 0 1 2
had 0
cnot 0 1 2
rcnot 0 1 2 3 1
zflip 0 1 2
project 0 1
vac
bs 0 7 0 0
had 1 1
ps x 0
bs 0 1 half 0
bs 0 9 a 0
perm 0 1 1 2
project 0 1 0 0 0 0
project 0 0.5 0
cnot 0 1 2 3 2 0
foo 1
cnot 0 1 2 3 1.5e308 1.5e308
project 0 1e200 0
project 0 nan 0 1 0.6 0
cnot 0 1 2 3 inf 0
"""

MALFORMED_DIAGNOSTICS = [
    (2, 1, "usage: bs i j theta phi", "bs"),
    (3, 1, "usage: ps i phi", "ps"),
    (4, 1, "perm needs exactly 4 indices", "perm"),
    (5, 1, "usage: had i j", "had"),
    (6, 1, "usage: cnot c0 c1 t0 t1 [eta_re eta_im [etap_re etap_im]]", "cnot"),
    (7, 1, "usage: rcnot c0 c1 t0 t1 [eta_re eta_im [etap_re etap_im]]", "rcnot"),
    (8, 1, "usage: zflip m0 m1", "zflip"),
    (9, 1, "usage: project i0 a_re a_im [i1 b_re b_im ...]", "project"),
    (10, 1, "usage: vac i0 [i1 ...]", "vac"),
    (11, 6, "mode 7 out of range for 4 modes", "7"),
    (12, 1, "mode indices must be distinct", ""),
    (13, 4, "mode index must be an integer", "x"),
    (14, 8, "expected a numeric literal", "half"),
    (15, 6, "mode 9 out of range for 4 modes", "9"),
    (15, 8, "expected a numeric literal", "a"),
    (16, 1, "mode indices must be distinct", ""),
    (17, 15, "mode 0 listed twice", "0"),
    (18, 1, "projection amplitudes have squared norm 0.25, expected 1", "project"),
    (19, 1, "vacuum-port amplitudes cannot exceed unit magnitude", "cnot"),
    (20, 1, "unknown instruction 'foo'", "foo"),
    # Finite numbers whose magnitude or square passes the largest float; then non-finite ones, named by their token.
    (21, 1, "vacuum-port amplitudes cannot exceed unit magnitude", "cnot"),
    (22, 1, "projection amplitudes have squared norm inf, expected 1", "project"),
    (23, 11, "nan is not a finite number", "nan"),
    (24, 14, "inf is not a finite number", "inf"),
]


def _diagnostic_tuples(result):
    assert isinstance(result, list)
    return [(d.line, d.column, d.message, d.token) for d in result]


def test_parse_diagnostics_are_pinned_for_every_branch():
    assert _diagnostic_tuples(parse_circuit(MALFORMED)) == MALFORMED_DIAGNOSTICS


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", (1, 1, "empty program: missing 'modes N'", "")),
        ("# only a comment\n", (1, 1, "empty program: missing 'modes N'", "")),
        ("bs 0 1 0 0\n", (1, 1, "the first instruction must declare 'modes N'", "bs")),
        ("modes\n", (1, 1, "missing mode count", "")),
        ("modes two\n", (1, 7, "mode count must be an integer", "two")),
        ("modes 0\n", (1, 1, "usage: modes N with N >= 1", "modes")),
        ("  modes 2 3\n", (1, 3, "usage: modes N with N >= 1", "modes")),
    ],
)
def test_parse_diagnostics_for_modes_line(text, expected):
    assert _diagnostic_tuples(parse_circuit(text)) == [expected]


_FINITE = st.floats(-10.0, 10.0, allow_nan=False)
_PORT = st.floats(-0.7, 0.7, allow_nan=False)


def _distinct_modes(m, k):
    return st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)


def _instruction_strategies(m):
    def project(entries):
        total = math.sqrt(sum(abs(a) ** 2 for _, a in entries))
        return Instruction("project", tuple((mode, a / total) for mode, a in entries))

    amplitude = st.builds(complex, st.floats(0.1, 1.0), _FINITE)
    port = st.builds(complex, _PORT, _PORT)
    return {
        "bs": st.builds(lambda p, t, f: Instruction("bs", (*p, t, f)), _distinct_modes(m, 2), _FINITE, _FINITE),
        "ps": st.builds(lambda i, f: Instruction("ps", (i, f)), st.integers(0, m - 1), _FINITE),
        "perm": st.permutations(range(m)).map(lambda p: Instruction("perm", tuple(p))),
        "had": _distinct_modes(m, 2).map(lambda p: Instruction("had", tuple(p))),
        "cnot": st.builds(lambda q, e, f: Instruction("cnot", (*q, e, f)), _distinct_modes(m, 4), port, port),
        "rcnot": st.builds(lambda q, e, f: Instruction("rcnot", (*q, e, f)), _distinct_modes(m, 4), port, port),
        "zflip": _distinct_modes(m, 2).map(lambda p: Instruction("zflip", tuple(p))),
        "project": st.lists(
            st.tuples(st.integers(0, m - 1), amplitude), min_size=1, max_size=m, unique_by=lambda e: e[0]
        ).map(project),
        "vac": st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True).map(
            lambda p: Instruction("vac", tuple(p))
        ),
    }


@st.composite
def _programs(draw):
    m = draw(st.integers(4, 6))
    ops = _instruction_strategies(m)
    names = draw(st.permutations(sorted(ops)))
    names += draw(st.lists(st.sampled_from(sorted(ops)), max_size=6))
    return CircuitProgram(m, tuple(draw(ops[name]) for name in names))


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_format_parse_round_trip_property(program):
    assert parse_circuit(format_circuit(program)) == program
