import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockjoin.fock import PRUNE_TOL, basis_state, fidelity, make_state, normalize
from fockjoin.gates import (
    CnotSpec,
    DualRailQubit,
    IllegalPatternError,
    NETWORK_SUCCESS_AMPLITUDE,
    apply_cnot,
    apply_reversed_cnot,
    build_postselected_cnot_network,
    logical_phase_flip,
    network_input,
    postselect_rail_pairs,
    vacuum_failure_demo,
)
from fockjoin.optics import apply_unitary, phase_shifter

CONTROL = DualRailQubit(0, 1)
TARGET = DualRailQubit(2, 3)
GATE = CnotSpec(CONTROL, TARGET)


def two_pair_state(control_pattern, target_pattern, amp=1.0):
    return make_state(4, [(tuple(control_pattern) + tuple(target_pattern), amp)])


@pytest.mark.parametrize(
    "control,target,expected",
    [
        ((1, 0), (1, 0), (1, 0, 1, 0)),
        ((0, 1), (1, 0), (0, 1, 0, 1)),
        ((1, 0), (0, 1), (1, 0, 0, 1)),
        ((0, 1), (0, 1), (0, 1, 1, 0)),
    ],
)
def test_cnot_truth_table(control, target, expected):
    out = apply_cnot(two_pair_state(control, target), GATE)
    assert out.terms == {expected: 1.0}


def test_cnot_vacuum_target_applies_eta():
    gate = CnotSpec(CONTROL, TARGET, eta=0.5j)
    for control in ((1, 0), (0, 1)):
        out = apply_cnot(two_pair_state(control, (0, 0)), gate)
        assert out.terms == {control + (0, 0): 0.5j}


def test_cnot_vacuum_control_applies_eta_prime():
    gate = CnotSpec(CONTROL, TARGET, eta_prime=-1.0)
    out = apply_cnot(two_pair_state((0, 0), (0, 1)), gate)
    assert out.terms == {(0, 0, 0, 1): -1.0}


def test_cnot_identity_defaults_on_vacuum_ports():
    assert apply_cnot(two_pair_state((1, 0), (0, 0)), GATE).terms == {(1, 0, 0, 0): 1.0}
    assert apply_cnot(two_pair_state((0, 0), (0, 1)), GATE).terms == {(0, 0, 0, 1): 1.0}


def test_cnot_double_vacuum_passes_with_unit_factor():
    gate = CnotSpec(CONTROL, TARGET, eta=0.3, eta_prime=0.7)
    out = apply_cnot(two_pair_state((0, 0), (0, 0)), gate)
    assert out.terms == {(0, 0, 0, 0): 1.0}


def test_cnot_rejects_illegal_patterns():
    with pytest.raises(IllegalPatternError):
        apply_cnot(two_pair_state((1, 1), (1, 0)), GATE)
    with pytest.raises(IllegalPatternError):
        apply_cnot(two_pair_state((1, 0), (2, 0)), GATE)


def test_cnot_names_the_first_illegal_pair():
    with pytest.raises(IllegalPatternError, match=r"^pattern \(1, 1\) on modes \(0, 1\) in term \(1, 1, 2, 0\)$"):
        apply_cnot(two_pair_state((1, 1), (2, 0)), GATE)
    with pytest.raises(IllegalPatternError, match=r"^pattern \(2, 0\) on modes \(2, 3\) in term \(1, 0, 2, 0\)$"):
        apply_cnot(two_pair_state((1, 0), (2, 0)), GATE)
    # The reversed CNOT controls on GATE's target pair, so that pair is read first.
    with pytest.raises(IllegalPatternError, match=r"^pattern \(0, 2\) on modes \(2, 3\) in term \(1, 0, 0, 2\)$"):
        apply_reversed_cnot(two_pair_state((1, 0), (0, 2)), GATE)


# Each legal (control, target) rail 4-tuple and its action, written out by hand.
_RAIL_ACTIONS = {
    (1, 0, 1, 0): "keep", (1, 0, 0, 1): "keep", (0, 0, 0, 0): "keep",
    (0, 1, 1, 0): "swap", (0, 1, 0, 1): "swap",
    (1, 0, 0, 0): "eta", (0, 1, 0, 0): "eta",
    (0, 0, 1, 0): "eta_prime", (0, 0, 0, 1): "eta_prime",
}


def test_each_rail_pattern_of_up_to_two_photons_per_mode_gets_its_action_or_names_its_pair():
    # All 81 4-tuples with entries 0..2, one term each. A legal pair holds (0, 0), (1, 0) or (0, 1); any other
    # 4-tuple raises, naming the first illegal pair, control before target.
    gate = CnotSpec(CONTROL, TARGET, eta=0.5j, eta_prime=-0.25)
    amp = complex(0.6, -0.8)
    for occ in itertools.product(range(3), repeat=4):
        state = make_state(4, [(occ, amp)])
        action = _RAIL_ACTIONS.get(occ)
        if action is None:
            pattern, modes = (occ[:2], CONTROL.modes) if occ[:2] not in {(0, 0), (1, 0), (0, 1)} else (occ[2:], TARGET.modes)
            with pytest.raises(IllegalPatternError, match=f"^{re.escape(f'pattern {pattern} on modes {modes} in term {occ}')}$"):
                apply_cnot(state, gate)
            continue
        expected = {
            "keep": {occ: amp},
            "swap": {occ[:2] + (occ[3], occ[2]): amp},
            "eta": {occ: amp * gate.eta},
            "eta_prime": {occ: amp * gate.eta_prime},
        }[action]
        assert apply_cnot(state, gate).terms == expected, (occ, action)
    assert len(_RAIL_ACTIONS) == 9


# Rail pairs of a 6-mode register; (3, 4) straddles two of the others, so a pass can meet an illegal pattern late.
_RAIL_PAIRS = [DualRailQubit(0, 1), DualRailQubit(2, 3), DualRailQubit(4, 5), DualRailQubit(3, 4)]
# Unit and sub-unit vacuum-port amplitudes; 0.5 and 1e-3 push amplitudes near PRUNE_TOL across it.
_VACUUM_AMPLITUDES = [1.0, -1.0, 1j, np.exp(0.37j), complex(0.6, -0.8), 0.999999, 0.5, 1e-3, 0.0]
_TERM_AMPLITUDES = st.one_of(
    st.sampled_from([1.0, -0.6 + 0.8j, 0.3j, -1.0, 1.5e-12, 2.5e-12, -1.9e-12j, 1.0001e-12, 1e-9]),
    st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False),
)


@st.composite
def _cnot_specs(draw):
    control, target = draw(
        st.tuples(st.sampled_from(_RAIL_PAIRS), st.sampled_from(_RAIL_PAIRS)).filter(
            lambda pair: len(set(pair[0].modes + pair[1].modes)) == 4
        )
    )
    eta, eta_prime = draw(st.sampled_from(_VACUUM_AMPLITUDES)), draw(st.sampled_from(_VACUUM_AMPLITUDES))
    return CnotSpec(control, target, eta, eta_prime)


def _cnot_outcome(call):
    """The keys, order, amplitude reprs and types of call's state, or the error type it raises."""
    try:
        out = call()
    except IllegalPatternError as exc:
        return type(exc)
    return out.modes, [(occ, repr(amp), type(amp)) for occ, amp in out.terms.items()]


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.lists(st.sampled_from([0, 1]), min_size=6, max_size=6), _TERM_AMPLITUDES), min_size=1, max_size=12),
    st.lists(_cnot_specs(), min_size=1, max_size=5),
    st.booleans(),
)
def test_one_pass_of_several_cnots_equals_one_call_per_cnot(terms, specs, packed_amplitudes):
    s = make_state(6, [(tuple(occ), amp) for occ, amp in terms])
    if packed_amplitudes:  # np.complex128 amplitudes, as apply_unitary returns them
        s = apply_unitary(s, phase_shifter(6, 5, 0.25))

    def one_call_per_cnot():
        out = s
        for g in specs:
            out = apply_cnot(out, g)
        return out

    assert _cnot_outcome(lambda: apply_cnot(s, *specs)) == _cnot_outcome(one_call_per_cnot)


def test_one_pass_prunes_after_each_cnot_and_skips_the_rest():
    # 2e-12 * 0.5 falls to the tolerance at the first CNOT; a second CNOT of eta 1 cannot bring it back.
    g = CnotSpec(CONTROL, TARGET, eta=0.5)
    s = make_state(4, [((1, 0, 0, 0), 2e-12), ((0, 1, 0, 0), 0.6), ((0, 0, 1, 0), 0.8)])
    out = apply_cnot(s, g, GATE)
    assert list(out.terms) == [(0, 1, 0, 0), (0, 0, 1, 0)] and abs(0.5 * 2e-12) <= PRUNE_TOL
    assert out.terms == apply_cnot(apply_cnot(s, g), GATE).terms
    # A term pruned at the first CNOT never meets the second, so its two photons on the second's target raise nothing.
    straddling = CnotSpec(DualRailQubit(1, 2), DualRailQubit(3, 4))
    s = make_state(5, [((1, 0, 0, 0, 2), 2e-12), ((0, 1, 1, 0, 0), 0.6), ((0, 0, 1, 0, 1), 0.8)])
    out = apply_cnot(s, g, straddling)
    assert list(out.terms.items()) == [((0, 1, 0, 1, 0), 0.6), ((0, 0, 1, 1, 0), 0.8)]
    with pytest.raises(IllegalPatternError, match=r"^pattern \(0, 2\) on modes \(3, 4\) in term \(1, 0, 0, 0, 2\)$"):
        apply_cnot(s, GATE, straddling)


def test_cnot_involution_on_legal_subspace():
    rng = np.random.default_rng(20)
    patterns = [(1, 0), (0, 1), (0, 0)]
    terms = []
    for pc in patterns:
        for pt in patterns:
            terms.append((pc + pt, complex(rng.standard_normal(), rng.standard_normal())))
    s = normalize(make_state(4, terms))
    twice = apply_cnot(apply_cnot(s, GATE), GATE)
    for occ in s.terms:
        assert twice.terms[occ] == pytest.approx(s.terms[occ])


def test_cnot_norm_scaling_of_vacuum_terms():
    gate = CnotSpec(CONTROL, TARGET, eta=0.6j, eta_prime=0.8)
    s = normalize(
        make_state(
            4,
            [
                ((1, 0, 1, 0), 1.0),  # no vacuum pattern
                ((0, 1, 0, 0), 1.0),  # target vacuum
                ((0, 0, 1, 0), 1.0),  # control vacuum
            ],
        )
    )
    out = apply_cnot(s, gate)
    third = 1.0 / 3.0
    assert abs(out.terms[(1, 0, 1, 0)]) ** 2 == pytest.approx(third)
    assert abs(out.terms[(0, 1, 0, 0)]) ** 2 == pytest.approx(third * 0.36)
    assert abs(out.terms[(0, 0, 1, 0)]) ** 2 == pytest.approx(third * 0.64)


def test_cnot_gates_commute_on_disjoint_pairs():
    rng = np.random.default_rng(21)
    g1 = CnotSpec(DualRailQubit(0, 1), DualRailQubit(2, 3))
    g2 = CnotSpec(DualRailQubit(4, 5), DualRailQubit(6, 7))
    patterns = [(1, 0), (0, 1)]
    terms = []
    for a in patterns:
        for b in patterns:
            for c in patterns:
                for d in patterns:
                    terms.append((a + b + c + d, complex(rng.standard_normal(), rng.standard_normal())))
    s = normalize(make_state(8, terms))
    ab = apply_cnot(apply_cnot(s, g1), g2)
    ba = apply_cnot(apply_cnot(s, g2), g1)
    assert ab.terms.keys() == ba.terms.keys()
    for occ in ab.terms:
        assert ab.terms[occ] == pytest.approx(ba.terms[occ])


def test_cnot_logical_action_is_a_permutation_matrix():
    patterns = {0: (1, 0), 1: (0, 1)}
    matrix = np.zeros((4, 4))
    for c_bit in (0, 1):
        for t_bit in (0, 1):
            out = apply_cnot(two_pair_state(patterns[c_bit], patterns[t_bit]), GATE)
            (occ,) = out.terms
            out_c = {v: k for k, v in patterns.items()}[occ[:2]]
            out_t = {v: k for k, v in patterns.items()}[occ[2:]]
            matrix[2 * out_c + out_t, 2 * c_bit + t_bit] = abs(out.terms[occ])
    expected = np.zeros((4, 4))
    expected[[0, 1, 3, 2], [0, 1, 2, 3]] = 1.0
    assert np.array_equal(matrix, expected)


def test_reversed_cnot_examples():
    # Gate declared control (0,1) / target (2,3); reversing swaps the roles.
    assert apply_reversed_cnot(two_pair_state((0, 1), (1, 0)), GATE).terms == {(0, 1, 1, 0): 1.0}
    assert apply_reversed_cnot(two_pair_state((0, 1), (0, 1)), GATE).terms == {(1, 0, 0, 1): 1.0}


def test_reversed_cnots_disentangle_the_double_cnot_state():
    rng = np.random.default_rng(22)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    # Post-double-CNOT state on t1=(0,1), t2=(2,3), c=(4,5).
    s = make_state(
        6,
        [
            ((1, 0, 0, 0, 1, 0), a[0]),
            ((0, 1, 0, 0, 0, 1), a[1]),
            ((0, 0, 1, 0, 1, 0), a[2]),
            ((0, 0, 0, 1, 0, 1), a[3]),
        ],
    )
    c = DualRailQubit(4, 5)
    s = apply_cnot(s, CnotSpec(DualRailQubit(0, 1), c))
    s = apply_cnot(s, CnotSpec(DualRailQubit(2, 3), c))
    expected = {
        (1, 0, 0, 0, 1, 0): a[0],
        (0, 1, 0, 0, 1, 0): a[1],
        (0, 0, 1, 0, 1, 0): a[2],
        (0, 0, 0, 1, 1, 0): a[3],
    }
    assert s.terms.keys() == expected.keys()
    for occ, amp in expected.items():
        assert s.terms[occ] == pytest.approx(amp)


def test_logical_phase_flip():
    s = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    out = logical_phase_flip(s, DualRailQubit(0, 1))
    assert out.terms == {(1, 0): 0.6, (0, 1): -0.8}
    assert logical_phase_flip(basis_state(2, (0, 0)), DualRailQubit(0, 1)).terms == {(0, 0): 1.0}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: apply_cnot(s, CnotSpec(DualRailQubit(0, 1), DualRailQubit(8, 9))), r"rails \(0, 1\) and \(8, 9\)"),
        (lambda s: apply_cnot(s, CnotSpec(DualRailQubit(4, 1), DualRailQubit(2, 3))), r"rails \(4, 1\) and \(2, 3\)"),
        (lambda s: apply_reversed_cnot(s, CnotSpec(DualRailQubit(0, 1), DualRailQubit(2, 4))), r"rails \(2, 4\) and \(0, 1\)"),
        (lambda s: logical_phase_flip(s, DualRailQubit(4, 1)), r"rails \(4, 1\)"),
        (lambda s: logical_phase_flip(s, DualRailQubit(8, 9)), r"rails \(8, 9\)"),
    ],
    ids=["cnot-target", "cnot-control-rail0", "reversed-cnot", "flip-rail0", "flip-past"],
)
def test_gates_name_rails_past_the_register(call, message):
    s = make_state(4, [((1, 0, 1, 0), 0.6), ((0, 1, 0, 1), 0.8)])
    with pytest.raises(ValueError, match=f"^{message} out of range for 4 modes$"):
        call(s)


def test_qubit_and_quart_validation():
    with pytest.raises(ValueError):
        DualRailQubit(1, 1)
    with pytest.raises(ValueError):
        CnotSpec(DualRailQubit(0, 1), DualRailQubit(1, 2))
    with pytest.raises(ValueError):
        CnotSpec(CONTROL, TARGET, eta=2.0)
    # abs() of this finite amplitude raises OverflowError; the spec must raise ValueError.
    with pytest.raises(ValueError, match="vacuum-port amplitudes cannot exceed unit magnitude"):
        CnotSpec(CONTROL, TARGET, eta_prime=complex(1.5e308, 1.5e308))


def test_float32_vacuum_port_amplitude_gives_a_double_precision_product():
    # Stored as given, np.float32(0.9) made the product np.complex64(0.71999997+0j).
    gate = CnotSpec(CONTROL, TARGET, eta=np.float32(0.9), eta_prime=np.float32(0.9))
    assert (type(gate.eta), type(gate.eta_prime)) == (complex, complex)
    assert gate.eta == gate.eta_prime == complex(float(np.float32(0.9)))
    amp = apply_cnot(make_state(4, [((1, 0, 0, 0), 0.8)]), gate).terms[(1, 0, 0, 0)]
    assert type(amp) is complex and amp == 0.8 * float(np.float32(0.9)) == 0.7199999809265137


@pytest.mark.parametrize("amp", [float("nan"), complex(0.0, float("nan")), float("inf")])
@pytest.mark.parametrize("port", ["eta", "eta_prime"])
def test_cnot_rejects_non_finite_vacuum_amplitudes(port, amp):
    # abs(nan) > 1 is False, so a magnitude check written with ">" lets NaN through.
    with pytest.raises(ValueError, match="vacuum-port amplitudes must be finite"):
        CnotSpec(CONTROL, TARGET, **{port: amp})


# --- physical post-selected network ------------------------------------------


def test_network_truth_table_success_one_ninth():
    u = build_postselected_cnot_network()
    expected_logical = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
    patterns = {0: (1, 0), 1: (0, 1)}
    for (c_bit, t_bit), (out_c, out_t) in expected_logical.items():
        evolved = apply_unitary(network_input(patterns[c_bit], patterns[t_bit]), u)
        surviving = postselect_rail_pairs(evolved)
        occ = [0] * 6
        occ[1], occ[2] = patterns[out_c]
        occ[3], occ[4] = patterns[out_t]
        assert surviving.terms.keys() == {tuple(occ)}
        amp = surviving.terms[tuple(occ)]
        assert amp == pytest.approx(NETWORK_SUCCESS_AMPLITUDE, abs=1e-12)
        assert abs(amp) ** 2 == pytest.approx(1 / 9, abs=1e-12)


def test_network_on_coherent_control_entangles():
    u = build_postselected_cnot_network()
    r = 1 / math.sqrt(2)
    s = make_state(6, [((0, 1, 0, 1, 0, 0), r), ((0, 0, 1, 1, 0, 0), r)])
    surviving = postselect_rail_pairs(apply_unitary(s, u))
    total = sum(abs(a) ** 2 for a in surviving.terms.values())
    assert total == pytest.approx(1 / 9, abs=1e-12)
    bell = make_state(6, [((0, 1, 0, 1, 0, 0), r), ((0, 0, 1, 0, 1, 0), r)])
    assert fidelity(normalize(surviving), bell) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_failure_demo_reports_inconsistency():
    report = vacuum_failure_demo()
    by_label = {case.label: case for case in report.cases}

    case10 = by_label["control |10>, target vacuum"]
    assert not case10.consistent_with_scaled_identity
    # Branch weights differ from the logical 1/9 pattern: the intact
    # branch carries probability 1/3.
    assert case10.control_intact_probability == pytest.approx(1 / 3, abs=1e-12)
    assert abs(case10.intact_amplitude - report.logical_success_amplitude) > 0.2

    case01 = by_label["control |01>, target vacuum"]
    assert not case01.consistent_with_scaled_identity
    # New evolution channels: the control photon leaks into the target rails.
    assert case01.target_leak_probability == pytest.approx(2 / 3, abs=1e-12)

    sanity = by_label["control |10>, target |10> (sanity)"]
    assert sanity.consistent_with_scaled_identity
    assert report.demonstrates_failure


@pytest.mark.parametrize("modes", [(0.5, 1), (True, 2), (-1, 0), (2, 2)])
def test_rail_modes_must_be_distinct_non_negative_integers(modes):
    with pytest.raises(ValueError, match="rail modes"):
        DualRailQubit(*modes)
