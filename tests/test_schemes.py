import hashlib
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockjoin import schemes, tpes
from fockjoin.fock import (
    add,
    add_vacuum_modes,
    basis_state,
    bipartition,
    discard_empty_modes,
    fidelity,
    make_state,
    norm,
    normalize,
    partial_inner,
    postselect_vacuum,
    scale,
    schmidt_values,
    tensor,
)
from fockjoin.gates import CnotSpec, DualRailQubit, apply_cnot, logical_phase_flip
from fockjoin.optics import ProjectorSpec, apply_projector, apply_unitary, haar_random_unitary, hadamard_pair
from fockjoin.schemes import (
    EncodingViolationError,
    GATE_FEED_FORWARD_RECOVERY,
    IDEAL_PIPELINE,
    PHYSICAL_PIPELINE,
    ProbabilityModel,
    compose_success_probability,
    drop_control_photon,
    join_deterministic,
    join_projective,
    joined_ququart,
    joining_cnot_pass,
    split_deterministic,
    split_projective,
    two_qubit_input,
    unfold_target,
)


def random_alphas(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def random_input(rng):
    return two_qubit_input(random_alphas(rng))


def random_ququart(rng):
    return joined_ququart(random_alphas(rng))


# --- unfolding ----------------------------------------------------------------


def test_unfold_basis_cases():
    assert unfold_target(two_qubit_input([1, 0, 0, 0])).terms == {(1, 0, 0, 0, 1, 0): 1.0}
    assert unfold_target(two_qubit_input([0, 0, 1, 0])).terms == {(0, 0, 1, 0, 1, 0): 1.0}


def test_unfold_generic_keeps_four_terms():
    rng = np.random.default_rng(30)
    a = random_alphas(rng)
    out = unfold_target(two_qubit_input(a))
    expected = {
        (1, 0, 0, 0, 1, 0): a[0],
        (1, 0, 0, 0, 0, 1): a[1],
        (0, 0, 1, 0, 1, 0): a[2],
        (0, 0, 1, 0, 0, 1): a[3],
    }
    assert out.terms.keys() == expected.keys()
    for occ, amp in expected.items():
        assert out.terms[occ] == pytest.approx(amp)


def test_unfold_rejects_bad_encodings():
    with pytest.raises(EncodingViolationError):
        unfold_target(basis_state(4, (1, 1, 0, 0)))
    with pytest.raises(EncodingViolationError):
        unfold_target(scale(two_qubit_input([1, 0, 0, 0]), 2.0))


# --- joining ------------------------------------------------------------------


def test_join_projective_single_term_input():
    report = join_projective(two_qubit_input([1, 0, 0, 0]), branch="plus")
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.output.terms == {(1, 0, 0, 0): pytest.approx(1.0)}
    assert report.fidelity_to_expected == pytest.approx(1.0)


def test_join_projective_hand_expanded_case():
    report = join_projective(two_qubit_input([0.6, 0, 0, 0.8]), branch="plus")
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.output.terms[(1, 0, 0, 0)] == pytest.approx(0.6)
    assert report.output.terms[(0, 0, 0, 1)] == pytest.approx(0.8)


def test_join_projective_minus_with_feed_forward_recovers():
    rng = np.random.default_rng(31)
    s = random_input(rng)
    report = join_projective(s, branch="minus", feed_forward=True)
    assert report.feed_forward_applied
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity_to_expected >= 1 - 1e-10


def test_feed_forward_sum_of_branch_weights_is_clamped_at_one():
    # A unit-norm draw whose two branch weights sum to 1.0000000000000002.
    s = two_qubit_input([0, 0, 0, complex(0.6407270589781302, 0.7677687385490737)])
    assert join_projective(s, branch="minus").success_probability == 1.0
    rng = np.random.default_rng(33)
    for _ in range(200):
        q = random_ququart(rng)
        for report in (join_projective(random_input(rng), branch="minus"), split_projective(q, branch="minus")):
            assert 1.0 - 1e-15 <= report.success_probability <= 1.0
            assert report.feed_forward_applied


def test_join_projective_minus_without_feed_forward_is_damaged():
    rng = np.random.default_rng(32)
    s = random_input(rng)
    report = join_projective(s, branch="minus", feed_forward=False)
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.fidelity_to_expected < 0.999


def test_join_projective_branch_probabilities_each_half():
    rng = np.random.default_rng(33)
    for _ in range(10):
        s = random_input(rng)
        plus = join_projective(s, branch="plus")
        minus = join_projective(s, branch="minus", feed_forward=False)
        assert abs(plus.success_probability - 0.5) <= 1e-12
        assert abs(minus.success_probability - 0.5) <= 1e-12
        assert plus.success_probability + minus.success_probability == pytest.approx(1.0, abs=1e-12)


def test_join_projective_sampling_is_seed_deterministic():
    s = two_qubit_input([0.6, 0, 0, 0.8])
    first = join_projective(s, branch="sample", seed=5)
    second = join_projective(s, branch="sample", seed=5)
    assert first.branch == second.branch
    branches = {join_projective(s, branch="sample", seed=k).branch for k in range(20)}
    assert branches == {"plus", "minus"}


# Each entry point that draws from a seed, and what it draws.
_SEEDED = {
    "join_projective": lambda seed: join_projective(two_qubit_input([0.6, 0, 0, 0.8]), branch="sample", seed=seed).branch,
    "split_projective": lambda seed: split_projective(joined_ququart([0.6, 0, 0, 0.8]), branch="sample", seed=seed).branch,
    "teleport_join": lambda seed: tpes.teleport_join((1, 0), (1, 0), seed=seed).branch,
    "haar_random_unitary": lambda seed: haar_random_unitary(3, seed).matrix.tobytes(),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_a_seed_is_a_non_negative_integer_or_none(name):
    # Before, numpy raised its own TypeError or message for these, and True drew as seed 1.
    draw = _SEEDED[name]
    for bad, problem in ((1.5, "must hold integers"), ("3", "must hold integers"), (True, "must hold integers"), (-1, "out of range")):
        with pytest.raises(ValueError, match=rf"^seed \[{bad!r}\] {problem}$"):
            draw(bad)
    for k in range(8):
        assert draw(np.int64(k)) == draw(k)
    draw(None)  # fresh entropy


def test_join_output_is_one_photon_state():
    rng = np.random.default_rng(34)
    for _ in range(5):
        report = join_projective(random_input(rng), branch="plus")
        for occ in report.output.terms:
            assert sum(occ) == 1


def test_join_deterministic_generic():
    rng = np.random.default_rng(35)
    a = random_alphas(rng)
    report = join_deterministic(two_qubit_input(a))
    assert report.success_probability == 1.0
    assert report.fidelity_to_expected >= 1 - 1e-10
    expected = tensor(joined_ququart(a), basis_state(2, (1, 0)))
    for occ in expected.terms:
        assert report.output.terms[occ] == pytest.approx(expected.terms[occ])
    sigmas = schmidt_values(report.output, bipartition(6, [4, 5]))
    assert sigmas[0] == pytest.approx(1.0)
    assert len(sigmas) == 1 or sigmas[1] < 1e-10


def test_join_deterministic_basis_trace():
    report = join_deterministic(two_qubit_input([0, 1, 0, 0]))
    assert report.output.terms == {(0, 1, 0, 0, 1, 0): pytest.approx(1.0)}


def test_join_deterministic_entangled_input():
    r = 1 / math.sqrt(2)
    report = join_deterministic(two_qubit_input([r, 0, 0, r]))
    assert report.output.terms[(1, 0, 0, 0, 1, 0)] == pytest.approx(r)
    assert report.output.terms[(0, 0, 0, 1, 1, 0)] == pytest.approx(r)


def test_drop_control_photon():
    report = join_deterministic(two_qubit_input([0.6, 0, 0.8j, 0]))
    ququart = drop_control_photon(report.output)
    assert ququart.terms[(1, 0, 0, 0)] == pytest.approx(0.6)
    assert ququart.terms[(0, 0, 1, 0)] == pytest.approx(0.8j)


# --- splitting ----------------------------------------------------------------


def test_split_projective_basis_case():
    report = split_projective(basis_state(4, (1, 0, 0, 0)), branch="plus")
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.output.terms == {(1, 0, 1, 0): pytest.approx(1.0)}


def test_split_projective_generic():
    rng = np.random.default_rng(36)
    a = random_alphas(rng)
    report = split_projective(joined_ququart(a), branch="plus")
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.fidelity_to_expected >= 1 - 1e-10
    expected = two_qubit_input(a)
    for occ in expected.terms:
        assert report.output.terms[occ] == pytest.approx(expected.terms[occ])


def test_split_projective_superposed_control_disentangles():
    r = 1 / math.sqrt(2)
    report = split_projective(normalize(make_state(4, [((1, 0, 0, 0), r), ((0, 1, 0, 0), r)])), branch="plus")
    expected = tensor(basis_state(2, (1, 0)), normalize(add(basis_state(2, (1, 0)), basis_state(2, (0, 1)))))
    assert fidelity(report.output, expected) == pytest.approx(1.0)


def test_split_projective_minus_branch_feed_forward():
    rng = np.random.default_rng(37)
    report = split_projective(random_ququart(rng), branch="minus", feed_forward=True)
    assert report.feed_forward_applied
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity_to_expected >= 1 - 1e-10


def test_split_deterministic_generic_and_basis():
    rng = np.random.default_rng(38)
    a = random_alphas(rng)
    report = split_deterministic(joined_ququart(a))
    assert report.success_probability == 1.0
    assert report.fidelity_to_expected >= 1 - 1e-10
    assert split_deterministic(basis_state(4, (0, 0, 0, 1))).output.terms == {
        (0, 1, 0, 1): pytest.approx(1.0)
    }


def test_split_deterministic_entangled_output_rank():
    r = 1 / math.sqrt(2)
    report = split_deterministic(normalize(make_state(4, [((1, 0, 0, 0), r), ((0, 0, 0, 1), r)])))
    sigmas = schmidt_values(report.output, bipartition(4, [0, 1]))
    assert int(np.sum(sigmas > 1e-9)) == 2


def test_split_rejects_invalid_ququart():
    with pytest.raises(EncodingViolationError):
        split_projective(basis_state(4, (1, 1, 0, 0)))
    with pytest.raises(EncodingViolationError):
        split_deterministic(basis_state(3, (1, 0, 0)))


@pytest.mark.parametrize("encode", [two_qubit_input, joined_ququart])
@pytest.mark.parametrize("alphas", [[0, 0.6, 0.8], [0, 0, 0, 0.6, 0.8]])
def test_encoders_require_four_amplitudes(encode, alphas):
    with pytest.raises(EncodingViolationError, match="expected four amplitudes"):
        encode(alphas)


def _bits(state):
    return [(occ, repr(amp), type(amp)) for occ, amp in state.terms.items()]


_SIGNED_ZERO_ALPHAS = [complex(-0.0, 0.6), complex(0.0, -0.0), np.complex128(complex(-0.8, -0.0)), np.float64(-0.0)]


def _teleport_input_qubits(alphas):
    """The input qubits teleport_join builds from (a0, a1) and (a2, a3): the second operand of the last tensor product."""
    with mock.patch.object(tpes, "tensor", wraps=tensor) as spy:
        tpes._five_photon_state((alphas[:2], alphas[2:]), ("Phi-", "phi-"))
    return spy.call_args.args[1]


def _teleport_reference(alphas):
    """tensor of two make_state qubits: photon 4's polarization rails, then photon 5's path rails."""
    psi4 = make_state(4, [((1, 0, 0, 0), alphas[0]), ((0, 1, 0, 0), alphas[1])])
    psi5 = make_state(4, [((1, 0, 0, 0), alphas[2]), ((0, 0, 1, 0), alphas[3])])
    return tensor(psi4, psi5)


@pytest.mark.parametrize(
    "encode, basis",
    [(two_qubit_input, schemes._TWO_QUBIT_BASIS), (joined_ququart, schemes._QUQUART_BASIS), (_teleport_input_qubits, None)],
)
def test_encoders_build_what_make_state_builds(encode, basis):
    # Signed zeros included: make_state adds each amplitude to 0j, which clears a -0.0 part.
    for alphas in (
        _SIGNED_ZERO_ALPHAS,
        [1e-13, 1, 0, 0.5j],
        [0.6, 0, True, np.float32(0.8)],
        [complex(-0.0, 0.6), complex(0.8, -0.0), np.complex128(complex(-0.0, -1.0)), 0.0],
        [np.float64(0.6), 0.8j, Fraction(1, 3), -1],
    ):
        if basis is None:
            reference = _teleport_reference(alphas)
        else:
            reference = make_state(4, [(occ, a) for occ, a in zip(basis, alphas) if complex(a) != 0])
        assert _bits(encode(alphas)) == _bits(reference)
    if basis is not None:  # the teleportation inputs have no all-zero rule: teleport_join's normalization check rejects zeros
        with pytest.raises(ValueError, match=r"^at least one term is required$"):
            encode([0, 0.0, -0j, complex(-0.0, 0.0)])
    with pytest.raises(ValueError, match=r"^amplitude \(nan\+0j\) of occupation \(.*\) is not finite$"):
        encode([0, float("nan"), complex("inf"), 0])


@pytest.mark.parametrize(
    "protocol, state, message",
    [
        (join_projective, basis_state(5, (1, 0, 1, 0, 0)), "expected 4 modes, got 5"),
        (join_projective, make_state(4, [((1, 0, 1, 0), 2.0)]), "input state must be normalized"),
        (join_projective, basis_state(4, (1, 1, 0, 0)), "term (1, 1, 0, 0) is not one photon per rail pair"),
        (split_projective, basis_state(3, (1, 0, 0)), "expected 4 modes, got 3"),
        (split_projective, make_state(4, [((1, 0, 0, 0), 2.0)]), "ququart state must be normalized"),
        (split_projective, basis_state(4, (1, 0, 1, 0)), "term (1, 0, 1, 0) is not a one-photon four-mode pattern"),
    ],
)
def test_encoding_error_messages(protocol, state, message):
    with pytest.raises(EncodingViolationError) as err:
        protocol(state)
    assert str(err.value) == message


# --- round trips and linearity --------------------------------------------------


def test_round_trip_split_of_join():
    rng = np.random.default_rng(39)
    for _ in range(25):
        s = random_input(rng)
        joined = drop_control_photon(join_deterministic(s).output)
        back = split_deterministic(joined).output
        assert fidelity(back, s) >= 1 - 1e-10


def test_round_trip_join_of_split():
    rng = np.random.default_rng(40)
    for _ in range(25):
        q = random_ququart(rng)
        split = split_deterministic(q).output
        joined = drop_control_photon(join_deterministic(split).output)
        assert fidelity(joined, q) >= 1 - 1e-10


def test_projective_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = random_input(rng)
        joined = join_projective(s, branch="plus").output
        back = split_projective(joined, branch="plus").output
        assert fidelity(back, s) >= 1 - 1e-10


def test_joining_pipeline_is_linear():
    rng = np.random.default_rng(42)
    s1, s2 = random_input(rng), random_input(rng)
    c1, c2 = 0.7 - 0.1j, 0.3 + 0.5j

    def pipeline(state):
        folded = joining_cnot_pass(add_vacuum_modes(state, (1, 3)))
        r = 1 / math.sqrt(2)
        projected, weight = apply_projector(folded, ProjectorSpec([0, 0, 0, 0, r, r]))
        return scale(projected, math.sqrt(weight))

    combined = pipeline(add(scale(s1, c1), scale(s2, c2)))
    separate = add(scale(pipeline(s1), c1), scale(pipeline(s2), c2))
    assert combined.terms.keys() == separate.terms.keys()
    for occ in combined.terms:
        assert combined.terms[occ] == pytest.approx(separate.terms[occ])


# --- vacuum-port amplitude conditions -------------------------------------------


def test_join_with_equal_unit_eta_is_global_phase():
    rng = np.random.default_rng(43)
    s = random_input(rng)
    eta = np.exp(0.37j)
    report = join_projective(s, branch="plus", etas=(eta, eta))
    assert report.fidelity_to_expected >= 1 - 1e-10


def test_join_with_unequal_eta_is_damaged():
    rng = np.random.default_rng(44)
    s = random_input(rng)
    report = join_projective(s, branch="plus", etas=(1.0, 1.0j))
    assert report.fidelity_to_expected < 0.999


# --- bit-identity pins ------------------------------------------------------------


def _reports_sha256(reports):
    # repr of each output's (occupation, amplitude, amplitude type) items in
    # insertion order, with the report's exact probability and fidelity.
    items = [
        (
            [(occ, complex(amp), type(amp).__name__) for occ, amp in r.output.terms.items()],
            float(r.success_probability),
            float(r.fidelity_to_expected),
            r.branch,
            r.feed_forward_applied,
        )
        for r in reports
    ]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _seeded(make):
    return [make(np.random.default_rng(2024 + k)) for k in range(6)]


def test_join_projective_terms_are_pinned():
    reports = []
    for s in _seeded(random_input):
        for branch in ("plus", "minus"):
            for feed_forward in (True, False):
                reports.append(join_projective(s, branch=branch, feed_forward=feed_forward))
        reports.append(join_projective(s, branch="sample", seed=7))
        reports.append(join_projective(s, branch="minus", etas=(np.exp(0.37j), 0.8 - 0.1j)))
        reports.append(join_projective(s, branch="plus", feed_forward=False, etas=(1.0, 1.0j)))
    # Feed-forward sums are clamped at 1, which moved three of them from 1.0000000000000002; a hash of everything
    # but success_probability reads 6e209919... before and after the clamp.
    assert _reports_sha256(reports) == "ba2a6e3f6ecc5a9257f569bb831e865316929aef3ebb4115ad1363ca1774e2b7"


def test_join_deterministic_terms_are_pinned():
    reports = []
    for s in _seeded(random_input):
        reports.append(join_deterministic(s))
        reports.append(join_deterministic(s, etas=(np.exp(0.37j), np.exp(2.1j)), eta_primes=(1j, np.exp(-1.1j))))
    # The eta products are complex, not np.complex128, since CnotSpec stores complex(eta); the bits are
    # those of c40f883b..., the hash with the old types.
    assert _reports_sha256(reports) == "acd0c71662455de324ea9c404302a77dfe09b727155fe973612016d3319aee85"


def test_split_terms_are_pinned():
    reports = []
    for q in _seeded(random_ququart):
        for branch in ("plus", "minus"):
            for feed_forward in (True, False):
                reports.append(split_projective(q, branch=branch, feed_forward=feed_forward))
        reports.append(split_projective(q, branch="sample", seed=7))
        reports.append(split_deterministic(q))
    # As in the join pin, the clamp moved three sums from 1.0000000000000002; the hash without them reads ab72354c....
    assert _reports_sha256(reports) == "fb7dffd0bad3cbfe5c43459bd769560ea4cc96d75225db1fe9ce17c17d164455"


@pytest.mark.parametrize("etas", [(1.0,), (1, 1, 1)])
def test_joining_rejects_wrong_number_of_etas(etas):
    s = two_qubit_input([0.6, 0, 0, 0.8])
    message = f"must have 2 entries, got {len(etas)}"
    with pytest.raises(ValueError, match=f"^etas {message}"):
        join_projective(s, etas=etas)
    with pytest.raises(ValueError, match=f"^etas {message}"):
        join_deterministic(s, etas=etas)
    with pytest.raises(ValueError, match=f"^eta_primes {message}"):
        join_deterministic(s, eta_primes=etas)


def test_wrong_number_of_eta_primes_raises_before_any_cnot(monkeypatch):
    calls = []
    monkeypatch.setattr(schemes, "apply_cnot", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^eta_primes must have 2 entries, got 3"):
        join_deterministic(two_qubit_input([0.6, 0, 0, 0.8]), eta_primes=(1, 1, 1))
    assert calls == []


def test_fan_cnots_share_the_unit_spec_for_any_value_equal_to_one(monkeypatch):
    # Both fans run as one apply_cnot call, which gets all four specs, fan-in first.
    calls = []
    real_cnot = schemes.apply_cnot
    monkeypatch.setattr(schemes, "apply_cnot", lambda state, *specs: calls.append(specs) or real_cnot(state, *specs))
    s = two_qubit_input([0.5, 0.5j, -0.5, 0.5])
    units = schemes._FAN_IN + schemes._FAN_OUT
    for one in (1.0, 1, True, np.float64(1.0), np.float32(1.0), 1 + 0j, np.complex128(1), Fraction(1)):
        calls.clear()
        join_deterministic(s, etas=(one, one), eta_primes=(one, one))
        assert len(calls) == 1 and len(calls[0]) == 4 and all(a is b for a, b in zip(calls[0], units)), one
    halves, carrier = schemes._HALVES, schemes._CARRIER
    assert [(g.control, g.target, g.eta, g.eta_prime) for g in units] == [
        (carrier, halves[0], 1.0, 1.0),
        (carrier, halves[1], 1.0, 1.0),
        (halves[0], carrier, 1.0, 1.0),
        (halves[1], carrier, 1.0, 1.0),
    ]
    assert all(type(g.eta) is type(g.eta_prime) is complex for g in units)
    for other in (-1.0, 1j, np.float32(-1.0), np.exp(0.37j)):
        calls.clear()
        join_deterministic(s, etas=(other, 1.0), eta_primes=(1.0, other))
        assert len(calls) == 1
        specs = calls[0]
        assert specs[0] is not schemes._FAN_IN[0] and specs[0].target == halves[0]
        assert specs[1] is schemes._FAN_IN[1] and specs[2] is schemes._FAN_OUT[0]
        assert specs[3] is not schemes._FAN_OUT[1] and specs[3].control == halves[1]
        assert type(specs[0].eta) is type(specs[3].eta_prime) is complex and specs[0].eta == specs[3].eta_prime == other
    with pytest.raises(ValueError, match="^vacuum-port amplitudes must be finite$"):
        join_deterministic(s, eta_primes=(float("nan"), 1.0))
    with pytest.raises(ValueError, match="^vacuum-port amplitudes cannot exceed unit magnitude$"):
        join_projective(s, etas=(1.0, 2.0))
    with pytest.raises(ValueError, match="^vacuum-port amplitudes must be numbers$"):
        join_projective(s, etas=("1", 1.0))
    assert [(g.eta, g.eta_prime) for g in units] == [(1.0, 1.0)] * 4


def test_join_deterministic_names_a_vacuum_port_amplitude_off_the_unit_circle(monkeypatch):
    s = two_qubit_input([0.6, 0, 0, 0.8])
    calls = []
    real_cnot = schemes.apply_cnot
    monkeypatch.setattr(schemes, "apply_cnot", lambda *args: calls.append(args) or real_cnot(*args))
    with pytest.raises(ValueError, match=r"^etas must lie on the unit circle for deterministic joining, got 0\.999999$"):
        join_deterministic(s, etas=(0.999999, 1))
    with pytest.raises(ValueError, match=r"^eta_primes must lie on the unit circle for deterministic joining, got 0\.5$"):
        join_deterministic(s, eta_primes=(0.5, 1))
    with pytest.raises(ValueError, match=r"^eta_primes must lie on the unit circle for deterministic joining, got 0j$"):
        join_deterministic(s, eta_primes=(1, 0j))
    assert calls == []
    # np.exp(1j * theta) rounds within a few ulps of the unit circle; the tolerance is 1e-12.
    for theta in np.linspace(-7, 7, 141):
        report = join_deterministic(s, etas=(np.exp(1j * theta), 1), eta_primes=(1, np.exp(-1j * theta)))
        assert 0.0 <= report.fidelity_to_expected <= 1.0 + 1e-12
    assert join_deterministic(s, etas=(1 - 1e-13, 1)).fidelity_to_expected >= 1 - 1e-12
    # Projective joining takes sub-unit amplitudes: the branch is renormalized.
    assert join_projective(s, etas=(0.5, 0.5)).fidelity_to_expected >= 1 - 1e-12
    assert join_projective(s, etas=(0.999999, 1)).fidelity_to_expected >= 1 - 1e-9


# --- the measured branches, built on demand ---------------------------------------


@pytest.mark.parametrize(
    "branch,feed_forward,built",
    [("plus", True, 1), ("plus", False, 1), ("minus", False, 1), ("minus", True, 1), ("sample", True, 2), ("sample", False, 2)],
)
def test_projective_schemes_build_only_the_branches_a_report_reads(monkeypatch, branch, feed_forward, built):
    contractions, postselections = [], []
    real_inner, real_post = schemes.partial_inner, schemes.postselect_vacuum
    monkeypatch.setattr(schemes, "partial_inner", lambda *args: contractions.append(args) or real_inner(*args))
    monkeypatch.setattr(schemes, "postselect_vacuum", lambda *args: postselections.append(args) or real_post(*args))
    rng = np.random.default_rng(77)
    join_projective(random_input(rng), branch=branch, feed_forward=feed_forward, seed=1)
    split_projective(random_ququart(rng), branch=branch, feed_forward=feed_forward, seed=1)
    assert len(contractions) == len(postselections) == built
    # A forced branch builds its own: the plus carrier state or vacuum rails, or the minus ones.
    if branch != "sample" and built == 1:
        assert contractions[0][0] is schemes._JOIN_ERASERS[branch == "minus"]
        assert postselections[0][1] == ((1, 3) if branch == "plus" else (0, 2))


@pytest.mark.parametrize("feed_forward", ["no", "", 0, 1, 1.0, None, [0]])
def test_projective_schemes_reject_a_feed_forward_that_is_no_bool(monkeypatch, feed_forward):
    calls = []
    real_cnot = schemes.apply_cnot
    monkeypatch.setattr(schemes, "apply_cnot", lambda *args: calls.append(args) or real_cnot(*args))
    rng = np.random.default_rng(78)
    for protocol, state in ((join_projective, random_input(rng)), (split_projective, random_ququart(rng))):
        for branch in ("plus", "minus"):
            with pytest.raises(ValueError, match=rf"^feed_forward must be a bool, got {re.escape(repr(feed_forward))}$"):
                protocol(state, branch=branch, feed_forward=feed_forward)
        with pytest.raises(ValueError, match=r"^unknown branch 'Plus'; use plus, minus or sample$"):
            protocol(state, branch="Plus")
    assert calls == []  # both are checked before any CNOT runs


@pytest.mark.parametrize("seed,problem", [(-1, "out of range"), (1.5, "must hold integers"), (True, "must hold integers"), ("3", "must hold integers")])
def test_a_bad_seed_raises_before_any_work_whatever_is_sampled(monkeypatch, seed, problem):
    # Before, a forced branch or outcome never read the seed, and a sampled one read it after the CNOTs or the five-photon build.
    calls = []
    real_cnot, real_build = schemes.apply_cnot, tpes._five_photon_state
    monkeypatch.setattr(schemes, "apply_cnot", lambda *args: calls.append(args) or real_cnot(*args))
    monkeypatch.setattr(tpes, "_five_photon_state", lambda *args: calls.append(args) or real_build(*args))
    message = rf"^seed \[{re.escape(repr(seed))}\] {problem}$"
    rng = np.random.default_rng(80)
    for protocol, state in ((join_projective, random_input(rng)), (split_projective, random_ququart(rng))):
        for branch in ("plus", "minus", "sample"):
            for feed_forward in (True, False):
                with pytest.raises(ValueError, match=message):
                    protocol(state, branch=branch, feed_forward=feed_forward, seed=seed)
    for outcome in ("sample", 3, np.int64(3), tpes.ALL_BELL_OUTCOMES[3]):
        with pytest.raises(ValueError, match=message):
            tpes.teleport_join((1, 0), (0, 1), outcome=outcome, seed=seed)
    assert calls == []


def test_projective_schemes_take_numpy_bools_and_report_python_bools():
    rng = np.random.default_rng(79)
    for protocol, state in ((join_projective, random_input(rng)), (split_projective, random_ququart(rng))):
        for flag in (np.True_, np.False_):
            numpy_report = protocol(state, branch="minus", feed_forward=flag)
            python_report = protocol(state, branch="minus", feed_forward=bool(flag))
            assert numpy_report.feed_forward_applied is python_report.feed_forward_applied is bool(flag)
            assert numpy_report.output.terms == python_report.output.terms


_HALF0, _HALF1, _CARRIER = DualRailQubit(0, 1), DualRailQubit(2, 3), DualRailQubit(4, 5)
_ROOT = 1 / math.sqrt(2)
_ERASERS = [make_state(2, [((1, 0), _ROOT), ((0, 1), sign * _ROOT)]) for sign in (1.0, -1.0)]


def _eager_report(branches, correct, branch, feed_forward, seed, expected):
    """The report of both branches built up front: (output, probability, branch, feed_forward_applied, fidelity)."""
    (plus, p_plus), (minus, p_minus) = branches
    if branch == "sample":
        branch = "plus" if np.random.default_rng(seed).random() < p_plus else "minus"
    output, prob, applied = (plus, p_plus, False) if branch == "plus" else (minus, p_minus, feed_forward)
    if applied:
        output, prob = correct(output), min(p_plus + p_minus, 1.0)
    return output, prob, branch, applied, 0.0 if output.is_zero else fidelity(output, expected)


def _eager_join(alphas, branch, feed_forward, seed, etas):
    s = two_qubit_input(alphas)
    state = add_vacuum_modes(s, (1, 3))
    for half, eta in zip((_HALF0, _HALF1), etas):
        state = apply_cnot(state, CnotSpec(_CARRIER, half, eta=eta))
    projected = [partial_inner(eraser, state, _CARRIER.modes) for eraser in _ERASERS]
    return _eager_report(
        [(normalize(p), norm(p) ** 2) for p in projected],
        lambda out: logical_phase_flip(logical_phase_flip(out, _HALF0), _HALF1),
        branch,
        feed_forward,
        seed,
        joined_ququart(alphas),
    )


def _eager_split(alphas, branch, feed_forward, seed):
    state = tensor(joined_ququart(alphas), basis_state(2, (1, 0)))
    for half in (_HALF0, _HALF1):
        state = apply_cnot(state, CnotSpec(half, _CARRIER))
    for half in (_HALF0, _HALF1):
        state = apply_unitary(state, hadamard_pair(6, *half.modes))  # a fresh mixer, with no kept expansions
    branches = []
    for rails in ((1, 3), (0, 2)):
        kept, weight = postselect_vacuum(state, rails)
        branches.append((discard_empty_modes(kept, rails), weight))
    return _eager_report(branches, lambda out: logical_phase_flip(out, _HALF1), branch, feed_forward, seed, two_qubit_input(alphas))


def _report_bits(output, prob, branch, applied, fid):
    return [(occ, repr(amp), type(amp)) for occ, amp in output.terms.items()], repr(prob), branch, applied, repr(fid)


_INPUT_AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
).filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-3)
# Unit and sub-unit amplitudes; 1e-13 on both halves prunes the whole joined state.
_ETAS = st.sampled_from([1.0, -1.0, 1j, np.exp(0.37j), 0.8 - 0.1j, 0.5, 1e-3, 1e-13])


@settings(max_examples=150)
@given(
    _INPUT_AMPLITUDES,
    st.sampled_from(["plus", "minus", "sample"]),
    st.booleans(),
    st.integers(0, 2**32),
    st.tuples(_ETAS, _ETAS),
)
def test_projective_reports_equal_an_eager_reference(amps, branch, feed_forward, seed, etas):
    alphas = np.array(amps) / np.linalg.norm(amps)
    joined = join_projective(two_qubit_input(alphas), branch=branch, feed_forward=feed_forward, seed=seed, etas=etas)
    assert _report_bits(
        joined.output, joined.success_probability, joined.branch, joined.feed_forward_applied, joined.fidelity_to_expected
    ) == _report_bits(*_eager_join(alphas, branch, feed_forward, seed, etas))
    split = split_projective(joined_ququart(alphas), branch=branch, feed_forward=feed_forward, seed=seed)
    assert _report_bits(
        split.output, split.success_probability, split.branch, split.feed_forward_applied, split.fidelity_to_expected
    ) == _report_bits(*_eager_split(alphas, branch, feed_forward, seed))


@settings(max_examples=200)
@given(_INPUT_AMPLITUDES, st.tuples(_ETAS, _ETAS))
def test_plus_and_minus_branch_weights_are_bit_equal(amps, etas):
    # The fed-forward minus branch reports min(2 * its own weight, 1): the sum of both weights only if they are bit-equal.
    alphas = np.array(amps) / np.linalg.norm(amps)
    for protocol, state, extra in (
        (join_projective, two_qubit_input(alphas), {"etas": etas}),
        (split_projective, joined_ququart(alphas), {}),
    ):
        plus, minus = (protocol(state, branch=b, feed_forward=False, **extra).success_probability for b in ("plus", "minus"))
        assert plus.hex() == minus.hex()


# --- probability model ----------------------------------------------------------


def test_probability_model_pipeline_constants():
    assert compose_success_probability(IDEAL_PIPELINE) == Fraction(1, 2)
    assert compose_success_probability(PHYSICAL_PIPELINE) == Fraction(1, 32)
    with_ff = ProbabilityModel(Fraction(1, 4), 2, Fraction(1, 2), feed_forward=True)
    assert compose_success_probability(with_ff) == Fraction(1, 8)


def test_probability_model_feed_forward_caps_at_one():
    model = ProbabilityModel(Fraction(3, 4), 1, Fraction(1, 2), feed_forward=True)
    assert compose_success_probability(model) == Fraction(1, 2)
    assert GATE_FEED_FORWARD_RECOVERY == 2


def test_probability_model_validation():
    with pytest.raises(ValueError):
        ProbabilityModel(Fraction(5, 4), 2, Fraction(1, 2))
    # n_cnot follows the package's integer rule: 2.5 gates would compose to 1/64, and True to one gate.
    for n_cnot in (2.5, True, -1):
        with pytest.raises(ValueError, match=r"^n_cnot \["):
            ProbabilityModel(Fraction(1, 4), n_cnot, Fraction(1, 2))


@pytest.mark.parametrize("name", ["p_cnot", "p_projection"])
@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, 1.5, -0.1, 0.5j])
def test_probability_model_rejects_a_probability_that_is_not_a_real_in_unit_range(name, value):
    fields = {"p_cnot": Fraction(1, 4), "n_cnot": 2, "p_projection": Fraction(1, 2), name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a real number in \\[0, 1\\]"):
        ProbabilityModel(**fields)


@pytest.mark.parametrize("value", [Fraction(0), Fraction(1), 0.0, 1.0, 0, 1, np.float64(0.25)])
def test_probability_model_accepts_reals_in_unit_range(value):
    model = ProbabilityModel(value, 1, value)
    assert compose_success_probability(model) == value * value


@pytest.mark.parametrize("value", ["no", 1])
def test_probability_model_feed_forward_must_be_a_bool(value):
    with pytest.raises(ValueError, match="^feed_forward must be a bool"):
        ProbabilityModel(Fraction(1, 4), 2, Fraction(1, 2), feed_forward=value)


def test_probability_model_takes_numpy_bools_for_feed_forward():
    model = ProbabilityModel(Fraction(1, 4), 2, Fraction(1, 2), feed_forward=np.bool_(True))
    assert compose_success_probability(model) == Fraction(1, 8)
