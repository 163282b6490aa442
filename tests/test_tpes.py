import hashlib
import math
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest

from sign_table import BRANCH_TABLE, expected_branch_amplitudes
from fockjoin.fock import (
    bipartition,
    fidelity,
    inner_product,
    make_state,
    norm,
    scale,
    schmidt_rank,
    tensor,
)
from fockjoin import tpes
from fockjoin.optics import apply_unitary
from fockjoin.tpes import (
    ALL_BELL_OUTCOMES,
    PATH_BELL_KINDS,
    POL_BELL_KINDS,
    bell_pair,
    build_tpes,
    derive_correction_table,
    expand_five_photon,
    joined_reference,
    resolve_outcome,
    teleport_join,
    tpes_via_joining,
)


def random_qubit_pair(rng):
    raw = rng.standard_normal(4)
    a, b = complex(raw[0], raw[1]), complex(raw[2], raw[3])
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


R = 1 / math.sqrt(2)


def test_polarization_bell_pair_display():
    state = bell_pair("Phi-")
    # (|H>_1 |V>_2 - |V>_1 |H>_2)/sqrt2 with both photons on path u.
    assert state.terms[(1, 0, 0, 0, 0, 1, 0, 0)] == pytest.approx(R)
    assert state.terms[(0, 1, 0, 0, 1, 0, 0, 0)] == pytest.approx(-R)


def test_path_bell_pair_display():
    state = bell_pair("psi+")
    # (|u>_1 |u>_2 + |d>_1 |d>_2)/sqrt2 with both photons polarized H.
    assert state.terms[(1, 0, 0, 0, 1, 0, 0, 0)] == pytest.approx(R)
    assert state.terms[(0, 0, 1, 0, 0, 0, 1, 0)] == pytest.approx(R)


def test_bell_kinds_are_orthonormal():
    for kinds in (POL_BELL_KINDS, PATH_BELL_KINDS):
        states = [bell_pair(k) for k in kinds]
        gram = np.array([[inner_product(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_build_tpes_reference_variant_display():
    state = build_tpes("Phi-", "phi-")

    def mode(photon, pol, path):
        # Photon slot k = photon - 1, polarization p and path w: mode 4k + p + 2w.
        return 4 * (photon - 1) + pol + 2 * path

    def occ(p1, w1, p2, w3):
        out = [0] * 12
        out[mode(1, p1, w1)] = 1
        out[mode(2, p2, 0)] = 1
        out[mode(3, 0, w3)] = 1
        return tuple(out)

    # (1/2)(H1 V2 - V1 H2) H3 (u1 d3 - d1 u3) u2, expanded term by term.
    assert state.terms[occ(0, 0, 1, 1)] == pytest.approx(0.5)   # H1 u1, V2, d3
    assert state.terms[occ(0, 1, 1, 0)] == pytest.approx(-0.5)  # H1 d1, V2, u3
    assert state.terms[occ(1, 0, 0, 1)] == pytest.approx(-0.5)  # V1 u1, H2, d3
    assert state.terms[occ(1, 1, 0, 0)] == pytest.approx(0.5)   # V1 d1, H2, u3


def test_tpes_photon1_is_maximally_double_entangled():
    for outcome in (("Phi-", "phi-"), ("Psi+", "psi+")):
        state = build_tpes(*outcome)
        assert schmidt_rank(state, bipartition(12, [0, 1, 2, 3]), 1e-9) == 4


def test_all_sixteen_variants_are_orthonormal():
    states = [build_tpes(pol, path) for pol, path in ALL_BELL_OUTCOMES]
    gram = np.array([[inner_product(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


@pytest.mark.parametrize("pol,path", [("Phi-", "phi-"), ("Psi+", "psi+"), ("Phi+", "psi-"), ("Psi-", "phi+")])
def test_tpes_via_joining_matches_direct_build(pol, path):
    assert fidelity(tpes_via_joining(pol, path), build_tpes(pol, path)) >= 1 - 1e-10


def _states_sha256(states):
    # repr of each state's (occupation, amplitude, amplitude type) items in
    # insertion order.
    items = [[(occ, complex(amp), type(amp).__name__) for occ, amp in s.terms.items()] for s in states]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def test_tpes_via_joining_terms_are_pinned():
    states = [tpes_via_joining(pol, path) for pol, path in ALL_BELL_OUTCOMES]
    assert _states_sha256(states) == "e17937225bbc6a8826b9c7bf4c358259681253e02234846f3512c46b27340e17"


def test_bell_pairs_and_direct_tpes_terms_are_pinned():
    states = [bell_pair(kind) for kind in POL_BELL_KINDS + PATH_BELL_KINDS]
    states += [build_tpes(pol, path) for pol, path in ALL_BELL_OUTCOMES]
    assert _states_sha256(states) == "438a40d7af46c6a69e457f347a39ea8d76e380bfdec142f430585d9031c9f478"


def test_expansion_weights_and_completeness():
    rng = np.random.default_rng(60)
    a, b = random_qubit_pair(rng)
    g, d = random_qubit_pair(rng)
    branches = expand_five_photon(a, b, g, d)
    assert len(branches) == 16
    total = sum(w for _, _, w in branches)
    assert total == pytest.approx(1.0, abs=1e-12)
    for _, _, w in branches:
        assert w == pytest.approx(1 / 16, abs=1e-12)


def test_expansion_matches_sign_table_term_for_term():
    rng = np.random.default_rng(61)
    for _ in range(3):
        a, b = random_qubit_pair(rng)
        g, d = random_qubit_pair(rng)
        branches = {outcome: (state, w) for outcome, state, w in expand_five_photon(a, b, g, d)}
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for row in BRANCH_TABLE:
            outcome = (row[0], row[1])
            state, weight = branches[outcome]
            unnormalized = [state.amplitude(occ) * math.sqrt(weight) for occ in basis]
            expected = expected_branch_amplitudes(row, a, b, g, d)
            assert np.allclose(unnormalized, expected, atol=1e-10)


def test_expansion_reconstructs_the_five_photon_state():
    rng = np.random.default_rng(62)
    a, b = random_qubit_pair(rng)
    g, d = random_qubit_pair(rng)
    branches = expand_five_photon(a, b, g, d)

    reconstructed = None
    for (pol_kind, path_kind), conditional, weight in branches:
        # Embed |bell24>|bell35>|cond1> back into the photon-ordered register.
        piece_weight = scale(conditional, math.sqrt(weight))
        for occ24, amp24 in bell_pair(pol_kind).terms.items():
            for occ35, amp35 in bell_pair(path_kind).terms.items():
                for occ1, amp1 in piece_weight.terms.items():
                    occ = list(occ1) + list(occ24[:4]) + list(occ35[:4]) + list(occ24[4:]) + list(occ35[4:])
                    piece = make_state(20, [(tuple(occ), amp24 * amp35 * amp1)])
                    reconstructed = piece if reconstructed is None else _add(reconstructed, piece)

    full = tensor(build_tpes("Phi-", "phi-"), _input_qubits_reference(a, b, g, d))
    for occ in set(full.terms) | set(reconstructed.terms):
        assert reconstructed.terms.get(occ, 0j) == pytest.approx(full.terms.get(occ, 0j), abs=1e-10)


def _input_qubits_reference(alpha, beta, gamma, delta):
    """The input qubits from make_state: photon 4's polarization rails, then photon 5's path rails."""
    psi4 = make_state(4, [((1, 0, 0, 0), alpha), ((0, 1, 0, 0), beta)])
    psi5 = make_state(4, [((1, 0, 0, 0), gamma), ((0, 0, 1, 0), delta)])
    return tensor(psi4, psi5)


def test_input_qubits_are_built_as_make_state_builds_them():
    def bits(state):
        return [(occ, repr(amp), type(amp)) for occ, amp in state.terms.items()]

    # Signed zeros included: tensor adds each product to 0j, which clears a -0.0 part.
    for amps in [
        (complex(-0.0, 0.6), complex(0.8, -0.0), np.complex128(complex(-0.0, -1.0)), 0.0),
        (np.float64(0.6), 0.8j, 1e-13, -1),
        random_qubit_pair(np.random.default_rng(68)) + random_qubit_pair(np.random.default_rng(69)),
    ]:
        # The input qubits are the second operand of the last tensor product, beside the resource.
        with mock.patch.object(tpes, "tensor", wraps=tensor) as spy:
            expand_five_photon(*amps)
        assert bits(spy.call_args.args[1]) == bits(_input_qubits_reference(*amps))


def _add(x, y):
    from fockjoin.fock import add

    return add(x, y)


def test_correction_table_reference_entries():
    table = derive_correction_table()
    assert len(table) == 16
    assert (table[("Phi-", "phi-")].pol_op, table[("Phi-", "phi-")].path_op) == ("I", "I")
    assert (table[("Phi+", "phi-")].pol_op, table[("Phi+", "phi-")].path_op) == ("Z", "I")
    assert (table[("Psi-", "phi-")].pol_op, table[("Psi-", "phi-")].path_op) == ("X", "I")
    for entry in table.values():
        u = entry.unitary
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def _searched_corrections(resource, inputs):
    """Per outcome, every Pauli pair that maps its branch onto the joined state for all inputs: the search the rule replaced."""
    expansions = [expand_five_photon(*inst, resource=resource) for inst in inputs]
    references = [joined_reference(*inst) for inst in inputs]
    found = {}
    for idx, outcome in enumerate(ALL_BELL_OUTCOMES):
        found[outcome] = [
            ops
            for ops in product(tpes._PAULI_ORDER, repeat=2)
            if all(
                fidelity(apply_unitary(expansion[idx][1], tpes._correction_unitary(*ops)), reference) >= 1 - 1e-9
                for expansion, reference in zip(expansions, references)
            )
        ]
    return found


def test_correction_rule_matches_the_search():
    # Two generic inputs, so that a pair matching both is pinned uniquely.
    rng = np.random.default_rng(20240917)
    inputs = [random_qubit_pair(rng) + random_qubit_pair(rng) for _ in range(2)]
    for resource in ALL_BELL_OUTCOMES:
        table = derive_correction_table(resource)
        for outcome, matches in _searched_corrections(resource, inputs).items():
            entry = table[outcome]
            assert matches == [(entry.pol_op, entry.path_op)], (resource, outcome, matches)
            assert np.array_equal(entry.unitary, np.kron(tpes._PAULI[entry.path_op], tpes._PAULI[entry.pol_op]))


def test_correction_table_is_fresh_and_teleport_join_does_not_read_it():
    table = derive_correction_table(("Phi-", "phi-"))
    table[ALL_BELL_OUTCOMES[0]] = table[ALL_BELL_OUTCOMES[1]]
    ab, gd = (0.6, 0.8j), (0.8, -0.6)
    assert teleport_join(ab, gd, outcome=0).fidelity_to_expected >= 1 - 1e-12
    fresh = derive_correction_table(("Phi-", "phi-"))
    assert fresh is not table and (fresh[ALL_BELL_OUTCOMES[0]].pol_op, fresh[ALL_BELL_OUTCOMES[0]].path_op) == ("Z", "Z")
    with mock.patch.object(tpes, "derive_correction_table", side_effect=AssertionError("called")):
        for outcome in range(16):
            assert teleport_join(ab, gd, outcome=outcome, resource=("Psi+", "psi-")).fidelity_to_expected >= 1 - 1e-12


@pytest.mark.parametrize(
    "resource, kind, expected",
    [
        (("Phi", "phi-"), "Phi", r"Phi\+, Phi-, Psi\+, Psi-"),
        (("Phi-", "Phi-"), "Phi-", r"phi\+, phi-, psi\+, psi-"),
        (("phi-", "phi-"), "phi-", r"Phi\+, Phi-, Psi\+, Psi-"),
    ],
)
def test_unknown_resource_kind_raises_value_error_naming_it(resource, kind, expected):
    message = rf"^unknown Bell kind {kind!r}; expected one of {expected}$"
    with pytest.raises(ValueError, match=message):
        derive_correction_table(resource)
    with pytest.raises(ValueError, match=message):
        teleport_join((1, 0), (1, 0), outcome=0, resource=resource)


@pytest.mark.parametrize("resource", [("Phi-", "phi-", "x"), "Phi-", None, ("Phi-",)])
def test_resource_that_is_not_a_pair_raises_value_error_naming_it(resource):
    message = rf"^resource must be a \(pol, path\) pair of Bell kinds, got {re.escape(repr(resource))}$"
    for call in (
        lambda: derive_correction_table(resource),
        lambda: teleport_join((1, 0), (1, 0), outcome=0, resource=resource),
        lambda: expand_five_photon(1, 0, 1, 0, resource=resource),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_teleport_basis_inputs():
    for outcome in (0, 7, 15):
        report = teleport_join((1, 0), (1, 0), outcome=outcome)
        assert report.fidelity_to_expected >= 1 - 1e-12
        assert abs(abs(report.output.amplitude((1, 0, 0, 0))) - 1.0) < 1e-10


def test_teleport_all_outcomes_reach_unit_fidelity():
    rng = np.random.default_rng(63)
    for _ in range(3):
        ab = random_qubit_pair(rng)
        gd = random_qubit_pair(rng)
        for outcome in ALL_BELL_OUTCOMES:
            report = teleport_join(ab, gd, outcome=outcome)
            assert report.success_probability == pytest.approx(1 / 16, abs=1e-12)
            assert report.fidelity_to_expected >= 1 - 1e-10


def test_teleport_sampling_distribution_uniform():
    # Branch weights are exactly 1/16; sampling 10^4 outcomes must land
    # within 5 sigma of the uniform expectation for every branch.
    rng = np.random.default_rng(64)
    a, b = random_qubit_pair(rng)
    g, d = random_qubit_pair(rng)
    weights = np.array([w for _, _, w in expand_five_photon(a, b, g, d)])
    draws = np.random.default_rng(99).choice(16, size=10_000, p=weights / weights.sum())
    counts = np.bincount(draws, minlength=16)
    expected = 10_000 / 16
    sigma = math.sqrt(10_000 * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_teleport_sample_mode_is_seeded():
    first = teleport_join((0.6, 0.8), (0.8, 0.6), outcome="sample", seed=3)
    second = teleport_join((0.6, 0.8), (0.8, 0.6), outcome="sample", seed=3)
    assert first.branch == second.branch
    assert first.fidelity_to_expected >= 1 - 1e-10


def test_alternative_resource_changes_table_not_fidelity():
    resource = ("Psi+", "psi+")
    table_default = derive_correction_table()
    table_alt = derive_correction_table(resource)
    assert any(
        (table_default[o].pol_op, table_default[o].path_op) != (table_alt[o].pol_op, table_alt[o].path_op)
        for o in ALL_BELL_OUTCOMES
    )
    rng = np.random.default_rng(65)
    ab = random_qubit_pair(rng)
    gd = random_qubit_pair(rng)
    for outcome in ALL_BELL_OUTCOMES:
        report = teleport_join(ab, gd, outcome=outcome, resource=resource)
        assert report.fidelity_to_expected >= 1 - 1e-10


def test_resolve_outcome():
    assert resolve_outcome(5) == ("Phi-", "phi-")
    assert resolve_outcome(("Psi+", "psi-")) == ("Psi+", "psi-")
    with pytest.raises(ValueError):
        resolve_outcome(16)
    with pytest.raises(ValueError):
        resolve_outcome(("Psi+", "Psi+"))


@pytest.mark.parametrize("outcome", ["Phi+", ("Phi+",), ("Phi+", "phi+", "x")])
def test_an_outcome_that_is_no_pair_is_an_unknown_bell_outcome(outcome):
    # A bare kind, or a sequence of other than two entries, is no outcome; it must not escape as an unpacking error.
    message = rf"^unknown Bell outcome {re.escape(repr(outcome))}$"
    with pytest.raises(ValueError, match=message):
        resolve_outcome(outcome)
    with pytest.raises(ValueError, match=message):
        teleport_join((1, 0), (1, 0), outcome=outcome)
    assert resolve_outcome(["Psi+", "psi-"]) == ("Psi+", "psi-")


def test_an_outcome_pair_of_numpy_strings_runs_as_the_tuple():
    # Only the str "sample" skips resolve_outcome; an array is never compared with it.
    expected = teleport_join((0.6, 0.8j), (0.28, -0.96j), outcome=("Phi+", "phi-"))
    for outcome in (np.array(["Phi+", "phi-"]), (np.str_("Phi+"), np.str_("phi-"))):
        assert teleport_join((0.6, 0.8j), (0.28, -0.96j), outcome=outcome) == expected
    with pytest.raises(ValueError, match=r"^unknown Bell outcome array\(\['Phi\+', 'x'\]"):
        teleport_join((1, 0), (1, 0), outcome=np.array(["Phi+", "x"]))


def test_resolve_outcome_reads_the_index_as_an_integer():
    assert resolve_outcome(np.int64(3)) == ALL_BELL_OUTCOMES[3]
    assert teleport_join((1, 0), (0, 1), outcome=np.uint8(3)).branch == "/".join(ALL_BELL_OUTCOMES[3])
    for bad in (True, False, 3.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=r"^outcome index \[.*\] must hold integers$"):
            resolve_outcome(bad)
    with pytest.raises(ValueError, match=r"^outcome index 16 out of range 0\.\.15$"):
        resolve_outcome(np.int64(16))
    with pytest.raises(ValueError, match=r"^outcome index \[-1\] out of range$"):
        resolve_outcome(-1)


def _reports_sha256(reports):
    # repr of each report's terms (with amplitude types), probability,
    # fidelity, branch and feed-forward flag.
    items = [
        (
            [(occ, complex(amp), type(amp).__name__) for occ, amp in r.output.terms.items()],
            r.success_probability,
            type(r.success_probability).__name__,
            r.fidelity_to_expected,
            type(r.fidelity_to_expected).__name__,
            r.branch,
            r.feed_forward_applied,
        )
        for r in reports
    ]
    return hashlib.sha256(repr(items).encode()).hexdigest()


_PINNED_RESOURCES = (("Phi-", "phi-"), ("Psi+", "psi-"))


def test_teleport_reports_are_pinned():
    rng = np.random.default_rng(67)
    ab, gd = random_qubit_pair(rng), random_qubit_pair(rng)
    forced = [teleport_join(ab, gd, outcome=k, resource=r) for r in _PINNED_RESOURCES for k in range(16)]
    assert _reports_sha256(forced) == "e1f507440a2addef34363a6f3f8c775143cf90b7731e15446f73c0de7284cb3b"
    sampled = [teleport_join(ab, gd, outcome="sample", seed=s, resource=_PINNED_RESOURCES[s % 2]) for s in range(32)]
    assert len({r.branch for r in sampled}) == 16
    assert _reports_sha256(sampled) == "cceb124d65a8964bb31192ad64c81221be821d50369f96007b729a00ac1863b4"


def test_sampled_outcome_is_the_one_generator_choice_draws():
    uniform = np.full(16, 1 / 16)
    for seed in range(1000):
        drawn = ALL_BELL_OUTCOMES[int(np.random.default_rng(seed).choice(16, p=uniform))]
        assert teleport_join((1, 0), (1, 0), outcome="sample", seed=seed).branch == "/".join(drawn)


def test_bell_pairs_and_resources_are_shared_read_only():
    for kind in POL_BELL_KINDS + PATH_BELL_KINDS:
        assert bell_pair(kind) is bell_pair(kind)
    for pol, path in ALL_BELL_OUTCOMES:
        assert build_tpes(pol, path) is build_tpes(pol, path)
        assert tpes._joining_input(pol, path) is tpes._joining_input(pol, path)
    for state in (bell_pair("Phi-"), build_tpes("Psi+", "psi-")):
        occ = next(iter(state.terms))
        with pytest.raises(TypeError):
            state.terms[occ] = 0j
        with pytest.raises(TypeError):
            del state.terms[occ]
    with pytest.raises(ValueError, match=r"^unknown Bell kind 'Phi'; expected one of Phi\+, Phi-, Psi\+, Psi-, phi\+"):
        bell_pair("Phi")
    with pytest.raises(ValueError, match=r"^unknown Bell kind 'phi\+'; expected one of Phi\+, Phi-, Psi\+, Psi-$"):
        build_tpes("phi+", "phi+")
    with pytest.raises(ValueError, match=r"^unknown Bell kind 'Phi-'; expected one of phi\+, phi-, psi\+, psi-$"):
        build_tpes("Phi-", "Phi-")
    # Each builder checks its kinds before its cache is looked up, so an unhashable kind is named too.
    for kinds, named in ((("phi+", "phi+"), "'phi+'"), ((["Phi-"], "phi-"), "['Phi-']"), (("Phi-", {"a": 1}), "{'a': 1}")):
        for builder in (tpes_via_joining, build_tpes):
            with pytest.raises(ValueError, match=f"^unknown Bell kind {re.escape(named)}; expected one of "):
                builder(*kinds)
    for kind in (["Phi-"], {"a": 1}):
        with pytest.raises(ValueError, match=f"^unknown Bell kind {re.escape(repr(kind))}; expected one of "):
            bell_pair(kind)


def test_expansion_rejects_unnormalized_inputs():
    with pytest.raises(ValueError):
        expand_five_photon(1.0, 1.0, 1.0, 0.0)


def _scaled(pair, squared_norm):
    """pair times sqrt(squared_norm): a normalized qubit pair pushed to the given squared norm."""
    return tuple(complex(a) * math.sqrt(squared_norm) for a in pair)


def test_teleport_join_reports_on_inputs_its_tolerance_accepts():
    # Each pair is within NORM_ATOL of norm 1, but their product reference is off by about twice that, so the report
    # must take the clamped overlap and not check the reference's normalization again.
    pairs = _scaled((0.6, 0.8j), 1 + 0.9e-8), _scaled((0.28, -0.96j), 1 + 0.9e-8)
    for outcome in range(16):
        assert teleport_join(*pairs, outcome=outcome).fidelity_to_expected >= 1 - 1e-7
    with pytest.raises(ValueError, match=r"^alpha/beta amplitudes must be normalized$"):
        teleport_join(_scaled((0.6, 0.8j), 1 + 1.01e-8), _scaled((0.28, -0.96j), 1 + 1.01e-8), outcome=5)


def test_joined_reference_norm():
    rng = np.random.default_rng(66)
    ab = random_qubit_pair(rng)
    gd = random_qubit_pair(rng)
    assert norm(joined_reference(*ab, *gd)) == pytest.approx(1.0)
