import hashlib
import math

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

    from fockjoin.tpes import _input_qubits_state

    full = tensor(build_tpes("Phi-", "phi-"), _input_qubits_state(a, b, g, d))
    for occ in set(full.terms) | set(reconstructed.terms):
        assert reconstructed.terms.get(occ, 0j) == pytest.approx(full.terms.get(occ, 0j), abs=1e-10)


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


def test_expansion_rejects_unnormalized_inputs():
    with pytest.raises(ValueError):
        expand_five_photon(1.0, 1.0, 1.0, 0.0)


def test_joined_reference_norm():
    rng = np.random.default_rng(66)
    ab = random_qubit_pair(rng)
    gd = random_qubit_pair(rng)
    assert norm(joined_reference(*ab, *gd)) == pytest.approx(1.0)
