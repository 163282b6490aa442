import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import re
import struct
import warnings
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import DenseFock, enumerate_occupations
from fockjoin.fock import PRUNE_TOL, FockState, add, basis_state, make_state, norm, normalize, state_to_dict
from fockjoin.optics import (
    ModeUnitary,
    ProjectorSpec,
    apply_projector,
    apply_unitary,
    beamsplitter,
    compose,
    haar_random_unitary,
    hadamard_pair,
    identity,
    mode_permutation,
    phase_shifter,
    random_projector,
)
from fockjoin import cli, optics, schemes, tpes
from fockjoin.optics import _expand, _expand_arrays
from fockjoin.permanent import permanent, transition_amplitude


def random_occupation_state(modes, rng, max_total=3, n_terms=4):
    occs = enumerate_occupations(modes, max_total)
    picks = rng.choice(len(occs), size=n_terms, replace=False)
    terms = [(occs[k], complex(rng.standard_normal(), rng.standard_normal())) for k in picks]
    return normalize(make_state(modes, terms))


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        ModeUnitary(2, np.array([[1, 0], [0, 2]], dtype=complex))


_COUNT_CONSTRUCTORS = {
    "ModeUnitary": lambda m: ModeUnitary(m, np.eye(2)),
    "identity": identity,
    "haar_random_unitary": lambda m: haar_random_unitary(m, 5),
    "random_projector": lambda m: random_projector(m, np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", sorted(_COUNT_CONSTRUCTORS))
def test_a_mode_count_is_an_int_of_at_least_one(name):
    build = _COUNT_CONSTRUCTORS[name]
    for bad in (2.0, 2.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"^modes \[.*\] must hold integers$"):
            build(bad)
    with pytest.raises(ValueError, match=r"^mode count must be positive, got 0$"):
        build(0)
    built = build(np.int64(2))
    count = built.modes if name == "random_projector" else built.dim
    assert type(count) is int and count == 2


def _complex_product_parts():
    """Rows (ar, ai, br, bi): standard normals, signed zeros and subnormals among them, and parts near 1e150."""
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072e-308, 1.0, -3.0, 1e150, -7.3e149])
    return np.concatenate([
        rng.standard_normal((4000, 4)),
        rng.choice(specials, (2000, 4)),
        np.where(rng.random((2000, 4)) < 0.5, rng.choice(specials, (2000, 4)), rng.standard_normal((2000, 4))),
        rng.standard_normal((2000, 4)) * 1e150,
    ])


def _bits(*parts):
    return [x.hex() for part in parts for x in np.asarray(part, dtype=float).reshape(-1).tolist()]


def test_complex_product_is_cpythons_complex_product():
    parts = _complex_product_parts()
    scalar = []
    for ar, ai, br, bi in parts.tolist():
        z = complex(ar, ai) * complex(br, bi)
        assert _bits(*optics._complex_product(ar, ai, br, bi)) == _bits(z.real, z.imag)
        # CPython 3.10-3.13 multiplies a float x and a complex as complex(x, 0.0) and that complex.
        w = ar * complex(br, bi)
        assert _bits(*optics._complex_product(ar, 0.0, br, bi)) == _bits(w.real, w.imag)
        scalar.append((z.real, z.imag))
    # Over arrays, each entry is the scalar product's.
    re, im = optics._complex_product(*parts.T)
    assert _bits(re, im) == _bits(*np.array(scalar).T)


def test_beamsplitter_block_values():
    u = beamsplitter(2, 0, 1, math.pi / 4).matrix
    r = 1 / math.sqrt(2)
    assert np.allclose(u, [[r, r], [-r, r]])
    assert np.allclose(beamsplitter(3, 0, 2, 0.0).matrix, np.eye(3))


def test_beamsplitter_one_third_transmission():
    theta = math.acos(1 / math.sqrt(3))
    u = beamsplitter(2, 0, 1, theta).matrix
    assert abs(u[0, 0]) ** 2 == pytest.approx(1 / 3)


def test_beamsplitter_rejects_bad_modes():
    with pytest.raises(ValueError):
        beamsplitter(2, 0, 0, 1.0)
    with pytest.raises(ValueError):
        beamsplitter(2, 0, 5, 1.0)


def test_two_photon_interference():
    # Balanced coupler on |11>: the photons bunch, the coincidence term
    # cancels, and with this block convention the bunched amplitudes are
    # (|02> - |20>)/sqrt2. The sign is pinned by the independent
    # permanent oracle below.
    out = apply_unitary(make_state(2, [((1, 1), 1)]), beamsplitter(2, 0, 1, math.pi / 4))
    r = 1 / math.sqrt(2)
    assert out.terms[(0, 2)] == pytest.approx(r)
    assert out.terms[(2, 0)] == pytest.approx(-r)
    assert (1, 1) not in out.terms
    u = beamsplitter(2, 0, 1, math.pi / 4).matrix
    assert transition_amplitude(u, (1, 1), (0, 2)) == pytest.approx(r)
    assert transition_amplitude(u, (1, 1), (2, 0)) == pytest.approx(-r)
    assert transition_amplitude(u, (1, 1), (1, 1)) == pytest.approx(0.0)


def test_identity_and_swap():
    s = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    assert apply_unitary(s, identity(2)).terms == s.terms
    assert apply_unitary(basis_state(2, (1, 0)), mode_permutation(2, (1, 0))).terms == {(0, 1): 1}


def test_apply_unitary_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(2, (1, 0)), identity(3))


def test_apply_unitary_preserves_norm_and_photon_number():
    rng = np.random.default_rng(10)
    for trial in range(5):
        s = random_occupation_state(4, rng)
        u = haar_random_unitary(4, 300 + trial)
        out = apply_unitary(s, u)
        assert abs(norm(out) - 1.0) <= 1e-10
        totals_in = {sum(occ) for occ in s.terms}
        totals_out = {sum(occ) for occ in out.terms}
        assert totals_out <= totals_in


def test_apply_unitary_inverse_roundtrip():
    rng = np.random.default_rng(11)
    s = random_occupation_state(4, rng)
    u = haar_random_unitary(4, 77)
    u_dag = ModeUnitary(4, u.matrix.conj().T)
    back = apply_unitary(apply_unitary(s, u), u_dag)
    for occ in set(s.terms) | set(back.terms):
        assert back.terms.get(occ, 0j) == pytest.approx(s.terms.get(occ, 0j), abs=1e-9)


def test_single_photon_states_follow_the_matrix():
    # One photon in mode i maps to sum_j u[i, j] |1_j>, so the amplitude
    # vector transforms by u transposed.
    rng = np.random.default_rng(12)
    u = haar_random_unitary(3, 5)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    amps /= np.linalg.norm(amps)
    s = make_state(3, [((1, 0, 0), amps[0]), ((0, 1, 0), amps[1]), ((0, 0, 1), amps[2])])
    out = apply_unitary(s, u)
    expected = u.matrix.T @ amps
    got = np.array([out.amplitude((1, 0, 0)), out.amplitude((0, 1, 0)), out.amplitude((0, 0, 1))])
    assert np.allclose(got, expected, atol=1e-12)


def test_hadamard_pair_action_and_involution():
    h = hadamard_pair(2, 0, 1)
    out = apply_unitary(basis_state(2, (1, 0)), h)
    r = 1 / math.sqrt(2)
    assert out.terms[(1, 0)] == pytest.approx(r)
    assert out.terms[(0, 1)] == pytest.approx(r)
    assert np.allclose(compose(h, h).matrix, np.eye(2), atol=1e-12)


def test_phase_shifter():
    out = apply_unitary(basis_state(2, (0, 1)), phase_shifter(2, 1, math.pi / 2))
    assert out.terms[(0, 1)] == pytest.approx(1j)


def test_projector_annihilates_single_photon():
    state, prob = apply_projector(basis_state(2, (1, 0)), ProjectorSpec([1, 0]))
    assert prob == pytest.approx(1.0)
    assert state.terms == {(0, 0): pytest.approx(1.0)}


def test_projector_half_overlap():
    r = 1 / math.sqrt(2)
    state, prob = apply_projector(basis_state(2, (1, 0)), ProjectorSpec([r, r]))
    assert prob == pytest.approx(0.5)
    assert state.terms[(0, 0)] == pytest.approx(1.0)


def test_projector_zero_branch_is_flagged_null():
    r = 1 / math.sqrt(2)
    minus = normalize(add(basis_state(2, (1, 0)), basis_state(2, (0, 1))))
    state, prob = apply_projector(minus, ProjectorSpec([r, -r]))
    assert prob == 0.0
    assert state.is_zero


def test_projector_keeps_numpy_entries_and_skips_zero_ones():
    phi = np.array([0.6, 0.0, -0.8j])
    p = ProjectorSpec(phi)
    s = make_state(3, [((1, 1, 0), 0.6), ((0, 2, 1), 0.8j), ((0, 1, 0), -0.0)])
    state, prob = apply_projector(s, p)
    assert p._support == ((0, np.conj(phi[0])), (2, np.conj(phi[2])))
    assert all(type(c) is np.complex128 for _, c in p._support)
    raw = {(0, 1, 0): (0.6 + 0j) * np.complex128(0.6), (0, 2, 0): 0.8j * np.complex128(0.8j)}
    assert prob == pytest.approx(0.36**2 + 0.64**2, rel=1e-15)
    assert list(state.terms) == list(raw)
    for occ, amp in state.terms.items():
        assert type(amp) is np.complex128 and amp == raw[occ] / math.sqrt(prob)


def test_projector_requires_normalized_vector():
    with pytest.raises(ValueError):
        ProjectorSpec([1, 1])


def test_projector_probability_matches_dense_oracle():
    rng = np.random.default_rng(13)
    dense = DenseFock(3, 3)
    for trial in range(8):
        s = random_occupation_state(3, rng)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        phi /= np.linalg.norm(phi)
        _, prob = apply_projector(s, ProjectorSpec(phi))
        vec = dense.detection_operator(phi) @ dense.vector(s)
        assert prob == pytest.approx(np.linalg.norm(vec) ** 2, abs=1e-10)


def test_haar_unitary_determinism_and_scalar_case():
    a = haar_random_unitary(4, 123).matrix
    b = haar_random_unitary(4, 123).matrix
    assert np.array_equal(a, b)
    scalar = haar_random_unitary(1, 5).matrix
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12


def test_haar_first_moment():
    # E|u_00|^2 = 1/m for Haar; 3 sigma of the sample mean over 10^4
    # draws at m=4 is about 0.006.
    samples = np.array([abs(haar_random_unitary(4, 10_000 + k).matrix[0, 0]) ** 2 for k in range(10_000)])
    assert abs(samples.mean() - 0.25) < 0.006


def test_permanent_ryser_matches_definition():
    rng = np.random.default_rng(14)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    from itertools import permutations

    naive = sum(math.prod(mat[i, p[i]] for i in range(4)) for p in permutations(range(4)))
    assert permanent(mat) == pytest.approx(naive)


def test_unitary_application_matches_permanent_oracle_small():
    u = haar_random_unitary(3, 9)
    for occ_in in enumerate_occupations(3, 3):
        out = apply_unitary(basis_state(3, occ_in), u)
        for occ_out in enumerate_occupations(3, 3):
            if sum(occ_out) != sum(occ_in):
                continue
            expected = transition_amplitude(u.matrix, occ_in, occ_out)
            assert out.amplitude(occ_out) == pytest.approx(expected, abs=1e-10)


@st.composite
def _states_under_haar(draw):
    """A random state of at most 4 modes and 3 photons, and a Haar unitary seed."""
    modes = draw(st.integers(1, 4))
    occs = enumerate_occupations(modes, 3)
    picks = draw(st.lists(st.sampled_from(occs), min_size=1, max_size=5, unique=True))
    parts = st.floats(-1, 1, allow_nan=False)
    amps = [complex(draw(parts), draw(parts)) for _ in picks]
    if sum(abs(a) ** 2 for a in amps) < 1e-6:
        amps[0] = 1.0
    return normalize(make_state(modes, list(zip(picks, amps)))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_states_under_haar())
def test_apply_unitary_matches_permanent_oracle_property(case):
    state, seed = case
    u = haar_random_unitary(state.modes, seed)
    out = apply_unitary(state, u)
    for occ_out in enumerate_occupations(state.modes, 3):
        expected = sum(
            amp * transition_amplitude(u.matrix, occ_in, occ_out) for occ_in, amp in state.terms.items()
        )
        assert abs(out.amplitude(occ_out) - expected) < 1e-10
    # Photon number is conserved sector by sector, so the norm is too.
    for n in range(4):
        weight_in = sum(abs(a) ** 2 for occ, a in state.terms.items() if sum(occ) == n)
        weight_out = sum(abs(a) ** 2 for occ, a in out.terms.items() if sum(occ) == n)
        assert abs(weight_out - weight_in) < 1e-10
    assert all(sum(occ) <= 3 for occ in out.terms)
    assert abs(norm(out) - 1.0) < 1e-10


def test_mode_unitary_keeps_a_private_read_only_copy():
    source = np.eye(2, dtype=complex)
    u = ModeUnitary(2, source)
    source[0, 0] = 5
    assert apply_unitary(basis_state(2, (1, 0)), u).terms == {(1, 0): 1}
    assert u.matrix[0, 0] == 1
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5


def _plan_fields(u):
    """u._expansion_plan with its pickers and layout applied to a probe occupation, and its entries as reprs (signed zeros too)."""
    pick_active, pick_passive, layout, rows, active, array_photons, kernel = u._expansion_plan
    probe = tuple(range(10, 10 + u.dim))
    return pick_active(probe), pick_passive(probe), layout(pick_passive(probe) + pick_active(probe)), repr(rows), active, array_photons, kernel


@pytest.mark.parametrize("m", range(1, 9))
def test_builders_hand_in_the_plan_the_scan_derives(m):
    # The builders name their active modes and skip the scan; ModeUnitary(m, matrix) scans the same matrix.
    # theta = 0 is the identity, with +-0j off the diagonal; phase 0 and 2 pi, and the identity permutation, too.
    rng = np.random.default_rng(m)
    built = [phase_shifter(m, i, phase) for i in range(m) for phase in (0.0, -0.0, 2 * math.pi, 0.4, -math.pi)]
    built += [mode_permutation(m, range(m)), mode_permutation(m, rng.permutation(m)), mode_permutation(m, range(m)[::-1])]
    for i, j in itertools.permutations(range(m), 2):
        built.append(hadamard_pair(m, i, j))
        for theta in (0.0, -0.0, 1e-9, 0.7, math.pi / 2, math.pi, -2.1):
            built += [beamsplitter(m, i, j, theta, phase) for phase in (0.0, 1.3, -math.pi)]
    for u in built:
        assert _plan_fields(u) == _plan_fields(ModeUnitary(m, u.matrix))
        assert not u.matrix.flags.writeable
    identities = [phase_shifter(m, 0, 0.0), mode_permutation(m, range(m))]
    identities += [beamsplitter(m, 0, m - 1, 0.0, 1.3)] if m > 1 else []
    assert all(u._expansion_plan[4] == [] for u in identities)


def test_projector_spec_keeps_a_private_read_only_copy():
    r = 1 / math.sqrt(2)
    source = np.array([r, r], dtype=complex)
    p = ProjectorSpec(source)
    source[1] = -r
    assert p.phi[1] == r
    _, prob = apply_projector(basis_state(2, (0, 1)), p)
    assert prob == pytest.approx(0.5)
    with pytest.raises(ValueError):
        p.phi[0] = 1


def test_applied_unitary_still_pickles():
    s = make_state(3, [((1, 0, 1), 0.6), ((0, 2, 0), 0.8)])
    for u in (phase_shifter(3, 1, 0.5), beamsplitter(3, 0, 2, 0.4, 0.3), haar_random_unitary(3, 4)):
        out = apply_unitary(s, u)
        back = pickle.loads(pickle.dumps(u))
        assert np.array_equal(back.matrix, u.matrix) and not back.matrix.flags.writeable
        assert apply_unitary(s, back).terms == out.terms


def _written(m, entries):
    """np.eye(m) as complex with each ((row, column), value) written over it: a builder's matrix, written out here."""
    mat = np.eye(m, dtype=complex)
    for (row, col), value in entries:
        mat[row, col] = value
    return mat


def _coupler_entries(i, j, theta, phase):
    """The documented block [[cos, e^{i p} sin], [-e^{-i p} sin, cos]] on (i, j)."""
    c, s = math.cos(theta), math.sin(theta)
    return [((i, i), c), ((i, j), np.exp(1j * phase) * s), ((j, i), -np.exp(-1j * phase) * s), ((j, j), c)]


def _element_cases():
    """(name, builder call, its matrix written out as np.eye plus the documented entries)."""
    r = 1 / math.sqrt(2)
    perm = [2, 0, 1, 3, 5, 4]
    return [
        ("identity", lambda: identity(5), np.eye(5, dtype=complex)),
        ("coupler", lambda: beamsplitter(5, 1, 3, 0.7, -0.4), _written(5, _coupler_entries(1, 3, 0.7, -0.4))),
        ("coupler i > j", lambda: beamsplitter(5, 4, 0, 1.1, 2.5), _written(5, _coupler_entries(4, 0, 1.1, 2.5))),
        ("coupler theta 0 phase pi", lambda: beamsplitter(4, 0, 2, 0.0, math.pi), _written(4, _coupler_entries(0, 2, 0.0, math.pi))),
        ("coupler theta -0.0", lambda: beamsplitter(4, 3, 1, -0.0, 0.3), _written(4, _coupler_entries(3, 1, -0.0, 0.3))),
        ("phase", lambda: phase_shifter(4, 2, 0.9), _written(4, [((2, 2), np.exp(0.9j))])),
        ("phase -0.0", lambda: phase_shifter(4, 1, -0.0), _written(4, [((1, 1), np.exp(1j * -0.0))])),
        ("hadamard i > j", lambda: hadamard_pair(4, 3, 1), _written(4, [((3, 3), r), ((3, 1), r), ((1, 3), r), ((1, 1), -r)])),
        # Row i is e_perm[i]: its diagonal 1 moves to column perm[i].
        ("permutation", lambda: mode_permutation(6, perm), _written(6, [e for i, p in enumerate(perm) for e in (((i, i), 0), ((i, p), 1))])),
        ("identity permutation", lambda: mode_permutation(3, range(3)), np.eye(3, dtype=complex)),
    ]


def test_element_cases_hold_signed_zeros():
    # The cases above exercise the bytes a == comparison would miss.
    refs = {name: ref for name, _, ref in _element_cases()}
    assert np.signbit(refs["coupler theta 0 phase pi"][0, 2].real) and refs["coupler theta 0 phase pi"][0, 2] == 0
    assert np.signbit(refs["coupler theta -0.0"][3, 1].real) and np.signbit(refs["coupler theta -0.0"][1, 3].imag)
    # 1j * -0.0 keeps the zero's sign only where float times complex skips complex(x, 0.0): the entry is then 1 - 0j,
    # and 1 + 0j here. Either moves no mode, and the bytes must be the written ones.
    assert refs["phase -0.0"][1, 1] == 1 and phase_shifter(4, 1, -0.0)._expansion_plan[4] == []


@pytest.mark.parametrize("name, build, reference", _element_cases(), ids=[case[0] for case in _element_cases()])
def test_an_element_builds_its_matrix_on_first_read_with_the_written_bytes(name, build, reference):
    u = build()
    assert "matrix" not in vars(u)
    assert u.matrix.tobytes() == reference.tobytes() and u.matrix.shape == reference.shape
    # The first read keeps the read-only array in the instance; later reads return it.
    assert vars(u)["matrix"] is u.matrix and not u.matrix.flags.writeable
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 2
    # Any other missing attribute is missing as on any object.
    with pytest.raises(AttributeError, match="'ModeUnitary' object has no attribute 'missing'"):
        build().missing


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("name, build, reference", _element_cases(), ids=[case[0] for case in _element_cases()])
def test_an_element_copies_composes_and_prints_as_its_written_matrix(name, build, reference, read_first):
    state = FockState(reference.shape[0], {occ: complex(0.1 * k, -0.2) for k, occ in enumerate(enumerate_occupations(reference.shape[0], 2))})
    expected = apply_unitary(state, build()).terms

    def fresh():
        u = build()
        if read_first:
            u.matrix
        return u

    for copied in (pickle.loads(pickle.dumps(fresh())), copy.copy(fresh()), copy.deepcopy(fresh())):
        # A copy keeps the entries of an unread matrix, not a matrix.
        assert ("matrix" in vars(copied)) is read_first
        assert copied.matrix.tobytes() == reference.tobytes() and not copied.matrix.flags.writeable
        assert list(apply_unitary(state, copied).terms.items()) == list(expected.items())
    replaced = dataclasses.replace(fresh())
    assert type(replaced) is ModeUnitary and replaced.matrix.tobytes() == reference.tobytes()
    assert compose(fresh(), fresh()).matrix.tobytes() == (np.eye(len(reference), dtype=complex) @ reference @ reference).tobytes()
    assert repr(fresh()) == f"ModeUnitary(dim={len(reference)}, matrix={reference!r})"


def test_photon_free_term_passes_through_unchanged():
    s = make_state(3, [((0, 0, 0), 0.6), ((1, 0, 1), 0.8j)])
    out = apply_unitary(s, beamsplitter(3, 0, 2, 0.4, 0.3))
    assert out.terms[(0, 0, 0)] == s.terms[(0, 0, 0)]
    assert all(type(a) is np.complex128 for a in out.terms.values())
    # On the array pass and through a chain of them too, from either amplitude type: the bits of 0j + amp.
    terms = {occ: complex(0.1, 0.01 * k) for k, occ in enumerate(enumerate_occupations(3, 5))}
    for vacuum in (complex(0.6, -0.0), np.complex128(-0.6)):
        chained = FockState(3, terms | {(0, 0, 0): vacuum})
        for u in (beamsplitter(3, 0, 2, 0.4, 0.3), phase_shifter(3, 1, 0.2), hadamard_pair(3, 1, 2)):
            chained = apply_unitary(chained, u)
        assert type(chained) is optics._Packed
        assert type(chained.terms[(0, 0, 0)]) is np.complex128 and _bytes([chained.terms[(0, 0, 0)]]) == _bytes([0j + vacuum])


def _embedded_haar(modes, subset, seed):
    mat = np.eye(modes, dtype=complex)
    mat[np.ix_(subset, subset)] = haar_random_unitary(len(subset), seed).matrix
    return ModeUnitary(modes, mat)


@st.composite
def _states_under_elements(draw):
    """A state of at most 7 modes and 4 photons, and one mixing element on some of its modes."""
    modes = draw(st.integers(2, 7))
    occs = enumerate_occupations(modes, 4)
    picks = draw(st.lists(st.sampled_from(occs), min_size=1, max_size=4, unique=True))
    parts = st.floats(-1, 1, allow_nan=False)
    amps = [complex(draw(parts), draw(parts)) for _ in picks]
    if sum(abs(a) ** 2 for a in amps) < 1e-6:
        amps[0] = 1.0
    state = normalize(make_state(modes, list(zip(picks, amps))))
    pair = draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2, unique=True))
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    kind = draw(st.sampled_from(["bs", "had", "ps", "perm", "haar"]))
    if kind == "bs":
        element = beamsplitter(modes, *pair, draw(angle), draw(angle))
    elif kind == "had":
        element = hadamard_pair(modes, *pair)
    elif kind == "ps":
        element = phase_shifter(modes, pair[0], draw(angle))
    elif kind == "perm":
        element = mode_permutation(modes, draw(st.permutations(range(modes))))
    else:
        subset = draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=modes, unique=True))
        element = _embedded_haar(modes, subset, draw(st.integers(0, 2**32 - 1)))
    return state, element


@settings(max_examples=60, deadline=None)
@given(_states_under_elements())
def test_apply_unitary_on_mode_subsets_matches_permanent_oracle(case):
    state, u = case
    out = apply_unitary(state, u)
    sectors = {sum(occ) for occ in state.terms}
    for occ_out in enumerate_occupations(state.modes, 4):
        if sum(occ_out) not in sectors:
            assert occ_out not in out.terms
            continue
        expected = sum(
            amp * transition_amplitude(u.matrix, occ_in, occ_out) for occ_in, amp in state.terms.items()
        )
        assert abs(out.amplitude(occ_out) - expected) < 1e-10
    assert abs(norm(out) - 1.0) < 1e-10


def _items_sha256(state):
    # repr of each (occupation, amplitude, amplitude type) in insertion
    # order; the type name keeps the hash independent of numpy's repr.
    items = [(occ, complex(amp), type(amp).__name__) for occ, amp in state.terms.items()]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _mesh_elements(modes, seed):
    """A phase column, then brick-wall couplers with a mode permutation halfway."""
    rng = np.random.default_rng(seed)
    elements = [phase_shifter(modes, i, float(rng.uniform(-math.pi, math.pi))) for i in range(modes)]
    for layer in range(modes):
        if layer == modes // 2:
            elements.append(mode_permutation(modes, rng.permutation(modes)))
        for i in range(layer % 2, modes - 1, 2):
            theta, phase = float(rng.uniform(0, math.pi / 2)), float(rng.uniform(-math.pi, math.pi))
            elements.append(beamsplitter(modes, i, i + 1, theta, phase))
    return elements


def test_mesh_evolution_terms_are_pinned():
    # Values, amplitude types and term order must all stay as they are.
    state = basis_state(8, (1, 0, 1, 0, 1, 0, 1, 0))
    for element in _mesh_elements(8, 2024):
        state = apply_unitary(state, element)
    assert len(state.terms) == 330
    assert _items_sha256(state) == "39f8dc8edfaf1747b6d9ff09636b2c9309b2e38a226cd83122f6c3dea986796a"


def _mask_parts(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts that stress the pruning mask, shuffled together.

    Parts one step either side of PRUNE_TOL, magnitudes at PRUNE_TOL split
    across both parts (each nudged a step), signed zeros, subnormals, parts
    from 1e154 to 1e300 (their squares overflow), infinities and NaN, and
    ordinary amplitudes.
    """
    steps = np.array([np.nextafter(PRUNE_TOL, 0), PRUNE_TOL, np.nextafter(PRUNE_TOL, 1)])
    angle = rng.uniform(0, 2 * np.pi, size)
    split_re, split_im = PRUNE_TOL * np.cos(angle), PRUNE_TOL * np.sin(angle)
    nudge = rng.integers(-1, 2, (2, size))
    split_re = np.where(nudge[0] == 1, np.nextafter(split_re, np.inf), np.where(nudge[0] == -1, np.nextafter(split_re, -np.inf), split_re))
    split_im = np.where(nudge[1] == 1, np.nextafter(split_im, np.inf), np.where(nudge[1] == -1, np.nextafter(split_im, -np.inf), split_im))
    signs = rng.choice([-1.0, 1.0], (2, size))
    pools = [
        (rng.choice(steps, size), np.zeros(size)),
        (split_re, split_im),
        (np.zeros(size), np.zeros(size)),
        (rng.integers(0, 2**52, size) * 5e-324, rng.integers(0, 2**52, size) * 5e-324),
        (10.0 ** rng.uniform(154, 300, size), 10.0 ** rng.uniform(-30, 300, size)),
        (rng.choice([np.inf, np.nan, 1.0], size), rng.choice([np.inf, np.nan, 0.0], size)),
        (rng.standard_normal(size) * 10.0 ** rng.uniform(-14, 0, size), rng.standard_normal(size) * 10.0 ** rng.uniform(-14, 0, size)),
    ]
    kind = rng.choice(len(pools), size, p=[0.2, 0.3, 0.1, 0.1, 0.1, 0.02, 0.18])
    re = np.choose(kind, [p[0] for p in pools]) * signs[0]
    im = np.choose(kind, [p[1] for p in pools]) * signs[1]
    swap = rng.random(size) < 0.5
    return np.where(swap, im, re), np.where(swap, re, im)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20_000) | st.sampled_from([1, 16, optics._SQUARED_MIN_TERMS - 1, optics._SQUARED_MIN_TERMS]), st.integers(0, 2**32 - 1))
def test_pruning_mask_is_hypot_above_the_tolerance_bit_for_bit(size, seed):
    re, im = _mask_parts(size, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing square must not warn
        kept = optics._kept(re, im)
    assert kept.dtype == bool and np.array_equal(kept, np.hypot(re, im) > PRUNE_TOL)


def _listed_active(u: ModeUnitary) -> list:
    """The active-mode scan as a comparison of Python complex lists, which the expansion plan's numpy scan replaced."""
    rows, cols, units = u.matrix.tolist(), u.matrix.T.tolist(), np.eye(u.dim, dtype=complex).tolist()
    return [i for i in range(u.dim) if rows[i] != units[i] or cols[i] != units[i]]


def test_active_mode_scan_equals_the_list_compare_scan():
    rng = np.random.default_rng(34)
    zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for m in range(1, 9):
        for _ in range(20):
            # A Haar block on some modes, an identity block on the rest, and signed zeros anywhere the identity has zeros.
            block = sorted(rng.choice(m, int(rng.integers(0, m + 1)), replace=False).tolist())
            mat = np.eye(m, dtype=complex)
            if len(block) > 1:
                mat[np.ix_(block, block)] = haar_random_unitary(len(block), int(rng.integers(2**31))).matrix
            mat[(mat == 0) & (rng.random((m, m)) < 0.5)] = zeros[int(rng.integers(3))]
            mat[(mat == 1) & (rng.random((m, m)) < 0.5)] = complex(1.0, -0.0)
            u = ModeUnitary(m, mat)
            assert u._expansion_plan[4] == _listed_active(u)
    for u in (beamsplitter(6, 1, 4, 0.7), mode_permutation(5, [0, 2, 1, 3, 4]), phase_shifter(4, 3, 0.5), identity(3)):
        assert ModeUnitary(u.dim, u.matrix)._expansion_plan[4] == _listed_active(u) == u._expansion_plan[4]


def test_dense_haar_evolution_terms_are_pinned():
    state = apply_unitary(basis_state(10, (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)), haar_random_unitary(10, 2024))
    assert len(state.terms) == 2002
    assert _items_sha256(state) == "be6278d4170c1de5e6a6734586c2b2191e7b24415347d0a03ac16ddb6ab0c91f"


def test_dense_haar_evolution_at_12_6_is_pinned():
    state = apply_unitary(basis_state(12, (1,) * 6 + (0,) * 6), haar_random_unitary(12, 2024))
    assert len(state.terms) == 12376
    assert _items_sha256(state) == "f378a1a7895af66e98930a1406107d1833f209c4c46d6ef15c690d557b105279"


def test_mixed_terms_under_a_partial_haar_are_pinned():
    # Modes 6 and 7 are passive. The four-photon sub-occupations may reach
    # 126 monomials, so every sub-occupation, the three-photon, one-photon
    # and empty ones too, expands with numpy; the vacuum keeps the bits of 0j + amp.
    mat = np.eye(8, dtype=complex)
    mat[:6, :6] = haar_random_unitary(6, 2024).matrix
    state = normalize(
        make_state(
            8,
            [
                ((0,) * 8, 0.1),
                ((2, 1, 1, 0, 0, 0, 0, 0), 0.5),
                ((0, 0, 1, 1, 1, 1, 0, 0), 0.6j),
                ((1, 0, 0, 2, 0, 0, 1, 0), -0.3 + 0.2j),
                ((1, 0, 0, 0, 0, 0, 0, 3), 0.4),
            ],
        )
    )
    with mock.patch.object(optics, "_expand", side_effect=AssertionError("_expand called")):
        out = apply_unitary(state, ModeUnitary(8, mat))
    assert len(out.terms) == 189
    assert _items_sha256(out) == "d2764985b3dcc1168ca98b94594559285c2cbbfb69fadf921d78f2d785e9ce4e"


_SIGNED_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1, allow_nan=False))


@st.composite
def _unitaries_with_zeros_and_terms(draw):
    """A unitary whose mixing block has exact zeros and signed-zero parts, and terms for it.

    The block is a direct sum of complex Haar blocks and real orthogonal
    blocks (some times 1j), with rows and columns permuted, and every
    zero real or imaginary part gets a random sign. The terms hold up to
    three photons per mode on active and passive modes, and one of them
    is the vacuum.
    """
    modes = draw(st.integers(2, 6))
    active = sorted(draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=modes, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(active)
    block = np.zeros((size, size), dtype=complex)
    start = 0
    while start < size:
        width = draw(st.integers(1, size - start))
        kind = draw(st.sampled_from(["haar", "real", "imag"]))
        if kind == "haar":
            piece = haar_random_unitary(width, int(rng.integers(2**32))).matrix
        else:
            piece = np.linalg.qr(rng.standard_normal((width, width)))[0] * (1j if kind == "imag" else 1)
        block[start : start + width, start : start + width] = piece
        start += width
    block = block[rng.permutation(size)][:, rng.permutation(size)]
    parts = [block.real.copy(), block.imag.copy()]
    for part in parts:
        part[(part == 0) & (rng.random(part.shape) < 0.5)] = -0.0
    mat = np.eye(modes, dtype=complex)
    mixed = np.empty((size, size), dtype=complex)
    mixed.real, mixed.imag = parts
    mat[np.ix_(active, active)] = mixed
    occupation = st.lists(st.integers(0, 3), min_size=modes, max_size=modes).filter(lambda o: sum(o) <= 6)
    occs = [(0,) * modes] + [tuple(o) for o in draw(st.lists(occupation, min_size=1, max_size=3))]
    amps = [complex(draw(_SIGNED_PARTS), draw(_SIGNED_PARTS)) for _ in occs]
    return ModeUnitary(modes, mat), list(zip(occs, amps))


def _bytes(values):
    return [struct.pack("<dd", v.real, v.imag) for v in values]


# Coupler entries' parts: signed zeros, subnormals and plain floats.
_COUPLER_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    st.floats(-1e-310, 1e-310),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(complex, _COUPLER_PARTS, _COUPLER_PARTS), min_size=4, max_size=4), st.integers(0, 8))
@example([0.6 + 0.1j, -0.3 + 0.7j, 0.2 - 0.5j, 0.8 + 0.05j], 8)
@example([complex(-0.0, 5e-324), complex(0.0, -0.0), complex(-5e-324, -0.0), complex(1.0, -0.0)], 4)
def test_coupler_coefficients_are_the_dict_loops_expansions_bit_for_bit(entries, top):
    # _coupler_coefficients builds every (a, b) polynomial of a coupler in its own loops;
    # each coefficient must have the bits _expand gives the same sub-occupation.
    r0, r1, s0, s1 = entries
    rows = [[(0, r0), (1, r1)], [(0, s0), (1, s1)]]
    expected = []
    for a in range(top + 1):
        for b in range(top - a + 1):
            by_k = {expo[1]: coeff for expo, coeff, _ in _expand((a, b), rows)[1]}
            expected += [by_k[k] for k in range(a + b + 1)]  # monomial k: exponent k on the second mode
    table = optics._coupler_coefficients(rows, top)
    assert [(c.real.hex(), c.imag.hex()) for c in table] == [(c.real.hex(), c.imag.hex()) for c in expected]


def test_interpreter_multiplies_a_complex_by_a_float_as_by_complex_of_it():
    # The rule every amplitude bit pin relies on: CPython 3.10-3.13 computes
    # z * x as z * complex(x, 0.0), so -0.0 * 1.0 + 1.0 * 0.0 gives a +0.0
    # imaginary part here. C99 Annex G mixed-mode arithmetic keeps -0.0.
    z = complex(1.0, -0.0)
    assert _bytes([z * 1.0]) == _bytes([z * complex(1.0, 0.0)]) == _bytes([complex(1.0, 0.0)]), (
        "complex * float no longer rounds as complex * complex(float, 0.0): the bit-for-bit argument "
        "of the docstring of fockjoin.optics._array_splice, and the amplitude pins built on it, need revisiting"
    )


def _assert_same_expansion(sub, rows):
    """_expand_arrays gives _expand's monomials, in its order, with its bits."""
    sub_fact, monomials = _expand(sub, rows)
    # The active modes sit at every other mode of the keys, with a passive mode after each.
    # A state has at least one mode, also when no mode is active (sub is empty).
    bits, active = max(sum(sub), 1).bit_length(), tuple(range(0, 2 * len(sub), 2))
    arrays = _expand_arrays(sub, rows, active, bits)
    expos = ((arrays.keys[:, None] >> (bits * np.array(active, dtype=np.int64))) & ((1 << bits) - 1)).tolist()
    assert [tuple(e) for e in expos] == [e for e, _, _ in monomials]
    occupations = optics._occupation_tuples(arrays.keys, bits, max(2 * len(sub), 1))
    assert [tuple(occ[a] for a in active) for occ in occupations] == [e for e, _, _ in monomials]
    assert all(not any(occ[1::2]) for occ in occupations)
    assert _bytes(complex(r, i) for r, i in zip(arrays.re, arrays.im)) == _bytes(c for _, c, _ in monomials)
    assert arrays.facts.tolist() == [f for _, _, f in monomials]
    return arrays


def _dict_loop_splice(u, occ, amp):
    """One term's (key, amp * coeff * out_norm / in_norm) pairs, as apply_unitary's dict loop computes them."""
    pick_active, pick_passive, layout, rows = u._expansion_plan[:4]
    passive = pick_passive(occ)
    passive_fact = math.prod(map(math.factorial, passive))
    sub_fact, monomials = _expand(pick_active(occ), rows)
    inv_norm = 1.0 / math.sqrt(passive_fact * sub_fact)
    return [
        (layout(passive + expo), amp * coeff * math.sqrt(passive_fact * expo_fact) * inv_norm)
        for expo, coeff, expo_fact in monomials
    ]


def _dict_loop(state, u):
    """apply_unitary's terms as the dict loop builds them, term by term in Python complex arithmetic."""
    out = {}
    for occ, amp in state.terms.items():
        for key, value in _dict_loop_splice(u, occ, complex(amp)):
            out[key] = out.get(key, 0j) + value
    return {key: np.complex128(value) for key, value in out.items() if abs(value) > PRUNE_TOL}


def _crossovers(n):
    """The term-count crossovers of _routed and _coupled set to n: 1 forces their array pass, 10**9 the dict loop."""
    return mock.patch.multiple(optics, _ROUTED_MIN_TERMS=n, _COUPLED_MIN_TERMS=n)


def _assert_matches_dict_loop(state, u):
    """Keys, their order, amplitude bits and amplitude types all equal the dict loop's."""
    out, expected = apply_unitary(state, u).terms, _dict_loop(state, u)
    assert list(out) == list(expected)
    assert _bytes(out.values()) == _bytes(expected.values())
    assert [type(a) for a in out.values()] == [type(a) for a in expected.values()]


def _assert_lone_term_matches_dict_loop(u, occ, amp):
    """apply_unitary on the single term: each amplitude is 0j + value, then pruned."""
    kept = [(key, 0j + value) for key, value in _dict_loop_splice(u, occ, amp) if abs(0j + value) > PRUNE_TOL]
    out = apply_unitary(FockState(u.dim, {occ: amp}), u)
    assert list(out.terms) == [key for key, _ in kept]
    assert _bytes(out.terms.values()) == _bytes(value for _, value in kept)


@settings(max_examples=60, deadline=None)
@given(_unitaries_with_zeros_and_terms())
def test_numpy_expansion_and_splice_match_the_dict_loop_bit_for_bit(case):
    u, terms = case
    pick_active = u._expansion_plan[0]
    for occ, amp in terms:
        _assert_same_expansion(pick_active(occ), u._expansion_plan[3])
        if sum(occ) and abs(amp) > PRUNE_TOL:
            _assert_lone_term_matches_dict_loop(u, occ, amp)
    # The whole state, as one array pass and through the dict loop.
    state = FockState(u.dim, dict(terms))
    for crossover in (1, 10**9):
        with _crossovers(crossover):
            _assert_matches_dict_loop(state, u)
            # The photon-free term: an np.complex128 with the bits of 0j + amp, if kept.
            vacuum = (0,) * u.dim
            out = apply_unitary(state, u).terms.get(vacuum)
            assert out is None or _bytes([out]) == _bytes([0j + state.terms[vacuum]])


def test_lone_term_on_the_numpy_path_adds_each_amplitude_to_0j():
    # A real orthogonal block and amplitude -0.6 - 0.0j leave -0.0
    # imaginary parts in the dict loop's values; its 0j + value turns them
    # into +0.0, and so must the numpy path.
    mat = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0].astype(complex)
    u, occ, amp = ModeUnitary(6, mat), (1, 1, 1, 1, 0, 0), complex(-0.6, -0.0)
    assert sum(occ) >= u._expansion_plan[5]
    values = np.array([value for _, value in _dict_loop_splice(u, occ, amp)])
    assert np.any(np.signbit(values.imag) & (values.imag == 0))
    _assert_lone_term_matches_dict_loop(u, occ, amp)


def test_numpy_path_holds_up_to_twenty_photons():
    # Three dense modes take the numpy path from 10 photons (66 monomials);
    # 20 is the most whose factorial products fit int64, and _packed sends
    # a state of 21 to the dict loop, whose output carries no arrays.
    u = haar_random_unitary(3, 8)
    rows, array_photons = u._expansion_plan[3], u._expansion_plan[5]
    assert array_photons == 10
    for sub in ((16, 0, 0), (7, 7, 6), (0, 20, 0)):
        _assert_same_expansion(sub, rows)
    _assert_lone_term_matches_dict_loop(u, (7, 7, 6), 1.0 + 0j)
    over = FockState(3, {(7, 7, 7): 1.0 + 0j})
    assert optics._packed(over) is None
    with mock.patch.object(optics, "_expand_arrays", side_effect=AssertionError("_expand_arrays called")):
        _assert_matches_dict_loop(over, u)
        assert _carried(apply_unitary(over, u)) is None


def test_lone_dense_term_drops_the_amplitudes_that_cancel():
    # Six photons through a 4-mode Sylvester-Hadamard mixer expand with numpy, and many
    # output amplitudes cancel: the kept keys must keep their own occupations.
    sylvester = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) / 2
    u, state = ModeUnitary(4, sylvester), FockState(4, {(2, 2, 1, 1): 0.6 - 0.8j})
    assert u._expansion_plan[5] == 6
    _assert_matches_dict_loop(state, u)
    assert 0 < len(apply_unitary(state, u).terms) < len(_expand((2, 2, 1, 1), u._expansion_plan[3])[1])


def test_lone_dense_term_keeps_its_passive_photons():
    # Modes 0-5 expand in numpy. Without passive photons the output keys
    # are the expansion's own occupations; with one, they must not be.
    mat = np.eye(8, dtype=complex)
    mat[:6, :6] = haar_random_unitary(6, 5).matrix
    for occ in ((1, 1, 1, 1, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 2, 0), (0, 2, 1, 1, 0, 0, 0, 1)):
        _assert_matches_dict_loop(FockState(8, {occ: 0.6 - 0.8j}), ModeUnitary(8, mat))


@pytest.mark.parametrize("modes", [3, 8])
def test_identity_element_returns_the_terms_bit_for_bit(modes):
    # No mode is active, so every term routes to itself. With one photon at
    # most per mode and no zero parts, amp * (1+0j) * 1.0 * 1.0 is amp.
    rng = np.random.default_rng(modes)
    occs = [occ for occ in enumerate_occupations(modes + 2, 4) if max(occ, default=0) <= 1][:200]
    state = FockState(modes + 2, {occ: complex(*rng.uniform(0.1, 1.0, 2) * rng.choice([-1, 1], 2)) for occ in occs})
    assert len(state.terms) >= 16
    for crossover in (1, 10**9):
        with _crossovers(crossover):
            out = apply_unitary(state, mode_permutation(modes + 2, range(modes + 2)))
            assert list(out.terms) == list(state.terms)
            assert _bytes(out.terms.values()) == _bytes(state.terms.values())


_ELEMENT_KINDS = ["bs", "had", "ps", "perm", "identity", "haar"]


@st.composite
def _large_states_under_elements(draw):
    """16 to 60 terms on at most 8 modes and 4 photons, with signed-zero parts, one element of any kind and 1 to 5 more."""
    modes = draw(st.integers(3, 8))
    occs = enumerate_occupations(modes, 4)
    picks = draw(st.lists(st.sampled_from(occs[1:]), min_size=16, max_size=60, unique=True))
    if draw(st.booleans()):
        picks.append(occs[0])
    terms = {occ: complex(draw(_SIGNED_PARTS), draw(_SIGNED_PARTS)) for occ in picks}
    if occs[0] in terms:  # the photon-free term comes out np.complex128 from either type
        terms[occs[0]] = draw(st.sampled_from([complex, np.complex128]))(terms[occs[0]])
    angle = st.floats(-math.pi, math.pi, allow_nan=False)

    def element():
        pair = draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(_ELEMENT_KINDS))
        if kind == "bs":
            return beamsplitter(modes, *pair, draw(angle), draw(angle))
        if kind == "had":
            return hadamard_pair(modes, *pair)
        if kind == "ps":
            return phase_shifter(modes, pair[0], draw(angle))
        if kind == "perm":
            return mode_permutation(modes, draw(st.permutations(range(modes))))
        if kind == "identity":
            return mode_permutation(modes, range(modes))
        subset = draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=modes, unique=True))
        return _embedded_haar(modes, subset, draw(st.integers(0, 2**32 - 1)))

    chain = [element() for _ in range(draw(st.integers(2, 6)))]
    return FockState(modes, terms), chain[0], draw(st.sampled_from([1, 32, 10**9])), chain


def test_composed_coupler_pair_without_a_numpy_sized_expansion_takes_the_dict_loop():
    # Three active modes with three photons at most: no expansion is numpy-sized,
    # and neither kernel fits the composed matrix, so all 120 terms take the dict loop.
    u = compose(beamsplitter(8, 0, 1, 0.7, 0.2), beamsplitter(8, 1, 2, -1.1, 0.5))
    rng = np.random.default_rng(15)
    state = FockState(8, {occ: complex(*rng.uniform(-1, 1, 2)) for occ in enumerate_occupations(8, 3) if sum(occ) == 3})
    assert len(state.terms) == 120
    with mock.patch.object(optics, "_expanded", side_effect=AssertionError("_expanded called")):
        _assert_matches_dict_loop(state, u)
    assert u._expansion_plan[4:] == ([0, 1, 2], 10, None)


@settings(max_examples=80, deadline=None)
@given(_large_states_under_elements())
def test_large_states_match_the_dict_loop_bit_for_bit(case):
    state, u, crossover, chain = case
    with _crossovers(crossover):
        _assert_matches_dict_loop(state, u)
        _assert_chain_matches_rebuilt_states(state, chain)


@settings(max_examples=6, deadline=None)
@given(_large_states_under_elements())
def test_large_states_match_the_permanent_oracle(case):
    # A few draws only, on the first output terms and on occupations absent from the output.
    state, u, crossover, _ = case
    with _crossovers(crossover):
        out = apply_unitary(state, u)
    absent = [occ for occ in enumerate_occupations(state.modes, 4) if occ not in out.terms]
    for occ_out in list(out.terms)[:24] + absent[:12]:
        expected = sum(amp * transition_amplitude(u.matrix, occ_in, occ_out) for occ_in, amp in state.terms.items())
        assert abs(out.amplitude(occ_out) - expected) < 1e-10


def test_mode_unitary_and_projector_compare_by_identity():
    u = identity(2)
    assert u == u and u != identity(2)
    p = ProjectorSpec([1, 0])
    assert p == p and p != ProjectorSpec([1, 0])
    assert len({u, identity(2), p, ProjectorSpec([1, 0])}) == 4


def test_non_finite_matrices_and_projectors_are_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary(2, np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="not normalized"):
        ProjectorSpec([np.nan, 0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: beamsplitter(4, 0.5, 1, 0.3),
        lambda: beamsplitter(4, True, 2, 0.3),
        lambda: hadamard_pair(4, 1, 1),
        lambda: phase_shifter(4, 2.5, 0.3),
        lambda: mode_permutation(3, (1.0, 0, 2)),
        lambda: mode_permutation(3, (1, 0)),
    ],
)
def test_element_modes_must_be_integers_in_range(build):
    with pytest.raises(ValueError, match="modes|mode|permutation"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda m: beamsplitter(m, 0, 1, 0.3),
        lambda m: phase_shifter(m, 0, 0.3),
        lambda m: hadamard_pair(m, 0, 1),
        lambda m: mode_permutation(m, (1, 0)),
        identity,
    ],
    ids=["beamsplitter", "phase_shifter", "hadamard_pair", "mode_permutation", "identity"],
)
@pytest.mark.parametrize(
    "m, message",
    [
        (2.0, r"modes \[2\.0\] must hold integers"),
        (True, r"modes \[True\] must hold integers"),
        (0, "mode count must be positive, got 0"),
        (-1, r"modes \[-1\] out of range"),
    ],
    ids=["float", "bool", "zero", "negative"],
)
def test_element_mode_counts_are_read_by_the_mode_count_rule(build, m, message):
    # Every builder reads m through fock._mode_count before it touches numpy: a float
    # count is no TypeError from np.eye, and True is no one-mode register.
    with pytest.raises(ValueError, match=message):
        build(m)


@st.composite
def _coupler_chains(draw):
    """60 to 80 terms of up to 6 photons on 3 to 6 modes, signed-zero parts, then 2 to 6 couplers and Hadamards."""
    modes = draw(st.integers(3, 6))
    picks = draw(st.lists(st.sampled_from(enumerate_occupations(modes, 6)), min_size=60, max_size=80, unique=True))
    state = FockState(modes, {occ: complex(draw(_SIGNED_PARTS), draw(_SIGNED_PARTS)) for occ in picks})
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    elements = []
    for _ in range(draw(st.integers(2, 6))):
        i, j = draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2, unique=True))  # i > j too
        coupler = draw(st.booleans())
        elements.append(beamsplitter(modes, i, j, draw(angle), draw(angle)) if coupler else hadamard_pair(modes, i, j))
    return state, elements


def _carried(state):
    """An array-pass output, which carries its arrays (optics._Packed), or None for any other state."""
    return state if type(state) is optics._Packed else None


def _assert_carries_its_terms(state):
    """A state's packed keys, factorial products and amplitudes, if it carries them, are its terms' in order, read-only."""
    carried = _carried(state)
    if carried is None:
        return False
    assert optics._occupation_tuples(carried.keys, carried.bits, state.modes) == list(state.terms)
    assert carried.facts.tolist() == [math.prod(map(math.factorial, occ)) for occ in state.terms]
    assert _bytes(carried.amps) == _bytes(state.terms.values())
    assert not any(array.flags.writeable for array in (carried.keys, carried.facts, carried.amps))
    return True


def _assert_chain_matches_rebuilt_states(state, elements):
    """A chain of outputs, read only at its end, equals the chain rebuilt through FockState before each element.

    Each output that carries arrays also equals, as a fresh state whose
    terms are still unbuilt, the plain FockState of the same terms, and so
    do its is_zero, amplitude and state_to_dict.
    """
    chained, rebuilt = [state], [state]
    for u in elements:
        chained.append(apply_unitary(chained[-1], u))
        rebuilt.append(apply_unitary(FockState(state.modes, dict(rebuilt[-1].terms)), u))
    for out, expected in zip(chained[1:], rebuilt[1:]):
        assert list(out.terms) == list(expected.terms)
        assert _bytes(out.terms.values()) == _bytes(expected.terms.values())
        assert [type(a) for a in out.terms.values()] == [type(a) for a in expected.terms.values()]
        if not _assert_carries_its_terms(out):
            continue
        plain = FockState(state.modes, dict(expected.terms))
        fresh = lambda: optics._carrying(**{k: v for k, v in vars(out).items() if k != "terms"})  # noqa: E731
        assert fresh() == plain and plain == fresh()
        assert fresh().is_zero == plain.is_zero
        for occ in [*list(plain.terms)[:2], (9,) * state.modes]:
            assert _bytes([fresh().amplitude(occ)]) == _bytes([plain.amplitude(occ)])
            assert type(fresh().amplitude(occ)) is type(expected.amplitude(occ))  # plain holds complex(amp)
        assert repr(state_to_dict(fresh())) == repr(state_to_dict(plain))


@settings(max_examples=25, deadline=None)
@given(_coupler_chains())
def test_coupler_chains_with_carried_keys_match_rebuilt_states_and_the_permanent_oracle(case):
    state, elements = case
    chained = rebuilt = state
    for u in elements:
        chained = apply_unitary(chained, u)
        # Rebuilding through the constructor drops the carried keys.
        rebuilt = apply_unitary(FockState(rebuilt.modes, dict(rebuilt.terms)), u)
        assert list(chained.terms) == list(rebuilt.terms)
        assert _bytes(chained.terms.values()) == _bytes(rebuilt.terms.values())
        assert [type(a) for a in chained.terms.values()] == [type(a) for a in rebuilt.terms.values()]
        _assert_carries_its_terms(chained)
    mat = compose(*elements).matrix
    absent = [occ for occ in enumerate_occupations(state.modes, 6) if occ not in chained.terms]
    for occ_out in list(chained.terms)[:6] + absent[:3]:
        expected = sum(amp * transition_amplitude(mat, occ_in, occ_out) for occ_in, amp in state.terms.items())
        assert abs(chained.amplitude(occ_out) - expected) < 1e-10


def _term_hex(state):
    """Each term's occupation, float.hex of both parts and amplitude type, in term order."""
    return [(occ, float(a.real).hex(), float(a.imag).hex(), type(a)) for occ, a in state.terms.items()]


@st.composite
def _coupler_steps(draw):
    """1 to 40 terms of up to 6 photons on 2 to 5 modes, signed-zero parts, then 1 to 4 couplers and Hadamard pairs."""
    modes = draw(st.integers(2, 5))
    picks = draw(st.lists(st.sampled_from(enumerate_occupations(modes, 6)), min_size=1, max_size=40, unique=True))
    state = FockState(modes, {occ: complex(draw(_SIGNED_PARTS), draw(_SIGNED_PARTS)) for occ in picks})
    angle = st.floats(-math.pi, math.pi, allow_nan=False)
    elements = []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2, unique=True))  # i > j too
        elements.append(beamsplitter(modes, i, j, draw(angle), draw(angle)) if draw(st.booleans()) else hadamard_pair(modes, i, j))
    return state, elements


@settings(max_examples=60, deadline=None)
@given(_coupler_steps())
# Terms holding (1, 1) on a Hadamard pair: (1, 1, 0)'s own slot cancels to an exact zero and is pruned; (1, 1, 2)'s
# slot also takes (2, 0, 2)'s monomial and is kept.
@example((FockState(3, {(1, 1, 0): 0.6, (0, 1, 1): -0.3j, (1, 1, 2): -0.8j, (2, 0, 2): 0.1}), [hadamard_pair(3, 0, 1)]))
# A reversed pair (i > j), whose first active mode is the coupler's second argument.
@example((FockState(4, {(0, 1, 0, 2): 0.5, (1, 2, 0, 0): -0.5j, (0, 0, 1, 1): 0.5, (2, 1, 0, 1): -0.5}), [beamsplitter(4, 3, 1, 0.7, -0.4)]))
# A group of several terms: the pair's photons moved onto its first mode give the same occupation.
@example((FockState(3, {(2, 0, 1): 0.5, (1, 0, 0): 0.5j, (1, 1, 1): -0.5, (0, 2, 1): 0.5}), [beamsplitter(3, 0, 1, 1.1, 0.3)]))
# Up to 6 photons on the pair, through a chain.
@example((FockState(2, {(6, 0): 0.4, (3, 3): -0.4j, (2, 4): 0.6, (0, 6): 0.5j, (1, 2): 0.2}), [hadamard_pair(2, 0, 1), beamsplitter(2, 1, 0, 0.4, 2.0)]))
def test_coupler_outputs_are_numbered_in_the_dict_loops_insertion_order(case):
    # _coupled numbers its outputs by groups of terms; the dict loop inserts them one by one. Both must give
    # the same keys in the same order, the same bits and types, and the array pass its outputs' factorial products.
    state, elements = case
    chains = {}
    for crossover in (1, 10**9):
        with _crossovers(crossover):
            chains[crossover] = [state]
            for u in elements:
                chains[crossover].append(apply_unitary(chains[crossover][-1], u))
    for before, array, loop in zip(chains[1], chains[1][1:], chains[10**9][1:]):
        assert _term_hex(array) == _term_hex(loop)
        assert _carried(loop) is None
        # The array pass takes every step but those from an empty or photon-free state, which packs into no key.
        assert _assert_carries_its_terms(array) or optics._packed(before) is None or not before.terms


@pytest.mark.parametrize("modes, photons, u", [(8, 5, hadamard_pair(8, 0, 1)), (4, 3, beamsplitter(4, 1, 0, 0.7, 0.3))])
def test_the_dict_loop_prunes_to_the_array_pass_bits_on_either_side_of_16_terms(modes, photons, u):
    # The dict loop keeps abs(amp) > PRUNE_TOL at every output size; the array pass decides by np.hypot, and from
    # 1024 amplitudes on by squared magnitudes first. Terms with no photon on the coupled modes pass through, some
    # just below or above the tolerance; the Hadamard pair's HOM terms cancel to exact zeros.
    rng = np.random.default_rng(35)
    occs = enumerate_occupations(modes, photons)
    edges = [PRUNE_TOL * (1 + k * 2.0**-52) for k in range(-3, 4)] + [0.9e-12, 1.1e-12, 1.5e-12]
    terms = {}
    for k, occ in enumerate(occs):
        if k % 3:
            terms[occ] = complex(*(rng.choice([-1, 1], 2) * rng.uniform(0.5, 1, 2)))
        else:
            terms[occ] = edges[k // 3 % len(edges)] * 1j**k
    state = FockState(modes, terms)
    with _crossovers(10**9):
        loop = apply_unitary(state, u)
    with _crossovers(1):
        array = apply_unitary(state, u)
    assert type(loop) is FockState and type(array) is optics._Packed
    assert _term_hex(loop) == _term_hex(array)
    assert all(type(a) is np.complex128 for a in loop.terms.values())
    assert len(loop.terms) >= 1024 if modes == 8 else 16 <= len(loop.terms) <= 40
    passing = [occ for occ in occs if not any(u._expansion_plan[0](occ)) and sum(occ)]  # no photon on the coupled modes
    assert any(occ not in loop.terms for occ in passing) and any(occ in loop.terms for occ in passing)


def test_couplers_above_the_crossover_skip_expand_and_carry_their_keys():
    # Two photons on modes 0 and 1 of every term, and up to three on modes 2-5; some zero parts are -0.0.
    occs = [(a, 2 - a, *p) for p in enumerate_occupations(4, 3) for a in range(3)]
    terms = {occ: complex(0.1 * (k % 7) - 0.3, -0.0 if k % 3 else 0.2) for k, occ in enumerate(occs)}
    bs = beamsplitter(6, 1, 0, 0.7, -0.4)
    # One term short of the crossover stays in the dict loop; from the crossover on, the array pass runs, without _expand.
    edge = optics._COUPLED_MIN_TERMS
    assert _carried(apply_unitary(FockState(6, dict(list(terms.items())[: edge - 1])), bs)) is None
    large = FockState(6, dict(list(terms.items())[:edge]))
    # A phase shifter and a permutation (_routed) have their own crossover.
    for routed in (phase_shifter(6, 2, 0.3), mode_permutation(6, [1, 0, 3, 2, 5, 4])):
        assert _carried(apply_unitary(FockState(6, dict(list(terms.items())[: optics._ROUTED_MIN_TERMS - 1])), routed)) is None
        assert _carried(apply_unitary(FockState(6, dict(list(terms.items())[: optics._ROUTED_MIN_TERMS])), routed))
    _assert_matches_dict_loop(large, bs)
    with mock.patch.object(optics, "_expand", side_effect=AssertionError("_expand called")):
        out = apply_unitary(large, bs)
        steps = [apply_unitary(FockState(6, terms), bs)]
        steps.append(apply_unitary(steps[-1], hadamard_pair(6, 3, 0)))
        chained = apply_unitary(steps[-1], bs)
    # The next element read their arrays: no dict was built for them.
    assert all(type(step) is optics._Packed and "terms" not in vars(step) for step in steps)
    # The first read builds the read-only dict and keeps it in the instance, and later reads return it.
    built = steps[0].terms
    assert vars(steps[0])["terms"] is built and steps[0].terms is built and type(built) is MappingProxyType
    assert _assert_carries_its_terms(out) and _assert_carries_its_terms(chained)
    assert optics._packed(out) is out
    assert _carried(FockState(6, dict(out.terms))) is None
    # A dataclasses.replace copy holds its terms alone, and is packed again; copy.copy keeps the arrays.
    copied = dataclasses.replace(out)
    assert optics._packed(copied) is not copied
    shallow = copy.copy(out)
    assert type(shallow) is optics._Packed and shallow.keys is out.keys and _assert_carries_its_terms(shallow)
    # States are equal by mode count and terms, whatever their class, and unequal to anything else; none is hashable.
    plain = FockState(6, dict(out.terms))
    for other in (copied, plain):
        assert other == out and out == other and not (other != out or out != other)
    assert out != 5 and 5 != out and plain != 5 and out != FockState(6, {}) != out
    assert out != apply_unitary(out, bs) and apply_unitary(out, bs) != out
    for state in (out, copied, plain):
        with pytest.raises(TypeError):
            hash(state)
    _assert_matches_dict_loop(copied, hadamard_pair(6, 3, 0))
    # A phase shifter and a permutation read the carried keys too, and pass them on.
    routed = apply_unitary(apply_unitary(chained, phase_shifter(6, 2, 0.3)), mode_permutation(6, [5, 4, 3, 2, 1, 0]))
    assert _assert_carries_its_terms(routed)
    rebuilt = FockState(6, dict(chained.terms))
    expected = apply_unitary(apply_unitary(rebuilt, phase_shifter(6, 2, 0.3)), mode_permutation(6, [5, 4, 3, 2, 1, 0]))
    assert list(routed.terms) == list(expected.terms)
    assert _bytes(routed.terms.values()) == _bytes(expected.terms.values())


def test_a_replace_copy_of_an_array_pass_output_is_a_checked_state():
    occs = [(a, 2 - a, *p) for p in enumerate_occupations(4, 3) for a in range(3)]
    bs = beamsplitter(6, 1, 0, 0.7, -0.4)
    out = apply_unitary(FockState(6, {occ: complex(0.1 * (k % 7) - 0.3, 0.2) for k, occ in enumerate(occs)}), bs)
    assert _carried(out) is not None
    with pytest.raises(ValueError, match=re.escape("occupation [1, 2] should have 6 entries")):
        dataclasses.replace(out, terms={(1, 2): float("nan")})
    with pytest.raises(ValueError, match=re.escape("amplitude (nan+0j) of occupation (0, 2, 0, 0, 0, 0) is not finite")):
        dataclasses.replace(out, terms={(0, 2, 0, 0, 0, 0): float("nan")})
    # With no changes, the copy is a plain FockState equal to out, reported and evolved as out is.
    copied = dataclasses.replace(out)
    assert type(copied) is FockState and copied == out
    assert cli._state_json(copied) == cli._state_json(out) and repr(state_to_dict(copied)) == repr(state_to_dict(out))
    for u in (bs, hadamard_pair(6, 3, 0), phase_shifter(6, 2, 0.3), mode_permutation(6, [5, 4, 3, 2, 1, 0])):
        assert _term_hex(apply_unitary(copied, u)) == _term_hex(apply_unitary(out, u))


@pytest.mark.parametrize("read_first", [False, True], ids=["terms unbuilt", "terms built"])
def test_an_array_pass_output_pickles_and_deep_copies_to_a_carried_read_only_state(read_first):
    occs = [(a, 2 - a, *p) for p in enumerate_occupations(4, 3) for a in range(3)]
    bs = beamsplitter(6, 1, 0, 0.7, -0.4)
    out = apply_unitary(FockState(6, {occ: complex(0.1 * (k % 7) - 0.3, -0.0) for k, occ in enumerate(occs)}), bs)
    if read_first:
        out.terms
    for copied in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out), copy.copy(out)):
        assert ("terms" in vars(copied)) is read_first
        assert _assert_carries_its_terms(copied) and copied == out and _term_hex(copied) == _term_hex(out)
        assert type(copied.terms) is MappingProxyType
        with pytest.raises(TypeError):
            copied.terms[occs[0]] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.modes = 7
        assert _term_hex(apply_unitary(copied, bs)) == _term_hex(apply_unitary(out, bs))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: beamsplitter(4, 0, 1, math.nan), "theta nan is not finite"),
        (lambda: beamsplitter(4, 0, 1, 0.3, math.inf), "phase inf is not finite"),
        (lambda: beamsplitter(4, 2, 1, -math.inf, math.nan), "theta -inf is not finite"),
        (lambda: phase_shifter(4, 2, math.nan), "phase nan is not finite"),
        (lambda: phase_shifter(4, 2, float("1e400")), "phase inf is not finite"),
    ],
)
def test_non_finite_angles_are_rejected_by_name(build, message):
    # Raised before numpy runs: a RuntimeWarning from np.exp would fail the test.
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def _term_bits(state):
    return [(occ, repr(amp), type(amp)) for occ, amp in state.terms.items()]


@pytest.mark.parametrize(
    "fixed",
    [lambda: schemes._SPLIT_RAIL_MIXERS[0], lambda: tpes._correction_unitary("XZ", "X"), lambda: tpes._correction_unitary("Z", "I")],
    ids=["split-mixer", "pauli-XZ-X", "pauli-Z-I"],
)
def test_a_fixed_unitary_applied_again_gives_the_bits_of_a_fresh_copy(fixed):
    # The dict loop keeps each unitary's expansions; a second call reads them instead of expanding again.
    u = fixed()
    rng = np.random.default_rng(91)
    states = []
    for _ in range(4):
        occupations = {tuple(int(n) for n in rng.integers(0, 3, u.dim)) for _ in range(12)}
        states.append(make_state(u.dim, [(occ, complex(*rng.standard_normal(2))) for occ in occupations]))
    first = [_term_bits(apply_unitary(s, u)) for s in states]
    memo = u._memo
    assert memo and all(type(v) is tuple and type(v[1]) is tuple and all(type(m) is tuple for m in v[1]) for v in memo.values())
    with mock.patch.object(optics, "_expand", side_effect=AssertionError("_expand called")):
        again = [_term_bits(apply_unitary(s, u)) for s in states]
    fresh_unitaries = [ModeUnitary(u.dim, u.matrix) for _ in states]
    assert all("_memo" not in vars(v) for v in fresh_unitaries)
    assert first == again == [_term_bits(apply_unitary(s, v)) for s, v in zip(states, fresh_unitaries)]
