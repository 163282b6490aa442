import copy
import dataclasses
import json
import math
import pickle
import re
import struct
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockjoin.fock import (
    PRUNE_TOL,
    Bipartition,
    FockState,
    NonEmptyModeError,
    add,
    add_vacuum_modes,
    basis_state,
    bipartition,
    discard_empty_modes,
    fidelity,
    inner_product,
    is_normalized,
    make_state,
    norm,
    normalize,
    partial_inner,
    permute_modes,
    postselect_vacuum,
    scale,
    schmidt_rank,
    schmidt_values,
    state_from_dict,
    state_to_dict,
    tensor,
    zero_state,
    _checked_squared_norm,
    _indices,
    _picker,
    _pruned,
    _squared_norm,
    _trusted,
)
from fockjoin import circuit, gates
from fockjoin.gates import CnotSpec, DualRailQubit, IllegalPatternError, apply_cnot
from fockjoin.optics import ModeUnitary, ProjectorSpec, apply_projector, beamsplitter, mode_permutation, phase_shifter
from test_gates import _TERM_AMPLITUDES, _VACUUM_AMPLITUDES


def random_state(modes, n_terms, rng, max_photons=2):
    terms = []
    for _ in range(n_terms):
        occ = tuple(int(rng.integers(0, max_photons + 1)) for _ in range(modes))
        amp = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((occ, amp))
    return normalize(make_state(modes, terms))


def test_make_state_basis_ket():
    s = make_state(2, [((1, 0), 1)])
    assert s.terms == {(1, 0): 1}


def test_make_state_two_terms_is_normalized():
    s = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    assert is_normalized(s)


def test_make_state_cancellation_gives_zero_state():
    s = make_state(2, [((1, 0), 1), ((1, 0), -1)])
    assert s.is_zero


def test_make_state_rejects_bad_occupations():
    with pytest.raises(ValueError):
        make_state(2, [((1, 0, 0), 1)])
    with pytest.raises(ValueError):
        make_state(2, [((-1, 0), 1)])
    with pytest.raises(ValueError):
        make_state(2, [])


@pytest.mark.parametrize(
    "amp",
    [
        float("nan"),
        complex(0.0, float("inf")),
        float("-inf"),
        # complex() parses a string, but no string is an amplitude.
        pytest.param("1", id="str"),
        pytest.param("nan", id="str-nan"),
        pytest.param(b"1", id="bytes"),
        pytest.param(None, id="None"),
        pytest.param([1.0], id="list"),
    ],
)
def test_make_state_rejects_non_finite_amplitudes(amp):
    problem = "not finite" if isinstance(amp, (float, complex)) else "not a number"
    with pytest.raises(ValueError, match=rf"occupation \(0, 1\) is {problem}"):
        make_state(2, [((1, 0), 1.0), ((0, 1), amp)])
    with pytest.raises(ValueError, match=rf"occupation \(0, 1\) is {problem}"):
        FockState(2, {(1, 0): 1.0, (0, 1): amp})
    if problem == "not finite":
        data = {"modes": 2, "terms": [{"occ": [0, 1], "re": amp.real, "im": amp.imag}]}
        with pytest.raises(ValueError, match="not finite"):
            state_from_dict(data)


def test_constructor_stores_numeric_amplitudes_as_given():
    amps = [1, 0.5, 0.25j, np.float32(0.5), np.complex64(0.5j), np.complex128(-0.0), True, Fraction(1, 3)]
    s = FockState(1, {(n,): amp for n, amp in enumerate(amps)})
    # Each is stored as complex(amp), signed zeros included.
    assert [(type(a), a) for a in s.terms.values()] == [(complex, complex(a)) for a in amps]
    assert [struct.pack("<dd", a.real, a.imag) for a in s.terms.values()] == [
        struct.pack("<dd", complex(a).real, complex(a).imag) for a in amps
    ]


def test_norm_names_an_amplitude_too_large_to_square():
    # Finite, but abs(a) ** 2 overflows a float above about 1.3e154.
    s = FockState(4, {(0, 1, 0, 1): 0.5, (1, 0, 1, 0): -1e200j})
    for check in (norm, is_normalized):
        with pytest.raises(ValueError, match=r"\(-0-1e\+200j\) of occupation \(1, 0, 1, 0\) is too large to square"):
            check(s)
    assert norm(FockState(1, {(1,): 1e154})) == abs(1e154 + 0j)
    # abs() itself overflows here, in norm and in state_from_dict's pruning check.
    huge = complex(1.5e308, 1.5e308)
    for check in (norm, is_normalized):
        with pytest.raises(ValueError, match=r"^amplitude \(1.5e\+308\+1.5e\+308j\) of occupation \(1,\) is too large to square$"):
            check(FockState(1, {(1,): huge}))
    with pytest.raises(ValueError, match=r"^amplitude \(1.5e\+308\+1.5e\+308j\) of occupation \(0, 1\) is too large to square$"):
        state_from_dict({"modes": 2, "terms": [{"occ": [0, 1], "re": huge.real, "im": huge.imag}]})
    # An int amplitude is stored as a complex, whose square passes the float range.
    for check in (norm, is_normalized):
        with pytest.raises(ValueError, match=r"^amplitude \(1e\+300\+0j\) of occupation \(1,\) is too large to square$"):
            check(FockState(1, {(1,): 10**300}))


def test_norm_names_the_largest_amplitude_when_the_squares_sum_past_the_largest_float():
    # Each square is finite (1e308, 1.44e308), their sum is not: normalize used to divide by inf.
    s = FockState(2, {(1, 0): 1e154, (0, 1): -1.2e154})
    for check in (norm, normalize):
        with pytest.raises(ValueError, match=r"^amplitude \(-1.2e\+154\+0j\) of occupation \(0, 1\) is too large to square$"):
            check(s)
    with pytest.raises(ValueError, match=r"^amplitude \(1e\+154\+0j\) of occupation \(1, 0\) is too large to square$"):
        normalize(FockState(2, {(1, 0): 1e154, (0, 1): 1e154}))
    assert norm(FockState(2, {(1, 0): 1e154, (0, 1): 1e153})) == pytest.approx(1e154 * 1.01**0.5, rel=1e-15)


@pytest.mark.parametrize("re, im", [(1e-13, 0.0), (0.0, -1e-12), (5e-324, 0.0)])
def test_state_from_dict_rejects_amplitudes_it_would_prune(re, im):
    data = {"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}, {"occ": [0, 1], "re": re, "im": im}]}
    with pytest.raises(ValueError, match=r"occupation \(0, 1\) is at or below the pruning tolerance 1e-12"):
        state_from_dict(data)


def test_state_from_dict_rejects_a_repeated_occupation():
    # make_state merges repeats by summing: this file would load as |01>, its cancelled entries pruned unseen.
    terms = [{"occ": [1, 0], "re": 0.6, "im": 0.0}, {"occ": [1, 0], "re": -0.6, "im": 0.0}, {"occ": [0, 1], "re": 1.0, "im": 0.0}]
    with pytest.raises(ValueError, match=r"^occupation \(1, 0\) is listed twice$"):
        state_from_dict({"modes": 2, "terms": terms})
    assert make_state(2, [(t["occ"], t["re"]) for t in terms]) == basis_state(2, (0, 1))  # make_state keeps its merge
    # Each occupation is checked before it is compared, so a malformed repeat keeps its own message.
    with pytest.raises(ValueError, match=r"^occupation \[\[1\], 0\] must hold integers$"):
        state_from_dict({"modes": 2, "terms": [{"occ": [[1], 0], "re": 1.0, "im": 0.0}] * 2})
    with pytest.raises(ValueError, match=r"^occupation \[1, 0, 0\] should have 2 entries$"):
        state_from_dict({"modes": 2, "terms": [terms[0], {"occ": [1, 0, 0], "re": 1.0, "im": 0.0}, terms[0]]})


@pytest.mark.parametrize("real, imag, message", [
    (False, True, "re part of occupation (1,) is a boolean (False), not a number"),
    (0.0, True, "im part of occupation (1,) is a boolean (True), not a number"),
    (True, 0.0, "re part of occupation (1,) is a boolean (True), not a number"),
])
def test_state_from_dict_rejects_boolean_amplitude_parts(real, imag, message):
    # complex(False, True) is 1j: a JSON true would load as a unit amplitude.
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": real, "im": imag}]})
    assert state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": 1, "im": 0}]}) == FockState(1, {(1,): 1.0})
    assert FockState(1, {(1,): True}) == FockState(1, {(1,): 1.0})  # library amplitudes still take bools as numbers


def test_state_from_dict_builds_make_states_bits():
    # Distinct occupations: the same terms, order and amplitude bits as make_state, signed zeros included.
    data = {"modes": 3, "terms": [{"occ": [0, 1, 2], "re": -0.0, "im": 0.5}, {"occ": [1, 0, 0], "re": 0.25, "im": -0.0}]}
    built = state_from_dict(data)
    expected = make_state(3, [(t["occ"], complex(t["re"], t["im"])) for t in data["terms"]])
    assert list(built.terms) == list(expected.terms)
    assert [struct.pack("<dd", a.real, a.imag) for a in built.terms.values()] == [
        struct.pack("<dd", a.real, a.imag) for a in expected.terms.values()
    ]


def test_state_from_dict_still_drops_exact_zeros():
    data = {"modes": 2, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}, {"occ": [0, 1], "re": 0.0, "im": -0.0}]}
    assert dict(state_from_dict(data).terms) == {(1, 0): 1 + 0j}


def test_terms_are_read_only():
    s = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    with pytest.raises(TypeError):
        s.terms[(1, 0)] = 1.0
    source = {(1, 0): 1.0}
    built = FockState(2, source)
    source[(0, 1)] = 1.0
    assert built.terms == {(1, 0): 1.0}


def test_states_pickle_and_copy_to_equal_read_only_states():
    # terms is a MappingProxyType, which does not pickle; a state hands pickle and copy a dict and wraps it again.
    s = make_state(3, [((1, 0, 1), 0.6), ((0, 2, 0), complex(-0.0, 0.8))])
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert type(copied) is FockState and copied == s and copied.modes == 3
        assert [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in copied.terms.items()] == [
            (occ, amp.real.hex(), amp.imag.hex()) for occ, amp in s.terms.items()
        ]
        assert type(copied.terms) is MappingProxyType
        with pytest.raises(TypeError):
            copied.terms[(1, 0, 1)] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.modes = 4
    assert copy.deepcopy(s).terms is not s.terms


def test_inner_product_orthonormal_basis():
    ket10, ket01 = basis_state(2, (1, 0)), basis_state(2, (0, 1))
    assert inner_product(ket10, ket10) == 1
    assert inner_product(ket10, ket01) == 0


def test_inner_product_arithmetic():
    a = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    b = make_state(2, [((1, 0), 0.6), ((0, 1), -0.8)])
    assert inner_product(a, b) == pytest.approx(-0.28)


def test_inner_product_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(0)
    a, b = random_state(3, 4, rng), random_state(3, 4, rng)
    assert inner_product(scale(a, 1j), b) == pytest.approx(-1j * inner_product(a, b))
    assert inner_product(a, scale(b, 1j)) == pytest.approx(1j * inner_product(a, b))


def test_inner_product_positivity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = random_state(3, 3, rng)
        val = inner_product(s, s)
        assert val.imag == pytest.approx(0.0)
        assert val.real > 0
    assert inner_product(zero_state(2), zero_state(2)) == 0


def test_inner_product_mode_mismatch():
    with pytest.raises(ValueError):
        inner_product(basis_state(2, (1, 0)), basis_state(3, (1, 0, 0)))


def test_tensor_basis_kets():
    out = tensor(basis_state(2, (1, 0)), basis_state(2, (0, 1)))
    assert out.terms == {(1, 0, 0, 1): 1}


def test_tensor_product_of_qubits():
    a, b, g, d = 0.6, 0.8, 0.8j, 0.6
    left = make_state(2, [((1, 0), a), ((0, 1), b)])
    right = make_state(2, [((1, 0), g), ((0, 1), d)])
    out = tensor(left, right)
    assert out.terms[(1, 0, 1, 0)] == pytest.approx(a * g)
    assert out.terms[(1, 0, 0, 1)] == pytest.approx(a * d)
    assert out.terms[(0, 1, 1, 0)] == pytest.approx(b * g)
    assert out.terms[(0, 1, 0, 1)] == pytest.approx(b * d)


def test_tensor_with_zero_state():
    assert tensor(zero_state(2), basis_state(2, (1, 0))).is_zero


def test_tensor_associative_and_norm_multiplicative():
    rng = np.random.default_rng(2)
    a = scale(random_state(2, 3, rng), 1.7)
    b = scale(random_state(2, 2, rng), 0.4)
    c = random_state(3, 3, rng)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.terms.keys() == right.terms.keys()
    for occ in left.terms:
        assert left.terms[occ] == pytest.approx(right.terms[occ])
    assert norm(tensor(a, b)) == pytest.approx(norm(a) * norm(b))


def test_fidelity_examples():
    ket10, ket01 = basis_state(2, (1, 0)), basis_state(2, (0, 1))
    plus = normalize(add(ket10, ket01))
    assert fidelity(ket10, ket10) == pytest.approx(1.0)
    assert fidelity(ket10, ket01) == 0.0
    assert fidelity(ket10, plus) == pytest.approx(0.5)


def test_fidelity_rejects_unnormalized():
    with pytest.raises(ValueError):
        fidelity(scale(basis_state(2, (1, 0)), 2.0), basis_state(2, (1, 0)))


def test_schmidt_rank_product_state():
    s = tensor(basis_state(2, (1, 0)), basis_state(2, (1, 0)))
    assert schmidt_rank(s, bipartition(4, [0, 1]), 1e-9) == 1


def test_schmidt_rank_bell_type_state():
    s = normalize(make_state(4, [((1, 0, 0, 1), 1), ((0, 1, 1, 0), 1)]))
    assert schmidt_rank(s, bipartition(4, [0, 1]), 1e-9) == 2


def test_schmidt_values_reject_a_cut_that_does_not_split_the_modes():
    s = make_state(4, [((1, 0, 1, 0), 0.6), ((1, 0, 0, 1), 0.8)])
    # Read on modes 0 and 1 only, the two orthogonal terms would add up to one singular value 1.4.
    for cut in (bipartition(2, [0]), Bipartition((0,), (1,)), Bipartition((0, 1), (2, 3, 3))):
        for values in (schmidt_values, schmidt_rank):
            with pytest.raises(ValueError, match=rf"^{re.escape(repr(cut))} does not split the 4 modes$"):
                values(s, cut)
    assert schmidt_values(s, Bipartition((1, 0), (3, 2))).tolist() == pytest.approx([1.0])
    assert schmidt_rank(s, bipartition(4, [0, 1])) == 1


def test_bipartition_reads_its_entries_by_the_integer_rule():
    s = make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)])
    for left, right, message in (
        ((0.0,), (1,), "left [0.0] must hold integers"),
        (("0",), (1,), "left ['0'] must hold integers"),
        ((True,), (0,), "left [True] must hold integers"),
        ((0,), (np.float64(1),), "right [np.float64(1.0)] must hold integers"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            Bipartition(left, right)
    cut = Bipartition([np.int64(1)], (np.int32(0),))
    assert cut == Bipartition((1,), (0,)) and all(type(i) is int for i in (*cut.left, *cut.right))
    assert schmidt_values(s, cut).tolist() == pytest.approx([0.8, 0.6])
    with pytest.raises(ValueError, match=r"^left and right share modes \[1\]$"):
        Bipartition((np.int64(1), 0), (1,))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9, np.float64("nan"), "1e-9", None, True, 1j])
def test_schmidt_rank_takes_a_finite_non_negative_real_tol(tol):
    s = make_state(4, [((1, 0, 1, 0), 0.6), ((0, 1, 0, 1), 0.8)])
    with pytest.raises(ValueError, match=rf"^tol must be a finite non-negative real number, got {re.escape(repr(tol))}$"):
        schmidt_rank(s, bipartition(4, [0, 1]), tol)
    for good in (0, 0.0, np.float64(0.7), Fraction(1, 10), np.int64(1)):
        assert schmidt_rank(s, bipartition(4, [0, 1]), good) == sum(v > good for v in (0.8, 0.6))


def test_schmidt_values_two_cnot_intermediate_state():
    # State after the two joining CNOTs, before projection, for generic
    # amplitudes; the 4 x 2 coefficient matrix across the control cut has
    # singular values sqrt(|a0|^2+|a2|^2) and sqrt(|a1|^2+|a3|^2).
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    s = make_state(
        6,
        [
            ((1, 0, 0, 0, 1, 0), a[0]),
            ((0, 1, 0, 0, 0, 1), a[1]),
            ((0, 0, 1, 0, 1, 0), a[2]),
            ((0, 0, 0, 1, 0, 1), a[3]),
        ],
    )
    cut = bipartition(6, [4, 5])
    expected = sorted(
        [np.hypot(abs(a[0]), abs(a[2])), np.hypot(abs(a[1]), abs(a[3]))], reverse=True
    )
    assert schmidt_rank(s, cut, 1e-9) == 2
    assert np.allclose(schmidt_values(s, cut), expected, atol=1e-12)


def test_schmidt_rank_invariant_under_local_unitaries():
    from fockjoin.optics import ModeUnitary, apply_unitary, haar_random_unitary

    rng = np.random.default_rng(4)
    for trial in range(5):
        s = random_state(4, 4, rng, max_photons=1)
        cut = bipartition(4, [0, 1])
        before = schmidt_rank(s, cut, 1e-9)
        block = np.eye(4, dtype=complex)
        block[:2, :2] = haar_random_unitary(2, 50 + trial).matrix
        block[2:, 2:] = haar_random_unitary(2, 90 + trial).matrix
        after = schmidt_rank(apply_unitary(s, ModeUnitary(4, block)), cut, 1e-9)
        assert before == after


def test_add_vacuum_modes_examples():
    assert add_vacuum_modes(basis_state(2, (1, 0)), (2, 3)).terms == {(1, 0, 0, 0): 1}
    # Canonical unfold positions: a zero lands after each original mode.
    assert add_vacuum_modes(basis_state(2, (0, 1)), (1, 3)).terms == {(0, 0, 1, 0): 1}
    assert add_vacuum_modes(zero_state(2), (0, 1)).is_zero


def test_add_vacuum_modes_position_out_of_range():
    with pytest.raises(ValueError):
        add_vacuum_modes(basis_state(2, (1, 0)), (4,))


def test_discard_empty_modes_examples():
    assert discard_empty_modes(basis_state(4, (1, 0, 0, 0)), (1, 3)).terms == {(1, 0): 1}
    s = make_state(4, [((1, 0, 0, 0), 0.6), ((0, 0, 1, 0), 0.8)])
    out = discard_empty_modes(s, (1, 3))
    assert out.terms == {(1, 0): 0.6, (0, 1): 0.8}
    with pytest.raises(NonEmptyModeError):
        discard_empty_modes(basis_state(4, (0, 1, 0, 0)), (1, 3))
    with pytest.raises(ValueError):
        discard_empty_modes(basis_state(2, (0, 0)), (0, 1))


def test_vacuum_roundtrip_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = random_state(3, 4, rng)
        positions = sorted(rng.choice(6, size=3, replace=False).tolist())
        grown = add_vacuum_modes(s, positions)
        back = discard_empty_modes(grown, positions)
        assert back.terms.keys() == s.terms.keys()
        for occ in s.terms:
            assert back.terms[occ] == pytest.approx(s.terms[occ])


def test_permute_modes_moves_photons():
    s = basis_state(3, (1, 2, 0))
    assert permute_modes(s, (2, 0, 1)).terms == {(2, 0, 1): 1}


def test_postselect_vacuum_probability():
    s = normalize(make_state(2, [((1, 0), 0.6), ((0, 1), 0.8)]))
    kept, prob = postselect_vacuum(s, (1,))
    assert prob == pytest.approx(0.36)
    assert kept.terms[(1, 0)] == pytest.approx(1.0)


@pytest.mark.parametrize("positions", [[-1], [5], [0, 3]])
def test_postselect_vacuum_rejects_positions_out_of_range(positions):
    # A negative position must not count from the end, and one past the end
    # must not surface as a bare IndexError.
    with pytest.raises(ValueError, match=r"positions \[.*\] out of range for 3 modes"):
        postselect_vacuum(basis_state(3, (0, 0, 1)), positions)


def test_partial_inner_contracts_a_factor():
    rng = np.random.default_rng(6)
    x, y = random_state(2, 3, rng), random_state(3, 4, rng)
    combined = tensor(x, y)
    out = partial_inner(x, combined, (0, 1))
    # <x|x> = 1, so contraction recovers y.
    for occ in y.terms:
        assert out.terms[occ] == pytest.approx(y.terms[occ])


def test_json_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    s = random_state(3, 5, rng)
    data = json.loads(json.dumps(state_to_dict(s)))
    back = state_from_dict(data)
    assert back.modes == s.modes
    assert back.terms == s.terms
    occs = [tuple(t["occ"]) for t in state_to_dict(s)["terms"]]
    assert occs == sorted(occs)


# Every mode position, permutation and count is read through one index
# check: fractions, bools, negatives, out-of-range values and, where a
# set is meant, repeats fail at the boundary with a ValueError naming the
# argument, instead of being truncated by int(...).
_BAD_INDEX_CALLS = {
    "make_state fraction": lambda: make_state(4, [((1.9, 0, 1, 0), 1.0)]),
    "make_state bool": lambda: make_state(4, [((True, False, True, False), 1.0)]),
    "FockState fraction": lambda: FockState(2, {(0.5, 0): 1.0}),
    "state_from_dict modes": lambda: state_from_dict({"modes": 4.6, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}),
    "add_vacuum_modes fraction": lambda: add_vacuum_modes(basis_state(2, (1, 0)), (1.5,)),
    "add_vacuum_modes repeat": lambda: add_vacuum_modes(basis_state(2, (1, 0)), (1, 1)),
    "discard_empty_modes fraction": lambda: discard_empty_modes(basis_state(3, (1, 0, 0)), (1.7,)),
    "permute_modes fraction": lambda: permute_modes(basis_state(2, (1, 0)), (1.0, 0)),
    "permute_modes short": lambda: permute_modes(basis_state(3, (1, 0, 0)), (1, 0)),
    "postselect_vacuum fraction": lambda: postselect_vacuum(basis_state(3, (0, 1, 0)), [1.9]),
    "partial_inner fraction": lambda: partial_inner(basis_state(1, (1,)), basis_state(2, (1, 0)), [0.2]),
    "partial_inner bool": lambda: partial_inner(basis_state(1, (1,)), basis_state(2, (1, 0)), [False]),
    "bipartition repeat": lambda: bipartition(4, [0, 0, 1]),
    "bipartition fraction": lambda: bipartition(4, [0.5]),
    "bipartition negative": lambda: bipartition(4, [-1]),
    # Mode counts: every constructor that takes one reads it through fock._mode_count.
    "FockState float modes": lambda: FockState(2.0, {(1, 0): 1}),
    "FockState bool modes": lambda: FockState(True, {(1,): 1}),
    "zero_state fraction": lambda: zero_state(2.5),
    "make_state bool modes": lambda: make_state(True, [((1,), 1.0)]),
    "bipartition float modes": lambda: bipartition(4.0, [0]),
}


@pytest.mark.parametrize("case", sorted(_BAD_INDEX_CALLS))
def test_fractional_and_repeated_indices_fail_at_the_boundary(case):
    with pytest.raises(ValueError, match=r"occupation|modes|positions|permutation|left set"):
        _BAD_INDEX_CALLS[case]()


def test_a_stored_mode_count_is_an_int():
    # A numpy count is stored as the int it stands for; 0 keeps its own message.
    count = np.int64(2)
    for state in (
        FockState(count, {(1, 0): 1}),
        zero_state(count),
        make_state(count, [((1, 0), 1)]),
        state_from_dict({"modes": count, "terms": [{"occ": [1, 0], "re": 1.0, "im": 0.0}]}),
    ):
        assert type(state.modes) is int and state.modes == 2
    for build in (lambda: FockState(0, {}), lambda: make_state(0, [((), 1)]), lambda: bipartition(0, [])):
        with pytest.raises(ValueError, match=r"^mode count must be positive, got 0$"):
            build()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.permutations(range(m)), st.sampled_from([np.int64, np.int32, np.uint8, int]))
    )
)
def test_numpy_integer_indices_act_as_python_ints(case):
    modes, perm, kind = case
    s = make_state(modes, [(tuple(kind(n) for n in (1,) + (0,) * (modes - 1)), 0.6), ((0,) * (modes - 1) + (1,), 0.8)])
    assert permute_modes(s, [kind(p) for p in perm]).terms == permute_modes(s, perm).terms
    assert postselect_vacuum(s, np.array(perm[:1], dtype=kind))[1] == postselect_vacuum(s, perm[:1])[1]
    assert bipartition(modes, np.array(perm[:2], dtype=kind)) == bipartition(modes, perm[:2])
    assert all(type(n) is int for occ in s.terms for n in occ)


def test_discard_empty_modes_names_the_lowest_occupied_mode():
    s = basis_state(10, tuple(int(j in (2, 9)) for j in range(10)))
    for positions in ((2, 9), (9, 2)):
        with pytest.raises(NonEmptyModeError, match=r"^mode 2 holds 1 photon\(s\) in term \(0, 0, 1,"):
            discard_empty_modes(s, positions)


# Reference loops: the occupation ops as they read before they shared fock._layout, term by term and
# entry by entry. One difference is deliberate: discard_empty_modes checks its positions in ascending
# order, so it names the lowest occupied mode; the old loop read them in set order.


def _ref_add_vacuum_modes(s, positions):
    positions = tuple(positions)
    pos_set = set(_indices(positions, "insertion positions", s.modes + len(positions), distinct=True))
    new_modes = s.modes + len(pos_set)
    out = {}
    for occ, amp in s.terms.items():
        it = iter(occ)
        out[tuple(0 if j in pos_set else next(it) for j in range(new_modes))] = amp
    return _trusted(new_modes, out)


def _ref_discard_empty_modes(s, positions):
    positions = set(_indices(positions, "positions", s.modes))
    if len(positions) == s.modes:
        raise ValueError("cannot discard every mode; at least one must remain")
    out = {}
    for occ, amp in s.terms.items():
        for p in sorted(positions):
            if occ[p] != 0:
                raise NonEmptyModeError(f"mode {p} holds {occ[p]} photon(s) in term {occ}")
        out[tuple(n for j, n in enumerate(occ) if j not in positions)] = amp
    return _trusted(s.modes - len(positions), out)


def _ref_permute_modes(s, perm):
    perm = _indices(perm, "permutation", s.modes, distinct=True, count=s.modes)
    out = {}
    for occ, amp in s.terms.items():
        new_occ = [0] * s.modes
        for i, n in enumerate(occ):
            new_occ[perm[i]] = n
        out[tuple(new_occ)] = amp
    return _trusted(s.modes, out)


def _ref_postselect_vacuum(s, positions):
    positions = set(_indices(positions, "positions", s.modes))
    kept = {occ: amp for occ, amp in s.terms.items() if all(occ[p] == 0 for p in positions)}
    total = _checked_squared_norm(s)
    if total == 0.0:
        return zero_state(s.modes), 0.0
    return normalize(_pruned(s.modes, kept)), _squared_norm(kept.values()) / total


def _ref_partial_inner(bra, ket, positions):
    positions = _indices(positions, "positions", ket.modes, distinct=True, count=bra.modes)
    rest = [j for j in range(ket.modes) if j not in set(positions)]
    if not rest:
        raise ValueError("cannot contract every mode; at least one must remain")
    out = {}
    for occ, amp in ket.terms.items():
        bra_amp = bra.terms.get(tuple(occ[p] for p in positions))
        if bra_amp is None:
            continue
        rest_occ = tuple(occ[j] for j in rest)
        out[rest_occ] = out.get(rest_occ, 0j) + np.conj(bra_amp) * amp
    return _pruned(len(rest), out)


def _ref_schmidt_values(s, cut):
    if len(cut.left) + len(cut.right) != s.modes or set(cut.left) | set(cut.right) != set(range(s.modes)):
        raise ValueError(f"{cut} does not split the {s.modes} modes")
    if s.is_zero:
        return np.zeros(0)
    left_keys, right_keys, entries = {}, {}, []
    for occ, amp in s.terms.items():
        li = left_keys.setdefault(tuple(occ[i] for i in cut.left), len(left_keys))
        ri = right_keys.setdefault(tuple(occ[i] for i in cut.right), len(right_keys))
        entries.append((li, ri, amp))
    mat = np.zeros((len(left_keys), len(right_keys)), dtype=complex)
    for li, ri, amp in entries:
        mat[li, ri] += amp
    return np.linalg.svd(mat, compute_uv=False)


# One photon or none on a rail pair, written out here so a wrong gates._ACTIONS table cannot pass against itself.
_REF_LEGAL_PAIRS = {(1, 0), (0, 1), (0, 0)}


def _ref_apply_cnot(s, *specs):
    specs = [(*g.control.modes, *g.target.modes, g) for g in specs]
    for c0, c1, t0, t1, g in specs:
        if max(c0, c1, t0, t1) >= s.modes:
            raise ValueError(f"rails {g.control.modes} and {g.target.modes} out of range for {s.modes} modes")
    out = {}
    for occ, amp in s.terms.items():
        for c0, c1, t0, t1, g in specs:
            pc, pt = (occ[c0], occ[c1]), (occ[t0], occ[t1])
            if pc not in _REF_LEGAL_PAIRS or pt not in _REF_LEGAL_PAIRS:
                pattern, q = (pc, g.control) if pc not in _REF_LEGAL_PAIRS else (pt, g.target)
                raise IllegalPatternError(f"pattern {pattern} on modes {q.modes} in term {occ}")
            if pt == (0, 0) != pc:
                amp = amp * g.eta
            elif pc == (0, 0) != pt:
                amp = amp * g.eta_prime
            elif pc == (0, 1):
                swapped = list(occ)
                swapped[t0], swapped[t1] = occ[t1], occ[t0]
                occ = tuple(swapped)
            amp = 0j + amp
            if not abs(amp) > PRUNE_TOL:
                break
        else:
            out[occ] = amp
    return _trusted(s.modes, out)


def _ref_plan_layout(u, probe):
    """What u._expansion_plan's pickers and layout make of probe, built as the plan built them before."""
    m, active = u.dim, u._expansion_plan[4]
    passive = [i for i in range(m) if i not in active]
    order = passive + active
    layout = tuple if order == list(range(m)) else itemgetter(*sorted(range(m), key=order.__getitem__))
    picked, rest = _picker(active)(probe), _picker(passive)(probe)
    return picked, rest, layout is tuple, layout(rest + picked)


def _plan_layout(u, probe):
    pick_active, pick_passive, layout = u._expansion_plan[:3]
    return pick_active(probe), pick_passive(probe), layout is tuple, layout(pick_passive(probe) + pick_active(probe))


def _ref_port_photons(occ):
    ports = (gates._NETWORK_CONTROL.modes, gates._NETWORK_TARGET.modes, gates._NETWORK_ANCILLAS)
    return tuple(sum(occ[m] for m in modes) for modes in ports)


def _ref_project(state, *entries):
    modes = [mode for mode, _ in entries]  # distinct and below the mode count, as drawn
    if min(modes) < 0:
        raise ValueError(f"modes {modes} out of range for {state.modes} modes")
    support = tuple(mode for mode, amp in entries if amp)
    for occ in state.terms:
        if sum(occ[m] for m in support) > 1:
            raise IllegalPatternError(f"term {occ} holds more than one photon on the detected modes {support}")
    phi = np.zeros(state.modes, dtype=complex)
    for mode, amp in entries:
        phi[mode] = amp
    phi /= math.sqrt(_squared_norm(phi))
    return apply_projector(state, ProjectorSpec(phi))


def _fingerprint(result):
    """Keys in order with their entry types, and the repr and type of every amplitude or number; array bytes."""
    if isinstance(result, FockState):
        return result.modes, [(repr(occ), repr(amp), type(amp)) for occ, amp in result.terms.items()]
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    if isinstance(result, tuple) and result and isinstance(result[0], FockState):
        return tuple(map(_fingerprint, result))
    return repr(result), type(result)


def _assert_same_outcome(op, reference, *args):
    outcomes = []
    for f in (op, reference):
        try:
            outcomes.append(("returned", _fingerprint(f(*args))))
        except Exception as exc:  # the error type and message must agree too
            outcomes.append(("raised", type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], args


@st.composite
def _occupation_states(draw, modes, entries=(0, 0, 1, 2), occupations=None, amplitudes=None):
    """A state of one to five distinct terms, amplitudes of any sign (signed zeros too); the zero state has its own test.

    Each term's entries are drawn from entries, or whole from the occupations strategy if one is given; each
    amplitude from the amplitudes strategy, or from parts in [-4, 4].
    """
    occupation = occupations if occupations is not None else st.tuples(*[st.sampled_from(entries)] * modes)
    occs = draw(st.lists(occupation, min_size=1, max_size=5, unique=True))
    parts = st.floats(-4.0, 4.0, allow_subnormal=False)
    amplitude = amplitudes if amplitudes is not None else st.builds(complex, parts, parts)
    amps = draw(st.lists(amplitude, min_size=len(occs), max_size=len(occs)))
    return FockState(modes, dict(zip(occs, amps)))


_FORMS = {"list": list, "tuple": tuple, "np ints": lambda p: [np.int64(x) for x in p], "array": np.array}


@st.composite
def _positions(draw, modes):
    """Positions from one below the register to one past it: empty, unsorted, repeated, every mode or one."""
    positions = draw(
        st.lists(st.integers(-1, modes), max_size=modes + 1)
        | st.permutations(range(modes))
        | st.lists(st.integers(0, modes - 1), min_size=1, max_size=1)
    )
    return _FORMS[draw(st.sampled_from(sorted(_FORMS)))](positions)


# Each op's occupation entries: sparser ones let the empty-mode ops succeed. A CNOT pass draws _rail_occupations.
_ENTRIES = {"discard_empty_modes": (0, 0, 0, 1, 2), "postselect_vacuum": (0, 0, 0, 1, 2)}
_ILLEGAL_PAIRS = [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]


@st.composite
def _rail_occupations(draw, modes, pairs):
    """An occupation drawn rail pair by rail pair from the legal patterns (0, 0), (1, 0) and (0, 1); a mode on no pair holds 0 to 2."""
    occ = [draw(st.integers(0, 2))] * modes
    for q in pairs:
        occ[q.mode0], occ[q.mode1] = draw(st.sampled_from(sorted(_REF_LEGAL_PAIRS)))
    return tuple(occ)


_LAYOUT_OPS = ("add_vacuum_modes", "discard_empty_modes", "permute_modes", "postselect_vacuum", "partial_inner",
               "schmidt_values", "expansion_plan", "apply_cnot", "port_photons", "project")


def test_layout_ops_match_the_term_by_term_reference_on_the_zero_state():
    zero, cnot = FockState(4, {}), CnotSpec(DualRailQubit(0, 1), DualRailQubit(2, 3))
    for op, reference, *args in (
        (add_vacuum_modes, _ref_add_vacuum_modes, zero, [1, 3]),
        (discard_empty_modes, _ref_discard_empty_modes, zero, [0, 2]),
        (permute_modes, _ref_permute_modes, zero, [1, 0, 3, 2]),
        (postselect_vacuum, _ref_postselect_vacuum, zero, [0]),
        (partial_inner, _ref_partial_inner, FockState(2, {(1, 0): 1.0}), zero, [2, 0]),
        (schmidt_values, _ref_schmidt_values, zero, bipartition(4, [0, 1])),
        (apply_cnot, _ref_apply_cnot, zero, cnot),
        (circuit._project, _ref_project, zero, (0, 1 + 0j)),
    ):
        _assert_same_outcome(op, reference, *args)


@pytest.mark.parametrize("op", _LAYOUT_OPS)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_layout_ops_match_the_term_by_term_reference(op, data):
    # Registers of 1 to 10 modes (4 or more for a CNOT), so positions reach 8 and past.
    modes = data.draw(st.integers(4 if op == "apply_cnot" else 1, 10), label="modes")
    if op != "apply_cnot":  # a CNOT pass draws its state after its rail pairs
        s = data.draw(_occupation_states(modes, _ENTRIES.get(op, (0, 0, 1, 2))))
    if op == "add_vacuum_modes":
        _assert_same_outcome(add_vacuum_modes, _ref_add_vacuum_modes, s, data.draw(_positions(2 * modes)))
    elif op == "discard_empty_modes":
        _assert_same_outcome(discard_empty_modes, _ref_discard_empty_modes, s, data.draw(_positions(modes)))
    elif op == "permute_modes":
        _assert_same_outcome(permute_modes, _ref_permute_modes, s, data.draw(_positions(modes)))
    elif op == "postselect_vacuum":
        _assert_same_outcome(postselect_vacuum, _ref_postselect_vacuum, s, data.draw(_positions(modes)))
    elif op == "partial_inner":
        bra_modes = data.draw(st.integers(1, modes), label="bra modes")
        bra = data.draw(_occupation_states(bra_modes, (0, 1)))
        matched = st.permutations(range(modes)).map(lambda p: tuple(p[:bra_modes]))
        _assert_same_outcome(partial_inner, _ref_partial_inner, bra, s, data.draw(matched | _positions(modes)))
    elif op == "schmidt_values":
        # bipartition's cuts cover the register; a hand-built one need not (it may hold indices past either end),
        # and then both sides raise the same error.
        left = data.draw(st.lists(st.integers(-modes - 1, modes), unique=True, max_size=modes))
        others = st.integers(-modes - 1, modes).filter(lambda i: i not in left)
        right = data.draw(st.lists(others, unique=True, max_size=modes))
        covering = bipartition(modes, [i for i in left if 0 <= i < modes])
        cut = data.draw(st.sampled_from([Bipartition(tuple(left), tuple(right)), covering]))
        _assert_same_outcome(schmidt_values, _ref_schmidt_values, s, cut)
    elif op == "expansion_plan":
        i, j = data.draw(st.lists(st.integers(0, modes - 1), min_size=2, max_size=2))
        perm = data.draw(st.permutations(range(modes)))
        theta = data.draw(st.sampled_from([0.0, 0.7, math.pi / 2]))
        units = [phase_shifter(modes, i, theta), mode_permutation(modes, perm)]
        if i != j:  # the builder names its active modes; ModeUnitary scans its matrix for them
            coupler = beamsplitter(modes, i, j, theta, 1.3)
            units += [coupler, ModeUnitary(modes, coupler.matrix)]
        probe = tuple(range(10, 10 + modes))
        for u in units:
            assert _plan_layout(u, probe) == _ref_plan_layout(u, probe)
    elif op == "apply_cnot":
        # One pass of 1 to 4 CNOTs between rail pairs of the register, with unit and sub-unit vacuum-port amplitudes,
        # on terms that are legal on every pair. About one example in four then breaks each term in turn on the control
        # pair, on the target pair and on both pairs of some CNOT, with (1, 1) or a 2, and the first illegal pair must be
        # named alike. The break is keyed on 1 of 0..3: Hypothesis draws 0 far more often than one time in four.
        rails = data.draw(st.permutations(range(modes)))
        pairs = [DualRailQubit(*rails[k:k + 2]) for k in range(0, modes - 1, 2)]
        fans = []
        for _ in range(data.draw(st.integers(1, 4), label="CNOTs")):
            control, target = data.draw(st.permutations(pairs))[:2]
            eta, eta_prime = data.draw(st.tuples(*[st.sampled_from(_VACUUM_AMPLITUDES)] * 2), label="etas")
            fans.append(CnotSpec(control, target, eta, eta_prime))
        s = data.draw(_occupation_states(modes, occupations=_rail_occupations(modes, pairs), amplitudes=_TERM_AMPLITUDES))
        _assert_same_outcome(apply_cnot, _ref_apply_cnot, s, *fans)
        if data.draw(st.integers(0, 3), label="illegal") == 1:
            for k in range(len(s.terms)):
                for roles in (["control"], ["target"], ["control", "target"]):
                    fan = data.draw(st.sampled_from(fans))
                    occs = [list(occ) for occ in s.terms]
                    for q in (getattr(fan, role) for role in roles):
                        occs[k][q.mode0], occs[k][q.mode1] = data.draw(st.sampled_from(_ILLEGAL_PAIRS))
                    broken = FockState(modes, dict(zip(map(tuple, occs), s.terms.values())))
                    _assert_same_outcome(apply_cnot, _ref_apply_cnot, broken, *fans)
    elif op == "port_photons":
        for occ in data.draw(_occupation_states(6)).terms:
            assert gates._port_photons(occ) == _ref_port_photons(occ)
    else:  # a project line, as parse gives it or built by hand with negative modes
        detected = data.draw(
            st.lists(st.integers(-modes, modes - 1), min_size=1, max_size=modes, unique=True) | st.tuples(st.integers(-modes, -1))
        )
        entries = [(mode, complex(k % 3 != 1)) for k, mode in enumerate(detected)]
        _assert_same_outcome(circuit._project, _ref_project, s, *entries)
