import json
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockjoin.fock import (
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
)


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
}


@pytest.mark.parametrize("case", sorted(_BAD_INDEX_CALLS))
def test_fractional_and_repeated_indices_fail_at_the_boundary(case):
    with pytest.raises(ValueError, match=r"occupation|modes|positions|permutation|left set"):
        _BAD_INDEX_CALLS[case]()


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
