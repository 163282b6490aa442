"""Every library entry point that takes an amplitude from outside either accepts it or raises ValueError.

A state built from outside amplitudes stores each as a Python complex, whatever number type it was given as.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fockjoin.fock import FockState, make_state, norm, scale, state_from_dict, tensor
from fockjoin.gates import CnotSpec, DualRailQubit
from fockjoin.nogo import end_to_end_projection_check
from fockjoin.optics import ProjectorSpec, identity
from fockjoin.schemes import EncodingViolationError, join_deterministic, joined_ququart, two_qubit_input
from fockjoin.tpes import teleport_join

_EDGES = [math.inf, -math.inf, math.nan, 1e154, 1e308, -1e308, complex(1.5e308, 1.5e308), complex(1e308, 1e308), -0.0]

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


def _other_entry_points(x):
    """One call per other entry point, each with x as one amplitude."""
    yield lambda: teleport_join((x, 0), (1, 0), outcome=3).output
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta=x)
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta_prime=x)
    yield lambda: end_to_end_projection_check([x, 0.6, 0, 0.8], identity(4), _DETECTION)


@given(_AMPLITUDES)
@example("1")
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
    ],
    ids=["merged-sum-inf", "merged-sum-abs-overflow", "scaled-inf"],
)
def test_arithmetic_past_the_float_range_raises_value_error(call, problem):
    with pytest.raises(ValueError, match=f"^amplitude {problem}$"):
        call()
