"""Every library entry point that takes an amplitude from outside either accepts it or raises ValueError."""
import cmath
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, strategies as st

from fockjoin.fock import FockState, make_state, scale, state_from_dict
from fockjoin.gates import CnotSpec, DualRailQubit
from fockjoin.schemes import joined_ququart, two_qubit_input
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


def _entry_points(x):
    """One call per entry point, each with x as one amplitude."""
    yield lambda: FockState(2, {(1, 0): x})
    yield lambda: make_state(2, [((1, 0), x)])
    yield lambda: scale(_UNIT, x)
    yield lambda: two_qubit_input([x, 0.6, 0, 0.8])
    yield lambda: joined_ququart([0.6, 0, x, 0.8])
    yield lambda: teleport_join((x, 0), (1, 0), outcome=3).output
    yield lambda: state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": x, "im": 0.0}]})
    yield lambda: state_from_dict({"modes": 1, "terms": [{"occ": [1], "re": 0.0, "im": x}]})
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta=x)
    yield lambda: CnotSpec(_CONTROL, _TARGET, eta_prime=x)


@given(_AMPLITUDES)
@example("1")
@example(b"1")
@example(None)
@example(10**400)
@example(math.nan)
@example(complex(1.5e308, 1.5e308))
@example(np.int64(-(2**63)))  # numpy's abs wraps it to a negative int
def test_entry_points_accept_an_amplitude_or_raise_value_error(x):
    for call in _entry_points(x):
        try:
            result = call()
        except ValueError:
            continue
        # No string is an amplitude, though complex() would parse one.
        assert not isinstance(x, (str, bytes)), f"accepted {x!r}"
        if isinstance(result, FockState):
            assert all(cmath.isfinite(complex(a)) for a in result.terms.values())
