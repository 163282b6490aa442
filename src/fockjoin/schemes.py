"""End-to-end joining and splitting protocols for dual-rail photon pairs.

Joining transfers the two-qubit state of two photons onto one photon
spread over four modes; splitting is the inverse. Both exist in a
projective variant (two CNOTs plus an erasing projection, succeeding on
half the branches, with a feed-forward correction recovering the other
half) and a deterministic variant (four CNOTs, no projection).

Mode layout, one for every variant (fixed so test vectors are bit-exact):

* two-qubit input: 4 modes, first qubit on (0, 1), second on (2, 3);
  basis amplitudes are indexed a0..a3 with a_k for logical k = 2*q0 + q1.
* 6-mode register: the photon's halves on (0, 1) and (2, 3), the carrier
  qubit on (4, 5). Joining unfolds the input (an empty mode after each
  original rail, at UNFOLD_GAPS: |10> -> |1000>, |01> -> |0010> for the
  first qubit), so the second qubit becomes the carrier; splitting
  appends a carrier in |10>, which leaves on (2, 3) of the 4-mode output.
* two CNOT fans: fan-in, carrier -> each half (eta); fan-out, each half
  -> carrier (eta_prime). Projective joining is the fan-in, deterministic
  joining fan-in then fan-out; projective splitting is the fan-out,
  deterministic splitting fan-out then fan-in, each in one apply_cnot pass.

Branch selection is explicit: callers force "plus"/"minus" or ask for a
seeded sample. Probabilities are always computed exactly; sampling only
picks which exactly-weighted branch a report describes. A branch is
built on demand, only if the report reads it (sampling reads the plus
weight). Each entry point checks its inputs once; a report's fidelity is
the clamped overlap of states the package built.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .fock import (
    FockState,
    _checked_seed,
    _clamped_overlap,
    _indices,
    _on_basis,
    _renormalized,
    add_vacuum_modes,
    basis_state,
    discard_empty_modes,
    is_normalized,
    make_state,
    partial_inner,
    postselect_vacuum,
    tensor,
)
from .gates import CnotSpec, DualRailQubit, _vacuum_port_problem, apply_cnot, logical_phase_flip
from .optics import apply_unitary, hadamard_pair

# The photon's two rail pairs, and the qubit that enters on a join or
# leaves on a split, on the last two modes; _PARKED is that qubit in |10>.
_HALVES = (DualRailQubit(0, 1), DualRailQubit(2, 3))
_CARRIER = DualRailQubit(4, 5)
_REGISTER_MODES = 1 + max(_CARRIER.modes)
_PARKED = basis_state(2, (1, 0))
# The halves' logical-0 and logical-1 rails: unfolding leaves the logical-1
# rails empty, and after the splitting mixers they are the minus rails.
_RAILS0, _RAILS1 = zip(*(half.modes for half in _HALVES))
UNFOLD_GAPS = _RAILS1
# The fan-in and fan-out CNOTs at unit vacuum-port amplitudes, built once.
_FAN_IN = tuple(CnotSpec(_CARRIER, half) for half in _HALVES)
_FAN_OUT = tuple(CnotSpec(half, _CARRIER) for half in _HALVES)
# The carrier states (|10> +/- |01>)/sqrt2 whose contraction erases it in join_projective.
_ROOT_HALF = 1.0 / np.sqrt(2.0)
_JOIN_ERASERS = tuple(make_state(2, [((1, 0), _ROOT_HALF), ((0, 1), sign * _ROOT_HALF)]) for sign in (1.0, -1.0))
# Balanced mixers on the two halves after the splitting CNOTs.
_SPLIT_RAIL_MIXERS = tuple(hadamard_pair(_REGISTER_MODES, *half.modes) for half in _HALVES)

_TWO_QUBIT_BASIS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
_QUQUART_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class EncodingViolationError(ValueError):
    """Input state does not respect the required photonic encoding."""


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of one protocol run.

    ``success_probability`` is the exact probability that the reported
    path produces ``output``: 1/2 for a forced projective branch, the sum
    of both branches, clamped at 1, when feed-forward folds both onto the
    target, 1 for the deterministic variants (CNOT implementation costs are
    tracked separately by the probability model).
    """

    output: FockState
    success_probability: float
    branch: str
    feed_forward_applied: bool
    fidelity_to_expected: float


@dataclass(frozen=True)
class ProbabilityModel:
    """Compositional bookkeeping for pipeline success probabilities."""

    p_cnot: Fraction | float
    n_cnot: int
    p_projection: Fraction | float
    feed_forward: bool = False

    def __post_init__(self):
        # A probability is a real number, not a bool, in [0, 1]; NaN fails the range test.
        for name, p in (("p_cnot", self.p_cnot), ("p_projection", self.p_projection)):
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 <= p <= 1:
                raise ValueError(f"{name} must be a real number in [0, 1], got {p!r}")
        _indices([self.n_cnot], "n_cnot")  # a non-negative integer, not a bool
        _check_feed_forward(self.feed_forward)


def _check_feed_forward(value) -> None:
    """A ValueError naming feed_forward unless it is a bool or np.bool_: 0, None or [0] is no switch."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"feed_forward must be a bool, got {value!r}")


def _check_measurement(branch, feed_forward, seed) -> int | None:
    """A projective run's checks of its branch, feed_forward and seed, made before any CNOT runs; returns the checked seed."""
    if branch not in ("plus", "minus", "sample"):
        raise ValueError(f"unknown branch {branch!r}; use plus, minus or sample")
    _check_feed_forward(feed_forward)
    return _checked_seed(seed)


# Feed-forward recovery: accepting the correctable measurement branches of
# a probabilistic CNOT doubles its success; the final +/- erasure branch
# is recovered inside join_projective itself, not in this model.
GATE_FEED_FORWARD_RECOVERY = Fraction(2)

IDEAL_PIPELINE = ProbabilityModel(Fraction(1), 2, Fraction(1, 2))
PHYSICAL_PIPELINE = ProbabilityModel(Fraction(1, 4), 2, Fraction(1, 2))


def compose_success_probability(model: ProbabilityModel):
    """p_gate^n times the projection weight, with feed-forward recovery.

    With feed_forward on, every probabilistic gate keeps its correctable
    branches and its success doubles (capped at 1). The ideal pipeline
    gives 1/2, the physical two-gate pipeline 1/32, and the same physical
    model with feed-forward 1/8 -- exactly, when fed Fractions.
    """
    p_gate = model.p_cnot
    if model.feed_forward:
        p_gate = min(GATE_FEED_FORWARD_RECOVERY * p_gate, 1)
    return p_gate ** model.n_cnot * model.p_projection


# --- input encodings ----------------------------------------------------------


def _encode(basis, alphas) -> FockState:
    """Four amplitudes on an encoding's four basis occupations (normalized by caller), as make_state builds them."""
    alphas = tuple(alphas)
    if len(alphas) != 4:
        raise EncodingViolationError("expected four amplitudes")
    state = _on_basis(4, basis, alphas)
    if state.is_zero and not any(alphas):  # exact zeros only: make_state's rule for an empty term list
        raise ValueError("at least one term is required")
    return state


def _decode(s: FockState, basis, what: str, pattern: str) -> np.ndarray:
    """Read a0..a3 back from a normalized four-mode state written in ``basis``."""
    if s.modes != 4:
        raise EncodingViolationError(f"expected 4 modes, got {s.modes}")
    if not is_normalized(s):
        raise EncodingViolationError(f"{what} must be normalized")
    coeffs = np.zeros(4, dtype=complex)
    for occ, amp in s.terms.items():
        if occ not in basis:
            raise EncodingViolationError(f"term {occ} is not {pattern}")
        coeffs[basis.index(occ)] = amp
    return coeffs


def two_qubit_input(alphas) -> FockState:
    """Two dual-rail qubits from amplitudes a0..a3 (normalized by caller)."""
    return _encode(_TWO_QUBIT_BASIS, alphas)


def input_coefficients(s: FockState) -> np.ndarray:
    """Extract a0..a3 from a valid two-qubit input state."""
    return _decode(s, _TWO_QUBIT_BASIS, "input state", "one photon per rail pair")


def joined_ququart(alphas) -> FockState:
    """The target joined state a0|1000> + a1|0100> + a2|0010> + a3|0001>."""
    return _encode(_QUQUART_BASIS, alphas)


def ququart_coefficients(q: FockState) -> np.ndarray:
    """Extract a0..a3 from a valid one-photon four-mode state."""
    return _decode(q, _QUQUART_BASIS, "ququart state", "a one-photon four-mode pattern")


# --- joining ------------------------------------------------------------------


def unfold_target(s: FockState) -> FockState:
    """Spread the first qubit over four modes; the second becomes the carrier on (4, 5)."""
    input_coefficients(s)
    return add_vacuum_modes(s, UNFOLD_GAPS)


def _one_per_half(name: str, amplitudes) -> tuple:
    amplitudes = tuple(amplitudes)
    if len(amplitudes) != len(_HALVES):
        raise ValueError(f"{name} must have {len(_HALVES)} entries, got {len(amplitudes)}")
    return amplitudes


def _fan(units, field: str, name: str, values) -> tuple:
    """One checked spec per half: the unit spec for any value equal to 1, as CnotSpec stores complex(value)."""
    return tuple(unit if v == 1 else replace(unit, **{field: v}) for unit, v in zip(units, _one_per_half(name, values)))


def joining_cnot_pass(state: FockState, etas=(1.0, 1.0)) -> FockState:
    """The fan-in: one CNOT from the carrier onto each half, vacuum amplitude eta, in one apply_cnot pass."""
    return apply_cnot(state, *_fan(_FAN_IN, "eta", "etas", etas))


def deterministic_joining_pass(state: FockState, etas=(1.0, 1.0), eta_primes=(1.0, 1.0)) -> FockState:
    """Unfold the qubits on modes 0-3 (later modes shift by two), then fan in and fan out in one apply_cnot pass.

    The carrier photon ends parked in |10> on modes (4, 5), disentangled
    from the joined photon on modes 0-3.
    """
    specs = _fan(_FAN_IN, "eta", "etas", etas) + _fan(_FAN_OUT, "eta_prime", "eta_primes", eta_primes)
    return apply_cnot(add_vacuum_modes(state, UNFOLD_GAPS), *specs)


def _report(output: FockState, probability: float, branch: str, feed_forward_applied: bool, expected) -> SchemeReport:
    """The one SchemeReport constructor; a vanished (zero) branch has fidelity 0.

    Each entry point checks its inputs once; a report's fidelity is the clamped
    overlap of states the package built (fock._clamped_overlap), with no normalization scan.
    """
    return SchemeReport(output, probability, branch, feed_forward_applied, _clamped_overlap(output, expected))


def _projective_report(plus, minus, correct, branch, feed_forward, seed, expected) -> SchemeReport:
    """Report one branch; ``plus``/``minus`` build theirs on demand as (state, weight), with the measured modes gone.

    The entry point checked branch, feed_forward and seed (_check_measurement) before its CNOTs ran. The two weights are bit-equal (a property test checks it): fed-forward minus doubles its own.
    """
    measured = plus() if branch != "minus" else None
    if branch == "sample":
        branch = "plus" if np.random.default_rng(seed).random() < measured[1] else "minus"
    applied_ff = branch == "minus" and bool(feed_forward)
    output, prob = measured if branch == "plus" else minus()
    if applied_ff:
        output, prob = correct(output), min(2 * prob, 1.0)
    return _report(output, prob, branch, applied_ff, expected)


def join_projective(
    s: FockState,
    branch: str = "plus",
    feed_forward: bool = True,
    seed: int | None = None,
    etas=(1.0, 1.0),
) -> SchemeReport:
    """Join two dual-rail qubits via two CNOTs and an erasing projection.

    After the fan-in, the carrier photon is projected onto
    (|10> + |01>)/sqrt2 ("plus") or the minus combination; the minus
    branch is folded back onto the target by phase flips on both halves
    when feed_forward is on.
    """
    alphas = input_coefficients(s)
    seed = _check_measurement(branch, feed_forward, seed)
    state = joining_cnot_pass(add_vacuum_modes(s, UNFOLD_GAPS), etas=etas)
    return _projective_report(
        lambda: _renormalized(partial_inner(_JOIN_ERASERS[0], state, _CARRIER.modes)),
        lambda: _renormalized(partial_inner(_JOIN_ERASERS[1], state, _CARRIER.modes)),
        lambda out: logical_phase_flip(logical_phase_flip(out, _HALVES[0]), _HALVES[1]),
        branch,
        feed_forward,
        seed,
        joined_ququart(alphas),
    )


def join_deterministic(s: FockState, etas=(1.0, 1.0), eta_primes=(1.0, 1.0)) -> SchemeReport:
    """Joining without projection: the fan-in then the fan-out.

    The output keeps all six modes; the carrier photon factors out in
    |10> on modes (4, 5), which the report's expected state includes.
    A vacuum-port amplitude off the unit circle by over 1e-12 (np.exp(1j * theta) is not) raises ValueError up front.
    """
    alphas = input_coefficients(s)
    for name, values in (("etas", etas), ("eta_primes", eta_primes)):
        for value in _one_per_half(name, values):  # CnotSpec names a value that is no amplitude
            if value != 1 and _vacuum_port_problem(value, 1) is None and not abs(abs(complex(value)) - 1) <= 1e-12:
                raise ValueError(f"{name} must lie on the unit circle for deterministic joining, got {value!r}")
    state = deterministic_joining_pass(s, etas, eta_primes)
    return _report(state, 1.0, "deterministic", False, tensor(joined_ququart(alphas), _PARKED))


def drop_control_photon(state: FockState) -> FockState:
    """Remove the carrier photon that deterministic joining parks in |10> on modes (4, 5); a state without them raises ValueError."""
    reduced, prob = _renormalized(partial_inner(_PARKED, state, _CARRIER.modes))
    if not abs(prob - 1.0) <= 1e-9:
        raise EncodingViolationError(f"control photon is not parked in mode {_CARRIER.mode0} (weight {prob:.6g})")
    return reduced


# --- splitting ----------------------------------------------------------------


def split_projective(
    q: FockState,
    branch: str = "plus",
    feed_forward: bool = True,
    seed: int | None = None,
) -> SchemeReport:
    """Split a ququart photon via a fresh carrier, the fan-out, rail mixers and a vacuum check.

    Success ("plus") means no photon exits the two minus rails; the
    complementary branch is recovered by a phase flip on the carrier
    when feed_forward is on. Surviving rails of the halves merge into one pair.
    """
    alphas = ququart_coefficients(q)
    seed = _check_measurement(branch, feed_forward, seed)
    state = apply_cnot(tensor(q, _PARKED), *_FAN_OUT)
    for mixer in _SPLIT_RAIL_MIXERS:
        state = apply_unitary(state, mixer)
    return _projective_report(
        lambda: _vacuum_branch(state, _RAILS1),
        lambda: _vacuum_branch(state, _RAILS0),
        lambda out: logical_phase_flip(out, _HALVES[1]),  # the carrier, now on modes (2, 3)
        branch,
        feed_forward,
        seed,
        two_qubit_input(alphas),
    )


def _vacuum_branch(state: FockState, rails) -> tuple[FockState, float]:
    """The branch with no photon on rails, those rails dropped, and its weight."""
    kept, weight = postselect_vacuum(state, rails)
    return discard_empty_modes(kept, rails), weight


def split_deterministic(q: FockState) -> SchemeReport:
    """Splitting without the vacuum check: the fan-out then the fan-in.

    The second and fourth modes end exactly empty and are discarded; a
    photon there signals an implementation bug and raises
    NonEmptyModeError.
    """
    alphas = ququart_coefficients(q)
    state = apply_cnot(tensor(q, _PARKED), *_FAN_OUT, *_FAN_IN)
    return _report(discard_empty_modes(state, _RAILS1), 1.0, "deterministic", False, two_qubit_input(alphas))
