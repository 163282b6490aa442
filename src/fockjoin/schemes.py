"""End-to-end joining and splitting protocols for dual-rail photon pairs.

Joining transfers the two-qubit state of two photons onto one photon
spread over four modes; splitting is the inverse. Both exist in a
projective variant (two CNOTs plus an erasing projection, succeeding on
half the branches, with a feed-forward correction recovering the other
half) and a deterministic variant (four CNOTs, no projection).

Mode layout conventions (fixed so test vectors are bit-exact):

* two-qubit input: 4 modes, first qubit on (0, 1), second on (2, 3);
  basis amplitudes are indexed a0..a3 with a_k for logical k = 2*q0 + q1.
* unfolded register: 6 modes, t1 = (0, 1), t2 = (2, 3), c = (4, 5);
  unfolding maps the first qubit's |10> -> |1000| and |01> -> |0010>
  (an empty mode is inserted after each original rail, at UNFOLD_GAPS).
* splitting register: 6 modes, c1 = (0, 1), c2 = (2, 3), t = (4, 5);
  split outputs live on 4 modes with the c qubit on (0, 1), t on (2, 3).

Branch selection is explicit: callers force "plus"/"minus" or ask for a
seeded sample. Probabilities are always computed exactly; sampling only
picks which exactly-weighted branch a report describes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import (
    FockState,
    add_vacuum_modes,
    basis_state,
    discard_empty_modes,
    fidelity,
    is_normalized,
    make_state,
    postselect_vacuum,
    tensor,
)
from .gates import CnotSpec, DualRailQubit, apply_cnot, apply_reversed_cnot, logical_phase_flip
from .optics import ProjectorSpec, apply_projector, apply_unitary, hadamard_pair

UNFOLD_GAPS = (1, 3)
UNFOLDED_T1 = DualRailQubit(0, 1)
UNFOLDED_T2 = DualRailQubit(2, 3)
UNFOLDED_C = DualRailQubit(4, 5)

SPLIT_C1 = DualRailQubit(0, 1)
SPLIT_C2 = DualRailQubit(2, 3)
SPLIT_T = DualRailQubit(4, 5)
# Balanced mixers on the two control rail pairs after the splitting CNOTs.
_SPLIT_RAIL_MIXERS = (hadamard_pair(6, 0, 1), hadamard_pair(6, 2, 3))

_TWO_QUBIT_BASIS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
_QUQUART_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class EncodingViolationError(ValueError):
    """Input state does not respect the required photonic encoding."""


@dataclass(frozen=True)
class SchemeReport:
    """Outcome of one protocol run.

    ``success_probability`` is the exact probability that the reported
    path produces ``output``: 1/2 for a forced projective branch, 1 when
    feed-forward folds both branches onto the target, 1 for the
    deterministic variants (CNOT implementation costs are tracked
    separately by the probability model).
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
        for name, p in (("p_cnot", self.p_cnot), ("p_projection", self.p_projection)):
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.n_cnot < 0:
            raise ValueError("n_cnot must be non-negative")


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
    """Four amplitudes on the four basis occupations of an encoding (normalized by caller)."""
    alphas = [complex(a) for a in alphas]
    if len(alphas) != 4:
        raise EncodingViolationError("expected four amplitudes")
    return make_state(4, [(occ, a) for occ, a in zip(basis, alphas) if a != 0])


def _decode(s: FockState, basis, what: str, pattern: str) -> np.ndarray:
    """Read a0..a3 back from a normalized four-mode state written in ``basis``."""
    if s.modes != 4:
        raise EncodingViolationError(f"expected 4 modes, got {s.modes}")
    if not is_normalized(s, atol=1e-8):
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
    """Spread the first qubit over four modes, c pair moving to (4, 5)."""
    input_coefficients(s)
    return add_vacuum_modes(s, UNFOLD_GAPS)


def joining_cnot_pass(state: FockState, etas=(1.0, 1.0)) -> FockState:
    """The two CNOTs of the joining pipeline on the unfolded register."""
    state = apply_cnot(state, CnotSpec(UNFOLDED_C, UNFOLDED_T1, eta=etas[0]))
    return apply_cnot(state, CnotSpec(UNFOLDED_C, UNFOLDED_T2, eta=etas[1]))


def deterministic_joining_pass(state: FockState, etas=(1.0, 1.0), eta_primes=(1.0, 1.0)) -> FockState:
    """The four CNOTs of deterministic joining on the unfolded register.

    Afterwards the control photon is parked in |10> on modes (4, 5),
    disentangled from the joined photon on modes 0-3.
    """
    state = joining_cnot_pass(state, etas=etas)
    state = apply_reversed_cnot(state, CnotSpec(UNFOLDED_C, UNFOLDED_T1, eta_prime=eta_primes[0]))
    return apply_reversed_cnot(state, CnotSpec(UNFOLDED_C, UNFOLDED_T2, eta_prime=eta_primes[1]))


def _projective_report(plus, minus, correct, branch, feed_forward, seed, expected) -> SchemeReport:
    """Report one branch; ``plus``/``minus`` are (state, weight) with the measured modes discarded."""
    if branch == "sample":
        branch = "plus" if np.random.default_rng(seed).random() < plus[1] else "minus"
    elif branch not in ("plus", "minus"):
        raise ValueError(f"unknown branch {branch!r}; use plus, minus or sample")
    applied_ff = branch == "minus" and feed_forward
    output, prob = plus if branch == "plus" else minus
    if applied_ff:
        output, prob = correct(output), plus[1] + minus[1]
    return SchemeReport(
        output=output,
        success_probability=prob,
        branch=branch,
        feed_forward_applied=applied_ff,
        fidelity_to_expected=fidelity(output, expected) if not output.is_zero else 0.0,
    )


def join_projective(
    s: FockState,
    branch: str = "plus",
    feed_forward: bool = True,
    seed: int | None = None,
    etas=(1.0, 1.0),
) -> SchemeReport:
    """Join two dual-rail qubits via two CNOTs and an erasing projection.

    The control photon is projected onto (|10> + |01>)/sqrt2 ("plus") or
    the minus combination; the minus branch is folded back onto the
    target by phase flips on both unfolded rails when feed_forward is on.
    """
    alphas = input_coefficients(s)
    state = joining_cnot_pass(add_vacuum_modes(s, UNFOLD_GAPS), etas=etas)

    root_half = 1.0 / np.sqrt(2.0)
    plus, p_plus = apply_projector(state, ProjectorSpec([0, 0, 0, 0, root_half, root_half]))
    minus, p_minus = apply_projector(state, ProjectorSpec([0, 0, 0, 0, root_half, -root_half]))
    return _projective_report(
        (discard_empty_modes(plus, (4, 5)), p_plus),
        (discard_empty_modes(minus, (4, 5)), p_minus),
        lambda out: logical_phase_flip(logical_phase_flip(out, UNFOLDED_T1), UNFOLDED_T2),
        branch,
        feed_forward,
        seed,
        joined_ququart(alphas),
    )


def join_deterministic(s: FockState, etas=(1.0, 1.0), eta_primes=(1.0, 1.0)) -> SchemeReport:
    """Joining without projection: two CNOTs then two reversed CNOTs.

    The output keeps all six modes; the control photon factors out in
    |10> on modes (4, 5), which the report's expected state includes.
    """
    alphas = input_coefficients(s)
    state = deterministic_joining_pass(add_vacuum_modes(s, UNFOLD_GAPS), etas, eta_primes)
    expected = tensor(joined_ququart(alphas), basis_state(2, (1, 0)))
    return SchemeReport(
        output=state,
        success_probability=1.0,
        branch="deterministic",
        feed_forward_applied=False,
        fidelity_to_expected=fidelity(state, expected),
    )


def drop_control_photon(state: FockState) -> FockState:
    """Remove the control photon that deterministic joining parks in |10> on modes (4, 5)."""
    projector = np.zeros(state.modes)
    projector[4] = 1.0
    reduced, prob = apply_projector(state, ProjectorSpec(projector))
    if not abs(prob - 1.0) <= 1e-9:
        raise EncodingViolationError(f"control photon is not parked in mode 4 (weight {prob:.6g})")
    return discard_empty_modes(reduced, (4, 5))


# --- splitting ----------------------------------------------------------------


def splitting_cnot_pass(q: FockState) -> FockState:
    """Append the fresh target photon and run the two splitting CNOTs."""
    state = tensor(q, basis_state(2, (1, 0)))
    state = apply_cnot(state, CnotSpec(SPLIT_C1, SPLIT_T))
    return apply_cnot(state, CnotSpec(SPLIT_C2, SPLIT_T))


def split_projective(
    q: FockState,
    branch: str = "plus",
    feed_forward: bool = True,
    seed: int | None = None,
) -> SchemeReport:
    """Split a ququart photon via two CNOTs, rail mixers and a vacuum check.

    Success ("plus") means no photon exits the two minus rails; the
    complementary branch is recovered by a phase flip on the target qubit
    when feed_forward is on. Surviving control rails merge into one pair.
    """
    alphas = ququart_coefficients(q)
    state = splitting_cnot_pass(q)
    for mixer in _SPLIT_RAIL_MIXERS:
        state = apply_unitary(state, mixer)
    plus, p_plus = postselect_vacuum(state, (1, 3))
    minus, p_minus = postselect_vacuum(state, (0, 2))
    return _projective_report(
        (discard_empty_modes(plus, (1, 3)), p_plus),
        (discard_empty_modes(minus, (0, 2)), p_minus),
        lambda out: logical_phase_flip(out, DualRailQubit(2, 3)),  # the target qubit
        branch,
        feed_forward,
        seed,
        two_qubit_input(alphas),
    )


def split_deterministic(q: FockState) -> SchemeReport:
    """Splitting without the vacuum check: two CNOTs then two reversed CNOTs.

    The second and fourth control modes end exactly empty and are
    discarded; a photon there signals an implementation bug and raises
    NonEmptyModeError.
    """
    alphas = ququart_coefficients(q)
    state = splitting_cnot_pass(q)
    state = apply_reversed_cnot(state, CnotSpec(SPLIT_C1, SPLIT_T))
    state = apply_reversed_cnot(state, CnotSpec(SPLIT_C2, SPLIT_T))
    output = discard_empty_modes(state, (1, 3))
    expected = two_qubit_input(alphas)
    return SchemeReport(
        output=output,
        success_probability=1.0,
        branch="deterministic",
        feed_forward_applied=False,
        fidelity_to_expected=fidelity(output, expected),
    )
