"""Logical gates on dual-rail qubits embedded in a mode register.

A dual-rail qubit is one photon across a pair of modes: |10> is logical 0,
|01> is logical 1, |00> is an empty (vacuum) qubit. The CNOT acts term by
term on occupation patterns and carries explicit vacuum-port amplitudes:
eta multiplies terms whose target pair is empty, eta_prime multiplies
terms whose control pair is empty, and doubly-empty terms pass through
with factor 1. Patterns with two photons on a pair are rejected loudly --
they signal a scheme-construction bug, not a physical branch.

The module also assembles the 6-mode post-selected physical CNOT network
(three 1/3 couplers between balanced mixers on the target rails) as a
demonstration fixture, plus a report showing how vacuum inputs break its
post-selected behavior. Protocol pipelines use the logical gate only.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock import FockState, Occupation, _pruned, basis_state
from .optics import ModeUnitary, apply_unitary, beamsplitter, compose, hadamard_pair

# Post-selected success amplitude of the physical network on logical inputs.
NETWORK_SUCCESS_AMPLITUDE = 1.0 / 3.0

_LEGAL_PATTERNS = {(1, 0), (0, 1), (0, 0)}


class IllegalPatternError(ValueError):
    """A term violates the one-photon-or-vacuum rule on a rail pair."""


@dataclass(frozen=True)
class DualRailQubit:
    """Mode pair holding at most one photon; mode0 is the logical-0 rail."""

    mode0: int
    mode1: int

    def __post_init__(self):
        if self.mode0 == self.mode1:
            raise ValueError("rail modes must differ")
        if self.mode0 < 0 or self.mode1 < 0:
            raise ValueError("rail modes must be non-negative")

    @property
    def modes(self) -> tuple[int, int]:
        return (self.mode0, self.mode1)


@dataclass(frozen=True)
class CnotSpec:
    """CNOT descriptor with vacuum-port amplitudes.

    eta rescales terms whose target pair is empty, eta_prime terms whose
    control pair is empty. Unitary gates have |eta| = |eta_prime| = 1;
    the common physical implementations have both equal to 1.
    """

    control: DualRailQubit
    target: DualRailQubit
    eta: complex = 1.0
    eta_prime: complex = 1.0

    def __post_init__(self):
        all_modes = self.control.modes + self.target.modes
        if len(set(all_modes)) != 4:
            raise ValueError("control and target pairs must use four distinct modes")
        problem = _vacuum_port_problem(self.eta, self.eta_prime)
        if problem is not None:
            raise ValueError(problem)


def _vacuum_port_problem(eta: complex, eta_prime: complex) -> str | None:
    """Why (eta, eta_prime) are not vacuum-port amplitudes, or None if they are."""
    if not (cmath.isfinite(eta) and cmath.isfinite(eta_prime)):
        return "vacuum-port amplitudes must be finite"
    if abs(eta) > 1 + 1e-12 or abs(eta_prime) > 1 + 1e-12:
        return "vacuum-port amplitudes cannot exceed unit magnitude"
    return None


def _pair_pattern(occ: Occupation, q: DualRailQubit) -> tuple[int, int]:
    pattern = (occ[q.mode0], occ[q.mode1])
    if pattern not in _LEGAL_PATTERNS:
        raise IllegalPatternError(f"pattern {pattern} on modes {q.modes} in term {occ}")
    return pattern


def apply_cnot(s: FockState, g: CnotSpec) -> FockState:
    """Term-wise logical CNOT with vacuum-port semantics."""
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        pc = _pair_pattern(occ, g.control)
        pt = _pair_pattern(occ, g.target)
        if pc == (0, 0) and pt == (0, 0):
            new_occ, new_amp = occ, amp
        elif pt == (0, 0):
            new_occ, new_amp = occ, amp * g.eta
        elif pc == (0, 0):
            new_occ, new_amp = occ, amp * g.eta_prime
        elif pc == (0, 1):
            swapped = list(occ)
            swapped[g.target.mode0], swapped[g.target.mode1] = (
                occ[g.target.mode1],
                occ[g.target.mode0],
            )
            new_occ, new_amp = tuple(swapped), amp
        else:
            new_occ, new_amp = occ, amp
        out[new_occ] = out.get(new_occ, 0j) + new_amp
    return _pruned(s.modes, out)


def apply_reversed_cnot(s: FockState, g: CnotSpec) -> FockState:
    """CNOT with the control and target ports exchanged."""
    flipped = CnotSpec(control=g.target, target=g.control, eta=g.eta, eta_prime=g.eta_prime)
    return apply_cnot(s, flipped)


def logical_phase_flip(s: FockState, q: DualRailQubit) -> FockState:
    """Multiply by -1 every term with a photon on the logical-1 rail."""
    out = {
        occ: (-amp if occ[q.mode1] > 0 else amp)
        for occ, amp in s.terms.items()
    }
    return _pruned(s.modes, out)


# --- physical post-selected network -----------------------------------------
# The network's ports: an ancilla on each side of the control and target pairs.
_NETWORK_MODES = 6
_NETWORK_CONTROL = DualRailQubit(1, 2)
_NETWORK_TARGET = DualRailQubit(3, 4)
_NETWORK_ANCILLAS = (0, 5)


def _port_photons(occ: Occupation) -> tuple[int, int, int]:
    """Photons on the control pair, the target pair and the ancillas."""
    ports = (_NETWORK_CONTROL.modes, _NETWORK_TARGET.modes, _NETWORK_ANCILLAS)
    return tuple(sum(occ[m] for m in modes) for modes in ports)


def build_postselected_cnot_network() -> ModeUnitary:
    """Assemble the 6-mode post-selected CNOT.

    The target rails are mixed, three couplers with 1/3 transmission run
    in parallel (ancilla/control-0, control-1/target-1, target-0/ancilla),
    and the target rails are unmixed. Post-selecting one photon per rail
    pair yields the CNOT truth table with amplitude 1/3.
    """
    theta = math.acos(1.0 / math.sqrt(3.0))
    first, last = _NETWORK_ANCILLAS
    mixer = hadamard_pair(_NETWORK_MODES, *_NETWORK_TARGET.modes)
    core = compose(
        beamsplitter(_NETWORK_MODES, first, _NETWORK_CONTROL.mode0, theta),
        beamsplitter(_NETWORK_MODES, _NETWORK_CONTROL.mode1, _NETWORK_TARGET.mode1, theta),
        beamsplitter(_NETWORK_MODES, _NETWORK_TARGET.mode0, last, theta),
    )
    return compose(mixer, core, mixer)


def network_input(control_pattern, target_pattern) -> FockState:
    occ = [0] * _NETWORK_MODES
    occ[_NETWORK_CONTROL.mode0], occ[_NETWORK_CONTROL.mode1] = control_pattern
    occ[_NETWORK_TARGET.mode0], occ[_NETWORK_TARGET.mode1] = target_pattern
    return basis_state(_NETWORK_MODES, occ)


def postselect_rail_pairs(s: FockState) -> FockState:
    """Unnormalized branch with exactly one photon on each rail pair."""
    kept = {occ: amp for occ, amp in s.terms.items() if _port_photons(occ) == (1, 1, 0)}
    return _pruned(_NETWORK_MODES, kept)


@dataclass(frozen=True)
class VacuumCaseResult:
    """Post-network branch analysis for one input pattern."""

    label: str
    target_pattern: tuple[int, int]
    intact_amplitude: complex
    control_intact_probability: float
    target_leak_probability: float
    ancilla_leak_probability: float
    consistent_with_scaled_identity: bool


@dataclass(frozen=True)
class VacuumFailureReport:
    logical_success_amplitude: float
    cases: list[VacuumCaseResult]

    @property
    def demonstrates_failure(self) -> bool:
        vacuum_cases = [c for c in self.cases if c.target_pattern == (0, 0)]
        return bool(vacuum_cases) and not any(
            c.consistent_with_scaled_identity for c in vacuum_cases
        )


def _classify_case(u: ModeUnitary, label, control_pattern, target_pattern) -> VacuumCaseResult:
    state = network_input(control_pattern, target_pattern)
    evolved = apply_unitary(state, u)
    weights = {occ: abs(a) ** 2 for occ, a in evolved.terms.items()}
    intact_occ = next(iter(state.terms))
    intact_amplitude = evolved.terms.get(intact_occ, 0j)
    intact_ports = _port_photons(intact_occ)

    control_intact = target_leak = ancilla_leak = 0.0
    for occ, w in weights.items():
        in_control, in_target, in_ancilla = _port_photons(occ)
        if (in_control, in_target, in_ancilla) == intact_ports:
            control_intact += w
        if intact_ports[1] == 0 and in_target > 0:
            target_leak += w
        if in_ancilla > 0:
            ancilla_leak += w

    # Scaled-identity behavior means: the input pattern survives with the
    # same amplitude the gate applies to logical inputs, and no photon
    # escapes into the empty target rails.
    consistent = bool(abs(intact_amplitude - NETWORK_SUCCESS_AMPLITUDE) <= 1e-9 and target_leak <= 1e-12)
    return VacuumCaseResult(
        label=label,
        target_pattern=tuple(target_pattern),
        intact_amplitude=complex(intact_amplitude),
        control_intact_probability=control_intact,
        target_leak_probability=target_leak,
        ancilla_leak_probability=ancilla_leak,
        consistent_with_scaled_identity=consistent,
    )


def vacuum_failure_demo(u: ModeUnitary | None = None) -> VacuumFailureReport:
    """Show that the physical network does not act as eta x identity on vacuum targets.

    Runs the network with an occupied control and an empty target pair and
    sums the branch weights by where the photons end up. The control photon
    leaks into the target rails and the intact-branch amplitude differs
    from the logical success amplitude, so no scalar rescaling can
    describe the action.
    A logical input is included as a sanity leg.
    """
    if u is None:
        u = build_postselected_cnot_network()
    cases = [
        _classify_case(u, "control |10>, target vacuum", (1, 0), (0, 0)),
        _classify_case(u, "control |01>, target vacuum", (0, 1), (0, 0)),
        _classify_case(u, "control |10>, target |10> (sanity)", (1, 0), (1, 0)),
    ]
    return VacuumFailureReport(logical_success_amplitude=NETWORK_SUCCESS_AMPLITUDE, cases=cases)
