"""Three-photon doubly-entangled states and teleportation-based joining.

Each photon occupies four modes combining a polarization pair (H, V) and
a path pair (u, d); within a photon the mode order is Hu, Vu, Hd, Vd
(see _mode). The resource state entangles an intermediate
photon 1 with photon 2 in polarization and with photon 3 in path, one
Bell flavor per link, for 16 orthogonal variants.

Consuming such a resource, two fresh qubits (polarization of photon 4,
path of photon 5) teleport onto photon 1: Bell measurements on the pairs
(2,4) and (3,5) leave photon 1 one local correction away from the joined
state (alpha H + beta V)(gamma u + delta d), whatever the 16 outcomes.
The correction is one Pauli per degree of freedom: outcome o under resource
r takes _PAULI_ORDER[index(r) XOR index(o)], kinds indexed in *_BELL_KINDS.
test_tpes.py::test_correction_rule_matches_the_search checks every entry.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .fock import (
    NORM_ATOL, FockState, _as_number, _checked_seed, _indices, _on_basis, _renormalized, _squared_norm, make_state, partial_inner, tensor
)
from .optics import ModeUnitary, apply_unitary
from .schemes import (
    _ROOT_HALF, _TWO_QUBIT_BASIS, SchemeReport, _report, deterministic_joining_pass, drop_control_photon, joined_ququart
)

H, V = 0, 1
UP, DOWN = 0, 1

POL_BELL_KINDS = ("Phi+", "Phi-", "Psi+", "Psi-")
PATH_BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")
ALL_BELL_OUTCOMES = tuple(product(POL_BELL_KINDS, PATH_BELL_KINDS))
_BELL_KINDS = POL_BELL_KINDS + PATH_BELL_KINDS
# Generator.choice(16, p=uniform) returns bisect_right(cdf, rng.random()) for the cumsum of p
# over its last entry (here exactly 1.0); drawing the same way keeps each seed's outcome.
_OUTCOME_CDF = np.full(16, 1 / 16).cumsum().tolist()

# Two-level corrections per degree of freedom; XZ means apply Z then X.
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "XZ": np.array([[0, -1], [1, 0]], dtype=complex),
}
_PAULI_ORDER = ("I", "Z", "X", "XZ")


def _mode(slot: int, pol: int = H, path: int = UP) -> int:
    """The one mode rule: photon slot k, polarization pol and path w sit on mode 4k + pol + 2w.

    The defaults put a polarization qubit on path u and a path qubit on H.
    """
    return 4 * slot + pol + 2 * path


def _occupied(n_photons: int, *modes: int) -> tuple[int, ...]:
    """Occupation of n photon slots (the modes below _mode(n)), one photon on each listed mode."""
    occ = [0] * _mode(n_photons)
    for mode in modes:
        occ[mode] = 1
    return tuple(occ)


def _photon_modes(*slots: int) -> tuple[int, ...]:
    """Every mode of the given photon slots, in ascending order."""
    return tuple(_mode(k, pol, path) for k in slots for path in (UP, DOWN) for pol in (H, V))


def _kind_index(kind: str, kinds) -> int:
    """The position of kind in kinds; an unknown kind raises ValueError naming it."""
    if kind not in kinds:
        raise ValueError(f"unknown Bell kind {kind!r}; expected one of {', '.join(kinds)}")
    return kinds.index(kind)


def _resource_kinds(resource) -> tuple[str, str]:
    """resource as a (pol, path) pair of known Bell kinds; anything else raises ValueError naming resource."""
    try:
        pol_kind, path_kind = resource
    except (TypeError, ValueError):
        raise ValueError(f"resource must be a (pol, path) pair of Bell kinds, got {resource!r}") from None
    _kind_index(pol_kind, POL_BELL_KINDS)
    _kind_index(path_kind, PATH_BELL_KINDS)
    return pol_kind, path_kind


def _bell_terms(kind: str):
    """(first, second, coefficient) pairs of a Bell state of a checked kind; H = u = 0 and V = d = 1."""
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind[:3].lower() == "psi":
        return ((0, 0, _ROOT_HALF), (1, 1, sign * _ROOT_HALF))
    return ((0, 1, _ROOT_HALF), (1, 0, sign * _ROOT_HALF))


def bell_pair(kind: str) -> FockState:
    """Two-photon Bell state on an 8-mode register (first photon, second photon).

    Polarization flavors ride on paths u, u; path flavors on polarizations
    H, H, matching the maximally entangled basis used for measurements.
    Built once per kind and shared: its terms are read-only. The kind is
    checked before the cached _bell_pair is looked up, so an unknown one, a
    list included, raises ValueError naming it.
    """
    _kind_index(kind, _BELL_KINDS)
    return _bell_pair(kind)


@cache
def _bell_pair(kind: str) -> FockState:
    field = "pol" if kind in POL_BELL_KINDS else "path"
    terms = [
        (_occupied(2, _mode(0, **{field: a}), _mode(1, **{field: b})), coeff)
        for a, b, coeff in _bell_terms(kind)
    ]
    return make_state(_mode(2), terms)


def build_tpes(pol_kind: str, path_kind: str) -> FockState:
    """Resource state on photons 1..3: photon 1 doubly entangled.

    The polarization link pairs photons (1, 2) with photon 3 fixed to H;
    the path link pairs photons (1, 3) with photon 2 fixed to u.
    Built once per pair of kinds and shared, like bell_pair, and checked the
    same way before the cached _build_tpes is looked up.
    """
    return _build_tpes(*_resource_kinds((pol_kind, path_kind)))


@cache
def _build_tpes(pol_kind: str, path_kind: str) -> FockState:
    terms = [
        (_occupied(3, _mode(0, p1, w1), _mode(1, pol=p2), _mode(2, path=w3)), cp * cw)
        for p1, p2, cp in _bell_terms(pol_kind)
        for w1, w3, cw in _bell_terms(path_kind)
    ]
    return make_state(_mode(3), terms)


@cache
def _joining_input(pol_kind: str, path_kind: str) -> FockState:
    """The state tpes_via_joining joins, built and checked once per pair of kinds and shared, like build_tpes."""
    # The qubits to join (photon-5 path, then photon-4 polarization) take the
    # first four modes in the joining input layout, and photons 2 and 3 follow.
    terms = [
        (_TWO_QUBIT_BASIS[2 * w5 + p4] + _occupied(2, _mode(0, pol=p2), _mode(1, path=w3)), cp * cw)
        for p2, p4, cp in _bell_terms(pol_kind)
        for w3, w5, cw in _bell_terms(path_kind)
    ]
    return make_state(_mode(3), terms)


def tpes_via_joining(pol_kind: str, path_kind: str) -> FockState:
    """Build the same resource by joining two halves of entangled pairs.

    Photons (2, 4) share the polarization Bell flavor, photons (3, 5) the
    path flavor; the deterministic joining pass fuses the photon-5 path
    qubit and the photon-4 polarization qubit into a fresh photon 1.
    Each entry point checks its inputs once: the kinds here (an unknown one, a
    list included, raises ValueError naming it), before the cached _joining_input
    gives their state; the joining pass runs on every call. As with a report,
    the tpes verb's fidelity is the clamped overlap of states the package built.
    """
    # The joined photon lands on the first four modes: the result is [photon 1, photon 2, photon 3].
    return drop_control_photon(deterministic_joining_pass(_joining_input(*_resource_kinds((pol_kind, path_kind)))))


# One photon on each rail of the photon-4 polarization qubit, then of the photon-5 path qubit.
_INPUT_RAILS = tuple(tuple(_occupied(1, _mode(0, **{field: r})) for r in (0, 1)) for field in ("pol", "path"))


def joined_reference(alpha, beta, gamma, delta) -> FockState:
    """(alpha H + beta V)(gamma u + delta d) on one photon's four modes."""
    return joined_ququart([alpha * gamma, beta * gamma, alpha * delta, beta * delta])


# Bell-measured modes: photons 2 and 4 of the five-photon register, then
# photons 3 and 5 of the survivors [photon 1, photon 3, photon 5].
_PAIR_24 = _photon_modes(1, 3)
_PAIR_35 = _photon_modes(1, 2)


def _input_pairs(alpha_beta, gamma_delta) -> list:
    """The input qubits' amplitudes as complex numbers; a non-number fails before the normalization checks, NaN in them."""
    pairs = [(_as_number(rails[0], x), _as_number(rails[1], y)) for rails, (x, y) in zip(_INPUT_RAILS, (alpha_beta, gamma_delta))]
    for name, pair in zip(("alpha/beta", "gamma/delta"), pairs):
        if not abs(_squared_norm(pair) - 1.0) <= NORM_ATOL:
            raise ValueError(f"{name} amplitudes must be normalized")
    return pairs


def _five_photon_state(pairs, resource) -> FockState:
    """Resource photons 1-3 (checked kinds, from _resource_kinds) followed by the input qubits of _input_pairs on photons 4 and 5."""
    psi4, psi5 = (_on_basis(_mode(1), rails, pair) for rails, pair in zip(_INPUT_RAILS, pairs))
    return tensor(_build_tpes(*resource), tensor(psi4, psi5))


def _bell_branch(full: FockState, outcome) -> tuple[FockState, float]:
    """(normalized photon-1 state, exact weight) of one Bell outcome pair of ALL_BELL_OUTCOMES."""
    pol_kind, path_kind = outcome
    reduced = partial_inner(_bell_pair(pol_kind), full, _PAIR_24)
    conditional = partial_inner(_bell_pair(path_kind), reduced, _PAIR_35)
    return _renormalized(conditional)


def expand_five_photon(alpha, beta, gamma, delta, resource=("Phi-", "phi-")):
    """Bell-basis expansion of resource x input qubits over pairs (2,4), (3,5).

    Returns one (outcome, conditional photon-1 state, weight) triple per
    Bell outcome pair, in the canonical 16-outcome order. Conditional
    states are normalized but keep their expansion sign; weights are the
    exact branch probabilities and each equals 1/16.
    """
    full = _five_photon_state(_input_pairs((alpha, beta), (gamma, delta)), _resource_kinds(resource))
    return [(outcome, *_bell_branch(full, outcome)) for outcome in ALL_BELL_OUTCOMES]


@dataclass(frozen=True)
class CorrectionEntry:
    pol_op: str
    path_op: str
    unitary: np.ndarray


def _correction_matrix(pol_op: str, path_op: str) -> np.ndarray:
    # In the mode rule polarization is the fast index.
    return np.kron(_PAULI[path_op], _PAULI[pol_op])


@cache
def _correction_unitary(pol_op: str, path_op: str) -> ModeUnitary:
    # apply_unitary substitutes creation operators, which transposes the
    # action on amplitude vectors; transpose first so amplitudes see the
    # correction matrix.
    return ModeUnitary(4, _correction_matrix(pol_op, path_op).T)


def _correction(resource, outcome) -> tuple[str, str]:
    """The (pol, path) Pauli pair of outcome under resource, by the XOR rule of the module docstring."""
    (r_pol, r_path), (o_pol, o_path) = resource, outcome
    return (
        _PAULI_ORDER[_kind_index(r_pol, POL_BELL_KINDS) ^ _kind_index(o_pol, POL_BELL_KINDS)],
        _PAULI_ORDER[_kind_index(r_path, PATH_BELL_KINDS) ^ _kind_index(o_path, PATH_BELL_KINDS)],
    )


def derive_correction_table(resource=("Phi-", "phi-")) -> dict:
    """The correction of each outcome under resource, by the XOR rule, in a fresh dict per call.

    A resource that is not a pair of known kinds raises ValueError naming it.
    """
    resource = _resource_kinds(resource)
    table = {}
    for outcome in ALL_BELL_OUTCOMES:
        pol_op, path_op = _correction(resource, outcome)
        table[outcome] = CorrectionEntry(pol_op, path_op, _correction_matrix(pol_op, path_op))
    return table


def resolve_outcome(outcome) -> tuple[str, str]:
    """A (pol, path) pair or an index 0..15 (any integer type but bool); any other sequence is an unknown Bell outcome."""
    try:
        pair = tuple(outcome)
    except TypeError:  # not a sequence, so an index
        (index,) = _indices([outcome], "outcome index")
        if not index < 16:
            raise ValueError(f"outcome index {index} out of range 0..15") from None
        return ALL_BELL_OUTCOMES[index]
    if pair not in ALL_BELL_OUTCOMES:
        raise ValueError(f"unknown Bell outcome {outcome!r}")
    return pair


def teleport_join(
    alpha_beta,
    gamma_delta,
    outcome="sample",
    seed: int | None = None,
    resource=("Phi-", "phi-"),
) -> SchemeReport:
    """Join two qubits onto one photon by double Bell measurement.

    ``outcome`` forces a Bell result (pair of kinds, or index 0..15, checked
    before the amplitudes) or, when it is the str "sample", draws one
    uniformly: every branch weight is 1/16. ``seed`` (None or a non-negative
    integer) is checked with the outcome, whether or not it is used.
    Only that branch is contracted; its weight is the report's
    success_probability, and the rule's Pauli correction maps it to the joined state.
    """
    picked_outcome = None if isinstance(outcome, str) and outcome == "sample" else resolve_outcome(outcome)
    seed = _checked_seed(seed)
    pairs = _input_pairs(alpha_beta, gamma_delta)
    resource = _resource_kinds(resource)
    full = _five_photon_state(pairs, resource)
    if picked_outcome is None:
        picked_outcome = ALL_BELL_OUTCOMES[bisect_right(_OUTCOME_CDF, np.random.default_rng(seed).random())]
    conditional, weight = _bell_branch(full, picked_outcome)

    corrected = apply_unitary(conditional, _correction_unitary(*_correction(resource, picked_outcome)))
    branch = f"{picked_outcome[0]}/{picked_outcome[1]}"
    return _report(corrected, weight, branch, True, joined_reference(*pairs[0], *pairs[1]))
