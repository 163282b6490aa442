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
The correction table is derived numerically, not transcribed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .fock import FockState, fidelity, make_state, norm, normalize, partial_inner, tensor
from .optics import ModeUnitary, apply_unitary
from .schemes import _TWO_QUBIT_BASIS, SchemeReport, deterministic_joining_pass, drop_control_photon, joined_ququart

H, V = 0, 1
UP, DOWN = 0, 1

POL_BELL_KINDS = ("Phi+", "Phi-", "Psi+", "Psi-")
PATH_BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")
ALL_BELL_OUTCOMES = tuple(product(POL_BELL_KINDS, PATH_BELL_KINDS))

_ROOT_HALF = 1.0 / np.sqrt(2.0)

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


def _bell_terms(kind: str, kinds=POL_BELL_KINDS + PATH_BELL_KINDS):
    """(first, second, coefficient) pairs of a Bell state; H = u = 0 and V = d = 1."""
    if kind not in kinds:
        raise ValueError(f"unknown Bell kind {kind!r}; expected one of {', '.join(kinds)}")
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind[:3].lower() == "psi":
        return ((0, 0, _ROOT_HALF), (1, 1, sign * _ROOT_HALF))
    return ((0, 1, _ROOT_HALF), (1, 0, sign * _ROOT_HALF))


def bell_pair(kind: str) -> FockState:
    """Two-photon Bell state on an 8-mode register (first photon, second photon).

    Polarization flavors ride on paths u, u; path flavors on polarizations
    H, H, matching the maximally entangled basis used for measurements.
    """
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
    """
    terms = [
        (_occupied(3, _mode(0, p1, w1), _mode(1, pol=p2), _mode(2, path=w3)), cp * cw)
        for p1, p2, cp in _bell_terms(pol_kind, POL_BELL_KINDS)
        for w1, w3, cw in _bell_terms(path_kind, PATH_BELL_KINDS)
    ]
    return make_state(_mode(3), terms)


def tpes_via_joining(pol_kind: str, path_kind: str) -> FockState:
    """Build the same resource by joining two halves of entangled pairs.

    Photons (2, 4) share the polarization Bell flavor, photons (3, 5) the
    path flavor; the deterministic joining pass fuses the photon-5 path
    qubit and the photon-4 polarization qubit into a fresh photon 1.
    """
    # The qubits to join (photon-5 path, then photon-4 polarization) take the
    # first four modes in the joining input layout, and photons 2 and 3 follow.
    # The joined photon lands there: the result is [photon 1, photon 2, photon 3].
    terms = [
        (_TWO_QUBIT_BASIS[2 * w5 + p4] + _occupied(2, _mode(0, pol=p2), _mode(1, path=w3)), cp * cw)
        for p2, p4, cp in _bell_terms(pol_kind, POL_BELL_KINDS)
        for w3, w5, cw in _bell_terms(path_kind, PATH_BELL_KINDS)
    ]
    return drop_control_photon(deterministic_joining_pass(make_state(_mode(3), terms)))


def _input_qubits_state(alpha: complex, beta: complex, gamma: complex, delta: complex) -> FockState:
    psi4 = make_state(_mode(1), [(_occupied(1, _mode(0, pol=p)), a) for p, a in ((H, alpha), (V, beta))])
    psi5 = make_state(_mode(1), [(_occupied(1, _mode(0, path=w)), a) for w, a in ((UP, gamma), (DOWN, delta))])
    return tensor(psi4, psi5)


def joined_reference(alpha, beta, gamma, delta) -> FockState:
    """(alpha H + beta V)(gamma u + delta d) on one photon's four modes."""
    return joined_ququart([alpha * gamma, beta * gamma, alpha * delta, beta * delta])


# Bell-measured modes: photons 2 and 4 of the five-photon register, then
# photons 3 and 5 of the survivors [photon 1, photon 3, photon 5].
_PAIR_24 = _photon_modes(1, 3)
_PAIR_35 = _photon_modes(1, 2)


def _five_photon_state(alpha, beta, gamma, delta, resource) -> FockState:
    """Resource photons 1-3 followed by the input qubits on photons 4 and 5."""
    for name, (x, y) in (("alpha/beta", (alpha, beta)), ("gamma/delta", (gamma, delta))):
        if not abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) <= 1e-8:
            raise ValueError(f"{name} amplitudes must be normalized")
    return tensor(build_tpes(*resource), _input_qubits_state(alpha, beta, gamma, delta))


def _bell_branch(full: FockState, outcome) -> tuple[FockState, float]:
    """(normalized photon-1 state, exact weight) of one Bell outcome pair."""
    pol_kind, path_kind = outcome
    reduced = partial_inner(bell_pair(pol_kind), full, _PAIR_24)
    conditional = partial_inner(bell_pair(path_kind), reduced, _PAIR_35)
    return normalize(conditional), norm(conditional) ** 2


def expand_five_photon(alpha, beta, gamma, delta, resource=("Phi-", "phi-")):
    """Bell-basis expansion of resource x input qubits over pairs (2,4), (3,5).

    Returns one (outcome, conditional photon-1 state, weight) triple per
    Bell outcome pair, in the canonical 16-outcome order. Conditional
    states are normalized but keep their expansion sign; weights are the
    exact branch probabilities and each equals 1/16.
    """
    full = _five_photon_state(alpha, beta, gamma, delta, resource)
    return [(outcome, *_bell_branch(full, outcome)) for outcome in ALL_BELL_OUTCOMES]


@dataclass(frozen=True)
class CorrectionEntry:
    pol_op: str
    path_op: str
    unitary: np.ndarray


def _correction_matrix(pol_op: str, path_op: str) -> np.ndarray:
    # In the mode rule polarization is the fast index.
    return np.kron(_PAULI[path_op], _PAULI[pol_op])


@lru_cache(maxsize=None)
def _correction_unitary(pol_op: str, path_op: str) -> ModeUnitary:
    # apply_unitary substitutes creation operators, which transposes the
    # action on amplitude vectors; transpose first so amplitudes see the
    # correction matrix.
    return ModeUnitary(4, _correction_matrix(pol_op, path_op).T)


@lru_cache(maxsize=None)
def derive_correction_table(resource=("Phi-", "phi-")) -> dict:
    """Find the local correction mapping each branch to the joined state.

    Corrections are searched over two-level operators {I, Z, X, XZ} per
    degree of freedom, using two generic input instantiations so a match
    on both pins the entry uniquely. Raises if any branch has no match.
    """
    rng = np.random.default_rng(20240917)
    instantiations = []
    for _ in range(2):
        raw = rng.standard_normal(8)
        a, b = raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]
        g, d = raw[4] + 1j * raw[5], raw[6] + 1j * raw[7]
        na, ng = np.hypot(abs(a), abs(b)), np.hypot(abs(g), abs(d))
        instantiations.append((a / na, b / na, g / ng, d / ng))

    expansions = [expand_five_photon(*inst, resource=resource) for inst in instantiations]
    references = [joined_reference(*inst) for inst in instantiations]

    table: dict[tuple[str, str], CorrectionEntry] = {}
    for idx, (outcome, _, _) in enumerate(expansions[0]):
        matches = []
        for pol_op, path_op in product(_PAULI_ORDER, repeat=2):
            correction = _correction_unitary(pol_op, path_op)
            ok = True
            for expansion, reference in zip(expansions, references):
                _, conditional, _ = expansion[idx]
                corrected = apply_unitary(conditional, correction)
                if fidelity(corrected, reference) < 1.0 - 1e-9:
                    ok = False
                    break
            if ok:
                matches.append((pol_op, path_op))
        if not matches:
            raise RuntimeError(f"no two-level correction found for outcome {outcome}")
        if len(matches) > 1:
            raise RuntimeError(f"ambiguous corrections {matches} for outcome {outcome}")
        pol_op, path_op = matches[0]
        table[outcome] = CorrectionEntry(pol_op, path_op, _correction_matrix(pol_op, path_op))
    return table


def resolve_outcome(outcome) -> tuple[str, str]:
    """Accept an (pol, path) pair or a canonical index 0..15."""
    if isinstance(outcome, int):
        if not 0 <= outcome < 16:
            raise ValueError(f"outcome index {outcome} out of range 0..15")
        return ALL_BELL_OUTCOMES[outcome]
    pol_kind, path_kind = outcome
    if pol_kind not in POL_BELL_KINDS or path_kind not in PATH_BELL_KINDS:
        raise ValueError(f"unknown Bell outcome {outcome!r}")
    return (pol_kind, path_kind)


def teleport_join(
    alpha_beta,
    gamma_delta,
    outcome="sample",
    seed: int | None = None,
    resource=("Phi-", "phi-"),
) -> SchemeReport:
    """Join two qubits onto one photon by double Bell measurement.

    ``outcome`` forces a Bell result (pair of kinds, or index 0..15) or,
    when set to "sample", draws one uniformly: every branch weight is 1/16.
    Only that branch is contracted; its weight is the report's
    success_probability, and the table correction maps it to the joined state.
    """
    alpha, beta = (complex(x) for x in alpha_beta)
    gamma, delta = (complex(x) for x in gamma_delta)
    full = _five_photon_state(alpha, beta, gamma, delta, resource)
    if outcome == "sample":
        rng = np.random.default_rng(seed)
        picked_outcome = ALL_BELL_OUTCOMES[int(rng.choice(16, p=np.full(16, 1 / 16)))]
    else:
        picked_outcome = resolve_outcome(outcome)
    conditional, weight = _bell_branch(full, picked_outcome)

    entry = derive_correction_table(resource)[picked_outcome]
    corrected = apply_unitary(conditional, _correction_unitary(entry.pol_op, entry.path_op))
    reference = joined_reference(alpha, beta, gamma, delta)
    return SchemeReport(
        output=corrected,
        success_probability=weight,
        branch=f"{picked_outcome[0]}/{picked_outcome[1]}",
        feed_forward_applied=True,
        fidelity_to_expected=fidelity(corrected, reference),
    )
