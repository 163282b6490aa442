"""Sparse multimode photon-number states and their algebra.

A state is a complex superposition of occupation-number basis vectors
|n_0 n_1 ... n_{m-1}>, stored as a map from occupation tuple to amplitude.
States are treated as immutable: every operation returns a new state and
prunes amplitudes below PRUNE_TOL so exact cancellations vanish.

Mixed photon-number superpositions are allowed (post-selection produces
them transiently); nothing enforces a global photon-number sector.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType

import numpy as np

# Amplitudes below this magnitude are dropped after every operation.
PRUNE_TOL = 1e-12
# |sum |amp|^2 - 1| must stay below this for a state to count as normalized.
NORM_ATOL = 1e-10

Occupation = tuple[int, ...]


class NonEmptyModeError(ValueError):
    """A mode that must be empty holds a photon (scheme misuse)."""


@dataclass(frozen=True)
class FockState:
    """Sparse superposition over occupation-number basis vectors.

    ``terms`` maps occupation tuples (length ``modes``, entries >= 0) to
    complex amplitudes; it is a read-only view of a private copy. An empty
    map is the zero state, which is how a failed projection is flagged.
    Construction checks every occupation and amplitude; operations inside
    this package build their results through ``_trusted`` instead, since
    they only rearrange occupations that were checked on the way in.
    """

    modes: int
    terms: Mapping[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"mode count must be positive, got {self.modes}")
        for occ, amp in self.terms.items():
            _check_occupation(self.modes, occ)
            _check_amplitude(occ, complex(amp))
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def amplitude(self, occ) -> complex:
        return self.terms.get(tuple(occ), 0j)


def _check_occupation(modes: int, occ: Occupation):
    if len(occ) != modes:
        raise ValueError(f"occupation {occ} has length {len(occ)}, expected {modes}")
    if any(n < 0 for n in occ):
        raise ValueError(f"negative occupation in {occ}")


def _check_amplitude(occ: Occupation, amp: complex):
    if not cmath.isfinite(amp):
        raise ValueError(f"amplitude {amp} of occupation {occ} is not finite")


def _trusted(modes: int, terms: dict[Occupation, complex]) -> FockState:
    """Wrap terms built from an already-checked state, skipping the checks."""
    state = object.__new__(FockState)
    object.__setattr__(state, "modes", modes)
    object.__setattr__(state, "terms", MappingProxyType(terms))
    return state


def _pruned(modes: int, terms: dict[Occupation, complex]) -> FockState:
    return _trusted(modes, {occ: amp for occ, amp in terms.items() if abs(amp) > PRUNE_TOL})


def make_state(modes: int, terms) -> FockState:
    """Build a state from (occupation, amplitude) pairs.

    Duplicate occupations are merged by summing amplitudes; the result is
    pruned but not normalized. A NaN or infinite amplitude raises
    ValueError rather than being pruned or carried along.
    """
    if not terms:
        raise ValueError("at least one term is required")
    if modes < 1:
        raise ValueError(f"mode count must be positive, got {modes}")
    merged: dict[Occupation, complex] = {}
    for occ, amp in terms:
        occ = tuple(int(n) for n in occ)
        _check_occupation(modes, occ)
        amp = complex(amp)
        _check_amplitude(occ, amp)
        merged[occ] = merged.get(occ, 0j) + amp
    return _pruned(modes, merged)


def basis_state(modes: int, occ) -> FockState:
    return make_state(modes, [(occ, 1.0)])


def zero_state(modes: int) -> FockState:
    return FockState(modes, {})


def norm(s: FockState) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in s.terms.values()))


def is_normalized(s: FockState, atol: float = NORM_ATOL) -> bool:
    return abs(sum(abs(a) ** 2 for a in s.terms.values()) - 1.0) <= atol


def normalize(s: FockState) -> FockState:
    n = norm(s)
    if n == 0.0:
        return s
    return _pruned(s.modes, {occ: amp / n for occ, amp in s.terms.items()})


def scale(s: FockState, factor: complex) -> FockState:
    return _pruned(s.modes, {occ: amp * factor for occ, amp in s.terms.items()})


def add(a: FockState, b: FockState) -> FockState:
    if a.modes != b.modes:
        raise ValueError(f"mode counts differ: {a.modes} vs {b.modes}")
    out = dict(a.terms)
    for occ, amp in b.terms.items():
        out[occ] = out.get(occ, 0j) + amp
    return _pruned(a.modes, out)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b> in the orthonormal occupation basis; conjugate-linear in a."""
    if a.modes != b.modes:
        raise ValueError(f"mode counts differ: {a.modes} vs {b.modes}")
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    total = 0j
    for occ in small.terms:
        if occ in large.terms:
            total += np.conj(a.terms[occ]) * b.terms[occ]
    return complex(total)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; a's modes come first."""
    out: dict[Occupation, complex] = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            out[occ_a + occ_b] = out.get(occ_a + occ_b, 0j) + amp_a * amp_b
    return _pruned(a.modes + b.modes, out)


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for normalized states."""
    for name, s in (("first", a), ("second", b)):
        if not is_normalized(s, atol=1e-8):
            raise ValueError(f"{name} argument is not normalized (norm={norm(s):.6g})")
    return min(abs(inner_product(a, b)) ** 2, 1.0)


@dataclass(frozen=True)
class Bipartition:
    """Split of the mode register into two disjoint index sets."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.left) & set(self.right)
        if overlap:
            raise ValueError(f"left and right share modes {sorted(overlap)}")


def bipartition(modes: int, left) -> Bipartition:
    left = tuple(sorted(left))
    if any(i < 0 or i >= modes for i in left):
        raise ValueError(f"left set {left} out of range for {modes} modes")
    right = tuple(i for i in range(modes) if i not in set(left))
    return Bipartition(left, right)


def schmidt_values(s: FockState, cut: Bipartition) -> np.ndarray:
    """Singular values of the bipartite coefficient matrix, descending."""
    if s.is_zero:
        return np.zeros(0)
    left_keys: dict[Occupation, int] = {}
    right_keys: dict[Occupation, int] = {}
    entries = []
    for occ, amp in s.terms.items():
        lo = tuple(occ[i] for i in cut.left)
        ro = tuple(occ[i] for i in cut.right)
        li = left_keys.setdefault(lo, len(left_keys))
        ri = right_keys.setdefault(ro, len(right_keys))
        entries.append((li, ri, amp))
    mat = np.zeros((len(left_keys), len(right_keys)), dtype=complex)
    for li, ri, amp in entries:
        mat[li, ri] += amp
    return np.linalg.svd(mat, compute_uv=False)


def schmidt_rank(s: FockState, cut: Bipartition, tol: float = 1e-9) -> int:
    """Number of singular values above tol across the cut."""
    return int(np.sum(schmidt_values(s, cut) > tol))


def add_vacuum_modes(s: FockState, positions) -> FockState:
    """Insert empty modes so they land at the given indices of the result."""
    positions = sorted(int(p) for p in positions)
    new_modes = s.modes + len(positions)
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate insertion positions {positions}")
    if positions and (positions[0] < 0 or positions[-1] >= new_modes):
        raise ValueError(f"insertion positions {positions} out of range for {new_modes} result modes")
    pos_set = set(positions)
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        it = iter(occ)
        new_occ = tuple(0 if j in pos_set else next(it) for j in range(new_modes))
        out[new_occ] = amp
    return _trusted(new_modes, out)


def discard_empty_modes(s: FockState, positions) -> FockState:
    """Drop the listed modes; every term must be empty there."""
    positions = set(int(p) for p in positions)
    if any(p < 0 or p >= s.modes for p in positions):
        raise ValueError(f"positions {sorted(positions)} out of range for {s.modes} modes")
    if len(positions) == s.modes:
        raise ValueError("cannot discard every mode; at least one must remain")
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        for p in positions:
            if occ[p] != 0:
                raise NonEmptyModeError(f"mode {p} holds {occ[p]} photon(s) in term {occ}")
        out[tuple(n for j, n in enumerate(occ) if j not in positions)] = amp
    return _trusted(s.modes - len(positions), out)


def permute_modes(s: FockState, perm) -> FockState:
    """Relabel modes: the photon count of mode i moves to index perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(s.modes)):
        raise ValueError(f"{perm} is not a permutation of 0..{s.modes - 1}")
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        new_occ = [0] * s.modes
        for i, n in enumerate(occ):
            new_occ[perm[i]] = n
        out[tuple(new_occ)] = amp
    return _trusted(s.modes, out)


def postselect_vacuum(s: FockState, positions) -> tuple[FockState, float]:
    """Keep the branch with no photons at the given modes.

    Returns the renormalized surviving state and the branch weight
    (for a normalized input, the probability of seeing vacuum there).
    """
    positions = set(int(p) for p in positions)
    if any(p < 0 or p >= s.modes for p in positions):
        raise ValueError(f"positions {sorted(positions)} out of range for {s.modes} modes")
    kept = {occ: amp for occ, amp in s.terms.items() if all(occ[p] == 0 for p in positions)}
    weight = sum(abs(a) ** 2 for a in kept.values())
    total = sum(abs(a) ** 2 for a in s.terms.values())
    if total == 0.0:
        return zero_state(s.modes), 0.0
    prob = weight / total
    return normalize(_pruned(s.modes, kept)), prob


def _picker(indices):
    """Callable returning the tuple of an occupation's entries at indices."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    # A slice keeps the result a tuple: () or (occ[i],).
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


def partial_inner(bra: FockState, ket: FockState, positions) -> FockState:
    """Contract <bra| against the listed modes of |ket>.

    ``positions[k]`` is the ket mode matched with bra mode k. The result
    lives on the remaining ket modes, in their original order, and is not
    normalized (its squared norm is the projection weight).
    """
    positions = [int(p) for p in positions]
    if len(positions) != bra.modes:
        raise ValueError(f"expected {bra.modes} positions, got {len(positions)}")
    if len(set(positions)) != len(positions) or any(p < 0 or p >= ket.modes for p in positions):
        raise ValueError(f"invalid mode selection {positions} for {ket.modes} modes")
    taken = set(positions)
    rest = [j for j in range(ket.modes) if j not in taken]
    if not rest:
        raise ValueError("cannot contract every mode; at least one must remain")
    pick_sub, pick_rest = _picker(positions), _picker(rest)
    out: dict[Occupation, complex] = {}
    for occ, amp in ket.terms.items():
        bra_amp = bra.terms.get(pick_sub(occ))
        if bra_amp is None:
            continue
        rest_occ = pick_rest(occ)
        out[rest_occ] = out.get(rest_occ, 0j) + np.conj(bra_amp) * amp
    return _pruned(len(rest), out)


def state_to_dict(s: FockState) -> dict:
    """JSON-ready form; terms sorted lexicographically by occupation."""
    return {
        "modes": s.modes,
        "terms": [
            {"occ": list(occ), "re": float(s.terms[occ].real), "im": float(s.terms[occ].imag)}
            for occ in sorted(s.terms)
        ],
    }


def state_from_dict(data: dict) -> FockState:
    try:
        modes = int(data["modes"])
        pairs = [(tuple(t["occ"]), complex(t["re"], t["im"])) for t in data["terms"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    for occ, amp in pairs:
        # make_state would prune these away without a trace; exact zeros are fine.
        if 0.0 < abs(amp) <= PRUNE_TOL:
            raise ValueError(f"amplitude {amp} of occupation {occ} is at or below the pruning tolerance {PRUNE_TOL:g}")
    if not pairs:
        return zero_state(modes)
    return make_state(modes, pairs)
