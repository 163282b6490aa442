"""Sparse multimode photon-number states and their algebra.

A state is a complex superposition of occupation-number basis vectors
|n_0 n_1 ... n_{m-1}>, stored as a map from occupation tuple to amplitude.
States are treated as immutable: every operation returns a new state and
keeps amplitudes with abs(amp) > PRUNE_TOL, so exact cancellations vanish.

Mixed photon-number superpositions are allowed (post-selection produces
them transiently); nothing enforces a global photon-number sector.

Every op that picks, drops, inserts or reorders modes, here and in optics'
expansion plans, reads one cached _layout of its checked positions:
pickers of their entries and of the other modes, and the map that puts
both back in mode order. The CNOT reads its own cached rail getters
(gates._rail_getters).
"""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

import numpy as np

# Amplitudes below this magnitude are dropped after every operation.
PRUNE_TOL = 1e-12
# |sum |amp|^2 - 1| must stay within this for a state to count as normalized, wherever
# the package checks (a circuit's project line alone is parsed more loosely).
NORM_ATOL = 1e-8

Occupation = tuple[int, ...]


class NonEmptyModeError(ValueError):
    """A mode that must be empty holds a photon (scheme misuse)."""


@dataclass(frozen=True)
class FockState:
    """Sparse superposition over occupation-number basis vectors.

    ``terms`` maps occupation tuples (length ``modes``, entries >= 0) to
    complex amplitudes; it is a read-only view of a private copy. An empty
    map is the zero state, which is how a failed projection is flagged.
    Construction checks the mode count (_mode_count) and every occupation and
    amplitude, and stores the count as an int and each term
    under its occupation as a tuple of ints, with complex(amp); operations inside
    this package build their results through ``_trusted`` instead, since
    they only rearrange occupations that were checked on the way in.

    A state that ``optics.apply_unitary`` built in one numpy pass (the
    private subclass ``optics._Packed``) carries its occupations and
    amplitudes as arrays and builds ``terms`` on first read; the next
    unitary of a chain, state_to_dict and the CLI's reports read the arrays
    instead. Every other state, a dataclasses.replace copy of that one
    included, holds its dict from construction on. States of either class
    are equal when their modes and terms are; none hashes.
    """

    modes: int
    terms: Mapping[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self):
        modes = _mode_count(self.modes)
        terms = {}
        for occ, amp in self.terms.items():
            occ = _indices(occ, "occupation", count=modes)
            terms[occ] = _check_amplitude(occ, amp)
        vars(self).update(modes=modes, terms=MappingProxyType(terms))

    def __getstate__(self):  # pickle and copy take terms as a dict: a MappingProxyType does not pickle
        return {key: dict(value) if key == "terms" else value for key, value in vars(self).items()}

    def __setstate__(self, state):
        vars(self).update({key: MappingProxyType(value) if key == "terms" else value for key, value in state.items()})

    def __eq__(self, other):  # also across classes, where the dataclass __eq__ refuses
        return (self.modes, self.terms) == (other.modes, other.terms) if isinstance(other, FockState) else NotImplemented

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def amplitude(self, occ) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def _listing(self) -> tuple[list, list, list]:
        """(occupations, real parts, imaginary parts) of the terms in report order, lexicographic by occupation.

        The parts are Python floats. state_to_dict and the CLI's report
        renderer both read this; optics._Packed lists a uint8 count matrix.
        """
        items = sorted(self.terms.items())
        return [occ for occ, _ in items], [float(amp.real) for _, amp in items], [float(amp.imag) for _, amp in items]


def _integers(values, name: str) -> tuple[int, ...]:
    """values as ints (operator.index), or a ValueError naming them: the package's one integer rule, which rejects bools and fractions."""
    values = tuple(values)
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        out = None
    if out is None or bool in map(type, values):
        raise ValueError(f"{name} {list(values)} must hold integers")
    return out


def _indices(values, name: str, bound=None, distinct=False, count=None) -> tuple[int, ...]:
    """values as non-negative ints (_integers) below bound, or a ValueError naming them.

    As asked, repeats or a length other than count are rejected too.
    """
    out = _integers(values, name)
    if out and (min(out) < 0 or (bound is not None and max(out) >= bound)):
        raise ValueError(f"{name} {list(out)} out of range" + ("" if bound is None else f" for {bound} modes"))
    if distinct and len(set(out)) != len(out):
        raise ValueError(f"{name} {list(out)} has a repeated entry")
    if count is not None and len(out) != count:
        raise ValueError(f"{name} {list(out)} should have {count} entries")
    return out


def _mode_count(modes) -> int:
    """modes as an int of at least 1, the one mode-count rule; _indices names a fraction, a bool or a negative count."""
    (count,) = _indices([modes], "modes")
    if count < 1:
        raise ValueError(f"mode count must be positive, got {count}")
    return count


def _checked_seed(seed) -> int | None:
    """A sampler's seed as an int if _indices accepts it, a non-negative integer and no bool; None (fresh entropy) stays None."""
    return seed if seed is None else _indices([seed], "seed")[0]


def _check_amplitude(occ, amp) -> complex:
    """complex(amp) if it is a finite number whose abs() is a float, else a ValueError naming it (occ None: scale's factor)."""
    value = _as_number(occ, amp)
    try:
        finite = abs(value) < math.inf  # False for an infinite or NaN part; complex(1.5e308, 1.5e308) overflows
    except OverflowError:
        raise ValueError(f"{_named(occ, value)} is too large to square") from None
    if not finite:
        raise ValueError(f"{_named(occ, value)} is not finite")
    return value


def _as_number(occ, amp) -> complex:
    """complex(amp), or a ValueError unless amp is a number within the float range (not the int 10**400) and no string."""
    try:
        if not isinstance(amp, str):
            return complex(amp)
    except TypeError:
        pass
    except OverflowError:
        raise ValueError(f"{_named(occ, f'of type {type(amp).__name__}')} is past the float range") from None
    raise ValueError(f"{_named(occ, repr(amp))} is not a number")


def _named(occ, amp) -> str:
    """How an error names amplitude amp of occupation occ, or scale's factor amp if occ is None."""
    return f"scale factor {amp}" if occ is None else f"amplitude {amp} of occupation {occ}"


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
    pruned but not normalized. An amplitude that is no finite number, or a
    merged sum that is none, raises ValueError rather than being pruned or
    carried along.
    """
    if not terms:
        raise ValueError("at least one term is required")
    modes = _mode_count(modes)
    merged: dict[Occupation, complex] = {}
    for occ, amp in terms:
        occ = _indices(occ, "occupation", count=modes)
        amp = _check_amplitude(occ, amp)
        merged[occ] = _check_amplitude(occ, merged[occ] + amp) if occ in merged else 0j + amp
    return _pruned(modes, merged)


def _on_basis(modes: int, basis, amps) -> FockState:
    """make_state(modes, zip(basis, amps)) bit for bit, for distinct valid occupations the caller owns: checks amps only."""
    return _pruned(modes, {occ: 0j + _check_amplitude(occ, amp) for occ, amp in zip(basis, amps)})


def basis_state(modes: int, occ) -> FockState:
    return make_state(modes, [(occ, 1.0)])


def zero_state(modes: int) -> FockState:
    return FockState(modes, {})


def _squared_norm(amps) -> float:
    """sum(abs(a) ** 2 for a in amps), or inf where that passes the largest float.

    Each abs() is squared as a Python float, whose ** raises OverflowError; an np.float64 (the abs
    of an np.complex128) would warn and give inf. Both call the C library's pow, so the bits agree.
    """
    try:
        return sum(float(abs(a)) ** 2 for a in amps)
    except OverflowError:  # a finite amplitude above about 1.3e154
        return math.inf


def _checked_squared_norm(s: FockState) -> float:
    """_squared_norm of s's amplitudes; a ValueError names an amplitude too large to square."""
    total = _squared_norm(s.terms.values())
    if total == math.inf:  # an amplitude too large to square, or finite squares whose sum passes the largest float
        occ, amp = max(s.terms.items(), key=lambda term: _squared_norm((term[1],)))
        raise ValueError(f"{_named(occ, amp)} is too large to square")
    return total


def norm(s: FockState) -> float:
    return math.sqrt(_checked_squared_norm(s))


def is_normalized(s: FockState) -> bool:
    """Whether the squared norm is within NORM_ATOL of 1; a ValueError names an amplitude too large to square."""
    return abs(_checked_squared_norm(s) - 1.0) <= NORM_ATOL


def _renormalized(s: FockState) -> tuple[FockState, float]:
    """(s over its norm, that norm squared): a measured branch and its weight. The zero state stays as it is, weight 0.

    Dividing by the norm divides by sqrt(weight) bit for bit: sqrt(fl(x * x)) == x for a binary64 x short of overflow.
    """
    n = norm(s)
    return (s if n == 0.0 else _pruned(s.modes, {occ: amp / n for occ, amp in s.terms.items()})), n ** 2


def normalize(s: FockState) -> FockState:
    return _renormalized(s)[0]


def scale(s: FockState, factor: complex) -> FockState:
    # In Python complex, not numpy's: an np.complex128 amplitude would overflow with a RuntimeWarning.
    factor = _check_amplitude(None, factor)
    return _pruned(s.modes, {occ: _check_amplitude(occ, complex(amp) * factor) for occ, amp in s.terms.items()})


def add(a: FockState, b: FockState) -> FockState:
    """a + b; a sum past the float range raises ValueError."""
    if a.modes != b.modes:
        raise ValueError(f"mode counts differ: {a.modes} vs {b.modes}")
    out = dict(a.terms)
    for occ, amp in b.terms.items():
        out[occ] = _check_amplitude(occ, complex(out[occ]) + complex(amp)) if occ in out else 0j + amp
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
    """Tensor product; a's modes come first. A product past the float range raises ValueError."""
    # Near that range, multiply in Python complex: numpy would overflow with a RuntimeWarning.
    near_overflow = _largest(a) * _largest(b) > 1e300
    out: dict[Occupation, complex] = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            occ = occ_a + occ_b  # one per pair
            out[occ] = _check_amplitude(occ, 0j + complex(amp_a) * complex(amp_b)) if near_overflow else 0j + amp_a * amp_b
    return _pruned(a.modes + b.modes, out)


def _largest(s: FockState) -> float:
    return float(max(map(abs, s.terms.values()), default=0.0))


def _clamped_overlap(a: FockState, b: FockState) -> float:
    """min(|<a|b>|^2, 1), the one fidelity formula, with no normalization scan: for states the package built."""
    return min(abs(inner_product(a, b)) ** 2, 1.0)


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for normalized states: each is checked, then _clamped_overlap gives the value."""
    for name, s in (("first", a), ("second", b)):
        if not is_normalized(s):
            raise ValueError(f"{name} argument is not normalized (norm={norm(s):.6g})")
    return _clamped_overlap(a, b)


@dataclass(frozen=True)
class Bipartition:
    """Split of the mode register into two disjoint index sets, stored as tuples of ints (_integers)."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        vars(self).update(left=_integers(self.left, "left"), right=_integers(self.right, "right"))
        overlap = set(self.left) & set(self.right)
        if overlap:
            raise ValueError(f"left and right share modes {sorted(overlap)}")


def bipartition(modes: int, left) -> Bipartition:
    modes = _mode_count(modes)
    left = tuple(sorted(_indices(left, "left set", modes, distinct=True)))
    right = tuple(i for i in range(modes) if i not in set(left))
    return Bipartition(left, right)


def schmidt_values(s: FockState, cut: Bipartition) -> np.ndarray:
    """Singular values of the bipartite coefficient matrix, descending; the cut must split the state's modes."""
    if sorted([*cut.left, *cut.right]) != list(range(s.modes)):
        raise ValueError(f"{cut} does not split the {s.modes} modes")
    if s.is_zero:
        return np.zeros(0)
    pick_left, pick_right = _layout(s.modes, cut.left)[:2]
    left_keys: dict = {}
    right_keys: dict = {}
    entries = []
    for occ, amp in s.terms.items():
        li = left_keys.setdefault(pick_left(occ), len(left_keys))
        ri = right_keys.setdefault(pick_right(occ), len(right_keys))
        entries.append((li, ri, amp))
    mat = np.zeros((len(left_keys), len(right_keys)), dtype=complex)
    for li, ri, amp in entries:
        mat[li, ri] += amp
    return np.linalg.svd(mat, compute_uv=False)


def schmidt_rank(s: FockState, cut: Bipartition, tol: float = 1e-9) -> int:
    """Number of singular values above tol across the cut; tol is a finite, non-negative real number, not a bool."""
    # NaN fails the range test, and counts nothing above inf: either would read rank 0.
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite non-negative real number, got {tol!r}")
    return int(np.sum(schmidt_values(s, cut) > tol))


def add_vacuum_modes(s: FockState, positions) -> FockState:
    """Insert empty modes so they land at the given indices of the result."""
    positions = tuple(positions)
    modes = s.modes + len(positions)
    merge = _layout(modes, _indices(positions, "insertion positions", modes, distinct=True))[3]
    zeros = (0,) * len(positions)
    return _trusted(modes, {merge(occ + zeros): amp for occ, amp in s.terms.items()})


def discard_empty_modes(s: FockState, positions) -> FockState:
    """Drop the listed modes; every term must be empty there, or the error names the lowest occupied one."""
    positions = tuple(sorted(set(_indices(positions, "positions", s.modes))))
    if len(positions) == s.modes:
        raise ValueError("cannot discard every mode; at least one must remain")
    pick, pick_rest, rest_modes, _ = _layout(s.modes, positions)
    for occ in s.terms:
        if any(pick(occ)):
            p = next(p for p, n in zip(positions, pick(occ)) if n)
            raise NonEmptyModeError(f"mode {p} holds {occ[p]} photon(s) in term {occ}")
    return _trusted(rest_modes, {pick_rest(occ): amp for occ, amp in s.terms.items()})


def permute_modes(s: FockState, perm) -> FockState:
    """Relabel modes: the photon count of mode i moves to index perm[i]."""
    place = _layout(s.modes, _indices(perm, "permutation", s.modes, distinct=True, count=s.modes))[3]
    return _trusted(s.modes, {place(occ): amp for occ, amp in s.terms.items()})


def postselect_vacuum(s: FockState, positions) -> tuple[FockState, float]:
    """Keep the branch with no photons at the given modes.

    Returns the renormalized surviving state and the branch weight,
    kept/total: the squared norm kept over the input's squared norm.
    """
    pick = _layout(s.modes, tuple(sorted(set(_indices(positions, "positions", s.modes)))))[0]
    kept = {occ: amp for occ, amp in s.terms.items() if not any(pick(occ))}
    total = _checked_squared_norm(s)
    if total == 0.0:
        return zero_state(s.modes), 0.0
    return normalize(_pruned(s.modes, kept)), _squared_norm(kept.values()) / total


def _picker(indices):
    """Callable returning the tuple of an occupation's entries at indices."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    # A slice keeps the result a tuple: () or (occ[i],).
    return itemgetter(slice(indices[0], indices[0] + 1) if len(indices) else slice(0))


@lru_cache(maxsize=64)
def _layout(modes: int, positions: tuple[int, ...]):
    """(pick, pick_rest, rest_modes, merge) of checked, distinct positions in a register of modes, built once.

    The _pickers of the entries at positions and of the other modes (ascending), how many others there are,
    and the map that puts pick_rest(occ) + pick(occ) in mode order (tuple if it already is).
    """
    taken = set(positions)
    rest = [j for j in range(modes) if j not in taken]
    split = rest + list(positions)
    merge = tuple if split == list(range(modes)) else itemgetter(*sorted(range(modes), key=split.__getitem__))
    return _picker(positions), _picker(rest), len(rest), merge


def partial_inner(bra: FockState, ket: FockState, positions) -> FockState:
    """Contract <bra| against the listed modes of |ket>.

    ``positions[k]`` is the ket mode matched with bra mode k. The result
    lives on the remaining ket modes, in their original order, and is not
    normalized (its squared norm is the projection weight). Each bra
    amplitude is conjugated once (np.conj, an np.complex128), however many
    ket terms it meets.
    """
    positions = _indices(positions, "positions", ket.modes, distinct=True, count=bra.modes)
    if len(positions) == ket.modes:
        raise ValueError("cannot contract every mode; at least one must remain")
    pick_sub, pick_rest, rest_modes, _ = _layout(ket.modes, positions)
    conjugates = {occ: np.conj(amp) for occ, amp in bra.terms.items()}
    out: dict[Occupation, complex] = {}
    for occ, amp in ket.terms.items():
        bra_conj = conjugates.get(pick_sub(occ))
        if bra_conj is None:
            continue
        rest_occ = pick_rest(occ)
        out[rest_occ] = out.get(rest_occ, 0j) + bra_conj * amp
    return _pruned(rest_modes, out)


def state_to_dict(s: FockState) -> dict:
    """JSON-ready form; terms sorted lexicographically by occupation, as s._listing() gives them."""
    occs, re, im = s._listing()
    occs = occs.tolist() if isinstance(occs, np.ndarray) else occs  # optics._Packed lists a count matrix
    return {"modes": s.modes, "terms": [{"occ": list(occ), "re": r, "im": i} for occ, r, i in zip(occs, re, im)]}


def state_from_dict(data: dict) -> FockState:
    """The state of a state_to_dict object; a ValueError names a malformed part or an occupation listed twice.

    Unlike make_state, it merges nothing: a repeated occupation, or a nonzero
    amplitude that pruning would drop, is an error rather than a quiet change.
    """
    try:
        modes = _mode_count(data["modes"])
        pairs = [(tuple(t["occ"]), complex(t["re"], t["im"])) for t in data["terms"]]
        booleans = [(part, t) for t in data["terms"] for part in ("re", "im") if isinstance(t[part], bool)]
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an int part past the float range
        raise ValueError(f"malformed state object: {exc}") from exc
    if booleans:  # complex() would read a JSON true as 1
        part, t = booleans[0]
        raise ValueError(f"{part} part of occupation {tuple(t['occ'])} is a boolean ({t[part]}), not a number")
    for occ, amp in pairs:
        # make_state would prune these away without a trace; exact zeros are fine.
        if 0.0 < abs(_check_amplitude(occ, amp)) <= PRUNE_TOL:
            raise ValueError(f"amplitude {amp} of occupation {occ} is at or below the pruning tolerance {PRUNE_TOL:g}")
    if not pairs:
        return zero_state(modes)
    terms: dict[Occupation, complex] = {}
    for occ, amp in pairs:
        occ = _indices(occ, "occupation", count=modes)
        if occ in terms:
            raise ValueError(f"occupation {occ} is listed twice")
        terms[occ] = 0j + amp  # amp passed _check_amplitude above; 0j + amp is _on_basis's sum
    return _pruned(modes, terms)
