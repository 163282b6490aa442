"""Linear-optical evolution of Fock states.

An m x m unitary u acts on creation operators by substitution,
a+_i -> sum_j u[i, j] a+_j, and a state evolves by expanding each basis
term as a polynomial in the substituted operators with the bosonic
sqrt(n!) normalization per mode. Detection of one photon in a mode
superposition phi is the operator sum_h conj(phi[h]) a_h.

The expansion only runs over the modes a unitary mixes: mode i is active
unless row i and column i are both the unit vector e_i, and photons on
the other (passive) modes stay where they are. Within one call, each
distinct occupation of the active modes is expanded once; a beamsplitter
on (8, 4) states expands at most 15 sub-occupations for 330 terms. Dense
unitaries take the same path with every mode active.

States are spliced by a dict loop in Python complex arithmetic or by one
numpy pass that repeats its floating-point operations in its order, fed by
the array kernel a unitary picks from its structure (apply_unitary). Each
kernel numbers its outputs in the dict loop's insertion order, so the pass
only sums: _routed's are distinct, _coupled sorts its terms once by group,
_expanded its candidates unless one term gives them. The pass returns a state
that carries its int64 keys, factorial products and amplitudes (_Packed; a
dataclasses.replace copy is a checked FockState) and builds its terms dict on
the first read, so a chain of elements packs its occupation tuples once; its
report lists the arrays and builds no dict. Output keys, term order,
amplitude bits and types do not depend on the path, and no option selects it.

A dense expansion forms each photon's products as an (entries, monomials)
array and sums its transpose, in the dict loop's monomial-major order, with
np.bincount. The dict loop keeps amplitudes with abs(amp) > PRUNE_TOL and
the array pass those with np.hypot(re, im) > PRUNE_TOL, the same test bit
for bit; large array outputs test squared magnitudes first (_kept).

All functions are pure but for one memo: a unitary keeps the dict loop's
expansions (_memo: tuples, from its matrix alone), so a later call
gets a fresh copy's bits without expanding again. Unitaries and projectors
validate themselves on construction and keep a private read-only copy of
their array. The builders here (identity, beamsplitter, phase_shifter,
hadamard_pair, mode_permutation) make their own matrices, so they skip that
check and the matrix scan, and hand _plan their active modes and those
modes' rows on the active columns, as the entries they wrote.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .fock import PRUNE_TOL, FockState, Occupation, _checked_seed, _indices, _layout, _mode_count, _pruned, _renormalized, _trusted

UNITARY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """m x m complex unitary acting on the mode creation operators."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = _mode_count(self.dim)
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {dim}")
        _require_unitary(mat)
        mat.setflags(write=False)
        vars(self).update(dim=dim, matrix=mat)

    @cached_property
    def _expansion_plan(self):
        """_plan of the modes whose row or column is not the unit vector (-0.0 == 0.0), read once; the builders hand it in."""
        moved = self.matrix != np.eye(self.dim)
        active = np.flatnonzero((moved | moved.T).any(axis=1)).tolist()
        return _plan(self.dim, active, self.matrix[active][:, active].tolist())

    @cached_property
    def _memo(self) -> dict:  # apply_unitary's dict-loop memo: the _expand tuple of each active sub-occupation seen
        return {}


def _plan(dim: int, active: list, rows: list) -> tuple:
    """What apply_unitary needs of a unitary, from its active modes and their rows on them as matrix.tolist() gives those.

    (pick_active, pick_passive, layout, rows, active, array_photons, kernel): fock._layout's pickers and
    map back to mode order; each row's nonzero entries as (active index, entry) pairs; the active modes;
    _array_photons; the kernel for whole states or None.
    """
    pick_active, pick_passive, _, layout = _layout(dim, tuple(active))
    nonzero = [[(b, c) for b, c in enumerate(row) if c] for row in rows]
    densest = max(map(len, nonzero), default=0)
    kernel = _routed if densest <= 1 else _coupled if list(map(len, nonzero)) == [2, 2] else None
    return pick_active, pick_passive, layout, nonzero, active, _array_photons(len(active), densest), kernel


def _element(mat: np.ndarray, active: list, rows: list) -> ModeUnitary:
    """A builder's own matrix, active modes and their rows on them (_plan): no copy, check or scan."""
    u = object.__new__(ModeUnitary)
    vars(u).update(dim=len(mat), matrix=_read_only(mat)[0], _expansion_plan=_plan(len(mat), active, rows))
    return u


@dataclass(frozen=True, eq=False)
class ProjectorSpec:
    """Normalized mode superposition defining a one-photon detection."""

    phi: np.ndarray

    def __post_init__(self):
        vec = np.array(self.phi, dtype=complex).reshape(-1)
        _require_normalized(vec)
        vec.setflags(write=False)
        object.__setattr__(self, "phi", vec)

    @property
    def modes(self) -> int:
        return len(self.phi)

    @cached_property
    def _support(self) -> tuple:
        """(mode, conjugated entry) for each nonzero entry, ascending, read once per projector."""
        return tuple((h, c) for h, c in enumerate(np.conj(self.phi)) if c != 0)


def _require_unitary(mats: np.ndarray):
    """Raise unless every matrix of a (..., m, m) stack is unitary within UNITARY_ATOL."""
    defect = np.max(np.abs(mats @ mats.conj().swapaxes(-1, -2) - np.eye(mats.shape[-1])))
    if not defect <= UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (max defect {defect:.3e})")


def _require_normalized(vecs: np.ndarray):
    """Raise unless every vector of a (..., m) stack has unit norm within UNITARY_ATOL."""
    defect = abs(np.sum(np.abs(vecs) ** 2, axis=-1) - 1.0).max()
    if not defect <= UNITARY_ATOL:
        raise ValueError(f"projector vector is not normalized (defect {defect:.3e})")


def identity(m: int) -> ModeUnitary:
    return _element(np.eye(_mode_count(m), dtype=complex), [], [])


def compose(*elements: ModeUnitary) -> ModeUnitary:
    """Unitary equivalent to applying the elements left to right.

    Under the substitution convention, applying u then v equals applying
    the single matrix u @ v.
    """
    if not elements:
        raise ValueError("compose needs at least one element")
    dim = elements[0].dim
    total = np.eye(dim, dtype=complex)
    for el in elements:
        if el.dim != dim:
            raise ValueError("all elements must share the same mode count")
        total = total @ el.matrix
    return ModeUnitary(dim, total)


def beamsplitter(m: int, i: int, j: int, theta: float, phase: float = 0.0) -> ModeUnitary:
    """Two-mode coupler: block [[cos, e^{i p} sin], [-e^{-i p} sin, cos]] on (i, j)."""
    m = _mode_count(m)
    i, j = _indices((i, j), "modes", m, distinct=True)
    _check_finite(theta=theta, phase=phase)
    c, s = complex(math.cos(theta)), math.sin(theta)
    return _two_mode(m, i, j, [[c, complex(np.exp(1j * phase) * s)], [complex(-np.exp(-1j * phase) * s), c]])


def phase_shifter(m: int, i: int, phase: float) -> ModeUnitary:
    m = _mode_count(m)
    (i,) = _indices([i], "mode", m)
    _check_finite(phase=phase)
    mat = np.eye(m, dtype=complex)
    mat[i, i] = z = complex(np.exp(1j * phase))
    return _element(mat, [i], [[z]]) if z != 1 else _element(mat, [], [])


def hadamard_pair(m: int, i: int, j: int) -> ModeUnitary:
    """Balanced symmetric mixer (1/sqrt2)[[1, 1], [1, -1]] on modes (i, j)."""
    m = _mode_count(m)
    i, j = _indices((i, j), "modes", m, distinct=True)
    r = 1.0 / math.sqrt(2.0)
    return _two_mode(m, i, j, [[complex(r), complex(r)], [complex(r), complex(-r)]])


def _two_mode(m: int, i: int, j: int, block: list) -> ModeUnitary:
    """The unitary with the block [[ii, ij], [ji, jj]] (Python complex) on modes (i, j); an identity block moves no mode."""
    (ii, ij), (ji, jj) = block
    mat = np.eye(m, dtype=complex)
    mat[i, i], mat[i, j], mat[j, i], mat[j, j] = ii, ij, ji, jj
    if block == [[1, 0], [0, 1]]:  # a coupler at theta = 0; -0.0 == 0.0, as in the scan
        return _element(mat, [], [])
    return _element(mat, [i, j], block) if i < j else _element(mat, [j, i], [[jj, ji], [ij, ii]])


def mode_permutation(m: int, perm) -> ModeUnitary:
    """Routing unitary sending the photon in mode i to perm[i]."""
    m = _mode_count(m)
    perm = _indices(perm, "permutation", m, distinct=True, count=m)
    active = [i for i, p in enumerate(perm) if i != p]
    rows = [[1 + 0j if perm[a] == b else 0j for b in active] for a in active]
    return _element(np.eye(m, dtype=complex)[list(perm)], active, rows)  # row i of the matrix is e_perm[i]


def haar_random_unitary(m: int, seed: int) -> ModeUnitary:
    """Haar-distributed unitary, deterministic for a fixed seed."""
    return haar_from_rng(m, np.random.default_rng(_checked_seed(seed)))


def haar_from_rng(m: int, rng: np.random.Generator) -> ModeUnitary:
    m = _mode_count(m)
    return ModeUnitary(m, _haar_from_normals(rng.standard_normal((m, m)), rng.standard_normal((m, m))))


def _haar_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary standard normals of (..., m, m) stacks.

    QR of the complex Ginibre matrices, with the phases of diag(R) moved
    into Q (Mezzadri, arXiv:math-ph/0609050). Each matrix of a stack gets
    the bits it would get alone.
    """
    q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_projector(m: int, rng: np.random.Generator) -> ProjectorSpec:
    m = _mode_count(m)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return ProjectorSpec(v / np.linalg.norm(v))


def _check_finite(**angles):
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not finite")


# The two crossovers of apply_unitary's array kernels.
_ARRAY_MIN_MONOMIALS = 64
_ROUTED_MIN_TERMS = 32
# _kept squares from this many amplitudes on. np.hypot alone took 2.9 against
# 5.6 us at 256, broke even near 900 and took 8.9 against 7.9 us at 1024 (2-core
# VM, Python 3.11, numpy 2.4); the 330-term outputs of (8, 4) meshes stay below.
_SQUARED_MIN_TERMS = 1024
_SQUARED_BAND = (PRUNE_TOL**2 * (1 - 2**-48), PRUNE_TOL**2 * (1 + 2**-48))
# The array pass packs occupations as int64 keys and takes factorial
# products in int64, exact up to 20!.
_ARRAY_MAX_PHOTONS = 20
_FACTORIALS = np.array([math.factorial(k) for k in range(_ARRAY_MAX_PHOTONS + 1)], dtype=np.int64)


def apply_unitary(s: FockState, u: ModeUnitary) -> FockState:
    """Evolve a state through a mode unitary.

    Each term's photons on the active modes are expanded by substituting
    their creation operators and collecting monomials, once per distinct
    active sub-occupation; each monomial is then spliced into the term's
    passive photons. Photon number per term and the overall norm are
    preserved. Amplitudes at or below PRUNE_TOL are dropped and the rest are
    np.complex128; a photon-free input term keeps the bits of 0j + amp.

    The dict loop splices in Python complex arithmetic. An array kernel
    instead feeds one numpy pass (_array_splice) on occupations packed as
    int64 keys (_packed), and the unitary names its kernel once
    (_expansion_plan). _routed (rows of one nonzero entry: phase shifters,
    permutations) and _coupled (couplers: two active modes, four nonzero
    entries) expand states of _ROUTED_MIN_TERMS terms or more at once;
    one threshold serves both, though where each kernel overtakes the dict
    loop moves with the kernel and with whether the state carries its keys.
    Any unitary takes _expanded when an expansion may reach
    _ARRAY_MIN_MONOMIALS monomials (_expand_arrays).
    """
    if u.dim != s.modes:
        raise ValueError(f"unitary dim {u.dim} does not match state modes {s.modes}")
    pick_active, pick_passive, layout, rows, active, array_photons, kernel = u._expansion_plan
    carried = type(s) is _Packed  # an array-pass output, whose terms may be unbuilt
    packed = _packed(s) if kernel and len(s.keys if carried else s.terms) >= _ROUTED_MIN_TERMS else None
    if packed:
        return _array_splice(packed, *kernel(packed.keys, packed.bits, packed.facts, rows, active))
    subs = list(map(pick_active, s.terms))
    expansions = dict.fromkeys(subs)
    # One numpy-sized expansion takes every sub-occupation to numpy.
    if array_photons and any(sum(sub) >= array_photons for sub in expansions):
        packed = _packed(s)
    for sub in expansions:
        expansions[sub] = _expand_arrays(sub, rows, tuple(active), packed.bits) if packed else u._memo.get(sub) or _expand(sub, rows)
    if packed:
        return _array_splice(packed, *_expanded(packed.keys, packed.bits, packed.facts, subs, expansions, active))
    u._memo.update(expansions)
    out: dict[Occupation, complex] = {}
    for (occ, amp), sub in zip(s.terms.items(), subs):
        sub_fact, monomials = expansions[sub]
        passive = pick_passive(occ)
        passive_fact = math.prod(map(math.factorial, passive))
        # Python complex arithmetic rounds as np.complex128 scalars do;
        # numpy divides a complex by a float through the float's reciprocal.
        inv_norm = 1.0 / math.sqrt(passive_fact * sub_fact)
        amp = complex(amp)
        for expo, coeff, expo_fact in monomials:
            key = layout(passive + expo)
            out[key] = out.get(key, 0j) + amp * coeff * math.sqrt(passive_fact * expo_fact) * inv_norm
    return _trusted(s.modes, {key: np.complex128(amp) for key, amp in out.items() if abs(amp) > PRUNE_TOL})


class _Packed(FockState):
    """A state that carries its arrays, whose terms dict an array-pass output builds on first read.

    keys packs its occupations into int64s of `bits` bits per mode, and facts
    and amps hold their factorial products and amplitudes; _listing reads
    them in report order, occupations as a uint8 matrix: state_to_dict and a report build no dict.
    terms is a cached_property: its first read stores the read-only dict in
    the instance, as FockState holds it; equality is FockState's. _carrying
    and copy.copy build one; dataclasses.replace gets a checked FockState.
    """

    def __new__(cls, *args, **fields):  # copy.copy passes nothing, and gets a bare _Packed to fill
        return FockState(*args, **fields) if args or fields else object.__new__(cls)

    @cached_property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(_occupation_tuples(self.keys, self.bits, self.modes), self.amps)))

    def __setstate__(self, state):  # pickle and copy.deepcopy hand back writable copies of the arrays
        super().__setstate__(state)
        _read_only(self.keys, self.facts, self.amps)

    def _listing(self) -> tuple[list, list, list]:
        # FockState._listing from the arrays, without building terms: the keys are distinct, so the order is total.
        counts = _counts(self.keys, self.bits, range(self.modes)).astype(np.uint8)  # photon numbers are <= 20
        order = np.lexsort(counts[::-1])  # the last row sorts first: mode 0
        amps = self.amps[order]
        return counts.T[order], amps.real.tolist(), amps.imag.tolist()


def _packed(s: FockState) -> _Packed | None:
    """s as a _Packed (s itself if it carries its arrays), or None if its occupations do not fit int64 keys."""
    if type(s) is _Packed:
        return s
    occ = np.fromiter(chain.from_iterable(s.terms), np.int64, len(s.terms) * s.modes).reshape(len(s.terms), s.modes)
    photons = int(occ.sum(axis=1).max(initial=0))
    bits = photons.bit_length()
    if not bits or photons > _ARRAY_MAX_PHOTONS or bits * s.modes > 63:
        return None
    keys, facts = occ @ np.left_shift(1, bits * np.arange(s.modes, dtype=np.int64)), _FACTORIALS[occ].prod(axis=1)
    amps = np.fromiter(s.terms.values(), complex, len(s.terms))
    return _carrying(modes=s.modes, bits=bits, keys=keys, facts=facts, amps=amps, terms=s.terms)


def _carrying(**fields) -> _Packed:
    """A _Packed of modes, bits, keys, facts, amps and terms if built; unchecked, as fock._trusted."""
    state = object.__new__(_Packed)
    vars(state).update(fields)
    return state


def _counts(keys: np.ndarray, bits: int, modes) -> np.ndarray:
    """Photon numbers of each key on the listed modes, one row per mode."""
    return (keys >> (bits * np.array(modes, dtype=np.int64))[:, None]) & ((1 << bits) - 1)


def _complex_product(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) from float64 parts, scalars or arrays, by CPython's formula and so with its bits.

    The one complex product of the array code. numpy's complex128 array
    multiply rounds otherwise (44% of products of standard normal parts differ
    in bits on an x86-64 VM with numpy 2.4); its complex128 scalars do not.
    CPython 3.10-3.13 takes a float x times a complex as complex(x, 0.0)
    times it, so a float factor is passed as (x, 0.0).
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _routed(keys: np.ndarray, bits: int, facts: np.ndarray, rows, active):
    """The candidates of every term under rows of one nonzero entry each, one per term and each its own output.

    _expand's steps coeff -> 0j + coeff * c for all terms at once, each
    term stopping at its photon count in the row; rows with c == 1 are
    skipped (see _array_splice). Each term's one output occupation
    permutes its input occupation: the keys are distinct, the factorial
    products stay.
    """
    counts = _counts(keys, bits, active)
    weights = np.left_shift(1, bits * np.array(active, dtype=np.int64))
    re, im = np.ones(len(keys)), np.zeros(len(keys))
    for n, ((b, c),) in zip(counts, rows):
        if c == 1:
            continue
        for step in range(n.max()):
            on = n > step
            re, im = np.where(on, _complex_product(re, im, c.real, c.imag), (re, im))
    keys = keys + (weights[[b for ((b, _),) in rows]] - weights) @ counts
    return np.arange(len(keys)), None, keys, facts, re, im


def _coupled(keys: np.ndarray, bits: int, facts: np.ndarray, rows, active):
    """The (term, monomial) candidates of every term under a coupler, in term-major order, and their output slots.

    A term with a photons on the first active mode and b on the second
    gives the a + b + 1 monomials of _coupler_coefficients' (a, b) entry,
    monomial b being (a, b) itself; monomial k lands in g + k * (w1 - w0),
    g = key - b * (w1 - w0) (all a + b on the first). The dict loop meets
    the outputs group by group (same g) in order of first term, k by k: one
    _first_occurrences over the terms gives slot = group start + k, and a
    group's outputs are its first term's monomials.
    """
    mask, shift = (1 << bits) - 1, (1 << bits * active[1]) - (1 << bits * active[0])
    a, b = (keys >> bits * active[0]) & mask, (keys >> bits * active[1]) & mask
    counts = a + b + 1
    offsets, seconds, expo_facts = _coupler_layout(int(counts.max()) - 1)
    coeffs = np.array(_coupler_coefficients(rows, len(offsets) - 1), dtype=complex)
    groups, group, first = _first_occurrences(keys - b * shift)
    entries, sizes = offsets[a, b], counts[first]
    terms, monomials = _spread(counts, entries)
    slots = monomials + ((sizes.cumsum() - sizes)[group] - entries)[terms]
    outputs, expos = _spread(sizes, entries[first])
    facts = (facts[first] // expo_facts[(entries + b)[first]])[outputs] * expo_facts[expos]
    return terms, slots, groups[outputs] + seconds[expos] * shift, facts, coeffs.real[monomials], coeffs.imag[monomials]


def _spread(counts: np.ndarray, starts: np.ndarray):
    """Term and monomial of each candidate, in term-major order, when term t has the counts[t] monomials from starts[t] on."""
    ends = counts.cumsum()
    return np.arange(len(counts)).repeat(counts), np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)


def _coupler_coefficients(rows, top: int) -> list:
    """_expand's coefficients for every (a, b) with a + b <= top, a-major, in its Python complex arithmetic.

    The polynomial after a photons of the first row is extended by b of the
    second; each photon makes monomial k, by exponent k on the second active
    mode as _expand orders them, (0j + old[k - 1] * c1) + old[k] * c0.
    """
    ((_, r0), (_, r1)), ((_, s0), (_, s1)) = rows
    out, poly = [], [1.0 + 0j]
    for a in range(top + 1):
        if a:
            poly = _coupler_step(poly, r0, r1)
        out += poly
        ext = poly
        for _ in range(top - a):
            ext = _coupler_step(ext, s0, s1)
            out += ext
    return out


def _coupler_step(poly: list, c0: complex, c1: complex) -> list:
    """poly times one photon of the row (c0, c1), in a plain loop: monomial k is (0j + poly[k - 1] * c1) + poly[k] * c0."""
    last, out = poly[0], [0j + poly[0] * c0]
    for p in poly[1:]:
        out.append(0j + last * c1 + p * c0)
        last = p
    out.append(0j + last * c1)
    return out


@cache
def _coupler_layout(top: int) -> tuple:
    """Where _coupler_coefficients puts each (a, b), and its monomials' exponents k on the second mode and factorial products."""
    pairs = [(a, b) for a in range(top + 1) for b in range(top - a + 1)]
    expos = np.array([(a + b - k, k) for a, b in pairs for k in range(a + b + 1)], dtype=np.int64)
    offsets = np.zeros((top + 1, top + 1), dtype=np.intp)
    offsets[tuple(zip(*pairs))] = np.cumsum([0] + [a + b + 1 for a, b in pairs[:-1]])
    return _read_only(offsets, expos[:, 1], _FACTORIALS[expos].prod(axis=1))


def _expanded(keys: np.ndarray, bits: int, facts: np.ndarray, subs, expansions: dict, active):
    """The (term, monomial) candidates in term-major order, from _expand_arrays' expansions."""
    weights = np.left_shift(1, bits * np.array(active, dtype=np.int64))
    found = list(expansions.values())
    expo_keys, expo_facts, re, im = (np.concatenate(f) if len(f) > 1 else f[0] for f in zip(*found))
    if len(keys) == 1:
        terms, monomials = np.zeros(1, dtype=np.intp), slice(None)  # broadcast over the one term's monomials
    else:
        index = {sub: k for k, sub in enumerate(expansions)}
        term_sub = np.fromiter(map(index.__getitem__, subs), np.intp, len(subs))
        sizes = np.array([len(e.keys) for e in found])
        terms, monomials = _spread(sizes[term_sub], (np.cumsum(sizes) - sizes)[term_sub])
    counts = _counts(keys, bits, active)
    passive = keys - weights @ counts
    keys = passive[terms] + expo_keys[monomials]
    facts = (facts // _FACTORIALS[counts].prod(axis=0))[terms] * expo_facts[monomials]
    keys, slots, first = _first_occurrences(keys) if len(passive) > 1 else (keys, None, slice(None))
    return terms, slots, keys, facts[first], re[monomials], im[monomials]


def _array_splice(packed: _Packed, terms, slots, keys, facts, cre, cim) -> _Packed:
    """The dict loop's output state, from its candidates in term-major order, carrying its arrays.

    Candidate k comes from input term terms[k] of packed, has the monomial
    coefficient (cre[k], cim[k]) and lands in output slots[k] (output k if
    slots is None: _routed's and one term's outputs are distinct). The
    kernel numbers the outputs in the dict loop's insertion order and hands
    in their keys, `bits` bits per mode, and factorial products facts.

    The values keep the dict loop's roundings: amp * coeff is
    _complex_product, and the factorial products are exact, so their square
    roots round as math.sqrt does. Scaling each part by a float instead of
    multiplying by complex(x, 0.0) changes at most the sign of a zero part;
    so do the 0j + steps that _routed skips. The sums erase those signs:
    np.bincount adds the values into their slots in candidate order from
    +0.0, as out.get(key, 0j) + value does. So a photon-free term, whose
    coefficient is exactly 1, gets the bits of 0j + amp. Every amplitude is
    an np.complex128, on this path as in the dict loop.
    """
    ar, ai = packed.amps.real[terms], packed.amps.imag[terms]
    inv_norm = (1.0 / np.sqrt(packed.facts))[terms]
    scale = np.sqrt(facts) if slots is None else np.sqrt(facts)[slots]
    re, im = _complex_product(ar, ai, cre, cim)
    re, im = re * scale * inv_norm, im * scale * inv_norm
    if slots is None:
        re, im = re + 0.0, im + 0.0  # as 0j + value
    else:
        re, im = np.bincount(slots, re, len(keys)), np.bincount(slots, im, len(keys))
    amps = np.empty(len(keys), dtype=complex)
    amps.real, amps.imag = re, im
    keep = _kept(re, im)
    if not keep.all():
        keys, facts, amps = keys[keep], facts[keep], amps[keep]
    keys, facts, amps = _read_only(keys, facts, amps)
    return _carrying(modes=packed.modes, bits=packed.bits, keys=keys, facts=facts, amps=amps)


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _occupation_tuples(keys: np.ndarray, bits: int, modes: int) -> list:
    """The occupations packed in keys, as tuples of the Python ints that bytes yield (photon numbers are <= 20)."""
    return list(zip(*map(bytes, _counts(keys, bits, range(modes)).astype(np.uint8))))


def _kept(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The mask of amplitudes re + i im above PRUNE_TOL, np.hypot(re, im) > PRUNE_TOL on every input.

    np.hypot gives abs() of a Python complex bit for bit, np.abs does not.
    From _SQUARED_MIN_TERMS amplitudes on, re * re + im * im decides, and
    np.hypot only entries in _SQUARED_BAND or NaN. That sum is within 2**-50
    relative of np.hypot's square (an ulp off the root), so the band,
    2**-48 relative either side of PRUNE_TOL**2, holds every entry where
    they could disagree. An overflowing square is inf, and warns nothing.
    """
    if len(re) < _SQUARED_MIN_TERMS:
        return np.hypot(re, im) > PRUNE_TOL
    with np.errstate(over="ignore", under="ignore"):
        squared = re * re + im * im
    low, high = _SQUARED_BAND
    keep = squared > high
    near = ~(keep | (squared < low))
    if near.any():
        keep[near] = np.hypot(re[near], im[near]) > PRUNE_TOL
    return keep


@cache
def _array_photons(active: int, densest: int) -> int:
    """The smallest active photon number whose expansion takes the numpy path, or 0 if none does.

    n photons on `active` modes, through rows of at most `densest` nonzero
    entries, give at most min(C(active + n - 1, n), densest**n) monomials;
    the numpy path starts where that bound reaches _ARRAY_MIN_MONOMIALS.
    States whose keys or factorial products would leave int64 stay in the
    dict loop (_packed).
    """
    if densest < 2 or active < 3:
        return 0  # at most n + 1 monomials
    n, monomials = 0, 1
    while min(monomials, densest**n) < _ARRAY_MIN_MONOMIALS:
        n += 1
        monomials = monomials * (active + n - 1) // n
    return n


def _expand(sub: Occupation, rows) -> tuple[int, tuple]:
    """Substitute the creation operators of the active photons in sub.

    Returns the factorial product of sub and, in expansion order, one
    (exponent vector, coefficient, factorial product) triple per monomial.
    """
    poly: dict[Occupation, complex] = {(0,) * len(sub): 1.0 + 0j}
    for n, row in zip(sub, rows):
        for _ in range(n):
            nxt: dict[Occupation, complex] = {}
            for expo, coeff in poly.items():
                for b, c in row:
                    key = expo[:b] + (expo[b] + 1,) + expo[b + 1 :]
                    nxt[key] = nxt.get(key, 0j) + coeff * c
            poly = nxt
    monomials = tuple((expo, coeff, math.prod(map(math.factorial, expo))) for expo, coeff in poly.items())
    return math.prod(map(math.factorial, sub)), monomials


class _ArrayExpansion(NamedTuple):
    """_expand's monomials as arrays, in expansion order."""

    keys: np.ndarray  # exponent vectors as apply_unitary's occupation keys
    facts: np.ndarray  # their factorial products, one per monomial as in _expand's list
    re: np.ndarray
    im: np.ndarray


def _expand_arrays(sub: Occupation, rows, active: tuple, bits: int) -> _ArrayExpansion:
    """_expand with numpy, bit for bit.

    Each photon step forms the products of (monomial k, row entry b) with
    _complex_product as a (b, k) array, whose inner loops run over the
    monomials, and np.bincount adds its transpose, the candidates in k-major
    order as the dict loop visits them, into their monomials in that order,
    starting from 0.0, as nxt.get(key, 0j) + x does. Which monomial each
    candidate lands in comes from _expansion_structure.
    """
    steps, entries = [], []
    for n, row in zip(sub, rows):
        if n:
            cols, values = zip(*row)
            values = np.array(values)[:, None]
            steps += [cols] * n
            entries += [(values.real, values.imag)] * n
    slots, keys, facts = _expansion_structure(tuple(steps), active, bits)
    re, im = np.ones(1), np.zeros(1)
    for (slot, count), (br, bi) in zip(slots, entries):
        re, im = _complex_product(re, im, br, bi)
        re, im = np.bincount(slot, re.T.ravel(), count), np.bincount(slot, im.T.ravel(), count)
    return _ArrayExpansion(keys, facts, re, im)


@lru_cache(maxsize=8)
def _expansion_structure(steps: tuple, active: tuple, bits: int) -> tuple:
    """Where each product of an expansion goes, from its sparsity pattern alone.

    `steps` holds, per photon, the active columns of its row's nonzero
    entries; exponents of active mode a sit at mode active[a] of an int64
    occupation key, `bits` bits per mode. Returns, per step, each
    candidate's monomial slot and the monomial count; then the final
    exponent keys and their factorial products.
    The keys are numbered in order of first occurrence, which is the dict
    loop's insertion order. Unitaries with the same pattern, such as Haar
    draws of one size, share the result; the eight most recent patterns
    are kept, each about as large as its output.
    """
    shifts = bits * np.array(active, dtype=np.int64)
    keys = np.zeros(1, dtype=np.int64)
    slots = []
    for cols in steps:
        keys, slot, _ = _first_occurrences((keys[:, None] + (1 << shifts[list(cols)])).ravel())
        slots.append((*_read_only(slot), len(keys)))
    # Callers share the result, so it holds only tuples and read-only arrays.
    return tuple(slots), *_read_only(keys, _FACTORIALS[_counts(keys, bits, active)].prod(axis=0))


def _first_occurrences(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct candidates in order of first occurrence, each candidate's index among them, and their first indices."""
    perm = candidates.argsort(kind="stable")
    ordered = candidates[perm]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    first = perm[new]  # each distinct candidate's first index, in sorted order, as the sort is stable
    order = first.argsort()
    slot = np.empty_like(perm)
    slot[perm] = order.argsort()[new.cumsum() - 1]
    return candidates[first[order]], slot, first[order]


def apply_projector(s: FockState, p: ProjectorSpec) -> tuple[FockState, float]:
    """Detect one photon in the mode superposition p.

    Returns the renormalized post-detection state and the detection
    weight |Pi s|^2 (fock._renormalized of _detected). For states holding
    at most one photon across the support of p the weight is the detection
    probability. A vanished branch comes back as the flagged zero state
    with weight 0.
    """
    return _renormalized(_detected(s, p))


def _detected(s: FockState, p: ProjectorSpec) -> FockState:
    """Pi s, not normalized: its squared norm is the detection weight."""
    if p.modes != s.modes:
        raise ValueError(f"projector length {p.modes} does not match state modes {s.modes}")
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        for h, c in p._support:
            n = occ[h]
            if n:
                lowered = occ[:h] + (n - 1,) + occ[h + 1 :]
                out[lowered] = out.get(lowered, 0j) + amp * c * math.sqrt(n)
    return _pruned(s.modes, out)
