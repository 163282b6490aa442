"""Linear-optical evolution of Fock states.

An m x m unitary u acts on creation operators by substitution,
a+_i -> sum_j u[i, j] a+_j, and a state evolves by expanding each basis
term as a polynomial in the substituted operators with the bosonic
sqrt(n!) normalization per mode. Detection of one photon in a mode
superposition phi is the operator sum_h conj(phi[h]) a_h.

The expansion only runs over the modes a unitary mixes: mode i is active
unless row i and column i are both the unit vector e_i, and photons on
the other (passive) modes stay where they are. Within one call, each
distinct occupation of the active modes is expanded once and spliced
back into every term that carries it. A beamsplitter on (8, 4) states
expands at most 15 sub-occupations for 330 terms; phase shifters and
permutations, with one nonzero entry per row, expand each sub-occupation
into a single monomial. Dense unitaries take the same path with every
mode active.

Each sub-occupation is expanded either by a dict loop in Python complex
arithmetic or, where its expansion may reach _ARRAY_MIN_MONOMIALS
monomials and stays exact in int64, by a numpy path that repeats the dict
loop's floating-point operations in the same order (see apply_unitary).
Output keys, term order and amplitude bits do not depend on the path,
and no option selects it.

All functions are pure; unitaries and projectors validate themselves on
construction and keep a private read-only copy of their array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .fock import PRUNE_TOL, FockState, Occupation, _picker, _trusted, _pruned, norm, zero_state

UNITARY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModeUnitary:
    """m x m complex unitary acting on the mode creation operators."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.dim}")
        _require_unitary(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def _expansion_plan(self):
        """What apply_unitary needs of the matrix, read once per unitary.

        Returns (pick_active, pick_passive, layout, rows, columns,
        array_photons): pickers for the active and passive entries of an
        occupation; the reordering that puts passive + active entries back
        in mode order (tuple when that order is already the mode order),
        as a callable and as column indices (None for the mode order); the
        active rows restricted to the active columns (the only columns
        where they are nonzero) as (active index, entry) pairs of their
        nonzero entries; and the active photon numbers whose expansion
        takes the numpy path.
        """
        m = self.dim
        rows = self.matrix.tolist()
        cols = list(zip(*rows))
        active, passive = [], []
        unit = [0j] * m
        for i in range(m):
            unit[i] = 1 + 0j
            (active if rows[i] != unit or cols[i] != tuple(unit) else passive).append(i)
            unit[i] = 0j
        order = passive + active
        layout, columns = tuple, None
        if order != list(range(m)):
            columns = sorted(range(m), key=order.__getitem__)
            layout = itemgetter(*columns)
        pick_active = _picker(active)
        nonzero = [[(b, c) for b, c in enumerate(pick_active(rows[i])) if c] for i in active]
        densest = max(map(len, nonzero), default=0)
        return pick_active, _picker(passive), layout, nonzero, columns, _array_photons(len(active), densest)


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
    return ModeUnitary(m, np.eye(m, dtype=complex))


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
    _check_pair(m, i, j)
    mat = np.eye(m, dtype=complex)
    _set_coupler(mat, i, j, theta, phase)
    return ModeUnitary(m, mat)


def _set_coupler(mat: np.ndarray, i: int, j: int, theta: float, phase: float):
    """Write the coupler block on (i, j) into mat, which holds the identity there."""
    c, s = math.cos(theta), math.sin(theta)
    mat[i, i] = c
    mat[i, j] = np.exp(1j * phase) * s
    mat[j, i] = -np.exp(-1j * phase) * s
    mat[j, j] = c


def phase_shifter(m: int, i: int, phase: float) -> ModeUnitary:
    if i < 0 or i >= m:
        raise ValueError(f"mode {i} out of range for {m} modes")
    mat = np.eye(m, dtype=complex)
    mat[i, i] = np.exp(1j * phase)
    return ModeUnitary(m, mat)


def hadamard_pair(m: int, i: int, j: int) -> ModeUnitary:
    """Balanced symmetric mixer (1/sqrt2)[[1, 1], [1, -1]] on modes (i, j)."""
    _check_pair(m, i, j)
    r = 1.0 / math.sqrt(2.0)
    mat = np.eye(m, dtype=complex)
    mat[i, i] = r
    mat[i, j] = r
    mat[j, i] = r
    mat[j, j] = -r
    return ModeUnitary(m, mat)


def mode_permutation(m: int, perm) -> ModeUnitary:
    """Routing unitary sending the photon in mode i to perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"{perm} is not a permutation of 0..{m - 1}")
    mat = np.zeros((m, m), dtype=complex)
    for i, p in enumerate(perm):
        mat[i, p] = 1.0
    return ModeUnitary(m, mat)


def haar_random_unitary(m: int, seed: int) -> ModeUnitary:
    """Haar-distributed unitary, deterministic for a fixed seed."""
    return haar_from_rng(m, np.random.default_rng(seed))


def haar_from_rng(m: int, rng: np.random.Generator) -> ModeUnitary:
    if m < 1:
        raise ValueError("mode count must be positive")
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
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return ProjectorSpec(v / np.linalg.norm(v))


def _check_pair(m: int, i: int, j: int):
    if i == j:
        raise ValueError("the two modes must differ")
    for k in (i, j):
        if k < 0 or k >= m:
            raise ValueError(f"mode {k} out of range for {m} modes")


# Sub-occupations whose expansion may reach this many monomials take the
# numpy path, and output maps of at least this many terms are pruned and
# wrapped with numpy; below these sizes the Python loops are faster.
_ARRAY_MIN_MONOMIALS = 64
_ARRAY_MIN_TERMS = 16
# The numpy path keeps exponent vectors as int64 keys and monomial
# factorial products as int64, exact up to 20!.
_ARRAY_MAX_PHOTONS = 20


def apply_unitary(s: FockState, u: ModeUnitary) -> FockState:
    """Evolve a state through a mode unitary.

    Each term's photons on the active modes are expanded by substituting
    their creation operators and collecting monomials, once per distinct
    active sub-occupation; each monomial is then spliced into the term's
    passive photons. Photon number per term and the overall norm are
    preserved. Amplitudes at or below PRUNE_TOL are dropped, the rest are
    np.complex128, and a photon-free input term passes through unchanged.

    A sub-occupation takes the numpy path when its expansion may reach
    _ARRAY_MIN_MONOMIALS monomials, a bound read from its photon number,
    the active mode count and the densest active row, and its keys and
    factorial products fit int64; otherwise the dict loop. The numpy path
    keeps the dict loop's roundings: each complex product is two real
    ufunc expressions, re = ar*br - ai*bi and im = ar*bi + ai*br, as
    CPython computes it (numpy's complex multiply rounds differently);
    sums start from 0.0 and add in the dict loop's order; and a complex
    times a float x is taken as CPython 3.10-3.13 does it, by promoting x
    to complex(x, 0.0), so re*x - im*0.0 and re*0.0 + im*x, which keeps
    the signs of zero. Keys, term order and every amplitude bit are the
    same on either path.
    """
    if u.dim != s.modes:
        raise ValueError(f"unitary dim {u.dim} does not match state modes {s.modes}")
    pick_active, pick_passive, layout, rows, columns, array_photons = u._expansion_plan
    expansions: dict[Occupation, tuple] = {}
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        sub = pick_active(occ)
        expansion = expansions.get(sub)
        if expansion is None:
            expand = _expand_arrays if sum(sub) in array_photons else _expand
            expansion = expansions[sub] = expand(sub, rows)
        passive = pick_passive(occ)
        passive_fact = math.prod(map(math.factorial, passive))
        # amp * coeff * out_norm / in_norm in Python complex arithmetic,
        # which rounds as np.complex128 scalars do; numpy divides a complex
        # by a float through the float's reciprocal.
        inv_norm = 1.0 / math.sqrt(passive_fact * expansion[0])
        amp = complex(amp)
        if type(expansion) is _ArrayExpansion:
            keys, amps = _splice_arrays(expansion, amp, passive, passive_fact, inv_norm, columns)
            if len(s.terms) == 1:
                # One term's keys are distinct, so each sum is 0j + value;
                # the term holds photons, so there is no photon-free term.
                return _trusted(s.modes, _complex128_terms(keys, amps + 0.0))
            for key, value in zip(keys, amps.tolist()):
                out[key] = out.get(key, 0j) + value
            continue
        for expo, coeff, expo_fact in expansion[1]:
            key = layout(passive + expo)
            out[key] = out.get(key, 0j) + amp * coeff * math.sqrt(passive_fact * expo_fact) * inv_norm
    if len(out) < _ARRAY_MIN_TERMS:
        terms = {key: np.complex128(amp) for key, amp in out.items() if abs(amp) > PRUNE_TOL}
    else:
        terms = _complex128_terms(out, np.fromiter(out.values(), dtype=complex, count=len(out)))
    vacuum = (0,) * s.modes
    if vacuum in terms:
        # The photon-free term passes through with its amplitude's own type.
        terms[vacuum] = 0j + s.terms[vacuum]
    return _trusted(s.modes, terms)


def _complex128_terms(keys, amps: np.ndarray) -> dict:
    """{key: np.complex128(amp)} over the amplitudes above PRUNE_TOL.

    np.hypot gives abs() of a Python complex bit for bit; np.abs of a
    complex array does not.
    """
    keep = np.hypot(amps.real, amps.imag) > PRUNE_TOL
    return dict(zip(compress(keys, keep.tolist()), amps[keep]))


@cache
def _array_photons(active: int, densest: int) -> range:
    """Active photon numbers n whose expansion takes the numpy path.

    n photons on `active` modes, through rows of at most `densest` nonzero
    entries, give at most min(C(active + n - 1, n), densest**n) monomials;
    the numpy path starts where that bound reaches _ARRAY_MIN_MONOMIALS.
    It ends where the keys, n.bit_length() bits per active mode, or the
    factorial products would leave int64.
    """
    if densest < 2 or active < 3:
        return range(0)  # at most n + 1 monomials
    top = _ARRAY_MAX_PHOTONS
    while top and top.bit_length() * active > 63:
        top -= 1
    count = 1
    for n in range(1, top + 1):
        count = count * (active + n - 1) // n
        if min(count, densest**n) >= _ARRAY_MIN_MONOMIALS:
            return range(n, top + 1)
    return range(0)


def _expand(sub: Occupation, rows) -> tuple[int, list]:
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
    monomials = [(expo, coeff, math.prod(map(math.factorial, expo))) for expo, coeff in poly.items()]
    return math.prod(map(math.factorial, sub)), monomials


class _ArrayExpansion(NamedTuple):
    """_expand's result as arrays, monomials in expansion order.

    sub_fact comes first, as in _expand's pair, so apply_unitary reads
    expansion[0] from either.
    """

    sub_fact: int
    expos: tuple  # per active mode, the tuple of its exponents
    re: np.ndarray
    im: np.ndarray
    facts: tuple  # the distinct monomial factorial products, as Python ints
    fact_index: np.ndarray  # each monomial's position in facts


def _expand_arrays(sub: Occupation, rows) -> _ArrayExpansion:
    """_expand with numpy, bit for bit.

    Each photon step lists the candidates (monomial k, row entry b) in
    k-major order, as the dict loop visits them, forms their products as
    real ufunc expressions, and np.bincount adds them into their monomials
    in that order, starting from 0.0, as nxt.get(key, 0j) + x does. Which
    monomial each candidate lands in comes from _expansion_structure.
    """
    steps, entries = [], []
    for n, row in zip(sub, rows):
        if n:
            cols, values = zip(*row)
            steps += [cols] * n
            entries += [(np.array([c.real for c in values]), np.array([c.imag for c in values]))] * n
    slots, expos, facts, fact_index = _expansion_structure(len(sub), tuple(steps))
    re, im = np.ones(1), np.zeros(1)
    for (slot, count), (br, bi) in zip(slots, entries):
        ar, ai = re[:, None], im[:, None]
        re = np.bincount(slot, (ar * br - ai * bi).ravel(), count)
        im = np.bincount(slot, (ar * bi + ai * br).ravel(), count)
    return _ArrayExpansion(math.prod(map(math.factorial, sub)), expos, re, im, facts, fact_index)


@lru_cache(maxsize=8)
def _expansion_structure(width: int, steps: tuple) -> tuple:
    """Where each product of an expansion goes, from its sparsity pattern alone.

    `steps` holds, per photon, the active columns of its row's nonzero
    entries. Returns, per step, each candidate's monomial slot and the
    monomial count; then the final exponent vectors as per-mode tuples,
    and their factorial products as distinct Python ints plus an index.
    An exponent vector is an int64 key with len(steps).bit_length() bits
    per mode, and the keys are numbered in order of first occurrence,
    which is the dict loop's insertion order. Unitaries with the same
    pattern, such as Haar draws of one size, share the result; the eight
    most recent patterns are kept, each about as large as its output.
    """
    bits = len(steps).bit_length()
    shifts = bits * np.arange(width, dtype=np.int64)
    keys = np.zeros(1, dtype=np.int64)
    slots = []
    for cols in steps:
        keys, slot = _first_occurrences((keys[:, None] + (1 << shifts[list(cols)])).ravel())
        slot.setflags(write=False)
        slots.append((slot, len(keys)))
    expos = (keys >> shifts[:, None]) & ((1 << bits) - 1)
    fact_table = np.array([math.factorial(k) for k in range(len(steps) + 1)], dtype=np.int64)
    facts, fact_index = np.unique(fact_table[expos].prod(axis=0), return_inverse=True)
    fact_index.setflags(write=False)
    # Callers share the result, so it holds only tuples and read-only arrays.
    return tuple(slots), tuple(map(tuple, expos.tolist())), tuple(facts.tolist()), fact_index


def _first_occurrences(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct candidates in order of first occurrence, and each candidate's index among them."""
    perm = candidates.argsort()
    ordered = candidates[perm]
    new = np.empty(len(ordered), dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.minimum.reduceat(perm, np.flatnonzero(new))  # each distinct key's first candidate
    is_first = np.zeros(len(perm), dtype=bool)
    is_first[first] = True
    rank = (is_first.cumsum() - 1)[first]
    slot = np.empty(len(perm), dtype=np.intp)
    slot[perm] = rank[new.cumsum() - 1]
    return candidates[is_first], slot


def _splice_arrays(
    expansion: _ArrayExpansion, amp: complex, passive, passive_fact: int, inv_norm: float, columns
) -> tuple[list, np.ndarray]:
    """The dict loop's splice of one term: its output keys and amplitudes.

    amp * coeff * sqrt(passive_fact * expo_fact) * inv_norm is evaluated
    left to right with CPython's roundings (see apply_unitary). The square
    roots are taken in Python on exact integers, once per distinct
    factorial product.
    """
    ar, ai = amp.real, amp.imag
    re = ar * expansion.re - ai * expansion.im
    im = ar * expansion.im + ai * expansion.re
    scale = np.array([math.sqrt(passive_fact * f) for f in expansion.facts])[expansion.fact_index]
    re, im = re * scale - im * 0.0, re * 0.0 + im * scale
    amps = np.empty(len(re), dtype=complex)
    amps.real = re * inv_norm - im * 0.0
    amps.imag = re * 0.0 + im * inv_norm
    occupations = [(n,) * len(re) for n in passive] + list(expansion.expos)
    if columns is not None:
        occupations = [occupations[c] for c in columns]
    return list(zip(*occupations)), amps


def apply_projector(s: FockState, p: ProjectorSpec) -> tuple[FockState, float]:
    """Detect one photon in the mode superposition p.

    Returns the renormalized post-detection state and the detection
    weight |Pi s|^2. For states holding at most one photon across the
    support of p the weight is the detection probability. A vanished
    branch comes back as the flagged zero state with weight 0.
    """
    if p.modes != s.modes:
        raise ValueError(f"projector length {p.modes} does not match state modes {s.modes}")
    phi_conj = np.conj(p.phi)
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        for h, n in enumerate(occ):
            if n == 0 or phi_conj[h] == 0:
                continue
            lowered = occ[:h] + (n - 1,) + occ[h + 1 :]
            out[lowered] = out.get(lowered, 0j) + amp * phi_conj[h] * math.sqrt(n)
    projected = _pruned(s.modes, out)
    weight = norm(projected) ** 2
    if weight == 0.0:
        return zero_state(s.modes), 0.0
    return _pruned(s.modes, {o: a / math.sqrt(weight) for o, a in projected.terms.items()}), weight
