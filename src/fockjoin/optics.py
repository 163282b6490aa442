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

All functions are pure; unitaries and projectors validate themselves on
construction and keep a private read-only copy of their array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .fock import PRUNE_TOL, FockState, Occupation, _picker, _trusted, _pruned, norm, zero_state

UNITARY_ATOL = 1e-10


@dataclass(frozen=True)
class ModeUnitary:
    """m x m complex unitary acting on the mode creation operators."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.dim}")
        defect = np.max(np.abs(mat @ mat.conj().T - np.eye(self.dim)))
        if defect > UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary (max defect {defect:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def _expansion_plan(self):
        """What apply_unitary needs of the matrix, read once per unitary.

        Returns (pick_active, pick_passive, layout, rows): pickers for the
        active and passive entries of an occupation, the reordering that
        puts passive + active entries back in mode order (tuple when that
        order is already the mode order), and the active rows restricted
        to the active columns (the only columns where they are nonzero)
        as (active index, entry) pairs of their nonzero entries.
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
        layout = tuple if order == list(range(m)) else itemgetter(*sorted(range(m), key=order.__getitem__))
        pick_active = _picker(active)
        nonzero = [[(b, c) for b, c in enumerate(pick_active(rows[i])) if c] for i in active]
        return pick_active, _picker(passive), layout, nonzero


@dataclass(frozen=True)
class ProjectorSpec:
    """Normalized mode superposition defining a one-photon detection."""

    phi: np.ndarray

    def __post_init__(self):
        vec = np.array(self.phi, dtype=complex).reshape(-1)
        defect = abs(np.sum(np.abs(vec) ** 2) - 1.0)
        if defect > UNITARY_ATOL:
            raise ValueError(f"projector vector is not normalized (defect {defect:.3e})")
        vec.setflags(write=False)
        object.__setattr__(self, "phi", vec)

    @property
    def modes(self) -> int:
        return len(self.phi)


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
    return ModeUnitary(m, _coupler_matrix(m, i, j, theta, phase))


def _coupler_matrix(m: int, i: int, j: int, theta: float, phase: float) -> np.ndarray:
    """The beamsplitter matrix, built without checks for hot loops."""
    mat = np.eye(m, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    mat[i, i] = c
    mat[i, j] = np.exp(1j * phase) * s
    mat[j, i] = -np.exp(-1j * phase) * s
    mat[j, j] = c
    return mat


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
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return ModeUnitary(m, q)


def random_projector(m: int, rng: np.random.Generator) -> ProjectorSpec:
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return ProjectorSpec(v / np.linalg.norm(v))


def unitary_to_dict(u: ModeUnitary) -> dict:
    return {"dim": u.dim, "re": u.matrix.real.tolist(), "im": u.matrix.imag.tolist()}


def unitary_from_dict(data: dict) -> ModeUnitary:
    try:
        dim = int(data["dim"])
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed unitary object: {exc}") from exc
    return ModeUnitary(dim, mat)


def _check_pair(m: int, i: int, j: int):
    if i == j:
        raise ValueError("the two modes must differ")
    for k in (i, j):
        if k < 0 or k >= m:
            raise ValueError(f"mode {k} out of range for {m} modes")


def apply_unitary(s: FockState, u: ModeUnitary) -> FockState:
    """Evolve a state through a mode unitary.

    Each term's photons on the active modes are expanded by substituting
    their creation operators and collecting monomials, once per distinct
    active sub-occupation; each monomial is then spliced into the term's
    passive photons. Photon number per term and the overall norm are
    preserved.
    """
    if u.dim != s.modes:
        raise ValueError(f"unitary dim {u.dim} does not match state modes {s.modes}")
    pick_active, pick_passive, layout, rows = u._expansion_plan
    expansions: dict[Occupation, tuple] = {}
    out: dict[Occupation, complex] = {}
    for occ, amp in s.terms.items():
        sub = pick_active(occ)
        expansion = expansions.get(sub)
        if expansion is None:
            expansion = expansions[sub] = _expand(sub, rows)
        sub_fact, monomials = expansion
        passive = pick_passive(occ)
        passive_fact = math.prod(map(math.factorial, passive))
        # amp * coeff * out_norm / in_norm in Python complex arithmetic,
        # which rounds as np.complex128 scalars do; numpy divides a complex
        # by a float through the float's reciprocal.
        inv_norm = 1.0 / math.sqrt(passive_fact * sub_fact)
        amp = complex(amp)
        for expo, coeff, expo_fact in monomials:
            key = layout(passive + expo)
            out[key] = out.get(key, 0j) + amp * coeff * math.sqrt(passive_fact * expo_fact) * inv_norm
    terms = {key: np.complex128(amp) for key, amp in out.items() if abs(amp) > PRUNE_TOL}
    vacuum = (0,) * s.modes
    if vacuum in terms:
        # The photon-free term passes through with its amplitude's own type.
        terms[vacuum] = 0j + s.terms[vacuum]
    return _trusted(s.modes, terms)


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
