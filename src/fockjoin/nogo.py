"""Certification that two-photon linear-optical joining cannot work.

A two-photon input carrying four amplitudes on two mode pairs is pushed
through an arbitrary mode unitary and then hit with a one-photon
detection. Bosonic symmetrization forces the surviving one-photon state
into the span of four "symmetrized" output modes whose 4 x m coefficient
matrix always has rank at most 3: the 4 x 4 core matrix has identically
vanishing determinant. This module checks that three independent ways:

* exact symbolic expansion of the core determinant (zero polynomial),
* randomized scans over Haar unitaries and random detections,
* derivative-free adversarial maximization of the smallest singular value.

A full-rank control scan and a third-singular-value objective validate
that the scans would notice a counterexample if one existed.

Both scans give trial i its own generator, default_rng(seed + i), and
draw per trial; the QR, the symmetrized rows and the SVD then run over
numpy stacks of trials, in chunks of a fixed number of matrix entries, so
memory does not grow with the trial budget. Each trial's arithmetic is
the one it would get alone (LAPACK factors each matrix of a stack
separately, and the detection is normalized per trial), so certificates
are bit-identical to a per-trial loop and independent of the chunking.

The adversarial search's objective avoids numpy's per-call cost on 4 x 4
arrays: one Givens routine builds the rows of the parameterized unitary
in Python complex scalars, coupler by coupler, and the same scalars give
the detection and the four symmetrized rows, so only the SVD runs in
numpy. unitary_from_angles and projector_from_params are numpy arrays of
those same routines, so the parameterization has one definition. The
scalar products agree with the matrix products of earlier versions to
about 1e-15 of sigma_max but not bit for bit, so search certificates
differ from theirs in the last bits and never in the verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .fock import make_state
from .optics import (
    ModeUnitary,
    ProjectorSpec,
    _haar_from_normals,
    _require_normalized,
    _require_unitary,
    apply_projector,
    apply_unitary,
)

# sigma_min above this is a counterexample; double-precision SVD noise sits
# around 1e-13, five decades below.
RANK_THRESHOLD = 1e-8

VERDICT_RANK_DEFICIENT = "rank-deficient"
VERDICT_COUNTEREXAMPLE = "counterexample-found"


def _mode_pairs(logical_modes):
    """The four (first-qubit, second-qubit) logical mode pairs, in row order."""
    la, lb, lc, ld = logical_modes
    return ((la, lc), (la, ld), (lb, lc), (lb, ld))


# The pairs of logical modes 0-3, which the core, the scans and the search use.
_CORE_PAIRS = _mode_pairs((0, 1, 2, 3))
# Entry (r, c) of the core: the index of the conjugated detection component
# there, or None for a structural zero. Row r, for pair (x, y), is
# pc[y] * u[x] + pc[x] * u[y], so with u = 1 it holds pc[y] at x and pc[x] at y.
_CORE_PATTERN = tuple(tuple({x: y, y: x}.get(c) for c in range(4)) for x, y in _CORE_PAIRS)


@dataclass(frozen=True)
class NogoCertificate:
    """Result of a scan or a search.

    A scan's argmax_seed replays its best trial: trial i draws from
    default_rng(seed + i). A search's is seed + r for its best restart r,
    which that seed does not replay: all restarts draw from default_rng(seed).
    """

    trials: int
    max_sigma_min: float
    argmax_seed: int
    optimizer_iterations: int
    verdict: str


def _certify(trials: int, max_sigma: float, argmax_seed: int, iterations: int) -> NogoCertificate:
    verdict = VERDICT_COUNTEREXAMPLE if max_sigma > RANK_THRESHOLD else VERDICT_RANK_DEFICIENT
    return NogoCertificate(trials, float(max_sigma), argmax_seed, iterations, verdict)


def merge_certificates(a: NogoCertificate, b: NogoCertificate) -> NogoCertificate:
    best = a if a.max_sigma_min >= b.max_sigma_min else b
    return _certify(
        a.trials + b.trials,
        best.max_sigma_min,
        best.argmax_seed,
        a.optimizer_iterations + b.optimizer_iterations,
    )


def symmetrized_mode_matrix(phi) -> np.ndarray:
    """The 4x4 coefficient core for detection components phi (length 4)."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if len(phi) != 4:
        raise ValueError("expected four detection components")
    return _core_matrices(np.conj(phi))


def _core_matrices(pc: np.ndarray) -> np.ndarray:
    """Core matrices for conjugated detections pc of shape (..., 4)."""
    mats = np.zeros(pc.shape[:-1] + (4, 4), dtype=complex)
    for r, row in enumerate(_CORE_PATTERN):
        for c, sym in enumerate(row):
            if sym is not None:
                mats[..., r, c] = pc[..., sym]
    return mats


def symbolic_core_determinant(pattern=_CORE_PATTERN) -> dict[tuple[int, int, int, int], int]:
    """Exact permutation expansion of the core determinant.

    Monomials are exponent vectors over the four conjugated detection
    components with integer coefficients. The result is empty: the
    determinant is the zero polynomial, independent of the detection.
    """
    terms: dict[tuple[int, int, int, int], int] = {}
    for perm in permutations(range(4)):
        symbols = [pattern[r][perm[r]] for r in range(4)]
        if any(s is None for s in symbols):
            continue
        expo = [0, 0, 0, 0]
        for s in symbols:
            expo[s] += 1
        sign = _permutation_sign(perm)
        key = tuple(expo)
        coeff = terms.get(key, 0) + sign
        if coeff == 0:
            terms.pop(key, None)
        else:
            terms[key] = coeff
    return terms


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def max_abs_core_determinant(samples: int, seed: int) -> float:
    """Largest |det| of the core over random normalized detections."""
    rng = np.random.default_rng(seed)
    phis = rng.standard_normal((samples, 4)) + 1j * rng.standard_normal((samples, 4))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    return float(np.max(np.abs(np.linalg.det(_core_matrices(np.conj(phis))))))


def symmetrized_modes(u: ModeUnitary, phi: ProjectorSpec, logical_modes=(0, 1, 2, 3)) -> np.ndarray:
    """The 4 x m coefficients of the four surviving output modes over the physical modes.

    For logical modes (a, b) holding one qubit and (c, d) the other, the
    four modes pair up as (a,c), (a,d), (b,c), (b,d): detecting one photon
    of the pair leaves the other in either member, weighted by the
    conjugated detection amplitude of its partner.
    """
    la, lb, lc, ld = (int(i) for i in logical_modes)
    if len({la, lb, lc, ld}) != 4:
        raise ValueError("logical modes must be distinct")
    m = u.dim
    if phi.modes != m or max(la, lb, lc, ld) >= m or min(la, lb, lc, ld) < 0:
        raise ValueError("dimension mismatch between unitary, detection and logical modes")
    return _symmetrized_rows(u.matrix, np.conj(phi.phi), (la, lb, lc, ld))


def _symmetrized_rows(u: np.ndarray, pc: np.ndarray, logical_modes) -> np.ndarray:
    """Unchecked row formula behind symmetrized_modes; pc is the conjugated detection.

    Also takes stacks: u of shape (..., m, m) with pc of shape (..., m).
    """
    rows = np.empty(u.shape[:-2] + (4, u.shape[-1]), dtype=complex)
    for k, (x, y) in enumerate(_mode_pairs(logical_modes)):
        rows[..., k, :] = pc[..., y, None] * u[..., x, :] + pc[..., x, None] * u[..., y, :]
    return rows


def _require_budget(m: int, trials: int):
    # Four rows in fewer than four dimensions never have rank 4, and a
    # certificate from no trials would report max_sigma_min -1.
    if m < 4:
        raise ValueError("need at least four modes")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


# A chunk holds about this many complex entries per stacked m x m array, so
# a scan's memory does not grow with its trial budget.
_CHUNK_ENTRIES = 1 << 15


def _chunk_trials(m: int) -> int:
    """Trials per stacked chunk: 2048 at m = 4, 910 at m = 6."""
    return max(1, _CHUNK_ENTRIES // (m * m))


def _scan(sigmas_of, draws: int, m: int, trials: int, seed: int) -> NogoCertificate:
    """Max sigma_min over trials seed, seed + 1, ..., one chunk at a time.

    Trial s fills one row of the chunk with the first `draws` standard
    normals of default_rng(s); sigmas_of(rows, m) returns the chunk's
    sigma_min per trial. The first of equal maxima wins.
    """
    _require_budget(m, trials)
    best = -1.0
    best_seed = seed
    end = seed + trials
    chunk = _chunk_trials(m)
    for start in range(seed, end, chunk):
        seeds = range(start, min(start + chunk, end))
        normals = np.empty((len(seeds), draws))
        for row, trial_seed in zip(normals, seeds):
            np.random.default_rng(trial_seed).standard_normal(out=row)
        sigmas = sigmas_of(normals, m)
        if not np.isfinite(sigmas).all():
            bad = seeds[int(np.argmin(np.isfinite(sigmas)))]
            raise ValueError(f"non-finite singular value in trial seed {bad}")
        k = int(np.argmax(sigmas))
        if sigmas[k] > best:
            best, best_seed = float(sigmas[k]), seeds[k]
    return _certify(trials, best, best_seed, 0)


def _haar_trial_sigmas(normals: np.ndarray, m: int) -> np.ndarray:
    """sigma_min of symmetrized_modes(haar_from_rng(m, rng), random_projector(m, rng)) per row."""
    n, mm = len(normals), m * m
    u = _haar_from_normals(normals[:, :mm].reshape(n, m, m), normals[:, mm : 2 * mm].reshape(n, m, m))
    _require_unitary(u)
    v = normals[:, 2 * mm : 2 * mm + m] + 1j * normals[:, 2 * mm + m :]
    # One norm per trial: a stacked norm sums in another order.
    phi = v / np.array([np.linalg.norm(x) for x in v])[:, None]
    _require_normalized(phi)
    rows = _symmetrized_rows(u, np.conj(phi), (0, 1, 2, 3))
    return np.linalg.svd(rows, compute_uv=False)[:, -1]


def _control_trial_sigmas(normals: np.ndarray, m: int) -> np.ndarray:
    """sigma_min of four independent random unit rows over m modes, per row."""
    n = len(normals)
    rows = normals[:, : 4 * m].reshape(n, 4, m) + 1j * normals[:, 4 * m :].reshape(n, 4, m)
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return np.linalg.svd(rows, compute_uv=False)[:, -1]


def rank_scan(m: int, trials: int, seed: int = 0) -> NogoCertificate:
    """Max sigma_min over Haar unitaries and random detections.

    Trial i draws a Haar unitary and then a detection from its own
    generator default_rng(seed + i). The draws are made per trial; the QR,
    the symmetrized rows and the SVD run over stacks of trials, one chunk
    at a time (a few MB whatever the budget). Every trial gets the bits it
    would get on its own, so the certificate, argmax_seed included, does
    not depend on the chunking. A non-finite singular value raises
    ValueError rather than reading as rank-deficient.
    """
    return _scan(_haar_trial_sigmas, 2 * m * m + 2 * m, m, trials, seed)


def rank_scan_control(m: int, trials: int, seed: int = 0) -> NogoCertificate:
    """Sensitivity control: four independent random rows instead.

    A fictitious evolution free to pick four unconstrained output modes
    produces full-rank coefficient sets, so the scan must flag a
    counterexample; this validates that the scan threshold would catch
    a real violation. Seeds, chunks and checks are those of rank_scan.
    """
    return _scan(_control_trial_sigmas, 8 * m, m, trials, seed)


def _finite_params(params, size: int) -> list[float]:
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != size:
        raise ValueError(f"expected {size} parameters, got {params.size}")
    if not np.isfinite(params).all():
        raise ValueError("parameters must be finite")
    return params.tolist()


def _givens_rows(params: list[float], m: int, rows) -> list[list[complex]]:
    """Rows of the parameterized unitary, as lists of Python complex scalars.

    params holds a (theta, phase) pair per coupler (i, j), i < j in
    row-major order, then m final phases. The unitary is the product of
    the couplers in that order times diag(exp(1j * phases)), so row r is
    the unit vector e_r pushed through the couplers one at a time, each
    updating entries i and j, and then scaled entry by entry.
    """
    couplers = []
    idx = 0
    for i in range(m):
        for j in range(i + 1, m):
            c, s = math.cos(params[idx]), math.sin(params[idx])
            cp, sp = math.cos(params[idx + 1]), math.sin(params[idx + 1])
            # Block [[c, e^{i phase} s], [-e^{-i phase} s, c]] on rows and columns (i, j).
            couplers.append((i, j, c, complex(cp * s, sp * s), complex(-cp * s, sp * s)))
            idx += 2
    phases = [complex(math.cos(p), math.sin(p)) for p in params[idx:]]
    out = []
    for r in rows:
        v = [0j] * m
        v[r] = 1 + 0j
        for i, j, c, upper, lower in couplers:
            vi, vj = v[i], v[j]
            v[i] = c * vi + lower * vj
            v[j] = upper * vi + c * vj
        out.append([a * p for a, p in zip(v, phases)])
    return out


def _detection(params: list[float], m: int) -> list[complex]:
    """Normalized detection from m real then m imaginary parts; e_0 if their norm is below 1e-12."""
    n = math.hypot(*params)
    if n < 1e-12:
        return [1 + 0j] + [0j] * (m - 1)
    return [complex(re / n, im / n) for re, im in zip(params[:m], params[m:])]


def unitary_from_angles(params, m: int) -> np.ndarray:
    """Unitary from m*m finite real parameters: Givens rotations plus phases."""
    return np.array(_givens_rows(_finite_params(params, m * m), m, range(m)))


def projector_from_params(params, m: int) -> np.ndarray:
    """Normalized detection vector from 2m finite, otherwise unconstrained reals."""
    return np.array(_detection(_finite_params(params, 2 * m), m))


def _objective_sigma(x: np.ndarray, m: int, singular_index: int) -> float:
    """One singular value of the symmetrized rows on logical modes 0-3.

    Built in Python scalars from the same routines as unitary_from_angles
    and projector_from_params, and unchecked: numpy calls on 4 x 4 arrays
    and constructor validation would dominate the optimizer's inner loop.
    """
    params = x.tolist()
    u = _givens_rows(params[: m * m], m, range(4))
    pc = [z.conjugate() for z in _detection(params[m * m :], m)]
    rows = [[pc[b] * ua + pc[a] * ub for ua, ub in zip(u[a], u[b])] for a, b in _CORE_PAIRS]
    return float(np.linalg.svd(np.array(rows), compute_uv=False)[singular_index])


def adversarial_search(
    m: int,
    restarts: int = 20,
    iterations: int = 500,
    seed: int = 0,
    singular_index: int = 3,
) -> NogoCertificate:
    """Derivative-free maximization of a singular value of the mode set.

    Maximizing sigma_min (singular_index 3) hunts for a counterexample
    and comes back empty; maximizing the third singular value instead
    confirms the optimizer has traction (rank 3 is generic). Each restart
    runs Nelder-Mead from a uniform draw of default_rng(seed), for at most
    `iterations` iterations. A NaN objective value raises ValueError
    rather than being skipped by the max. argmax_seed is seed + r for the
    best restart r, and does not replay it (see NogoCertificate).

    The objective is built in Python complex scalars (see the module
    docstring). It is the matrix-product objective of earlier versions to
    about 1e-15 of sigma_max, so verdicts are unchanged, but the optimizer
    follows those rounding differences: max_sigma_min, argmax_seed and
    optimizer_iterations differ in their bits from earlier versions, and
    repeat exactly for a given seed.
    """
    if m < 4:
        raise ValueError("need at least four modes")
    if not 0 <= singular_index <= 3:
        raise ValueError(f"singular_index must be in 0..3, got {singular_index}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    # Imported here, not at module level: scipy.optimize is slow to load.
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    dim = m * m + 2 * m
    best = -1.0
    best_restart = 0
    total_iters = 0
    for r in range(restarts):
        x0 = rng.uniform(-math.pi, math.pi, dim)
        tracker = {"best": -1.0}

        def fun(x, tracker=tracker, restart=seed + r):
            val = _objective_sigma(x, m, singular_index)
            if math.isnan(val):
                raise ValueError(f"NaN objective value in restart {restart}")
            if val > tracker["best"]:
                tracker["best"] = val
            return -val

        result = minimize(
            fun,
            x0,
            method="Nelder-Mead",
            options={"maxiter": iterations, "xatol": 1e-12, "fatol": 1e-14},
        )
        total_iters += int(result.nit)
        if tracker["best"] > best:
            best, best_restart = tracker["best"], seed + r
    return _certify(restarts, best, best_restart, total_iters)


def end_to_end_projection_check(alpha, u: ModeUnitary, phi: ProjectorSpec, logical_modes=(0, 1, 2, 3)) -> float:
    """Max amplitude gap between the full simulation and the analytic span.

    Builds the two-photon input, evolves it, applies the detection, and
    compares the unnormalized one-photon output term by term against the
    linear combination of symmetrized modes weighted by the input
    amplitudes. Agreement certifies the bosonic bookkeeping end to end.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    if len(alpha) != 4:
        raise ValueError("expected four input amplitudes")
    if not abs(np.sum(np.abs(alpha) ** 2) - 1.0) <= 1e-8:
        raise ValueError("input amplitudes must be normalized")
    m = u.dim
    if phi.modes != m:
        raise ValueError("detection length must match the unitary dimension")

    terms = []
    for a_k, (x, y) in zip(alpha, _mode_pairs(logical_modes)):
        occ = [0] * m
        occ[x], occ[y] = 1, 1
        terms.append((tuple(occ), a_k))
    state = make_state(m, terms)

    propagated = apply_unitary(state, u)
    # The detection addresses propagated modes; express it over the
    # physical modes the simulator tracks.
    physical = ProjectorSpec(u.matrix.T @ phi.phi)
    projected, weight = apply_projector(propagated, physical)

    simulated = np.zeros(m, dtype=complex)
    extra = 0.0
    scale = math.sqrt(weight)
    for occ, amp in projected.terms.items():
        if sum(occ) == 1:
            simulated[occ.index(1)] = amp * scale
        else:
            extra = max(extra, abs(amp) * scale)

    analytic = alpha @ symmetrized_modes(u, phi, logical_modes)
    return float(max(np.max(np.abs(simulated - analytic)), extra))
