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

Both scans give trial i the normals of its own generator,
default_rng(seed + i), without building that generator: one numpy pass per
chunk of trials runs numpy's SeedSequence hashing over all the chunk's
seeds at once and derives each trial's PCG64 state, and one reused
Generator is set to each state in turn and draws that trial's normals. The
rows are bit-identical to default_rng(seed + i).standard_normal (the
algorithms are O'Neill's PCG64 and numpy's SeedSequence, whose streams
NumPy NEP 19 keeps stable). On a 2-core x86-64 VM with Python 3.11 and
numpy 2.4.6 the hashing costs about 0.35 us per trial (0.7 ms for a chunk
of 2048 at m = 4), and the rest (the PCG64 seeding step, the state setter
and the draws) about 3 us per trial, against about 10 us for a default_rng
call and its draws. The QR, the symmetrized rows and the SVD then run
over numpy stacks of trials, in chunks of a fixed number of matrix
entries, so memory does not grow with the trial budget. Each trial's
arithmetic is the one it would get alone (LAPACK factors each matrix of a
stack separately, and _row_norms gives each detection the norm
np.linalg.norm gives its row alone), so certificates are bit-identical to
a per-trial loop and independent of the chunking.

The adversarial search runs an in-repo Nelder-Mead that takes scipy's
steps to the bit; the tests check it against scipy.optimize.minimize, and
the package imports no scipy at all. Its objective avoids numpy's per-call
cost on 4 x 4 arrays. Row k of the core C holds pc[b] at mode a and pc[a]
at mode b for pair (a, b), so row k of C U is that row pushed through the
couplers of U. One coupler formula (_coupler) defines the
parameterization: the Givens routine pushes rows through it in Python
complex scalars (unitary_from_angles pushes the unit rows), and the batch
objective pushes the rows of a whole simplex through it in float64 arrays
with the same bits (optics._complex_product). The SVD calls the LAPACK
gufunc (zgesdd without vectors) behind np.linalg.svd(rows,
compute_uv=False), minus numpy's wrapper: on the same VM, about 5 us per
random complex 4 x 4 call against 9 us. The objective agrees with a numpy
matrix-product evaluation to about 1e-15 of sigma_max, not bit for bit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations, cycle, permutations, starmap

import numpy as np
from numpy.linalg import _umath_linalg

from .fock import _indices, _integers, _mode_count, _on_basis, is_normalized
from .optics import (
    ModeUnitary,
    ProjectorSpec,
    _complex_product,
    _detected,
    _haar_from_normals,
    _require_normalized,
    _require_unitary,
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
# The pattern as the objectives read it: row r of the core is _CORE_ROWS[r](pc[:4] + [0j]), and part q of its
# entry at mode c is entry _CORE_PARTS[q, c, r] of the concatenation (Re pc[:4], Im pc[:4], 0).
_CORE_ROWS = tuple(operator.itemgetter(*(4 if k is None else k for k in row)) for row in _CORE_PATTERN)
_CORE_PARTS = np.array([[[8 if k is None else 4 * q + k for k in col] for col in zip(*_CORE_PATTERN)] for q in (0, 1)])


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
    """The one constructor: numpy integer budgets and seeds are stored as Python ints, which JSON can write."""
    verdict = VERDICT_COUNTEREXAMPLE if max_sigma > RANK_THRESHOLD else VERDICT_RANK_DEFICIENT
    return NogoCertificate(int(trials), float(max_sigma), int(argmax_seed), int(iterations), verdict)


def merge_certificates(a: NogoCertificate, b: NogoCertificate) -> NogoCertificate:
    best = a if a.max_sigma_min >= b.max_sigma_min else b
    return _certify(
        a.trials + b.trials,
        best.max_sigma_min,
        best.argmax_seed,
        a.optimizer_iterations + b.optimizer_iterations,
    )


def symmetrized_mode_matrix(phi) -> np.ndarray:
    """The 4x4 coefficient core for detection components phi: four finite numbers, not necessarily normalized."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if len(phi) != 4:
        raise ValueError("expected four detection components")
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise ValueError(f"detection components {bad.tolist()} are not finite: {phi[bad].tolist()}")
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
    _require_budget(seed, samples=samples)
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
    logical_modes = _indices(logical_modes, "logical modes", u.dim, distinct=True, count=4)
    if phi.modes != u.dim:
        raise ValueError(f"detection has {phi.modes} modes, unitary has {u.dim}")
    return _symmetrized_rows(u.matrix, np.conj(phi.phi), logical_modes)


def _symmetrized_rows(u: np.ndarray, pc: np.ndarray, logical_modes) -> np.ndarray:
    """Unchecked row formula behind symmetrized_modes; pc is the conjugated detection.

    Also takes stacks: u of shape (..., m, m) with pc of shape (..., m).
    """
    rows = np.empty(u.shape[:-2] + (4, u.shape[-1]), dtype=complex)
    for k, (x, y) in enumerate(_mode_pairs(logical_modes)):
        rows[..., k, :] = pc[..., y, None] * u[..., x, :] + pc[..., x, None] * u[..., y, :]
    return rows


def _require_count(name: str, value, least: int, message: str | None = None) -> int:
    """value as a Python int of at least least: a float budget would run a rounded-up number of steps.

    A non-integer is worded by fock._integers, the package's integer rule.
    """
    (count,) = _integers([value], name)
    if count < least:
        raise ValueError(message or f"{name} must be at least {least}, got {count}")
    return count


def _require_budget(seed, m=None, **counts) -> int:
    """The budget check of every entry point: m of at least 4 modes, each count at least 1, a seed of at least 0.

    Each failure raises ValueError naming its argument. Returns the seed as a
    Python int, since seed + i on a numpy integer seed wraps past its width.
    """
    if m is not None:
        # Four rows in fewer than four dimensions never have rank 4.
        _require_count("m", m, 4, "need at least four modes")
    # A certificate from no trials would report max_sigma_min -1.
    for name, value in counts.items():
        _require_count(name, value, 1)
    return _require_count("seed", seed, 0)


# A chunk holds about this many complex entries per stacked m x m array, so
# a scan's memory does not grow with its trial budget.
_CHUNK_ENTRIES = 1 << 15


def _chunk_trials(m: int) -> int:
    """Trials per stacked chunk: 2048 at m = 4, 910 at m = 6."""
    return max(1, _CHUNK_ENTRIES // (m * m))


# numpy's SeedSequence, with its pool of four 32-bit words, and PCG64's seeding
# step. NumPy NEP 19 keeps both streams fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_words(start: int, n: int) -> np.ndarray:
    """The little-endian 32-bit words of the seeds start, ..., start + n - 1, as an (n, w) uint32 array.

    Row i is (start + i).to_bytes, zero-padded to w >= 4 words: SeedSequence's
    split of an int into entropy words, which NumPy NEP 19 keeps fixed. A
    seed has word j > 0 only if that word or a later one is nonzero.
    """
    size = 4 * max(4, -(-(start + n - 1).bit_length() // 32))
    data = b"".join([s.to_bytes(size, "little") for s in range(start, start + n)])
    return np.frombuffer(data, dtype="<u4").reshape(n, -1)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants init * mult**k mod 2**32 for k = 0, ..., count, as uint32."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)], dtype=np.uint32)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column of v, column c with constants consts[c] and consts[c + 1]; uint32 wraps."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words, elementwise; uint32 wraps."""
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> 16)


def _trial_states(start: int, n: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of default_rng(s) for s = start, ..., start + n - 1.

    SeedSequence(s).generate_state(4, uint64), for all n seeds at once and
    in numpy's order of hashmix calls, so call k uses the k-th hash
    constant; the calls that do not depend on each other run as columns of
    one array operation. Word j past the fourth is mixed in only where a
    seed has it: where words[:, j:] is not all zero. PCG64's seeding step
    then runs per seed in Python ints.
    """
    words = _seed_words(start, n)
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * words.shape[1])
    pool = _hashmix(words[:, :4], consts[:5])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], consts[k : k + 4]))
        k += 3
    for j in range(4, words.shape[1]):
        mixed = _mix(pool, _hashmix(words[:, j, None], consts[k : k + 5]))
        pool = np.where(words[:, j:].any(axis=1)[:, None], mixed, pool)
        k += 4
    # generate_state: output word k hashes pool word k % 4; pairs of words make the four uint64.
    state = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 8))
    pairs = []
    for s0, s1, i0, i1 in state.astype("<u4").view("<u8").tolist():
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        pairs.append((((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc))
    return pairs


def _trial_normals(start: int, n: int, draws: int) -> np.ndarray:
    """Row i is default_rng(start + i).standard_normal(draws), to the bit; no generator is built per row."""
    normals = np.empty((n, draws))
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    # The state setter copies the numbers out, so one dict serves every row.
    pcg = {}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (state, inc) in zip(normals, _trial_states(start, n)):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full_state
        generator.standard_normal(out=row)
    return normals


def _scan(sigmas_of, draws: int, m: int, trials: int, seed: int) -> NogoCertificate:
    """Max sigma_min over trials seed, seed + 1, ..., one chunk at a time.

    Trial s fills one row of the chunk with the first `draws` standard
    normals of default_rng(s), bit for bit (_trial_normals). sigmas_of(rows,
    m) returns the chunk's sigma_min per trial. The first of equal maxima
    wins.
    """
    seed = _require_budget(seed, m, trials=trials)
    best = -1.0
    best_seed = seed
    end = seed + trials
    chunk = _chunk_trials(m)
    for start in range(seed, end, chunk):
        seeds = range(start, min(start + chunk, end))
        sigmas = sigmas_of(_trial_normals(start, len(seeds), draws), m)
        if not np.isfinite(sigmas).all():
            bad = seeds[int(np.argmin(np.isfinite(sigmas)))]
            raise ValueError(f"non-finite singular value in trial seed {bad}")
        k = int(np.argmax(sigmas))
        if sigmas[k] > best:
            best, best_seed = float(sigmas[k]), seeds[k]
    return _certify(trials, best, best_seed, 0)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of the complex (n, m) stack v, with its bits.

    np.linalg.norm(row) is sqrt(row.real . row.real + row.imag . row.imag);
    np.vecdot takes those dot products a row at a time in the same order,
    where norm(v, axis=1) and np.einsum sum otherwise.
    """
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _haar_trial_sigmas(normals: np.ndarray, m: int) -> np.ndarray:
    """sigma_min of symmetrized_modes(haar_from_rng(m, rng), random_projector(m, rng)) per row."""
    n, mm = len(normals), m * m
    u = _haar_from_normals(normals[:, :mm].reshape(n, m, m), normals[:, mm : 2 * mm].reshape(n, m, m))
    _require_unitary(u)
    v = normals[:, 2 * mm : 2 * mm + m] + 1j * normals[:, 2 * mm + m :]
    phi = v / _row_norms(v)[:, None]
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
    generator default_rng(seed + i), bit for bit, without building it (see
    the module docstring). The QR, the symmetrized rows and the SVD run
    over stacks of trials, one chunk at a time (a few MB whatever the
    budget). Every trial gets the bits it would get on its own, so the
    certificate, argmax_seed included, does not depend on the chunking. A
    non-finite singular value raises ValueError rather than reading as
    rank-deficient.
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


def _coupler(c, s, cp, sp):
    """A coupler from the cosines and sines of its theta (c, s) and phase (cp, sp): (c, Re upper, Im upper, Re lower, Im lower).

    The parameters hold a (theta, phase) pair per coupler (i, j), i < j in
    row-major order, then m final phases. Coupler (i, j) is the block
    [[c, upper], [lower, c]] = [[c, e^{i phase} s], [-e^{-i phase} s, c]] on
    rows and columns (i, j); the unitary is the product of the couplers in
    order times diag(exp(1j * phases)). Floats for one coupler or arrays over
    couplers and points: the products give the same bits.
    """
    upper_re, im = cp * s, sp * s
    return c, upper_re, im, -upper_re, im


def _givens_rows(params: list[float], m: int, rows: list[list[complex]]) -> np.ndarray:
    """The rows v of rows pushed through the parameterized unitary, v @ U, as a complex array; rows is used up.

    v @ U is v pushed through the couplers one at a time, each updating
    entries i and j of rows in place, and then scaled entry by entry by the
    phases. The unit rows e_r give the rows of U. A coupler's entries are
    built once as complex scalars, c as complex(c, 0.0): the product CPython
    3.10-3.13 takes for a float times a complex, and the one the batch
    objective writes out.
    """
    cos, sin = list(map(math.cos, params)), list(map(math.sin, params))
    e = m * (m - 1)
    blocks = map(_coupler, cos[0:e:2], sin[0:e:2], cos[1:e:2], sin[1:e:2])
    for (i, j), (c, upper_re, upper_im, lower_re, lower_im) in zip(combinations(range(m), 2), blocks):
        c, upper, lower = complex(c, 0.0), complex(upper_re, upper_im), complex(lower_re, lower_im)
        for v in rows:
            vi, vj = v[i], v[j]
            v[i] = c * vi + lower * vj
            v[j] = upper * vi + c * vj
    entries = map(operator.mul, chain.from_iterable(rows), cycle(map(complex, cos[e:], sin[e:])))
    return np.fromiter(entries, complex, len(rows) * m).reshape(len(rows), m)


def _detection(params: list[float], m: int) -> tuple[list[float], float]:
    """A detection's m real then m imaginary parts and the norm they are divided by; e_0's if their norm is below 1e-12."""
    n = math.hypot(*params)
    if n < 1e-12:
        return [1.0] + [0.0] * (2 * m - 1), 1.0
    return params, n


def unitary_from_angles(params, m: int) -> np.ndarray:
    """Unitary from m*m finite real parameters: Givens rotations plus phases."""
    m = _mode_count(m)
    return _givens_rows(_finite_params(params, m * m), m, np.eye(m, dtype=complex).tolist())


def projector_from_params(params, m: int) -> np.ndarray:
    """Normalized detection vector from 2m finite, otherwise unconstrained reals."""
    m = _mode_count(m)
    parts, n = _detection(_finite_params(params, 2 * m), m)
    return np.array([complex(re / n, im / n) for re, im in zip(parts[:m], parts[m:])])


# The gufunc np.linalg.svd(a, compute_uv=False) calls in numpy 2.x: LAPACK's zgesdd without vectors under the
# signature "D->d", one matrix of a stack at a time, so each gets the bits it gets alone. A failed matrix gets
# NaN values (and raises numpy's invalid flag, which adversarial_search ignores).
_singular_values = _umath_linalg.svd


def _checked(sigma: float) -> float:
    """A singular value from _singular_values; NaN, what a failed SVD leaves, raises LinAlgError rather than being read as a value."""
    if math.isnan(sigma):
        raise np.linalg.LinAlgError("SVD did not converge")
    return sigma


def _objective_sigma(x: np.ndarray, m: int, singular_index: int) -> float:
    """One singular value of the symmetrized rows C U on logical modes 0-3 (see the module docstring).

    Unchecked: numpy calls on 4 x 4 arrays and constructor validation would
    dominate the optimizer's inner loop. The core rows are pushed by
    _givens_rows in Python complex scalars, and one gufunc call takes the
    4 x m result: about 24 us per call at m = 4 on the VM of the module
    docstring, 5 us of it the SVD.
    """
    params = x.tolist()
    parts, n = _detection(params[m * m :], m)
    # The conjugated detection on logical modes 0-3, then the zero _CORE_ROWS reads for a structural zero.
    pc = [complex(re / n, -im / n) for re, im in zip(parts[:4], parts[m : m + 4])] + [0j]
    tail = [0j] * (m - 4)
    starts = [[*row(pc), *tail] for row in _CORE_ROWS]
    return _checked(_singular_values(_givens_rows(params[: m * m], m, starts), signature="D->d").item(singular_index))


def _objective_sigmas(x: np.ndarray, m: int, singular_index: int):
    """_objective_sigma of each row of x, in order, as an iterator; the core rows of all points are pushed at once.

    The trig is math's and the detections are _detection's (a hypot per
    point, one division for all). Entry [q, e, r, p] of the pushed array is
    part q (real, imaginary) of entry e of row r of point p. Each coupler
    multiplies its [c, upper, lower, c] from _coupler into entries
    [i, i, j, j] in one _complex_product, a float c as complex(c, 0.0), and
    the final phases multiply through it too, so every matrix, and so every
    value, has the bits _objective_sigma gives. One call of the gufunc
    takes the (n, 4, m) stack, saving its per-call cost n - 1 times: about
    9 us per point for a simplex of 25 at m = 4 on the VM of the module
    docstring. The values are checked as the iterator is read, so a failed
    SVD raises LinAlgError at its own point, and no later value reaches the
    caller, as with a loop of _objective_sigma calls.
    """
    n, mm, e = len(x), m * m, m * (m - 1)
    angles = x[:, :mm].T.ravel().tolist()
    cos = np.fromiter(map(math.cos, angles), float, mm * n).reshape(mm, n)
    sin = np.fromiter(map(math.sin, angles), float, mm * n).reshape(mm, n)
    params = x[:, mm:]
    norms = np.fromiter(starmap(math.hypot, params.tolist()), float, n)
    fallback = norms < 1e-12
    parts = (params / np.where(fallback, 1.0, norms)[:, None]).T
    parts[:, fallback] = np.eye(2 * m, 1)
    v = np.zeros((2, m, 4, n))
    v[:, :4] = np.concatenate((parts[:4], -parts[m : m + 4], np.zeros((1, n))))[_CORE_PARTS]
    c, upper_re, upper_im, lower_re, lower_im = _coupler(cos[0:e:2], sin[0:e:2], cos[1:e:2], sin[1:e:2])
    zero = np.zeros_like(c)
    # [coupler, part, c upper lower c, row, point]: repeated over the rows, as whole arrays multiply faster.
    coeffs = np.array(((c, upper_re, lower_re, c), (zero, upper_im, lower_im, zero))).transpose(2, 0, 1, 3)
    for (i, j), (cr, ci) in zip(combinations(range(m), 2), coeffs[:, :, :, None].repeat(4, 3)):
        # [c vi, upper vi, lower vj, c vj]: v[i] = c vi + lower vj and v[j] = upper vi + c vj.
        pr, pi = _complex_product(cr, ci, *v.take((i, i, j, j), 1))
        v[0, i : j + 1 : j - i] = pr[:2] + pr[2:]
        v[1, i : j + 1 : j - i] = pi[:2] + pi[2:]
    re, im = _complex_product(v[0], v[1], cos[e:, None], sin[e:, None])
    rows = np.empty((n, 4, m), dtype=complex)
    rows.real, rows.imag = re.T, im.T
    return map(_checked, _singular_values(rows, signature="D->d")[:, singular_index].tolist())


def _nelder_mead(x0: np.ndarray, objective, objectives, maxiter: int, restart: int) -> tuple[float, int]:
    """Maximize objective from x0: (the largest value evaluated, the iteration count nit).

    objective(x) is the value at one point; objectives(xs) yields the value
    at each row of xs, in order, with the bits objective gives.

    This is scipy 1.17's _minimize_neldermead on -value, step for step, for
    the options the search uses: rho 1, chi 2, psi 1/2, sigma 1/2 (not
    adaptive), start steps 0.05 and 0.00025, xatol 1e-12, fatol 1e-14, at
    most maxiter iterations, unbounded evaluations, no bounds. Each numpy
    expression computes scipy's arrays, the argsorts included, so the search
    takes the same steps to the bit; the method forms (fsim.argsort(),
    sim.take, .max()) only skip numpy's Python wrappers, and the tolerance
    test reads one entry first, since the maximum exceeds xatol whenever it
    does; rho is 1, so its multiplications, exact, are left out. The initial
    simplex and each shrink are evaluated as one batch through objectives;
    reflections, expansions and contractions one point at a time. Each value
    is checked as it arrives: a NaN raises ValueError naming the restart, in
    evaluation order. The best point evaluated stays in the simplex (a step
    keeps the better of xr and xe, a shrink keeps vertex 0), which every
    iteration leaves sorted, so the largest value is -fsim[0].
    """
    chi, psi, sigma = 2, 0.5, 0.5

    def minus(value: float) -> float:
        """The minimized -value of one value: a NaN raises."""
        if math.isnan(value):
            raise ValueError(f"NaN objective value in restart {restart}")
        return -value

    def f(x):
        return minus(objective(x))

    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, (1 + 0.05) * x0, 0.00025))
    fsim = np.array(list(map(minus, objectives(sim))))
    # scipy sorts twice here; equal values can move again in the second sort.
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (
            abs(sim[1, 0] - sim[0, 0]) <= 1e-12
            and np.abs(sim[1:] - sim[0]).max() <= 1e-12
            and np.abs(fsim[0] - fsim[1:]).max() <= 1e-14
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = f(xc)
                shrink = fxc > fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                shrink = fxc >= fsim[-1]
            if shrink:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = list(map(minus, objectives(sim[1:])))
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return -fsim[0], iterations


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

    Nelder-Mead (_nelder_mead) and the objective are those of the module
    docstring; a failed SVD raises LinAlgError at its own point, whatever
    numpy's error state or the warning filters say. max_sigma_min,
    argmax_seed and optimizer_iterations repeat exactly for a given seed.
    """
    seed = _require_budget(seed, m, restarts=restarts, iterations=iterations)
    (singular_index,) = _integers([singular_index], "singular_index")
    if not 0 <= singular_index <= 3:
        raise ValueError(f"singular_index must be in 0..3, got {singular_index}")
    rng = np.random.default_rng(seed)
    dim = m * m + 2 * m
    best = -1.0
    best_restart = 0
    total_iters = 0

    def objective(x):
        return _objective_sigma(x, m, singular_index)

    def objectives(xs):
        return _objective_sigmas(xs, m, singular_index)

    # np.linalg.svd ignores the floating-point flags LAPACK leaves and turns the invalid flag of a failed SVD
    # into LinAlgError. Here the failed SVD's NaN values raise LinAlgError, so every flag is ignored: a warning
    # filter must not turn one into a RuntimeWarning first.
    with np.errstate(all="ignore"):
        for r in range(restarts):
            top, nit = _nelder_mead(rng.uniform(-math.pi, math.pi, dim), objective, objectives, iterations, seed + r)
            total_iters += nit
            if top > best:
                best, best_restart = top, seed + r
    return _certify(restarts, best, best_restart, total_iters)


def end_to_end_projection_check(alpha, u: ModeUnitary, phi: ProjectorSpec, logical_modes=(0, 1, 2, 3)) -> float:
    """Max amplitude gap between the full simulation and the analytic span.

    Builds the two-photon input, evolves it, applies the detection, and
    compares the unnormalized one-photon output term by term against the
    linear combination of symmetrized modes weighted by the input
    amplitudes. Agreement certifies the bosonic bookkeeping end to end.
    The analytic rows come from one symmetrized_modes call, which checks
    the logical modes and the detection length before the input is built.
    """
    alpha = np.asarray(alpha, dtype=object).reshape(-1)
    if len(alpha) != 4:
        raise ValueError("expected four input amplitudes")
    logical_modes = tuple(logical_modes)
    rows = symmetrized_modes(u, phi, logical_modes)
    m = u.dim
    state = _on_basis(m, [tuple(int(j in pair) for j in range(m)) for pair in _mode_pairs(logical_modes)], alpha)
    if not is_normalized(state):
        raise ValueError("input amplitudes must be normalized")

    propagated = apply_unitary(state, u)
    # The detection addresses propagated modes; express it over the
    # physical modes the simulator tracks.
    physical = ProjectorSpec(u.matrix.T @ phi.phi)
    simulated = np.zeros(m, dtype=complex)
    extra = 0.0
    for occ, amp in _detected(propagated, physical).terms.items():
        if sum(occ) == 1:
            simulated[occ.index(1)] = amp
        else:
            extra = max(extra, abs(amp))

    analytic = alpha.astype(complex) @ rows
    return float(max(np.max(np.abs(simulated - analytic)), extra))
