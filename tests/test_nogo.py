import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockjoin import nogo
from fockjoin.cli import canonical_json
from fockjoin.nogo import (
    RANK_THRESHOLD,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_RANK_DEFICIENT,
    adversarial_search,
    end_to_end_projection_check,
    max_abs_core_determinant,
    merge_certificates,
    projector_from_params,
    rank_scan,
    rank_scan_control,
    symbolic_core_determinant,
    symmetrized_mode_matrix,
    symmetrized_modes,
    unitary_from_angles,
)
from fockjoin.optics import ProjectorSpec, haar_from_rng, haar_random_unitary, identity, random_projector
from test_cli import _PINNED_SEARCH_BUILD


def normalized_phi(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def singular_values(rows):
    return np.linalg.svd(rows, compute_uv=False)


# The core written out by hand, the reference for the pattern nogo derives
# from its mode pairs: entry (r, c) holds the index of the conjugated
# detection component appearing there, or None for a structural zero.
HAND_CORE_PATTERN = (
    (2, None, 0, None),
    (3, None, None, 0),
    (None, 2, 1, None),
    (None, 3, None, 1),
)


def test_derived_core_pattern_matches_hand_table():
    assert nogo._CORE_PATTERN == HAND_CORE_PATTERN


def test_symmetrized_modes_of_identity_follow_core_pattern():
    # The structure the scans simulate is the one the symbolic proof covers.
    rng = np.random.default_rng(69)
    phi = normalized_phi(rng, 4)
    rows = symmetrized_modes(identity(4), ProjectorSpec(phi))
    pc = np.conj(phi)
    for r, row in enumerate(HAND_CORE_PATTERN):
        for c, sym in enumerate(row):
            if sym is None:
                assert rows[r, c] == 0
            else:
                assert rows[r, c] != 0 and rows[r, c] == pc[sym]


def test_core_matrix_substitution():
    mat = symmetrized_mode_matrix([1, 0, 0, 0])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = 1
    assert np.array_equal(mat, expected)


def test_core_matrix_structure_generic():
    rng = np.random.default_rng(70)
    phi = normalized_phi(rng, 4)
    mat = symmetrized_mode_matrix(phi)
    pc = np.conj(phi)
    assert mat[0, 0] == pc[2] and mat[0, 2] == pc[0]
    assert mat[1, 0] == pc[3] and mat[1, 3] == pc[0]
    assert mat[2, 1] == pc[2] and mat[2, 2] == pc[1]
    assert mat[3, 1] == pc[3] and mat[3, 3] == pc[1]



@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
def test_core_matrix_rejects_non_finite_detection_components(bad):
    with pytest.raises(ValueError, match=r"^detection components \[0\] are not finite"):
        symmetrized_mode_matrix([bad, 0, 0, 1])
    with pytest.raises(ValueError, match=r"^detection components \[1, 3\] are not finite"):
        symmetrized_mode_matrix([0.5, bad, 0, bad])

def test_symbolic_determinant_is_the_zero_polynomial():
    assert symbolic_core_determinant() == {}


def test_symbolic_expansion_detects_nonzero_patterns():
    # Sanity on the expander itself: breaking one structural zero makes
    # the determinant a nonzero polynomial.
    broken = (
        (2, 0, 0, None),
        (3, None, None, 0),
        (None, 2, 1, None),
        (None, 3, None, 1),
    )
    assert symbolic_core_determinant(broken) != {}


def test_numeric_determinants_vanish():
    assert max_abs_core_determinant(10_000, seed=71) < 1e-12


def test_random_core_matrix_determinant_single_case():
    rng = np.random.default_rng(72)
    phi = normalized_phi(rng, 4)
    assert abs(np.linalg.det(symmetrized_mode_matrix(phi))) < 1e-12


def test_symmetrized_modes_identity_unitary_reduces_to_core():
    rng = np.random.default_rng(73)
    phi = normalized_phi(rng, 4)
    rows = symmetrized_modes(identity(4), ProjectorSpec(phi))
    assert np.allclose(rows, symmetrized_mode_matrix(phi), atol=1e-14)


def test_symmetrized_modes_rank_at_most_three():
    rng = np.random.default_rng(74)
    for m, seed in ((4, 100), (8, 101)):
        u = haar_random_unitary(m, seed)
        phi = ProjectorSpec(normalized_phi(rng, m))
        sigmas = singular_values(symmetrized_modes(u, phi))
        assert sigmas[-1] < RANK_THRESHOLD
        assert np.sum(sigmas > 1e-9) <= 3
        # Rank 3 is generic when the detection touches the logical modes.
        assert sigmas[2] > 1e-6


def test_symmetrized_modes_degenerate_detection_rank_two():
    phi = ProjectorSpec([1, 0, 0, 0])
    assert np.sum(singular_values(symmetrized_modes(identity(4), phi)) > 1e-9) == 2


def kernel_input(pc):
    """The input every two-photon herald loses: (pc_b, -pc_a) (x) (pc_d, -pc_c), a zero pair's factor (1, 0).

    pc is the conjugated detection on logical modes (a, b, c, d); entry k multiplies row k of the
    symmetrized modes, whose rows are the pairs (a, c), (a, d), (b, c), (b, d).
    """
    first = (pc[1], -pc[0]) if pc[0] or pc[1] else (1, 0)
    second = (pc[3], -pc[2]) if pc[2] or pc[3] else (1, 0)
    return np.kron(first, second)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(4, 8), seed=st.integers(0, 2**32 - 1), zeros=st.sets(st.integers(0, 3)))
def test_the_closed_form_input_is_annihilated(m, seed, zeros):
    # Row k of symmetrized_modes is pc_y u_x + pc_x u_y for pair (x, y); the lambda combination cancels
    # term by term, whatever u is, so the residual is rounding alone.
    assume(m > 4 or len(zeros) < 4)
    rng = np.random.default_rng(seed)
    u = haar_from_rng(m, rng)
    phi = normalized_phi(rng, m)
    phi[sorted(zeros)] = 0
    phi /= np.linalg.norm(phi)
    lam = kernel_input(np.conj(phi[:4]))
    assert np.linalg.norm(lam) > 0
    residual = np.linalg.norm(lam @ symmetrized_modes(u, ProjectorSpec(phi)))
    assert residual <= 1e-14 * np.linalg.norm(lam), (residual, np.linalg.norm(lam))


def test_rank_scan_rank_deficient():
    cert = rank_scan(4, trials=500, seed=75)
    assert cert.verdict == VERDICT_RANK_DEFICIENT
    assert cert.max_sigma_min < RANK_THRESHOLD
    assert cert.trials == 500


def test_rank_scan_control_finds_full_rank():
    cert = rank_scan_control(4, trials=100, seed=76)
    assert cert.verdict == VERDICT_COUNTEREXAMPLE
    assert cert.max_sigma_min > 1e-3


def test_merge_certificates_max_reduction():
    a = rank_scan(4, trials=50, seed=77)
    b = rank_scan_control(4, trials=50, seed=78)
    merged = merge_certificates(a, b)
    assert merged.trials == 100
    assert merged.max_sigma_min == b.max_sigma_min
    assert merged.verdict == VERDICT_COUNTEREXAMPLE


@pytest.mark.parametrize("sigma, verdict", [(1e-6, VERDICT_COUNTEREXAMPLE), (1e-12, VERDICT_RANK_DEFICIENT)])
def test_rank_threshold_parts_svd_noise_from_a_counterexample(sigma, verdict):
    # SVD noise sits near 1e-13; a sigma_min of 1e-6 is a full-rank map, however small.
    assert nogo._certify(1, sigma, 0, 0).verdict == verdict


def test_unitary_parameterization_is_unitary():
    rng = np.random.default_rng(79)
    for m in (3, 4, 5):
        u = unitary_from_angles(rng.uniform(-np.pi, np.pi, m * m), m)
        assert np.max(np.abs(u @ u.conj().T - np.eye(m))) < 1e-12


def test_projector_parameterization_is_normalized():
    rng = np.random.default_rng(80)
    v = projector_from_params(rng.standard_normal(8), 4)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    fallback = projector_from_params(np.zeros(8), 4)
    assert abs(np.linalg.norm(fallback) - 1.0) < 1e-12


def test_adversarial_search_finds_nothing():
    cert = adversarial_search(4, restarts=4, iterations=200, seed=81)
    assert cert.verdict == VERDICT_RANK_DEFICIENT
    assert cert.max_sigma_min < RANK_THRESHOLD
    assert cert.optimizer_iterations > 0


def test_adversarial_search_third_singular_value_has_traction():
    cert = adversarial_search(4, restarts=2, iterations=200, seed=82, singular_index=2)
    assert cert.max_sigma_min > 0.1


def test_end_to_end_identity_unitary_branch_structure():
    rng = np.random.default_rng(83)
    alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    alpha /= np.linalg.norm(alpha)
    phi = ProjectorSpec([0, 0, 1, 0])
    deviation = end_to_end_projection_check(alpha, identity(4), phi)
    assert deviation < 1e-12
    rows = symmetrized_modes(identity(4), phi)
    analytic = alpha @ rows
    assert np.allclose(analytic, [alpha[0], alpha[2], 0, 0], atol=1e-12)


def test_end_to_end_single_amplitude_follows_one_row():
    rng = np.random.default_rng(84)
    u = haar_random_unitary(4, 300)
    phi = ProjectorSpec(normalized_phi(rng, 4))
    deviation = end_to_end_projection_check([1, 0, 0, 0], u, phi)
    assert deviation < 1e-12


def test_end_to_end_agreement_on_random_draws():
    rng = np.random.default_rng(85)
    worst = 0.0
    for k in range(20):
        m = 4 if k % 2 == 0 else 6
        u = haar_random_unitary(m, 400 + k)
        phi = random_projector(m, np.random.default_rng(500 + k))
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha /= np.linalg.norm(alpha)
        worst = max(worst, end_to_end_projection_check(alpha, u, phi))
    assert worst < 1e-10


def test_end_to_end_respects_custom_logical_modes():
    rng = np.random.default_rng(86)
    u = haar_random_unitary(6, 600)
    phi = random_projector(6, np.random.default_rng(601))
    alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    alpha /= np.linalg.norm(alpha)
    assert end_to_end_projection_check(alpha, u, phi, logical_modes=(1, 3, 0, 5)) < 1e-10


def test_dimension_checks_raise():
    with pytest.raises(ValueError):
        symmetrized_modes(identity(4), ProjectorSpec([1, 0, 0, 0, 0]) )
    with pytest.raises(ValueError):
        rank_scan(3, trials=1)
    with pytest.raises(ValueError):
        end_to_end_projection_check([1, 0, 0, 0], identity(4), ProjectorSpec([1, 0, 0]))


@pytest.mark.parametrize("scan", [rank_scan, rank_scan_control])
@pytest.mark.parametrize("trials", [0, -3])
def test_scans_reject_empty_trial_budgets(scan, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        scan(4, trials=trials)


def test_adversarial_search_rejects_empty_budgets():
    for restarts in (0, -1):
        with pytest.raises(ValueError, match=f"restarts must be at least 1, got {restarts}"):
            adversarial_search(4, restarts=restarts, iterations=10)
    with pytest.raises(ValueError, match="iterations must be at least 1"):
        adversarial_search(4, restarts=1, iterations=0)


def test_scans_reject_fewer_than_four_modes():
    for scan in (rank_scan, rank_scan_control):
        for m in (1, 3):
            with pytest.raises(ValueError, match="need at least four modes"):
                scan(m, trials=10)


@pytest.mark.parametrize("singular_index", [7, 4, -1])
def test_adversarial_search_rejects_singular_index_out_of_range(singular_index):
    with pytest.raises(ValueError, match=f"singular_index must be in 0..3, got {singular_index}"):
        adversarial_search(4, restarts=1, iterations=10, singular_index=singular_index)


# --- per-trial references for the stacked scans ---------------------------------
#
# The scans draw per trial and stack the linear algebra; these loops are the
# per-trial form they replace. Certificates must be equal, not close. They are
# compared in-process: LAPACK bits may differ between builds.


def reference_haar_sigmas(m, trials, seed):
    sigmas = []
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        u = haar_from_rng(m, rng)
        phi = random_projector(m, rng)
        sigmas.append(float(singular_values(symmetrized_modes(u, phi))[-1]))
    return sigmas


def reference_control_sigmas(m, trials, seed):
    sigmas = []
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        rows = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        sigmas.append(float(np.linalg.svd(rows, compute_uv=False)[-1]))
    return sigmas


def reference_certificate(sigmas, seed):
    """The per-trial max reduction: only a strictly larger sigma wins."""
    best, best_seed = -1.0, seed
    for i, sigma in enumerate(sigmas):
        if sigma > best:
            best, best_seed = sigma, seed + i
    verdict = VERDICT_COUNTEREXAMPLE if best > RANK_THRESHOLD else VERDICT_RANK_DEFICIENT
    return len(sigmas), best, best_seed, verdict


def certificate_fields(cert):
    return cert.trials, cert.max_sigma_min, cert.argmax_seed, cert.verdict


SCAN_REFERENCES = ((rank_scan, reference_haar_sigmas), (rank_scan_control, reference_control_sigmas))


@pytest.mark.parametrize("m, seed", [(4, 1201), (5, 0), (6, 93_417)])
def test_scans_match_per_trial_reference_across_chunks(m, seed):
    chunk = nogo._chunk_trials(m)
    counts = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)
    for scan, reference in SCAN_REFERENCES:
        sigmas = reference(m, max(counts), seed)
        for trials in counts:
            expected = reference_certificate(sigmas[:trials], seed)
            assert certificate_fields(scan(m, trials, seed=seed)) == expected, (scan.__name__, trials)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_scans_match_per_trial_reference_with_tiny_chunks(monkeypatch, m):
    # Chunks of three trials put many chunk boundaries into small budgets.
    monkeypatch.setattr(nogo, "_CHUNK_ENTRIES", 3 * m * m)
    assert nogo._chunk_trials(m) == 3
    for seed in (0, 7, 2 ** 40):
        for scan, reference in SCAN_REFERENCES:
            sigmas = reference(m, 17, seed)
            for trials in (1, 2, 3, 4, 17):
                expected = reference_certificate(sigmas[:trials], seed)
                assert certificate_fields(scan(m, trials, seed=seed)) == expected, (scan.__name__, seed, trials)



# Seeds where numpy's entropy words change count or carry: 2**32 and 2**64
# add a word, 2**128 starts a word past SeedSequence's pool of four.
SEED_BOUNDARIES = (0, 2**32, 2**64, 2**128)


@settings(max_examples=60, deadline=None)
@given(
    start=st.one_of(
        st.sampled_from(SEED_BOUNDARIES).flatmap(lambda b: st.integers(max(0, b - 9), b + 9)),
        st.integers(2**200, 2**300),
    ),
    n=st.integers(1, 9),
    draws=st.sampled_from(sorted({8 * m for m in range(4, 9)} | {2 * m * m + 2 * m for m in range(4, 9)})),
)
def test_chunk_seeding_matches_default_rng_bit_for_bit(start, n, draws):
    rows = nogo._trial_normals(start, n, draws)
    expected = np.array([np.random.default_rng(start + i).standard_normal(draws) for i in range(n)])
    assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("boundary", SEED_BOUNDARIES[1:])
@pytest.mark.parametrize("m", [4, 5])
def test_scans_match_per_trial_reference_across_seed_boundaries(monkeypatch, m, boundary):
    # Chunks of three trials: the boundary falls inside a chunk and between two.
    monkeypatch.setattr(nogo, "_CHUNK_ENTRIES", 3 * m * m)
    for seed in (boundary - 4, boundary - 3):
        for scan, reference in SCAN_REFERENCES:
            expected = reference_certificate(reference(m, 8, seed), seed)
            assert certificate_fields(scan(m, 8, seed=seed)) == expected, (scan.__name__, seed)

def test_haar_from_rng_matches_qr_recipe():
    for m in (1, 2, 4, 7):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            assert np.array_equal(haar_from_rng(m, np.random.default_rng(seed)).matrix, q * (d / np.abs(d)))


def test_scan_ties_keep_the_first_trial_across_chunks(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv=True: np.full(a.shape[:-1], 0.5))
    for scan in (rank_scan, rank_scan_control):
        cert = scan(4, 2 * nogo._chunk_trials(4) + 1, seed=40)
        assert (cert.max_sigma_min, cert.argmax_seed) == (0.5, 40)


def test_scan_raises_on_non_finite_singular_value(monkeypatch):
    svd = np.linalg.svd

    def nan_at_trial_5(a, compute_uv=True):
        s = svd(a, compute_uv=compute_uv)
        s[5, -1] = np.nan
        return s

    monkeypatch.setattr(np.linalg, "svd", nan_at_trial_5)
    for scan in (rank_scan, rank_scan_control):
        with pytest.raises(ValueError, match="non-finite singular value in trial seed 105"):
            scan(4, 10, seed=100)


def test_rank_scan_checks_unitaries_and_detections(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(nogo, "_haar_from_normals", lambda re, im: 1.5 * (re + 1j * im))
        with pytest.raises(ValueError, match="matrix is not unitary"):
            rank_scan(4, 3)
    norms = nogo._row_norms
    monkeypatch.setattr(nogo, "_row_norms", lambda v: 2.0 * norms(v))
    with pytest.raises(ValueError, match="projector vector is not normalized"):
        rank_scan(4, 3)


@pytest.mark.parametrize("m", range(4, 9))
def test_the_stacked_detection_norms_give_the_bytes_of_numpys_norm(m):
    # A trial normalizes its detection by np.linalg.norm of that row alone; norm(v, axis=1) and np.einsum
    # sum in another order and differ in the last bit on about a fifth of the rows.
    rng = np.random.default_rng(900 + m)
    stack = rng.standard_normal((600, m)) + 1j * rng.standard_normal((600, m))
    for rows in (stack[:1], stack):
        got = nogo._row_norms(rows)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([np.linalg.norm(row) for row in rows]).tobytes()


def test_rank_scan_memory_does_not_grow_with_trials():
    m = 6
    chunk = nogo._chunk_trials(m)
    chunk_buffer = chunk * m * m * np.dtype(complex).itemsize
    rank_scan(m, 2)
    tracemalloc.start()
    try:
        rank_scan(m, 4 * chunk, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One chunk peaks near 5.5 such buffers; four chunks at once would need 20.
    assert peak < 8 * chunk_buffer


# --- the scalar objective against its matrix-product form -----------------------
#
# unitary_from_angles, projector_from_params and the search objective are built
# in Python complex scalars. These are the numpy matrix products they replace.
# Rounding differs, so agreement is checked to a tolerance, not bit for bit.


def fresh_coupler_unitary_from_angles(params, m):
    params = np.asarray(params, dtype=float)
    mat = np.eye(m, dtype=complex)
    idx = 0
    for i in range(m):
        for j in range(i + 1, m):
            coupler = np.eye(m, dtype=complex)
            c, s = math.cos(params[idx]), math.sin(params[idx])
            coupler[i, i] = c
            coupler[i, j] = np.exp(1j * params[idx + 1]) * s
            coupler[j, i] = -np.exp(-1j * params[idx + 1]) * s
            coupler[j, j] = c
            mat = mat @ coupler
            idx += 2
    return mat @ np.diag(np.exp(1j * params[idx:]))


def reference_projector_from_params(params, m):
    vec = params[:m] + 1j * params[m:]
    n = np.linalg.norm(vec)
    if n < 1e-12:
        vec = np.zeros(m, dtype=complex)
        vec[0] = 1.0
        return vec
    return vec / n


def reference_singular_values(x, m):
    """All four singular values the search objective picks from, by matrix products."""
    u = fresh_coupler_unitary_from_angles(x[: m * m], m)
    pc = np.conj(reference_projector_from_params(x[m * m :], m))
    return np.linalg.svd(nogo._symmetrized_rows(u, pc, (0, 1, 2, 3)), compute_uv=False)


def assert_objective_matches_reference(x, m):
    """Each of the four singular values within 2e-15 sigma_max of the reference.

    The limit scales with sigma_max, not with each value: sigma_min is rounding
    noise around an exact zero.
    """
    reference = reference_singular_values(x, m)
    for k in range(4):
        gap = abs(nogo._objective_sigma(x, m, k) - reference[k])
        assert gap <= 2e-15 * reference[0], (k, gap, reference[0])


def test_unitary_from_angles_matches_fresh_coupler_product():
    rng = np.random.default_rng(88)
    for k in range(2400):
        m = 2 + k % 5
        params = rng.uniform(-4.0, 4.0, m * m)
        gap = np.max(np.abs(unitary_from_angles(params, m) - fresh_coupler_unitary_from_angles(params, m)))
        assert gap <= 1e-15, (k, gap)


def test_unitary_from_angles_is_pinned():
    # The search objective pushes the core rows through the same couplers; the unit rows keep their bits.
    rng = np.random.default_rng(2113)
    digest = hashlib.sha256()
    for m in range(2, 7):
        for _ in range(40):
            digest.update(unitary_from_angles(rng.uniform(-4.0, 4.0, m * m), m).tobytes())
    assert digest.hexdigest() == "274f24e020733947e3fe2b45fd3529f4353773f27b612a739d96950ee57a295a"


def test_projector_from_params_matches_numpy_form():
    rng = np.random.default_rng(90)
    for m in (4, 5, 6):
        for scale in (1e-13, 1e-6, 1.0, 1e6):
            params = scale * rng.standard_normal(2 * m)
            gap = np.max(np.abs(projector_from_params(params, m) - reference_projector_from_params(params, m)))
            assert gap <= 1e-15, (m, scale, gap)


def test_objective_matches_matrix_product_reference():
    rng = np.random.default_rng(91)
    for k in range(3000):
        m = 4 + k % 3
        assert_objective_matches_reference(rng.uniform(-4.0, 4.0, m * m + 2 * m), m)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 6).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.floats(-10.0, 10.0), min_size=m * m, max_size=m * m),
            st.lists(st.floats(-10.0, 10.0), min_size=2 * m, max_size=2 * m),
        )
    )
)
def test_objective_matches_reference_on_any_finite_parameters(case):
    m, angles, detection = case
    # Away from the fallback threshold, where two norms a rounding apart could take different branches.
    assume(math.hypot(*detection) > 1e-9)
    assert_objective_matches_reference(np.array(angles + detection), m)


def test_seeded_adversarial_search_repeats():
    first = adversarial_search(4, restarts=2, iterations=200, seed=89)
    assert adversarial_search(4, restarts=2, iterations=200, seed=89) == first
    assert first.verdict == VERDICT_RANK_DEFICIENT
    assert first.optimizer_iterations == 400


@pytest.mark.parametrize("builder, size", [(unitary_from_angles, 16), (projector_from_params, 8)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameterizations_reject_non_finite_parameters(builder, size, bad):
    params = np.zeros(size)
    params[size // 2] = bad
    with pytest.raises(ValueError, match="parameters must be finite"):
        builder(params, 4)
    with pytest.raises(ValueError, match="parameters must be finite"):
        builder([bad] * size, 4)


@pytest.mark.parametrize("builder", [unitary_from_angles, projector_from_params])
@pytest.mark.parametrize(
    "m, message",
    [
        (0, "mode count must be positive, got 0"),
        (-1, r"modes \[-1\] out of range"),
        (2.5, r"modes \[2.5\] must hold integers"),
        (2.0, r"modes \[2.0\] must hold integers"),
        (True, r"modes \[True\] must hold integers"),
    ],
)
def test_parameterizations_check_the_mode_count(builder, m, message):
    # The one mode-count rule, before the parameters are counted: no empty unitary, no one-entry detection of
    # zero modes, no "expected 6.25 parameters".
    with pytest.raises(ValueError, match=f"^{message}$"):
        builder(np.zeros(4), m)


def test_parameterizations_take_numpy_integer_mode_counts():
    params = np.random.default_rng(92).uniform(-4.0, 4.0, 40)
    assert unitary_from_angles(params[:25], np.int64(5)).tobytes() == unitary_from_angles(params[:25], 5).tobytes()
    assert projector_from_params(params[:10], np.uint8(5)).tobytes() == projector_from_params(params[:10], 5).tobytes()


def test_adversarial_search_raises_on_nan_objective(monkeypatch):
    # max() and ">" skip NaN, which would read as rank deficiency.
    monkeypatch.setattr(nogo, "_objective_sigma", lambda x, m, k: math.nan)
    with pytest.raises(ValueError, match="NaN objective value in restart 81"):
        adversarial_search(4, restarts=2, iterations=10, seed=81)


_BAD_LOGICAL = [(0, 1.7, 2, 3), (0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 4), (0, 0, 1, 2), (0, 1, 2, 9), (0, 1, 2, 3.5)]


@pytest.mark.parametrize(
    "logical, detection_modes",
    [(logical, 4) for logical in _BAD_LOGICAL] + [((0, 1, 2, 3), 5)],
    ids=[f"logical{i}" for i in range(len(_BAD_LOGICAL))] + ["mismatched detection"],
)
def test_symmetrized_modes_rejects_bad_logical_modes(monkeypatch, logical, detection_modes):
    phi = ProjectorSpec(np.eye(detection_modes)[0])
    with pytest.raises(ValueError, match=r"logical modes|^detection has 5 modes, unitary has 4$") as raised:
        symmetrized_modes(identity(4), phi, logical)
    # The end-to-end check applies the same rules, with the same message, before it builds its input:
    # a repeated logical mode would merge two input terms, which then read as unnormalized.
    def evolve(*args):
        raise AssertionError("apply_unitary called before the logical modes and the detection were checked")

    monkeypatch.setattr(nogo, "apply_unitary", evolve)
    with pytest.raises(ValueError) as again:
        end_to_end_projection_check([1, 0, 0, 0], identity(4), phi, logical)
    assert str(again.value) == str(raised.value)


# --- the in-repo Nelder-Mead against scipy's -------------------------------------
#
# adversarial_search used to run scipy.optimize.minimize(method="Nelder-Mead");
# nogo._nelder_mead repeats its steps. This is that search, kept as the oracle:
# certificates must be equal, not close.


def scipy_search(m, restarts, iterations, seed, singular_index):
    """(max_sigma_min, argmax_seed, optimizer_iterations) of the search on scipy.optimize.minimize."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    best, best_seed, total = -1.0, seed, 0
    for r in range(restarts):
        seen = [-1.0]

        def fun(x, seen=seen):
            value = nogo._objective_sigma(x, m, singular_index)
            seen[0] = max(seen[0], value)
            return -value

        x0 = rng.uniform(-math.pi, math.pi, m * m + 2 * m)
        result = minimize(fun, x0, method="Nelder-Mead", options={"maxiter": iterations, "xatol": 1e-12, "fatol": 1e-14})
        total += int(result.nit)
        if seen[0] > best:
            best, best_seed = seen[0], seed + r
    return best, best_seed, total


# At m = 4 with 500 iterations, singular_index 0 and 3 stop on the xatol/fatol test before the budget.
@pytest.mark.parametrize("m, iterations", [(4, 500), (5, 120), (6, 80)])
@pytest.mark.parametrize("singular_index", [0, 2, 3])
def test_search_takes_scipys_nelder_mead_steps(m, iterations, singular_index):
    for seed, restarts in ((3, 2), (40 + m, 3)):
        cert = adversarial_search(m, restarts=restarts, iterations=iterations, seed=seed, singular_index=singular_index)
        expected = scipy_search(m, restarts, iterations, seed, singular_index)
        assert (cert.max_sigma_min, cert.argmax_seed, cert.optimizer_iterations) == expected, seed


def test_search_of_one_iteration_matches_scipy():
    cert = adversarial_search(4, restarts=2, iterations=1, seed=5)
    assert (cert.max_sigma_min, cert.argmax_seed, cert.optimizer_iterations) == scipy_search(4, 2, 1, 5, 3)
    assert cert.optimizer_iterations == 2


_ANGLES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi, 1e-300]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 6).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.lists(_ANGLES, min_size=m * m + 2 * m, max_size=m * m + 2 * m), min_size=1, max_size=6),
        )
    )
)
def test_batch_objective_has_the_bits_of_the_scalar_objective(case):
    # Values compared by their hex digits; the next test compares the matrices themselves.
    m, points = case
    x = np.array(points)
    for k in range(4):
        batch = list(nogo._objective_sigmas(x, m, k))
        assert [v.hex() for v in batch] == [nogo._objective_sigma(p, m, k).hex() for p in x], k


def test_batch_objective_pushes_zero_angles_and_a_fallback_detection_bit_for_bit(monkeypatch):
    # The matrices themselves, signed zeros included, are compared byte for byte. The batch writes out
    # CPython's float-times-complex product as complex(c, 0.0) times the value, which is how 3.10-3.13
    # evaluate it (-1.0 * 0j is (-0+0j) on each); an interpreter that multiplies otherwise fails here.
    svd = nogo._singular_values
    seen = []

    def recording(a, signature):
        seen.append(a.tobytes())
        return svd(a, signature=signature)

    monkeypatch.setattr(nogo, "_singular_values", recording)
    for m in (4, 5):
        x = np.random.default_rng(m).uniform(-4.0, 4.0, (9, m * m + 2 * m))
        x[1, : m * m] = 0.0
        x[2, m * m :] = 0.0
        x[3, ::3] = -0.0
        x[4, 1 : m * m : 2] = math.pi
        # Real couplers (zero coupler phases) and no final phases on a purely imaginary, then a purely
        # real, detection: one part of every entry stays a signed zero through the whole push.
        x[5:, 1 : m * (m - 1) : 2] = 0.0
        x[5:, m * (m - 1) : m * m] = 0.0
        x[5, m * m : m * m + m] = 0.0
        x[6:, m * m + m :] = 0.0
        x[7:, 0 : m * (m - 1) : 2] = [[0.7], [2.5]]
        x[7:, m * m : m * m + m] = np.resize([-1.0, 2.0], m)
        for k in range(4):
            seen.clear()
            batch = [v.hex() for v in nogo._objective_sigmas(x, m, k)]
            batch_matrices = list(seen)
            seen.clear()
            assert batch == [nogo._objective_sigma(p, m, k).hex() for p in x]
            # One call takes the batch's (n, 4, m) stack, whose bytes are the scalar matrices' in order.
            assert len(seen) == len(x)
            assert batch_matrices == [b"".join(seen)]


def _recording_svd(monkeypatch):
    """Put a recorder around the SVD gufunc: the list it returns collects a copy of each array handed to it."""
    svd = nogo._singular_values
    seen = []

    def recording(a, signature):
        seen.append(a.copy())
        return svd(a, signature=signature)

    monkeypatch.setattr(nogo, "_singular_values", recording)
    return seen


def _objective_corpus(m):
    """Seeded points at m modes, with zero and -0.0 angles and detections on both sides of the e_0 fallback."""
    dim = m * m + 2 * m
    x = np.random.default_rng(3900 + m).uniform(-4.0, 4.0, (12, dim))
    x[1, : m * m] = 0.0
    x[2, : m * m] = -0.0
    x[3, ::2] = -0.0
    x[4, 1 : m * m : 3] = 0.0
    x[5, m * m :] = 0.0
    x[6, m * m :] = -0.0
    x[7, m * m :] = 3e-13 * np.sign(x[7, m * m :])
    x[8, m * m :] = 2e-12 * np.sign(x[8, m * m :])
    x[9, m * m : m * m + m] = -0.0
    x[10, m * m + m :] = 0.0
    x[11, : m * m] = math.pi / 2
    return x


def test_the_objectives_hand_the_svd_pinned_matrices(monkeypatch):
    # The bytes of every 4 x m matrix the search objectives build are set by math's trig and CPython's complex
    # products, not by LAPACK, so one digest holds them without a numpy-version guard, as for
    # test_unitary_from_angles_is_pinned: a change to the objectives must keep each bit, signed zeros included.
    seen = _recording_svd(monkeypatch)
    for m in (4, 5, 6):
        x = _objective_corpus(m)
        for k in (0, 3):
            for p in x:
                nogo._objective_sigma(p, m, k)
            for batch in (x, x[:1], x[5:9]):
                list(nogo._objective_sigmas(batch, m, k))
    digest = hashlib.sha256()
    for a in seen:
        assert a.dtype == np.complex128 and a.shape[-2:] == (4, a.shape[-1])
        digest.update(a.tobytes())
    assert len(seen) == 3 * 2 * (12 + 3)
    assert digest.hexdigest() == "6b412f345d5918bc8daa37e920e7d2f90d6ae62138ff9d45cb2b9130b844f79a"


# The searches' values and steps are LAPACK's rounding of the pinned matrices above, pinned as the nogo-scan
# report pins are.
@pytest.mark.skipif(not _PINNED_SEARCH_BUILD, reason="pinned with numpy 2.4 wheels")
@pytest.mark.parametrize(
    "m, iterations, singular_index, expected",
    [
        (4, 300, 0, ("0x1.0000000000003p+0", 571, "578f53c934244f34b1baccde2bc1f0ff50324bb23e34e664ba15039ee3c4a359")),
        (4, 300, 3, ("0x1.07a7f4aa0a90cp-52", 600, "dfaa20e91645307f0484b78839fd2bfc3b58250c70b4b0d752b34810e607664e")),
        (5, 120, 0, ("0x1.e194520f1f95bp-1", 240, "7717b8795ec3cd324ed6de151f0e0689e594c52b4e430def717f7f8b0e6ef70f")),
        (5, 120, 3, ("0x1.30e613be379cdp-52", 240, "e2fa71876c105d382304345296fb7d01525f204e51e318c6a678ccf31a38531a")),
        (6, 80, 0, ("0x1.a47cef5b2af47p-1", 160, "58d63fa9ca5f982a849109fef13035ee617541c6f23c7d5826f0abd4b6c653ef")),
        (6, 80, 3, ("0x1.401f6c56b45ebp-52", 160, "cedafb56814afaf0a0088e3db57834b70c82e1a425ed9366813da86cbc6a47a4")),
    ],
)
def test_seeded_searches_are_pinned(monkeypatch, m, iterations, singular_index, expected):
    # (max_sigma_min in hex, optimizer_iterations, SHA-256 of the SVD call sizes): a batch of n points is
    # one call of size n, a scalar evaluation one of size 1.
    seen = _recording_svd(monkeypatch)
    cert = adversarial_search(m, restarts=2, iterations=iterations, seed=600 + m, singular_index=singular_index)
    sizes = ",".join(str(len(a) if a.ndim == 3 else 1) for a in seen)
    assert (cert.max_sigma_min.hex(), cert.optimizer_iterations, hashlib.sha256(sizes.encode()).hexdigest()) == expected


def _svd_failing_at(points):
    """The SVD gufunc with the matrices of the given points (numbered from 1 across calls) made NaN, and a call log.

    A failed zgesdd leaves NaN values and raises numpy's invalid flag; the gufunc on a NaN matrix does both.
    """
    svd = nogo._singular_values
    calls = []

    def spoiled(a, signature):
        first = sum(calls) + 1
        stack = a.reshape(-1, *a.shape[-2:]).copy()
        calls.append(len(stack))
        for k in range(len(stack)):
            if first + k in points:
                stack[k] = np.nan
        return svd(stack.reshape(a.shape), signature=signature)

    return spoiled, calls


@pytest.mark.parametrize("failed", [{1}, {3}, {2, 4}, {9}])
def test_a_failed_svd_in_a_batch_raises_at_its_own_point(monkeypatch, failed):
    # The batch's values are read in order: those before the first failed point are the scalar values,
    # and that point raises, so a later failure never decides.
    x = np.random.default_rng(83).uniform(-4.0, 4.0, (9, 24))
    first = min(failed)
    expected = [nogo._objective_sigma(p, 4, 3) for p in x[: first - 1]]
    spoiled, _ = _svd_failing_at(failed)
    monkeypatch.setattr(nogo, "_singular_values", spoiled)
    # Under the error state adversarial_search sets, which keeps numpy's flags from warning.
    with np.errstate(all="ignore"):
        values = nogo._objective_sigmas(x, 4, 3)
    assert [next(values) for _ in expected] == expected
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        next(values)


# At m = 4 the initial simplex is one call of 25 points; points 26 and 27 are the next two calls, of one
# point each. The search stops at the first failed point and calls nothing after it. NaN values skipped by
# max() would certify rank deficiency, and numpy's invalid flag must not surface as the RuntimeWarning this
# suite turns into an error.
@pytest.mark.parametrize("failed, calls_made", [({1}, 1), ({3}, 1), ({2, 4}, 1), ({25}, 1), ({26}, 2), ({27}, 3)])
def test_a_failed_svd_stops_the_search_with_linalgerror(monkeypatch, failed, calls_made):
    spoiled, calls = _svd_failing_at(failed)
    monkeypatch.setattr(nogo, "_singular_values", spoiled)
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        adversarial_search(4, restarts=2, iterations=10, seed=81)
    assert calls == [25, 1, 1][:calls_made]


@pytest.mark.parametrize("m", range(4, 9))
def test_the_svd_gufunc_gives_the_bytes_of_numpys_svd(m):
    # The objective calls numpy's private LAPACK gufunc to skip np.linalg.svd's wrapper; a numpy that renames
    # it or changes what it computes fails here.
    rng = np.random.default_rng(700 + m)
    stack = rng.standard_normal((50, 4, m)) + 1j * rng.standard_normal((50, 4, m))
    singles = []
    for rows in (*stack[:10], stack):
        got = nogo._singular_values(rows, signature="D->d")
        assert got.dtype == np.float64
        assert got.tobytes() == np.linalg.svd(rows, compute_uv=False).tobytes()
        singles.append(got.tobytes())
    # Each matrix of a stack gets the bits it gets alone, which the batch objective relies on.
    assert singles[-1].startswith(b"".join(singles[:10]))


# --- one budget check for every entry point ---------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: adversarial_search(4, 1, 2.5), r"iterations \[2.5\] must hold integers"),
        (lambda: adversarial_search(4, 1, True), r"iterations \[True\] must hold integers"),
        (lambda: adversarial_search(4, restarts=1.5, iterations=10), r"restarts \[1.5\] must hold integers"),
        (lambda: adversarial_search(4, 1, 10, singular_index=2.5), r"singular_index \[2.5\] must hold integers"),
        (lambda: adversarial_search(4, 1, 10, singular_index=True), r"singular_index \[True\] must hold integers"),
        (lambda: adversarial_search(4, 1, 10, seed=-1), "seed must be at least 0, got -1"),
        (lambda: adversarial_search(4.0, 1, 10), r"m \[4.0\] must hold integers"),
        (lambda: rank_scan(4, 10, seed=-1), "seed must be at least 0, got -1"),
        (lambda: rank_scan_control(4, 10, seed=-1), "seed must be at least 0, got -1"),
        (lambda: rank_scan(4, 2.5), r"trials \[2.5\] must hold integers"),
        (lambda: rank_scan_control(4, 10, seed=1.0), r"seed \[1.0\] must hold integers"),
        (lambda: rank_scan(4, 1, 1.5), r"seed \[1.5\] must hold integers"),
        (lambda: haar_random_unitary(3, 1.5), r"seed \[1.5\] must hold integers"),
        (lambda: max_abs_core_determinant(0, 1), "samples must be at least 1, got 0"),
        (lambda: max_abs_core_determinant(-1, 1), "samples must be at least 1, got -1"),
        (lambda: max_abs_core_determinant(5, -1), "seed must be at least 0, got -1"),
    ],
)
def test_every_entry_point_names_a_bad_budget(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_certificates_hold_python_ints_from_numpy_budgets():
    # A numpy integer in a certificate would make cli.canonical_json raise "cannot serialize".
    certs = [
        adversarial_search(4, 1, 5, seed=np.int64(2)),
        rank_scan(4, np.int64(3)),
        rank_scan_control(np.int32(4), np.int64(3), seed=np.uint16(7)),
    ]
    certs.append(merge_certificates(*certs[1:]))
    for cert in certs:
        assert [type(cert.trials), type(cert.argmax_seed), type(cert.optimizer_iterations)] == [int, int, int], cert
        assert type(cert.max_sigma_min) is float
        json.loads(canonical_json(dataclasses.asdict(cert)))
    assert (certs[0].argmax_seed, certs[1].trials) == (2, 3)


def test_numpy_seeds_do_not_wrap_past_their_width():
    # Trial and restart seeds run past 2**63, where seed + i on an int64 would wrap to a negative number.
    seed = 2**63 - 2
    assert rank_scan(4, 5, seed=np.int64(seed)) == rank_scan(4, 5, seed=seed)
    search = adversarial_search(4, 4, 5, seed=np.int64(seed))
    assert search == adversarial_search(4, 4, 5, seed=seed)
    assert search.argmax_seed >= seed


def test_numpy_integer_budgets_are_accepted():
    cert = rank_scan(np.int64(4), np.int64(3), seed=np.int64(2))
    assert cert == rank_scan(4, 3, seed=2)
    assert max_abs_core_determinant(np.int32(50), np.uint8(3)) == max_abs_core_determinant(50, 3)
    search = adversarial_search(np.int64(4), restarts=np.int64(1), iterations=np.int64(3), seed=np.int64(1), singular_index=np.int64(3))
    assert search == adversarial_search(4, restarts=1, iterations=3, seed=1)
