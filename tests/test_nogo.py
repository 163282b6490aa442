import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockjoin import nogo
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
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, *args, **kwargs: 2.0 * norm(x, *args, **kwargs))
    with pytest.raises(ValueError, match="projector vector is not normalized"):
        rank_scan(4, 3)


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


def test_adversarial_search_raises_on_nan_objective(monkeypatch):
    # max() and ">" skip NaN, which would read as rank deficiency.
    monkeypatch.setattr(nogo, "_objective_sigma", lambda x, m, k: math.nan)
    with pytest.raises(ValueError, match="NaN objective value in restart 81"):
        adversarial_search(4, restarts=2, iterations=10, seed=81)
