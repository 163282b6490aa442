import numpy as np
import pytest

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
from fockjoin.optics import ProjectorSpec, haar_random_unitary, identity, random_projector


def normalized_phi(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


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
    rows = symmetrized_modes(identity(4), ProjectorSpec(phi)).coeffs
    assert np.allclose(rows, symmetrized_mode_matrix(phi), atol=1e-14)


def test_symmetrized_modes_rank_at_most_three():
    rng = np.random.default_rng(74)
    for m, seed in ((4, 100), (8, 101)):
        u = haar_random_unitary(m, seed)
        phi = ProjectorSpec(normalized_phi(rng, m))
        modes = symmetrized_modes(u, phi)
        assert modes.sigma_min() < RANK_THRESHOLD
        assert modes.rank(1e-9) <= 3
        # Rank 3 is generic when the detection touches the logical modes.
        assert modes.singular_values()[2] > 1e-6


def test_symmetrized_modes_degenerate_detection_rank_two():
    phi = ProjectorSpec([1, 0, 0, 0])
    assert symmetrized_modes(identity(4), phi).rank(1e-9) == 2


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
    rows = symmetrized_modes(identity(4), phi).coeffs
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
