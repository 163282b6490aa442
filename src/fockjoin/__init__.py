"""Multimode Fock-state simulator for joining and splitting photonic qubits.

Sparse occupation-number states, linear-optical evolution, dual-rail
logical gates with vacuum-port semantics, the four joining/splitting
protocols, a rank certificate for the two-photon no-go statement,
doubly-entangled three-photon resources with teleportation-based joining,
and a small circuit description language with CLI front end.
"""

__version__ = "0.1.0"

from .fock import (
    Bipartition,
    FockState,
    NonEmptyModeError,
    add_vacuum_modes,
    basis_state,
    bipartition,
    discard_empty_modes,
    fidelity,
    inner_product,
    make_state,
    normalize,
    partial_inner,
    permute_modes,
    postselect_vacuum,
    schmidt_rank,
    schmidt_values,
    state_from_dict,
    state_to_dict,
    tensor,
    zero_state,
)
from .gates import (
    CnotSpec,
    DualRailQubit,
    IllegalPatternError,
    apply_cnot,
    apply_reversed_cnot,
    build_postselected_cnot_network,
    logical_phase_flip,
    vacuum_failure_demo,
)
from .optics import (
    ModeUnitary,
    ProjectorSpec,
    apply_projector,
    apply_unitary,
    beamsplitter,
    haar_random_unitary,
    hadamard_pair,
    mode_permutation,
    phase_shifter,
)
from .schemes import (
    EncodingViolationError,
    ProbabilityModel,
    SchemeReport,
    compose_success_probability,
    join_deterministic,
    join_projective,
    split_deterministic,
    split_projective,
    two_qubit_input,
    unfold_target,
)
from .nogo import (
    NogoCertificate,
    adversarial_search,
    end_to_end_projection_check,
    rank_scan,
    rank_scan_control,
    symmetrized_mode_matrix,
    symmetrized_modes,
)
from .tpes import (
    ALL_BELL_OUTCOMES,
    bell_pair,
    build_tpes,
    derive_correction_table,
    expand_five_photon,
    teleport_join,
    tpes_via_joining,
)
from .circuit import CircuitProgram, ParseDiagnostic, format_circuit, parse_circuit, run_circuit
