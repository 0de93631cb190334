"""Variational eigensolver with gradient-screened Pauli entanglers.

The pipeline: FCIDUMP integrals -> active-space reduction -> fermion-to-
qubit mapping -> iterative generator screening, amplitude optimization,
and Hamiltonian dressing -> convergence extrapolation, with an exact
diagonalization oracle and a finite-shot measurement emulator alongside.
"""

from .pauli import (
    DEFAULT_PRUNE,
    PauliString,
    QubitHamiltonian,
    dress,
    dress_sequence,
)
from .chem import (
    ActiveSpaceProblem,
    ElectronIntegrals,
    ExcitationList,
    FcidumpError,
    FermionOperator,
    build_active_hamiltonian,
    cas_reduce,
    hf_bitstring,
    map_operator,
    normalize_mapping,
    occupation_decoder,
    parse_fcidump,
    uccsd_excitations,
    uccsd_generator_paulis,
)
from .simulator import (
    MAX_QUBITS,
    MeasurementGroup,
    QwcGrouping,
    ShotEstimate,
    Statevector,
    apply_rotation_sequence,
    basis_index,
    bitstring_label,
    expectation,
    group_qwc,
    per_group_error,
    prepare_basis_state,
    sample_energy,
)
from .solver import (
    ExtrapolationError,
    ExtrapolationResult,
    FitRequestError,
    IterationRecord,
    QccConfig,
    QccTrace,
    extrapolate,
    flip_representative,
    optimize_amplitudes,
    optimize_uccsd,
    qcc_run,
    screen_generators,
    total_energy,
)
from .oracle import ORACLE_MAX_QUBITS, GroundState, exact_ground, to_dense

__version__ = "0.1.0"
