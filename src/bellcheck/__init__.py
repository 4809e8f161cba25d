"""bellcheck: mechanical checks for parity-based contextuality proofs,
shared-Bell-state correlation protocols, and CHSH amplification bounds."""

from .chsh import (
    ChshReport,
    MeasurementVectors,
    chsh_pair_operator,
    gap_report,
    lhv_max,
    optimal_vectors,
    pair_expectation,
    planar_vectors,
    quantum_value,
)
from .constructions import (
    ConstructionError,
    Context,
    ContextSystem,
    ValidationReport,
    generalized_sets,
    ghz_contexts,
    ghz_observables,
    mermin_square,
    product_sign,
    validate,
)
from .dsl import DslSyntaxError, parse_document, serialize
from .parity import (
    ParityRow,
    ParitySystem,
    SolveResult,
    brute_force,
    build_parity_system,
    check_assignment,
    check_certificate,
    solve,
)
from .pauli import (
    PauliOperator,
    PauliSyntaxError,
    commutes,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
    relabel,
    single,
    to_dense,
)
from .protocol import (
    ExperimentConfig,
    ExperimentSummary,
    default_schedule,
    run_experiment,
)
from .rng import shot_draws, shot_stream
from .states import (
    StabilizerTableau,
    StateVector,
    affine_values,
    apply_pauli,
    bell_product_state,
    bell_product_tableau,
    compile_context,
    dense_expectation,
    eigenrelation_check,
    embed,
    expectation,
    ghz_state,
    measure_context,
    singlet_product_state,
    tableau_expectation,
)

__version__ = "0.2.1"
