"""Exact conditional inference on contingency tables via SAT-assisted
Markov chains.

The pieces: log-linear fibers as data (:mod:`fiberwalk.models`),
direct fiber enumeration (:mod:`fiberwalk.enumeration`), CNF encodings
of fibers (:mod:`fiberwalk.encode`) with a small resumable DPLL solver
(:mod:`fiberwalk.dpll`), Markov-basis moves (:mod:`fiberwalk.moves`),
fiber samplers (:mod:`fiberwalk.sampling`), the Metropolis-Hastings
walker (:mod:`fiberwalk.walk`), maximum-likelihood fitting and the
chi-square statistic (:mod:`fiberwalk.mle`), and the evaluation driver
(:mod:`fiberwalk.bench`).
"""

from .models import (
    ConstraintMatrix,
    FiberSpec,
    Independence,
    NoThreeWay,
    QuasiIndependence,
    Table,
    build_independence_matrix,
    build_n3f_matrix,
    fiber_spec_from_observation,
    flatten_index,
    margins,
    model_matrix,
    model_structural_zeros,
    read_table,
    unflatten_index,
    write_table,
)
from .enumeration import (
    FiberEnumeration,
    FiberTooLarge,
    enumerate_fiber,
    exact_p_from_enumeration,
    exact_p_value,
    fiber_size,
    log_rho_unnormalized,
)
from .encode import (
    CNFEncoding,
    bit_width,
    cell_value_bound,
    encode_fiber,
    parse_dimacs,
    write_layout,
)
from .dpll import Solver
from .moves import (
    BasisFileError,
    DegenerateZeroPattern,
    Move,
    MoveSet,
    basic_moves_n3f,
    basic_moves_two_way,
    build_moves,
    chordality_violations,
    cycle_moves,
    is_doubly_chordal,
    load_basis,
    n3f_basis,
    repair_zero_pattern,
    save_basis,
)
from .sampling import (
    ExternalSampler,
    InternalBiasedSampler,
    InternalUniformSampler,
    SamplerConfig,
    SamplerError,
    SamplerExitError,
    SamplerLaunchError,
    SamplerOutputError,
    SamplerTimeoutError,
    SamplerValidityError,
    build_sampler,
    enumerate_cnf_tables,
    make_rng,
)
from .mle import (
    ChiSquare,
    FitResult,
    fit_loglinear,
    independence_fitted,
    log_likelihood,
    score,
)
from .walk import (
    Alternating,
    MovesOnly,
    ParallelStarts,
    RunRecord,
    SatOnly,
    acceptance_ratio,
    connected_components_under_moves,
    empirical_tv,
    make_schedule,
    rho_distribution,
    run_walk,
)
from .bench import (
    BenchRun,
    ExperimentConfig,
    convergence_step,
    export_results,
    generate_initial_n3f,
    generate_initial_quasi,
    generate_initial_two_way,
    parse_config,
    run_evaluation,
)

__version__ = "0.1.0"
