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

Submodules load on first use: ``import fiberwalk.dpll`` loads the
solver alone, and ``from fiberwalk import run_walk`` loads the walker
and what it imports.
"""

import importlib

# each public name, by the module that defines it
_EXPORTS = {
    "models": (
        "ConstraintMatrix", "FiberSpec", "Hierarchical", "Independence", "NoThreeWay",
        "QuasiIndependence", "Table", "fiber_spec_from_observation", "flatten_index", "margins",
        "read_table", "unflatten_index", "write_table",
    ),
    "enumeration": (
        "FiberEnumeration", "FiberTooLarge", "enumerate_fiber", "exact_p_from_enumeration",
        "exact_p_value", "fiber_size", "log_rho_unnormalized",
    ),
    "encode": (
        "CNFEncoding", "bit_width", "cell_value_bound", "encode_fiber", "parse_dimacs",
        "write_layout",
    ),
    "dpll": ("Solver",),
    "moves": (
        "BasisFileError", "DegenerateZeroPattern", "Move", "MoveSet", "basic_moves_n3f",
        "basic_moves_two_way", "build_moves", "chordality_violations", "cycle_moves",
        "is_doubly_chordal", "load_basis", "n3f_basis", "repair_zero_pattern", "save_basis",
    ),
    "sampling": (
        "ExternalSampler", "InternalBiasedSampler", "InternalUniformSampler", "SamplerConfig",
        "SamplerError", "SamplerExitError", "SamplerLaunchError", "SamplerOutputError",
        "SamplerTimeoutError", "SamplerValidityError", "build_sampler", "enumerate_cnf_tables",
        "make_rng",
    ),
    "mle": ("ChiSquare", "FitResult", "fit_loglinear", "independence_fitted"),
    "walk": (
        "Alternating", "MovesOnly", "ParallelStarts", "RunRecord",
        "connected_components_under_moves", "empirical_tv", "make_schedule", "rho_distribution",
        "run_walk",
    ),
    "bench": (
        "BenchRun", "ExperimentConfig", "convergence_step", "export_results",
        "generate_initial_n3f", "generate_initial_quasi", "generate_initial_two_way",
        "parse_config", "run_evaluation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a submodule, imported when first read."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
