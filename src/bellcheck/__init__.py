"""bellcheck: mechanical checks for parity-based contextuality proofs,
shared-Bell-state correlation protocols, and CHSH amplification bounds.

The names below are loaded from their submodules on first access (PEP 562),
so `python -m bellcheck`, which always runs this file, imports only what
its command uses: the verdict commands never load numpy.
"""

import importlib

__version__ = "0.3.0"

# Submodule -> the public names this package re-exports from it.
_EXPORTS = {
    "chsh": (
        "ChshReport",
        "MeasurementVectors",
        "chsh_pair_operator",
        "gap_report",
        "lhv_max",
        "optimal_vectors",
        "pair_expectation",
        "planar_vectors",
        "quantum_value",
    ),
    "constructions": (
        "ConstructionError",
        "Context",
        "ContextSystem",
        "ValidationReport",
        "generalized_sets",
        "ghz_contexts",
        "ghz_observables",
        "mermin_square",
        "product_sign",
        "validate",
    ),
    "dsl": ("DslSyntaxError", "parse_document", "serialize"),
    "parity": (
        "ParityRow",
        "ParitySystem",
        "SolveResult",
        "brute_force",
        "build_parity_system",
        "check_assignment",
        "check_certificate",
        "solve",
    ),
    "pauli": (
        "PauliOperator",
        "PauliSyntaxError",
        "commutes",
        "format_pauli",
        "identity",
        "multiply",
        "parse_pauli",
        "relabel",
        "single",
        "to_dense",
    ),
    "protocol": ("ExperimentConfig", "ExperimentSummary", "default_schedule", "run_experiment"),
    "rng": ("shot_draws", "shot_stream"),
    "states": (
        "StateVector",
        "affine_values",
        "apply_pauli",
        "bell_product_state",
        "dense_expectation",
        "expectation",
        "ghz_state",
        "measure_context",
        "singlet_product_state",
    ),
    "tableau": (
        "StabilizerTableau",
        "bell_product_tableau",
        "compile_context",
        "eigenrelation_check",
        "embed",
        "tableau_expectation",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
