"""bellcheck: mechanical checks for parity-based contextuality proofs,
shared-Bell-state correlation protocols, and CHSH amplification bounds.

The names below are loaded from their submodules on first access (PEP 562),
so `python -m bellcheck`, which always runs this file, imports only what
its command uses (see `cli`).  The package has no runtime dependency; the
dense numpy oracles that the tests compare it with live in
`tests/oracles.py`.
"""

__version__ = "0.13.0"

# Submodule -> the public names this package re-exports from it.
_EXPORTS = {
    "chsh": (
        "ChshReport",
        "MeasurementVectors",
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
        "single",
    ),
    "protocol": ("ExperimentConfig", "ExperimentSummary", "default_schedule", "run_experiment"),
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
    # The builtin import, unlike `importlib.import_module`, shows in `-X importtime`.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
