"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`states`).
Recorded outcomes are independently flipped with probability `noise` and
erased (inconclusive) with probability 1 - `efficiency`.

With no noise and unit efficiency the shared outcomes agree on every
round and every fully-recorded context satisfies its product constraint
exactly; the summary statistics quantify how both degrade otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constructions import ContextSystem
from .pauli import PauliOperator, format_pauli
from .rng import shot_stream
from .states import QubitLayout, bell_product_tableau, measure_tableau

MODES = ("alone", "in_context")


def _noise_pair(noise) -> tuple[float, float]:
    if isinstance(noise, (tuple, list)):
        p_alice, p_bob = noise
    else:
        p_alice = p_bob = noise
    for p in (p_alice, p_bob):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return float(p_alice), float(p_bob)


def _record(outcomes, p_flip: float, efficiency: float, rng) -> tuple[int | None, ...]:
    # Two draws per outcome in a fixed order keeps the stream layout
    # identical whatever the noise parameters are.
    recorded = []
    for value in outcomes:
        flip = rng.random() < p_flip
        lost = rng.random() >= efficiency
        if lost:
            recorded.append(None)
        else:
            recorded.append(-value if flip else value)
    return tuple(recorded)


@lru_cache(maxsize=256)
def _embedded(
    n: int, observables: tuple[PauliOperator, ...], side: str
) -> tuple[PauliOperator, ...]:
    """Observables moved onto one observer's block of the 2n-qubit register.

    Memoized: an experiment measures each context on each side many times,
    and the embedded words are immutable.
    """
    layout = QubitLayout(n)
    embed = layout.alice_embedding if side == "alice" else layout.bob_embedding
    return tuple(embed(o) for o in observables)


@dataclass(frozen=True)
class RoundRecord:
    alice_context: int
    alice_outcomes: tuple[int | None, ...]
    bob_mode: str
    bob_outcomes: tuple[int | None, ...]
    shared_observable: int
    shared_alice: int | None
    shared_bob: int | None
    noise: tuple[float, float]
    efficiency: float


def run_round(
    n: int,
    system: ContextSystem,
    alice_context_id: int,
    shared_observable_id: int,
    bob_mode: str,
    noise,
    efficiency: float,
    rng: np.random.Generator,
) -> RoundRecord:
    """One protocol round; `shared_observable_id` indexes the system catalog."""
    if system.num_qubits != n:
        raise ValueError(f"system acts on {system.num_qubits} qubits, expected {n}")
    if not 0 <= alice_context_id < len(system.contexts):
        raise ValueError(f"unknown context id {alice_context_id}")
    if bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {bob_mode!r}")
    p_alice, p_bob = _noise_pair(noise)
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")

    context = system.contexts[alice_context_id]
    catalog = system.catalog
    if not 0 <= shared_observable_id < len(catalog):
        raise ValueError(f"unknown observable id {shared_observable_id}")
    shared = catalog[shared_observable_id]
    try:
        shared_pos = context.observables.index(shared)
    except ValueError:
        raise ValueError(
            f"shared observable {format_pauli(shared)} is not in context "
            f"{alice_context_id}"
        ) from None

    state = bell_product_tableau(n)
    alice_raw, state = measure_tableau(state, _embedded(n, context.observables, "alice"), rng)
    if bob_mode == "alone":
        bob_raw, state = measure_tableau(state, _embedded(n, (shared,), "bob"), rng)
        bob_shared_pos = 0
    else:
        bob_raw, state = measure_tableau(state, _embedded(n, context.observables, "bob"), rng)
        bob_shared_pos = shared_pos

    alice_recorded = _record(alice_raw, p_alice, efficiency, rng)
    bob_recorded = _record(bob_raw, p_bob, efficiency, rng)
    return RoundRecord(
        alice_context=alice_context_id,
        alice_outcomes=alice_recorded,
        bob_mode=bob_mode,
        bob_outcomes=bob_recorded,
        shared_observable=shared_observable_id,
        shared_alice=alice_recorded[shared_pos],
        shared_bob=bob_recorded[bob_shared_pos],
        noise=(p_alice, p_bob),
        efficiency=float(efficiency),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    system: ContextSystem
    shots: int
    schedule: tuple[tuple[int, int], ...] | None = None  # (context id, catalog id)
    noise: float | tuple[float, float] = 0.0
    efficiency: float = 1.0
    seed: int = 0
    bob_mode: str = "alone"


@dataclass(frozen=True)
class ExperimentSummary:
    shots: int
    equality_rate: float | None
    product_pass_rates: dict[int, float | None]
    conclusive_fraction: float | None
    seed: int
    bob_mode: str
    noise: tuple[float, float]
    efficiency: float
    equal_rounds: int = 0
    comparable_rounds: int = 0
    shared_counts: dict[str, dict[int, int]] = field(default_factory=dict)


def default_schedule(system: ContextSystem) -> tuple[tuple[int, int], ...]:
    """Every (context, member) pair once, in system order."""
    catalog = system.catalog
    index = {obs: i for i, obs in enumerate(catalog)}
    return tuple(
        (ci, index[obs])
        for ci, ctx in enumerate(system.contexts)
        for obs in ctx.observables
    )


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run `shots` rounds cycling over the schedule, with per-shot RNG streams.

    The summary is bit-identical for equal seeds regardless of execution
    order because every shot derives its randomness from (seed, shot).
    """
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    p_alice, p_bob = _noise_pair(config.noise)
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")

    comparable = 0
    equal = 0
    context_totals: dict[int, int] = {}
    context_passes: dict[int, int] = {}
    shared_counts: dict[str, dict[int, int]] = {"alice": {+1: 0, -1: 0}, "bob": {+1: 0, -1: 0}}

    for shot in range(config.shots):
        ctx_id, obs_id = schedule[shot % len(schedule)]
        record = run_round(
            config.n,
            config.system,
            ctx_id,
            obs_id,
            config.bob_mode,
            (p_alice, p_bob),
            config.efficiency,
            shot_stream(config.seed, shot),
        )
        if record.shared_alice is not None and record.shared_bob is not None:
            comparable += 1
            if record.shared_alice == record.shared_bob:
                equal += 1
        if record.shared_alice is not None:
            shared_counts["alice"][record.shared_alice] += 1
        if record.shared_bob is not None:
            shared_counts["bob"][record.shared_bob] += 1

        expected = config.system.contexts[ctx_id].expected_sign
        measured_contexts = [record.alice_outcomes]
        if config.bob_mode == "in_context":
            measured_contexts.append(record.bob_outcomes)
        for outcomes in measured_contexts:
            if any(v is None for v in outcomes):
                continue
            context_totals[ctx_id] = context_totals.get(ctx_id, 0) + 1
            product = 1
            for v in outcomes:
                product *= v
            if product == expected:
                context_passes[ctx_id] = context_passes.get(ctx_id, 0) + 1

    if config.shots == 0:
        return ExperimentSummary(
            shots=0,
            equality_rate=None,
            product_pass_rates={},
            conclusive_fraction=None,
            seed=config.seed,
            bob_mode=config.bob_mode,
            noise=(p_alice, p_bob),
            efficiency=float(config.efficiency),
        )
    rates = {
        ci: (context_passes.get(ci, 0) / total if total else None)
        for ci, total in sorted(context_totals.items())
    }
    return ExperimentSummary(
        shots=config.shots,
        equality_rate=(equal / comparable) if comparable else None,
        product_pass_rates=rates,
        conclusive_fraction=comparable / config.shots,
        seed=config.seed,
        bob_mode=config.bob_mode,
        noise=(p_alice, p_bob),
        efficiency=float(config.efficiency),
        equal_rounds=equal,
        comparable_rounds=comparable,
        shared_counts=shared_counts,
    )
