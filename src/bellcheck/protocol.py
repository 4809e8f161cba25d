"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`states`).
Recorded outcomes are independently flipped with probability `noise` and
erased (inconclusive) with probability 1 - `efficiency`.

A round is compiled once into GF(2) affine forms, one per outcome
(`states.compile_context`); an experiment then samples all shots of each
schedule entry together with numpy, each shot reading its own stream.

With no noise and unit efficiency the shared outcomes agree on every
round and every fully-recorded context satisfies its product constraint
exactly; the summary statistics quantify how both degrade otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constructions import ContextSystem
from .pauli import format_pauli
from .rng import check_key, shot_draws
from .states import affine_values, bell_product_tableau, compile_context, embed

MODES = ("alone", "in_context")
# Shots sampled together: memory is O(BLOCK_SHOTS x words), not O(shots).
BLOCK_SHOTS = 4096


def _noise_pair(noise) -> tuple[float, float]:
    if isinstance(noise, (tuple, list)):
        p_alice, p_bob = noise
    else:
        p_alice = p_bob = noise
    for p in (p_alice, p_bob):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return float(p_alice), float(p_bob)


def _compile_round(
    config: ExperimentConfig, alice_context_id: int, shared_observable_id: int, blocks: dict
) -> tuple:
    """Check one schedule entry and compile its round into affine forms.

    Runs every check of the entry's round (`run_experiment` has checked
    the noise) before compiling it, so a bad entry raises before any
    draw.  `blocks` holds the symbolic measurement of each context's
    Alice block (and of Bob's copy of the context in "in_context" mode),
    shared by every entry that reaches it.
    Returns (outcome forms, Alice's word count, shared positions of Alice
    and Bob, context id, product bit), where the outcome forms list
    Alice's words, then Bob's.
    """
    n, system, bob_mode = config.n, config.system, config.bob_mode
    if system.num_qubits != n:
        raise ValueError(f"system acts on {system.num_qubits} qubits, expected {n}")
    if not 0 <= alice_context_id < len(system.contexts):
        raise ValueError(f"unknown context id {alice_context_id}")
    if bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {bob_mode!r}")
    if not 0.0 < config.efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {config.efficiency}")

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

    alice = blocks.get(alice_context_id)
    if alice is None:
        words = [embed(o, n, "alice") for o in context.observables]
        alice = blocks[alice_context_id] = compile_context(bell_product_tableau(n), words)
    alice_forms, tableau, signs = alice
    if bob_mode == "alone":
        key = (alice_context_id, shared_observable_id)
        bob_words, bob_shared_pos = (shared,), 0
    else:
        key = (alice_context_id, None)
        bob_words, bob_shared_pos = context.observables, shared_pos
    bob_forms = blocks.get(key)
    if bob_forms is None:
        words = [embed(o, n, "bob") for o in bob_words]
        bob_forms = blocks[key] = compile_context(tableau, words, signs, len(alice_forms))[0]
    product_bit = 0 if context.expected_sign == +1 else 1
    return (
        alice_forms + bob_forms,
        len(alice_forms),
        shared_pos,
        len(alice_forms) + bob_shared_pos,
        alice_context_id,
        product_bit,
    )


def _sample(compiled: tuple, draws: np.ndarray, p_alice: float, p_bob: float, efficiency: float):
    """Recorded outcome bits and erasure flags of a compiled round, per shot.

    Row i of `draws` is shot i's stream: one draw per word, then a flip
    draw and an erasure draw per outcome, Alice's outcomes first.  The
    layout is the same whatever the noise parameters are.
    """
    forms, split = compiled[0], compiled[1]
    width = len(forms)
    values = affine_values(forms, draws[:, :width])
    flips = np.empty(values.shape, dtype=bool)
    flips[:, :split] = draws[:, width : width + 2 * split : 2] < p_alice
    flips[:, split:] = draws[:, width + 2 * split :: 2] < p_bob
    lost = draws[:, width + 1 :: 2] >= efficiency
    return values ^ flips, lost


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

    Each schedule entry the run reaches is checked and compiled once, then
    all of its shots are sampled together in blocks of `BLOCK_SHOTS`.  The
    summary is bit-identical for equal seeds regardless of execution order
    because every shot derives its randomness from (seed, shot).
    """
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    p_alice, p_bob = _noise_pair(config.noise)
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")
    check_key(config.seed, 0)  # a bad seed fails before any entry is checked

    blocks: dict = {}
    rounds = [
        _compile_round(config, ctx_id, obs_id, blocks)
        for ctx_id, obs_id in schedule[: min(len(schedule), config.shots)]
    ]

    comparable = 0
    equal = 0
    context_totals: dict[int, int] = {}
    context_passes: dict[int, int] = {}
    shared_counts: dict[str, dict[int, int]] = {"alice": {+1: 0, -1: 0}, "bob": {+1: 0, -1: 0}}

    for entry, compiled in enumerate(rounds):
        forms, split, shared_alice, shared_bob, ctx_id, product_bit = compiled
        contexts = [slice(0, split)]
        if config.bob_mode == "in_context":
            contexts.append(slice(split, len(forms)))
        shots = range(entry, config.shots, len(schedule))
        for start in range(0, len(shots), BLOCK_SHOTS):
            draws = shot_draws(config.seed, shots[start : start + BLOCK_SHOTS], 3 * len(forms))
            values, lost = _sample(compiled, draws, p_alice, p_bob, config.efficiency)
            kept = ~lost
            both = kept[:, shared_alice] & kept[:, shared_bob]
            comparable += int(np.count_nonzero(both))
            equal += int(np.count_nonzero(both & (values[:, shared_alice] == values[:, shared_bob])))
            for side, col in (("alice", shared_alice), ("bob", shared_bob)):
                minus = int(np.count_nonzero(kept[:, col] & (values[:, col] == 1)))
                shared_counts[side][+1] += int(np.count_nonzero(kept[:, col])) - minus
                shared_counts[side][-1] += minus
            for cols in contexts:
                full = kept[:, cols].all(axis=1)
                total = int(np.count_nonzero(full))
                if not total:
                    continue
                context_totals[ctx_id] = context_totals.get(ctx_id, 0) + total
                parity = np.bitwise_xor.reduce(values[:, cols], axis=1)
                passes = int(np.count_nonzero(full & (parity == product_bit)))
                context_passes[ctx_id] = context_passes.get(ctx_id, 0) + passes

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
