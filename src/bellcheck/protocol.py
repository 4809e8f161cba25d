"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`tableau`).
Recorded outcomes are independently flipped with probability `noise` and
erased (inconclusive) with probability 1 - `efficiency`.

A round is compiled once into GF(2) affine forms, one per outcome
(`tableau.compile_context`), and from them into one linear map from a
shot's recorded bits to the bits its statistics need.  An experiment
then samples its shots in blocks with numpy, each shot reading its own
stream, and counts the shots of each outcome pattern.

With no noise and unit efficiency the shared outcomes agree on every
round and every fully-recorded context satisfies its product constraint
exactly; the summary statistics quantify how both degrade otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import xor

import numpy as np

from .constructions import ContextSystem
from .pauli import format_pauli
from .rng import check_key, shot_draws
from .states import form_matrix
from .tableau import bell_product_tableau, compile_context, embed

MODES = ("alone", "in_context")
# Shots sampled together: memory is O(BLOCK_SHOTS x words), not O(shots).
BLOCK_SHOTS = 4096
# The bits of a shot's code, one per column of a round's statistics map:
# Alice's and Bob's shared outcome erased, their recorded values, and
# Alice's and Bob's context failing its product and erased in part.
LOST_A, LOST_B, VALUE_A, VALUE_B, FAIL_A, FAIL_B, PARTIAL_A, PARTIAL_B = range(8)
_CODE_WEIGHTS = 1 << np.arange(8)


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
    """Check one schedule entry and compile its round into a statistics map.

    Runs every check of the entry's round (`run_experiment` has checked
    the noise) before compiling it, so a bad entry raises before any
    draw.  `blocks` holds the symbolic measurement of each context's
    Alice block (and of Bob's copy of the context in "in_context" mode),
    shared by every entry that reaches it.
    Returns (statistics map, flip probability per outcome, context id,
    word draws up to the last fair coin's); the outcomes are Alice's
    words, then Bob's (see `_stats_map`).
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
    split = len(alice_forms)
    forms = alice_forms + bob_forms
    stats = _stats_map(
        forms, split, (shared_pos, split + bob_shared_pos), context.expected_sign, bob_mode
    )
    p_alice, p_bob = _noise_pair(config.noise)
    flip_p = np.repeat(np.float64([p_alice, p_bob]), [split, len(forms) - split])
    # Coin j is bit j + 1 of a form; forced words' draws are never read.
    coin_draws = max(max(form.bit_length() for form in forms) - 1, 0)
    return stats, flip_p, alice_context_id, coin_draws


def _stats_map(forms, split: int, shared: tuple[int, int], expected_sign: int, bob_mode: str):
    """The statistics of a compiled round as one float32 matrix.

    A shot's record is 1, the coin of each word (draw >= 1/2), then per
    outcome a flip bit and an erasure bit, in the order of its draws.
    Record @ map has one column per code bit: taken mod 2 for LOST_A
    through FAIL_B, each a GF(2) sum of record bits, and capped at 1 for
    the PARTIAL columns, each a count of erasures.  A context fails when
    the XOR of its recorded outcomes differs from its expected product.
    """
    width = len(forms)
    contexts = (range(split), range(split, width))
    product = int(expected_sign == -1)
    fails = [reduce(xor, (forms[j] for j in cols), product) for cols in contexts]
    # In "alone" mode Bob measures no context: a constant 1 marks it partial.
    never_full = int(bob_mode != "in_context")
    stats = np.zeros((1 + 3 * width, 8), dtype=np.float32)
    stats[: width + 1] = form_matrix(
        [0, 0, forms[shared[0]], forms[shared[1]], *fails, 0, never_full], width
    )
    flip = 1 + width + 2 * np.arange(width)  # each erasure bit follows its flip bit
    for j, lost_col, value_col in zip(shared, (LOST_A, LOST_B), (VALUE_A, VALUE_B)):
        stats[flip[j], value_col] = 1
        stats[flip[j] + 1, lost_col] = 1
    for cols, fail_col, partial_col in zip(contexts, (FAIL_A, FAIL_B), (PARTIAL_A, PARTIAL_B)):
        stats[flip[cols], fail_col] = 1
        stats[flip[cols] + 1, partial_col] = 1
    return stats


def _codes(stats, flip_p, draws: np.ndarray, efficiency: float) -> np.ndarray:
    """One code per shot: bit c is column c of its record times `stats`.

    Row i of `draws` is shot i's stream: one draw per word, then a flip
    draw and an erasure draw per outcome, Alice's outcomes first.  A row
    of word draws alone stands for no noise and unit efficiency: then
    `draw < 0.0` and `draw >= 1.0` never hold, so no flip or erasure
    draw is read, and the row may end at the last fair coin's draw.
    """
    width = len(flip_p)
    record = np.empty((len(draws), 1 + draws.shape[1]), dtype=np.float32)
    record[:, 0] = 1
    np.greater_equal(draws[:, :width], 0.5, out=record[:, 1 : width + 1])
    if draws.shape[1] > width:
        np.less(draws[:, width::2], flip_p, out=record[:, width + 1 :: 2])
        np.greater_equal(draws[:, width + 1 :: 2], efficiency, out=record[:, width + 2 :: 2])
    bits = (record @ stats[: record.shape[1]]).astype(np.intp)
    bits[:, :PARTIAL_A] &= 1
    np.minimum(bits[:, PARTIAL_A:], 1, out=bits[:, PARTIAL_A:])
    return bits @ _CODE_WEIGHTS


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

    Each schedule entry the run reaches is checked and compiled once.  The
    shots are then sampled in blocks of `BLOCK_SHOTS` consecutive shots,
    one `shot_draws` call per block for every entry, and each shot adds
    one to the count of its code.  The summary is bit-identical for equal
    seeds regardless of execution order because every shot derives its
    randomness from (seed, shot).
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

    # Each shot draws only what its round reads: with no noise and unit
    # efficiency no flip or erasure draw, and no draw past the last coin's.
    exact = p_alice == p_bob == 0.0 and config.efficiency == 1.0
    reads = [coin_draws if exact else 3 * len(flip_p) for _, flip_p, _, coin_draws in rounds]
    counts = np.zeros((len(config.system.contexts), 256), dtype=np.int64)  # shots per code
    period = len(schedule)
    for start in range(0, config.shots, BLOCK_SHOTS):
        stop = min(start + BLOCK_SHOTS, config.shots)
        groups = [
            (range(start + (entry - start) % period, stop, period), k)
            for entry, k in enumerate(reads)
        ]
        for (stats, flip_p, ctx_id, _), draws in zip(rounds, shot_draws(config.seed, groups)):
            codes = _codes(stats, flip_p, draws, config.efficiency)
            counts[ctx_id] += np.bincount(codes, minlength=256)

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
    bit = (np.arange(256)[:, None] >> np.arange(8)) & 1
    per_code = counts.sum(axis=0)
    kept_a, kept_b = 1 - bit[:, LOST_A], 1 - bit[:, LOST_B]
    value_a, value_b = bit[:, VALUE_A], bit[:, VALUE_B]
    comparable = int(per_code @ (kept_a & kept_b))
    equal = int(per_code @ (kept_a & kept_b & (value_a == value_b)))
    shared_counts = {
        side: {+1: int(per_code @ (kept & (1 - value))), -1: int(per_code @ (kept & value))}
        for side, kept, value in (("alice", kept_a, value_a), ("bob", kept_b, value_b))
    }
    full_a, full_b = 1 - bit[:, PARTIAL_A], 1 - bit[:, PARTIAL_B]
    totals = counts @ (full_a + full_b)
    passes = counts @ ((full_a & (1 - bit[:, FAIL_A])) + (full_b & (1 - bit[:, FAIL_B])))
    rates = {
        ci: int(passes[ci]) / int(totals[ci]) for ci in range(len(counts)) if totals[ci]
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
