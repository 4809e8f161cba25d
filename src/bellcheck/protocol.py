"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`tableau`).
Recorded outcomes are independently flipped with probability `noise` and
erased (inconclusive) with probability 1 - `efficiency`.

A round is compiled once into GF(2) affine forms, one per outcome
(`tableau.compile_context`), and from them into the record bits that
each of its eight statistics combines.  An experiment then reads each
shot's own stream and evaluates the statistics bit-sliced: for each
schedule entry, record bit r of all its shots is one Python int (a
bit-plane), so a statistic is a few int XORs or ORs and the summary is
popcounts.  A run that reads at most `_PURE_BLOCKS` Philox blocks takes
the words of every entry of a block of shots from one call of
`rng.packed_words`, in plain Python, and never imports numpy; it cuts
the planes straight from the packed words' bytes, with exact integer
thresholds in place of the draws' float comparisons.  Only a larger run
imports `numpy_draws`, whose kernel `shot_draws` draws blocks of shots
and whose `packed_planes` packs the same planes with `np.packbits`.

With no noise and unit efficiency the shared outcomes agree on every
round and every fully-recorded context satisfies its product constraint
exactly; the summary statistics quantify how both degrade otherwise.
"""

from __future__ import annotations

from functools import reduce
from math import ceil, ldexp
from operator import or_, xor
from typing import NamedTuple

from .constructions import ContextSystem
from .pauli import format_pauli
from .rng import check_key, packed_words
from .tableau import bell_product_tableau, compile_context, embed

MODES = ("alone", "in_context")
# Shots sampled together: memory is O(BLOCK_SHOTS x words), not O(shots).
BLOCK_SHOTS = 4096
# Runs that read at most this many Philox blocks compute them in plain
# Python (`rng.packed_words`) and never import numpy.  On a 2-core Xeon VM
# the lane-packed Philox costs 0.8-1.2 us per block, and the two sources
# break even near 70,000 blocks per run (children, median of 7 alternating
# pairs, both runs of a command on one source): `correlate --n 13 --noise
# 0.05 --efficiency 0.9` with 47,600 and 78,750 blocks (7,000 shots) took
# 364 ms either way, and `correlate --n 2` with 80,000 blocks per run
# took 422 ms plain and 458 ms with numpy, 100,000 blocks 527 and 448 ms.
# Plain runs peaked at 21.8 MiB RSS or less, numpy runs at 29.5-32.1 MiB.
_PURE_BLOCKS = 65536
# Bytes to binary digits, for `_word_planes`: a byte's top bit (a coin),
# a carry byte 1, and a carry byte 0.
_COINS = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)
_CARRY = bytes.maketrans(b"\0\1", b"01")
_NO_CARRY = bytes.maketrans(b"\0\1", b"10")


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
    """Check one schedule entry and compile its round into statistics columns.

    Runs the checks of the entry itself (`run_experiment` has checked the
    rest) before compiling it, so a bad entry raises before any draw.
    `blocks` holds the symbolic measurement of each context's Alice block
    (and of Bob's copy of the context in "in_context" mode), shared by
    every entry that reaches it.
    Returns (statistics columns, flip probability per outcome, context id,
    word draws up to the last fair coin's); the outcomes are Alice's
    words, then Bob's (see `_columns`).
    """
    n, system, bob_mode = config.n, config.system, config.bob_mode
    if not 0 <= alice_context_id < len(system.contexts):
        raise ValueError(f"unknown context id {alice_context_id}")
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
    columns = _columns(
        forms, split, (shared_pos, split + bob_shared_pos), context.expected_sign, bob_mode
    )
    p_alice, p_bob = _noise_pair(config.noise)
    flip_p = (p_alice,) * split + (p_bob,) * (len(forms) - split)
    # Coin j is bit j + 1 of a form; forced words' draws are never read.
    coin_draws = max(max(form.bit_length() for form in forms) - 1, 0)
    return columns, flip_p, alice_context_id, coin_draws


def _columns(forms, split: int, shared: tuple[int, int], expected_sign: int, bob_mode: str):
    """The statistics of a compiled round, each as the record bits it combines.

    A shot's record is 1, the coin of each word (draw >= 1/2), then per
    outcome a flip bit and an erasure bit, in the order of its draws, so
    bit r of a form is record bit r.  Returns eight tuples of record bit
    indices: Alice's and Bob's shared outcome erased, their recorded
    values, and their contexts failing the product, each the XOR of its
    bits; then their contexts erased in part, each the OR of its bits.  A
    context fails when the XOR of its recorded outcomes differs from its
    expected product.
    """
    width = len(forms)
    contexts = (range(split), range(split, width))
    product = int(expected_sign == -1)
    fails = [reduce(xor, (forms[j] for j in cols), product) for cols in contexts]
    flip = [1 + width + 2 * j for j in range(width)]  # each erasure bit follows its flip bit
    lost = [(flip[j] + 1,) for j in shared]
    values = [(*_bits(forms[j]), flip[j]) for j in shared]
    failing = [(*_bits(form), *(flip[j] for j in cols)) for form, cols in zip(fails, contexts)]
    partial = [tuple(flip[j] + 1 for j in cols) for cols in contexts]
    if bob_mode != "in_context":
        partial[1] = (0, *partial[1])  # Bob measures no context: the constant 1 marks it partial
    return (*lost, *values, *failing, *partial)


def _bits(form: int) -> tuple[int, ...]:
    """The set bits of an affine form, which are its record bits."""
    return tuple(r for r in range(form.bit_length()) if form >> r & 1)


def _word_planes(rows: int, words: list[bytes], flip_p: tuple, efficiency: float) -> list[int]:
    """The record planes of `rows` shots, from their words (`rng.packed_words`).

    Bit i of plane r is record bit r of shot i.  A shot's words are one
    per outcome, then a flip word and an erasure word per outcome,
    Alice's outcomes first; with no noise and unit efficiency only coins
    are drawn, and the planes stop there.  Word x of shot i sits in the
    low half of the 16-byte slot i, so its coin x >> 63 is the top bit of
    the slot's byte 7.  Its flip, the draw (x >> 11) * 2**-53 below p, is
    x < t for t = ceil(p 2**53) << 11 exactly, since x >> 11 is an integer
    below the real p 2**53 iff it is below its ceiling.  Adding 2**64 - t
    to every slot carries into bit 64, byte 8 of the slot, iff x >= t: a
    flip is the absence of that carry and an erasure, with t from the
    efficiency, is the carry itself.
    """
    if not rows:
        return [0]
    width = len(flip_p)
    planes = [(1 << rows) - 1]
    planes += [int(word[-9::-16].translate(_COINS), 2) for word in words[:width]]
    if len(words) > width:
        # One sum over every flip and erasure word, last word first, so
        # that the carries read backwards come word by word in order.
        erase = _addend(efficiency) * rows
        addend = b"".join([erase + _addend(p) * rows for p in reversed(flip_p)])
        total = int.from_bytes(b"".join(reversed(words[width:])), "little")
        total += int.from_bytes(addend, "little")
        carries = total.to_bytes(len(addend), "little")[-8::-16]
        for start in range(0, len(carries), 2 * rows):
            planes.append(int(carries[start : start + rows].translate(_NO_CARRY), 2))
            planes.append(int(carries[start + rows : start + 2 * rows].translate(_CARRY), 2))
    return planes


def _addend(p: float) -> bytes:
    """The slot of 2**64 - t for t = ceil(p 2**53) << 11: a word x carries past 64 bits iff x >= t."""
    return ((1 << 64) - (ceil(ldexp(p, 53)) << 11)).to_bytes(16, "little")


def _counts(columns, planes: list[int]) -> list[int]:
    """The summary counts of one entry's shots, from their record planes.

    Plane 0 is all ones, one bit per shot.  Returns the comparable and
    the equal shots, Alice's shared +1 and -1 counts, Bob's, and the
    number of fully recorded contexts and of those meeting their product.
    """
    ones = planes[0]
    lost_a, lost_b, value_a, value_b, fail_a, fail_b = (
        reduce(xor, [planes[r] for r in bits], 0) for bits in columns[:6]
    )
    partial_a, partial_b = (reduce(or_, [planes[r] for r in bits], 0) for bits in columns[6:])
    kept_a, kept_b = ones & ~lost_a, ones & ~lost_b
    full_a, full_b = ones & ~partial_a, ones & ~partial_b
    comparable = kept_a & kept_b
    return [
        comparable.bit_count(),
        (comparable & ~(value_a ^ value_b)).bit_count(),
        (kept_a & ~value_a).bit_count(),
        (kept_a & value_a).bit_count(),
        (kept_b & ~value_b).bit_count(),
        (kept_b & value_b).bit_count(),
        full_a.bit_count() + full_b.bit_count(),
        (full_a & ~fail_a).bit_count() + (full_b & ~fail_b).bit_count(),
    ]


class ExperimentConfig(NamedTuple):
    n: int
    system: ContextSystem
    shots: int
    schedule: tuple[tuple[int, int], ...] | None = None  # (context id, catalog id)
    noise: float | tuple[float, float] = 0.0
    efficiency: float = 1.0
    seed: int = 0
    bob_mode: str = "alone"


class ExperimentSummary(NamedTuple):
    shots: int
    equality_rate: float | None
    product_pass_rates: dict[int, float | None]
    conclusive_fraction: float | None
    seed: int
    bob_mode: str
    noise: tuple[float, float]
    efficiency: float
    equal_rounds: int
    comparable_rounds: int
    shared_counts: dict[str, dict[int, int]]


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
    each entry's shots of a block as one set of record planes, and the
    counts of every block are summed.  The summary is bit-identical for
    equal seeds regardless of execution order or of the source of the
    words, because every shot derives its randomness from (seed, shot).
    """
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    p_alice, p_bob = _noise_pair(config.noise)
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")
    # A bad seed, or a shot the key cannot address, fails before any entry is checked.
    check_key(config.seed, max(config.shots - 1, 0))
    # Checked here, not per entry, so that they hold even when no shot runs.
    if config.system.num_qubits != config.n:
        raise ValueError(f"system acts on {config.system.num_qubits} qubits, expected {config.n}")
    if config.bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {config.bob_mode!r}")
    if not 0.0 < config.efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {config.efficiency}")

    blocks: dict = {}
    rounds = [
        _compile_round(config, ctx_id, obs_id, blocks)
        for ctx_id, obs_id in schedule[: min(len(schedule), config.shots)]
    ]

    # Each shot draws only what its round reads: with no noise and unit
    # efficiency no flip or erasure draw, and no draw past the last coin's.
    exact = p_alice == p_bob == 0.0 and config.efficiency == 1.0
    reads = [coin_draws if exact else 3 * len(flip_p) for _, flip_p, _, coin_draws in rounds]
    period = len(schedule)
    philox_blocks = sum(
        len(range(entry, config.shots, period)) * -(-k // 4) for entry, k in enumerate(reads)
    )
    if philox_blocks > _PURE_BLOCKS:
        try:
            from .numpy_draws import packed_planes, shot_draws
        except ImportError as err:
            budget = f"this run reads {philox_blocks} Philox blocks, above the draw budget of {_PURE_BLOCKS}"
            raise ImportError(f"{budget}, and needs numpy: {err}") from err
    seed, efficiency = config.seed, config.efficiency
    counts = [0] * 6  # comparable, equal, Alice's +1 and -1, Bob's +1 and -1
    totals = [0] * len(config.system.contexts)
    passes = [0] * len(config.system.contexts)
    for start in range(0, config.shots, BLOCK_SHOTS):
        stop = min(start + BLOCK_SHOTS, config.shots)
        groups = [
            (range(start + (entry - start) % period, stop, period), k)
            for entry, k in enumerate(reads)
        ]
        if philox_blocks <= _PURE_BLOCKS:
            planes = [
                _word_planes(len(shots), words, flip_p, efficiency)
                for (shots, _), words, (_, flip_p, _, _) in zip(
                    groups, packed_words(seed, groups), rounds
                )
            ]
        else:
            planes = [
                packed_planes(draws, flip_p, efficiency)
                for draws, (_, flip_p, _, _) in zip(shot_draws(seed, groups), rounds)
            ]
        for (columns, flip_p, ctx_id, _), entry in zip(rounds, planes):
            entry += [0] * (1 + 3 * len(flip_p) - len(entry))  # no shot, or no noise draws
            *shared, total, passed = _counts(columns, entry)
            counts = [a + b for a, b in zip(counts, shared)]
            totals[ctx_id] += total
            passes[ctx_id] += passed

    comparable, equal, alice_plus, alice_minus, bob_plus, bob_minus = counts
    return ExperimentSummary(
        shots=config.shots,
        equality_rate=(equal / comparable) if comparable else None,
        product_pass_rates={ci: passes[ci] / t for ci, t in enumerate(totals) if t},
        conclusive_fraction=comparable / config.shots if config.shots else None,
        seed=config.seed,
        bob_mode=config.bob_mode,
        noise=(p_alice, p_bob),
        efficiency=float(config.efficiency),
        equal_rounds=equal,
        comparable_rounds=comparable,
        shared_counts={
            "alice": {+1: alice_plus, -1: alice_minus},
            "bob": {+1: bob_plus, -1: bob_minus},
        },
    )
