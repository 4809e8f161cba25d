"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`tableau`).
Every recorded outcome is independently flipped with probability `noise`
and erased (inconclusive) with probability 1 - `efficiency`.

A round is compiled once into GF(2) affine forms, one per outcome:
`tableau.compile_context` measures A's words on the Bell tableau, then
B's on the tableau that A's measurement leaves, which numbers B's coins
after A's.  The forms give the record bits that each statistic combines:
the shared outcomes' erasures and values, and for each context measured
(A's, and B's in "in_context" mode) its product failing and its partial
erasure.  An experiment then evaluates the statistics bit-sliced: for
each schedule entry, record bit r of all its shots is one Python int (a
record plane, bit q for the entry's q-th shot), so a statistic is a few
int XORs or ORs and the summary is popcounts.  The planes are drawn
straight from plain-int Philox blocks (`rng.philox_blocks`), with no
numpy, after Stim's bit-packed noise sampling (Gidney, Quantum 5, 497
(2021)): each entry has its own stream, and the block at counter (lane
chunk, record bit, round, 0) gives 256 lanes of one plane.  A coin is
the bit of round 0; a flip (U < noise) or an erasure (U >= efficiency)
compares each lane's uniform U, read one binary digit per round, with
the binary digits of the threshold, and a lane is decided at the first
digit where they differ (`_record_planes`).

With no noise and unit efficiency the shared outcomes agree on every
round and every fully-recorded context satisfies its product constraint
exactly; the summary statistics quantify how both degrade otherwise.
"""

from __future__ import annotations

from functools import reduce
from operator import or_, xor
from typing import NamedTuple

from .constructions import ContextSystem
from .pauli import format_pauli
from .rng import check_key, philox_blocks
from .tableau import bell_product_tableau, compile_context, embed

MODES = ("alone", "in_context")
# Lanes of each entry sampled together, in 256-lane chunks: memory is
# O(entries x record bits x BLOCK_CHUNKS), not O(shots).  On a 2-core VM
# 4, 8 and 16 chunks ran 10^5 and 5 x 10^5 shots of n = 13 equally fast;
# at 5 x 10^5 shots 4 peaked at 19 MiB RSS, 16 at 28 MiB.
BLOCK_CHUNKS = 4


def _compile_round(
    config: ExperimentConfig, alice_context_id: int, shared_observable_id: int, blocks: dict
) -> tuple:
    """Check one schedule entry and compile its round into statistics columns.

    Runs the checks of the entry itself (`run_experiment` has checked the
    rest) before compiling it, so a bad entry raises before any draw.
    `blocks` holds the symbolic measurement of each context's Alice block
    (its forms and post-measurement tableau) and of Bob's words on that
    tableau, shared by every entry that reaches them.  The register has
    two blocks of `system.num_qubits` qubits.
    Returns (statistics columns, number of record bits, context id, the
    tests of the record bits the columns read); the outcomes are Alice's
    words, then Bob's, and the measured contexts are Alice's and, in
    "in_context" mode, Bob's (see `_columns`).
    """
    system, bob_mode = config.system, config.bob_mode
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
        words = [embed(o, "alice") for o in context.observables]
        alice = blocks[alice_context_id] = compile_context(bell_product_tableau(system.num_qubits), words)
    alice_forms, post = alice
    if bob_mode == "alone":
        key = (alice_context_id, shared_observable_id)
        bob_words, bob_shared_pos = (shared,), 0
    else:
        key = (alice_context_id, None)
        bob_words, bob_shared_pos = context.observables, shared_pos
    bob_forms = blocks.get(key)
    if bob_forms is None:
        words = [embed(o, "bob") for o in bob_words]
        bob_forms = blocks[key] = compile_context(post, words)[0]
    split = len(alice_forms)
    forms = alice_forms + bob_forms
    width = len(forms)
    contexts = (range(split),) if bob_mode == "alone" else (range(split), range(split, width))
    columns = _columns(forms, (shared_pos, split + bob_shared_pos), context.expected_sign, contexts)
    # Each record bit a statistic reads, with its test: a coin (record bit
    # j + 1 for outcome j) is U >= 1/2, then outcome j's flip U < noise and
    # its erasure U >= efficiency.  A forced word's coin is never read.
    tests = []
    for r in sorted({r for bits in columns for r in bits} - {0}):
        if r <= width:
            tests.append((r, 0.5, True))
        elif (r - width) % 2:  # flip bit 1 + width + 2j
            tests.append((r, float(config.noise), False))
        else:
            tests.append((r, float(config.efficiency), True))
    return columns, 1 + 3 * width, alice_context_id, tests


def _columns(forms, shared: tuple[int, int], expected_sign: int, contexts):
    """The statistics of a compiled round, each as the record bits it combines.

    A shot's record is 1, the coin of each word (draw >= 1/2), then per
    outcome a flip bit and an erasure bit, in the order of its draws, so
    bit r of a form is record bit r.  Returns tuples of record bit
    indices: Alice's and Bob's shared outcome erased and their recorded
    values, each the XOR of its bits; then, for each measured context (a
    range of outcomes), the context failing its product, the XOR of its
    bits, and the context erased in part, the OR of its bits.  A context
    fails when the XOR of its recorded outcomes differs from its expected
    product.
    """
    width = len(forms)
    product = int(expected_sign == -1)
    flip = [1 + width + 2 * j for j in range(width)]  # each erasure bit follows its flip bit
    lost = [(flip[j] + 1,) for j in shared]
    values = [(*_bits(forms[j]), flip[j]) for j in shared]
    measured = []
    for cols in contexts:
        fail = reduce(xor, (forms[j] for j in cols), product)
        measured += [(*_bits(fail), *(flip[j] for j in cols)), tuple(flip[j] + 1 for j in cols)]
    return (*lost, *values, *measured)


def _bits(form: int) -> tuple[int, ...]:
    """The set bits of an affine form, which are its record bits."""
    return tuple(r for r in range(form.bit_length()) if form >> r & 1)


def _digits(p: float) -> str | None:
    """The binary digits of p in [0, 1] after the point, up to its last 1; None for p = 1.

    p = 0.d1 d2 d3 ... exactly: a double is a dyadic rational.
    """
    numerator, denominator = p.as_integer_ratio()
    if numerator == denominator:
        return None
    return format(numerator, "b").zfill(denominator.bit_length() - 1) if numerator else ""


def _record_planes(seed: int, chunk: int, entries, digits: dict) -> list[list[int]]:
    """The record planes of each entry's lanes from lane 256 * chunk on.

    Entry (key, lanes, size, tests) gives `size` planes of `lanes` bits:
    plane 0 is all ones, and plane r is record bit r for each test (r, p,
    above), the lanes whose U is below p, or with `above` the others;
    planes no test names stay 0.  Lane q's U is the binary fraction
    0.u1 u2 ..., digit k the bit of lane q in the block of the entry's
    stream at counter (chunk + q // 256, r, k - 1, 0).  Digit by digit, a
    lane is decided where its digit differs from p's (`digits[p]`): below
    p where p's is 1, above where it is 0.  Lanes equal to p up to p's
    last 1 are not below it.

    Each round draws one block per chunk of every plane with a lane still
    undecided, for all entries at once (`rng.philox_blocks`).  The planes
    of one p share p's digits, so each round updates all their lanes with
    a few big-int operations, 256 bits per block.
    """
    planes, groups = [], {}
    for key, lanes, size, tests in entries:
        ones = (1 << lanes) - 1
        row = [ones] + [0] * (size - 1)
        planes.append(row)
        heads = [key.to_bytes(8, "little") + c.to_bytes(8, "little") for c in range(chunk, chunk - (-lanes // 256))]
        width = 32 * len(heads)  # the bytes of a plane's blocks
        all_lanes, zero = ones.to_bytes(width, "little"), bytes(width)
        for r, p, above in tests:
            flip = ones if above else 0  # the plane is its lanes below p XOR flip
            if digits[p]:
                # Per p: its jobs, each the key and counter words of a plane's
                # blocks, their width, a zero of that width, where the plane
                # goes and its flip; and, job after job, their lanes still
                # undecided and those found below p, one 256-bit block per chunk.
                jobs, undecided, below = groups.setdefault(digits[p], ([], [], []))
                tail = r.to_bytes(8, "little")
                jobs.append((b"".join([head + tail for head in heads]), width, zero, row, r, flip))
                undecided.append(all_lanes)
                below.append(zero)
            else:  # p = 0 or p = 1: every lane is decided without a draw
                row[r] = (ones if digits[p] is None else 0) ^ flip
    live, k = [(p_digits, *group) for p_digits, group in groups.items()], 0
    while live:
        blocks = philox_blocks(seed, k, b"".join([job[0] for _, jobs, _, _ in live for job in jobs]))
        start, survivors = 0, []
        for p_digits, jobs, undecided, below in live:
            undecided, below = b"".join(undecided), b"".join(below)
            size = len(undecided)
            bits = int.from_bytes(blocks[start : start + size], "little")
            undecided, below = int.from_bytes(undecided, "little"), int.from_bytes(below, "little")
            start += size
            if p_digits[k] == "1":
                below |= undecided & ~bits
                undecided &= bits
            else:
                undecided &= ~bits
            last = k + 1 == len(p_digits)
            u, b = undecided.to_bytes(size, "little"), below.to_bytes(size, "little")
            kept, i = ([], [], []), 0
            for job in jobs:
                j = i + job[1]
                lanes = u[i:j]
                if last or lanes == job[2]:  # every lane decided
                    _, _, _, row, r, flip = job
                    row[r] = int.from_bytes(b[i:j], "little") ^ flip
                else:
                    kept[0].append(job)
                    kept[1].append(lanes)
                    kept[2].append(b[i:j])
                i = j
            if kept[0]:
                survivors.append((p_digits, *kept))
        live, k = survivors, k + 1
    return planes


def _counts(columns, planes: list[int]) -> list[int]:
    """The summary counts of one entry's shots, from their record planes.

    Plane 0 is all ones, one bit per shot.  Returns the comparable and
    the equal shots, Alice's shared +1 and -1 counts, Bob's, and the
    number of measured contexts fully recorded and of those meeting
    their product.
    """
    ones = planes[0]
    lost_a, lost_b, value_a, value_b = (reduce(xor, [planes[r] for r in bits], 0) for bits in columns[:4])
    kept_a, kept_b = ones & ~lost_a, ones & ~lost_b
    comparable = kept_a & kept_b
    total = passed = 0
    for fail_bits, partial_bits in zip(columns[4::2], columns[5::2]):
        full = ones & ~reduce(or_, [planes[r] for r in partial_bits], 0)
        total += full.bit_count()
        passed += (full & ~reduce(xor, [planes[r] for r in fail_bits], 0)).bit_count()
    return [
        comparable.bit_count(),
        (comparable & ~(value_a ^ value_b)).bit_count(),
        (kept_a & ~value_a).bit_count(),
        (kept_a & value_a).bit_count(),
        (kept_b & ~value_b).bit_count(),
        (kept_b & value_b).bit_count(),
        total,
        passed,
    ]


class ExperimentConfig(NamedTuple):
    system: ContextSystem
    shots: int
    schedule: tuple[tuple[int, int], ...] | None = None  # (context id, catalog id)
    noise: float = 0.0
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
    noise: float
    efficiency: float
    equal_rounds: int
    comparable_rounds: int
    shared_counts: dict[str, dict[int, int]]


def default_schedule(system: ContextSystem) -> tuple[tuple[int, int], ...]:
    """Every (context, member) pair once, in system order."""
    index = system.catalog_index
    return tuple(
        (ci, index[obs])
        for ci, ctx in enumerate(system.contexts)
        for obs in ctx.observables
    )


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run `shots` rounds cycling over the schedule, with a random stream per entry.

    Shot s runs schedule entry e = s mod len(schedule) as that entry's
    lane s // len(schedule).  Each entry the run reaches is checked and
    compiled once.  The lanes are then sampled in blocks of
    `BLOCK_CHUNKS` 256-lane chunks, every entry's lanes of a block as one
    set of record planes, and the counts of every block are summed.  A
    lane's records depend only on (seed, entry, lane), so the summary is
    the same however the lanes are blocked, and shot s's records do not
    depend on the number of shots.
    """
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    if config.shots > 1 << 72:  # an entry's lane chunks are one 64-bit counter word
        raise ValueError(f"shots must be at most 2**72, got {config.shots}")
    if not 0.0 <= config.noise <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {config.noise}")
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")
    period = len(schedule)
    # A bad seed fails before any entry is checked.
    check_key(config.seed, period - 1)
    # Checked here, not per entry, so that they hold even when no shot runs.
    if config.bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {config.bob_mode!r}")
    if not 0.0 < config.efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {config.efficiency}")

    blocks: dict = {}
    rounds = [
        _compile_round(config, ctx_id, obs_id, blocks)
        for ctx_id, obs_id in schedule[: min(period, config.shots)]
    ]

    # Every entry's lanes; later entries never have more, so the entries
    # with lanes left in a block are the first few.
    lanes = [len(range(entry, config.shots, period)) for entry in range(len(rounds))]
    digits = {p: _digits(p) for p in (0.5, float(config.noise), float(config.efficiency))}
    counts = [0] * 6  # comparable, equal, Alice's +1 and -1, Bob's +1 and -1
    totals = [0] * len(config.system.contexts)
    passes = [0] * len(config.system.contexts)
    step = 256 * BLOCK_CHUNKS
    for first in range(0, lanes[0] if lanes else 0, step):
        entries = [
            (entry, min(n - first, step), size, tests)
            for entry, (n, (_, size, _, tests)) in enumerate(zip(lanes, rounds))
            if n > first
        ]
        planes = _record_planes(config.seed, first // 256, entries, digits)
        for (columns, _, ctx_id, _), entry in zip(rounds, planes):
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
        noise=float(config.noise),
        efficiency=float(config.efficiency),
        equal_rounds=equal,
        comparable_rounds=comparable,
        shared_counts={
            "alice": {+1: alice_plus, -1: alice_minus},
            "bob": {+1: bob_plus, -1: bob_minus},
        },
    )
