"""Two-observer measurement protocol on shared Bell pairs.

Per round, observer A measures a full commuting context on her block of
the Bell-product state and observer B measures one shared observable on
his block, either by itself or inside his copy of the same context.  Both
measure on the stabilizer tableau of the shared state (`tableau`).
Every recorded outcome is independently flipped with probability `noise`
and erased (inconclusive) with probability 1 - `efficiency`.

The module has two layers.  The compile layer (`compile_schedule`)
measures each schedule entry's round once into GF(2) affine forms, one
per outcome, with no noise, efficiency or seed: `tableau.compile_context`
measures A's words on the Bell tableau, then B's on the tableau that A's
measurement leaves, which numbers B's coins after A's.  The sampling
layer maps those forms to record bits (`_columns`, the one place that
knows the record-bit layout): the shared outcomes' erasures and values,
and for each context measured (A's, and B's in "in_context" mode) its
product failing and its partial erasure.  An experiment then evaluates
the statistics bit-sliced: for each schedule entry, record bit r of all
its shots is one Python int (a record plane, bit q for the entry's q-th
shot), so a statistic is a few int XORs or ORs and the summary is
popcounts.  The planes are drawn straight from plain-int Philox blocks
(`rng.philox_blocks`), with no numpy, after Stim's bit-packed noise
sampling (Gidney, Quantum 5, 497 (2021)): each entry has its own
stream, and the block at counter (lane chunk, record bit, round, 0)
gives 256 lanes of one plane.  A coin is the bit of round 0; a flip
(U < noise) or an erasure (U >= efficiency) compares each lane's uniform
U, read one binary digit per round, with the binary digits of the
threshold, and a lane is decided at the first digit where they differ.
Each plane that needs draws is a job of its own: one call per digit
draws the blocks of every live job, and a job retires once its lanes
are decided (`_record_planes`).

The forms show the exact regime: Bob's shared form is Alice's and a
context's forms XOR to its sign's bit, so with no noise and unit
efficiency the shared outcomes agree and every context meets its
product; the summary statistics quantify how both degrade otherwise.
"""

from collections import namedtuple
from functools import reduce
from operator import or_, xor

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


ExperimentConfig = namedtuple(
    "ExperimentConfig",
    "system shots schedule noise efficiency seed bob_mode",
    defaults=(None, 0.0, 1.0, 0, "alone"),
)
ExperimentConfig.__doc__ = """A run of `run_experiment`.  `schedule` is a tuple of (context id,
catalog id) pairs, or None for `default_schedule(system)`.
"""

ExperimentSummary = namedtuple(
    "ExperimentSummary",
    "shots equality_rate product_pass_rates conclusive_fraction seed bob_mode noise efficiency"
    " equal_rounds comparable_rounds shared_counts",
)
ExperimentSummary.__doc__ = """What `run_experiment` counted.  `equality_rate` is None with no
comparable round and `conclusive_fraction` with no shot;
`product_pass_rates` maps each context id with a fully recorded round to
its pass rate, and `shared_counts` maps "alice" and "bob" to how often
the shared word read +1 and -1.
"""


CompiledRound = namedtuple("CompiledRound", "context_id alice bob shared sign")
CompiledRound.__doc__ = """One schedule entry measured symbolically (`compile_schedule`).

`alice` and `bob` are the outcome forms of the words each measures
(`tableau.compile_context`), Bob's coins numbered after Alice's;
`shared` is the shared word's position in each, and `sign` is the
context's expected sign.
"""


def _check_mode(bob_mode: str) -> None:
    if bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {bob_mode!r}")


def compile_schedule(system: ContextSystem, schedule, bob_mode: str = "alone") -> list:
    """Every schedule entry's round as GF(2) affine forms, one `CompiledRound` each.

    On the register of two blocks of `system.num_qubits` qubits, Alice
    measures her context on the Bell tableau, then Bob his words (the
    shared word in "alone" mode, his copy of the context in "in_context"
    mode) on the tableau that hers leaves.  Each entry is checked before
    it is compiled, so the first bad entry raises; each context's Alice
    block, and each Bob block, is compiled once per call.
    """
    _check_mode(bob_mode)
    catalog = system.catalog
    alice_blocks, bob_blocks, rounds = {}, {}, []
    for ctx_id, obs_id in schedule:
        if not 0 <= ctx_id < len(system.contexts):
            raise ValueError(f"unknown context id {ctx_id}")
        context = system.contexts[ctx_id]
        if not 0 <= obs_id < len(catalog):
            raise ValueError(f"unknown observable id {obs_id}")
        word = catalog[obs_id]
        try:
            position = context.observables.index(word)
        except ValueError:
            raise ValueError(f"shared observable {format_pauli(word)} is not in context {ctx_id}") from None
        if ctx_id not in alice_blocks:
            words = [embed(o, "alice") for o in context.observables]
            alice_blocks[ctx_id] = compile_context(bell_product_tableau(system.num_qubits), words)
        alice, post = alice_blocks[ctx_id]
        if bob_mode == "alone":
            key, bob_words, shared = (ctx_id, obs_id), (word,), (position, 0)
        else:
            key, bob_words, shared = ctx_id, context.observables, (position, position)
        if key not in bob_blocks:
            bob_blocks[key] = compile_context(post, [embed(o, "bob") for o in bob_words])[0]
        rounds.append(CompiledRound(ctx_id, alice, bob_blocks[key], shared, context.expected_sign))
    return rounds


def _columns(compiled: CompiledRound, bob_mode: str, noise: float, efficiency: float) -> tuple:
    """The statistics of a compiled round as record bits, and the test of each bit read.

    A shot's record is 1, the coin of each outcome (Alice's, then Bob's),
    then per outcome a flip bit and an erasure bit, so bit r of a form is
    record bit r.  The columns are tuples of record bits: Alice's and
    Bob's shared outcome erased and their recorded values, each the XOR
    of its bits; then, for each measured context (Alice's, and Bob's in
    "in_context" mode), the context failing its product, the XOR of its
    bits, and the context erased in part, the OR of its bits.  The tests
    are (r, p, above) for each record bit r > 0 the columns read: a coin
    is U >= 1/2, a flip U < noise and an erasure U >= efficiency.  A
    forced word's coin is never read.
    """
    forms = compiled.alice + compiled.bob
    split, width = len(compiled.alice), len(forms)
    flip = [1 + width + 2 * j for j in range(width)]  # each erasure bit follows its flip bit
    shared = (compiled.shared[0], split + compiled.shared[1])
    lost = [(flip[j] + 1,) for j in shared]
    values = [(*_bits(forms[j]), flip[j]) for j in shared]
    measured = []
    for cols in (range(split),) if bob_mode == "alone" else (range(split), range(split, width)):
        fail = reduce(xor, (forms[j] for j in cols), int(compiled.sign == -1))
        measured += [(*_bits(fail), *(flip[j] for j in cols)), tuple(flip[j] + 1 for j in cols)]
    columns = (*lost, *values, *measured)
    tests = [(0.5, True)] * width + [(float(noise), False), (float(efficiency), True)] * width
    return columns, [(r, *tests[r - 1]) for r in sorted({r for bits in columns for r in bits} - {0})]


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


def _record_planes(seed: int, chunk: int, entries, digits: dict) -> list[dict]:
    """The record planes of each entry's lanes from lane 256 * chunk on.

    Entry (key, lanes, tests) gives a dict of planes of `lanes` bits, by
    record bit: plane 0 is all ones, and plane r is record bit r for each
    test (r, p, above), the lanes whose U is below p, or with `above` the
    others.  Lane q's U is the binary fraction 0.u1 u2 ..., digit k the
    bit of lane q in the block of the entry's stream at counter
    (chunk + q // 256, r, k - 1, 0).  Digit by digit, a lane is decided
    where its digit differs from p's (`digits[p]`): below p where p's is
    1, above where it is 0.  Lanes equal to p up to p's last 1 are not
    below it.

    Each plane that needs draws is a job that holds its own undecided
    lanes and those found below p.  Each round draws one block per chunk
    of every live job, for all entries at once (`rng.philox_blocks`), and
    a job retires once all its lanes are decided.
    """
    planes, live = [], []
    for key, lanes, tests in entries:
        ones = (1 << lanes) - 1
        row = {0: ones}
        planes.append(row)
        heads = [key.to_bytes(8, "little") + c.to_bytes(8, "little") for c in range(chunk, chunk - (-lanes // 256))]
        for r, p, above in tests:
            flip = ones if above else 0  # the plane is its lanes below p XOR flip
            if digits[p]:
                # A job: the key and counter words of its blocks, the bytes
                # those blocks fill, p's digits, where the plane goes and its
                # flip, then its lanes still undecided and those found below p.
                words = b"".join([head + r.to_bytes(8, "little") for head in heads])
                live.append([words, 32 * len(heads), digits[p], row, r, flip, ones, 0])
            else:  # p = 0 or p = 1: every lane is decided without a draw
                row[r] = (ones if digits[p] is None else 0) ^ flip
    k, from_bytes = 0, int.from_bytes
    while live:
        blocks = philox_blocks(seed, k, b"".join([job[0] for job in live]))
        end, survivors = 0, []
        for job in live:
            _, size, p_digits, row, r, flip, undecided, below = job
            start = end
            end += size
            bits = from_bytes(blocks[start:end], "little")
            if p_digits[k] == "1":
                below |= undecided & ~bits
                undecided &= bits
            else:
                undecided &= ~bits
            if undecided and k + 1 < len(p_digits):
                job[6] = undecided
                job[7] = below
                survivors.append(job)
            else:
                row[r] = below ^ flip
        live, k = survivors, k + 1
    return planes


def _counts(columns, planes: dict) -> list[int]:
    """The summary counts of one entry's shots, from their record planes by record bit.

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
    schedule = default_schedule(config.system) if config.schedule is None else config.schedule
    if not schedule:
        raise ValueError("schedule is empty")
    period = len(schedule)
    # A bad seed fails before any entry is checked.
    check_key(config.seed, period - 1)
    # Checked here, not per entry, so that they hold even when no shot runs.
    _check_mode(config.bob_mode)
    if not 0.0 < config.efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {config.efficiency}")

    compiled = compile_schedule(config.system, schedule[: min(period, config.shots)], config.bob_mode)
    rounds = [_columns(c, config.bob_mode, config.noise, config.efficiency) for c in compiled]

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
            (entry, min(n - first, step), tests)
            for entry, (n, (_, tests)) in enumerate(zip(lanes, rounds))
            if n > first
        ]
        planes = _record_planes(config.seed, first // 256, entries, digits)
        for c, (columns, _), entry in zip(compiled, rounds, planes):
            *shared, total, passed = _counts(columns, entry)
            counts = [a + b for a, b in zip(counts, shared)]
            totals[c.context_id] += total
            passes[c.context_id] += passed

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
