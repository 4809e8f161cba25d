"""Per-round reference protocol: the oracle for the compiled batch sampler.

`reference_experiment` runs one round per shot and measures with a
function passed in: either `oracles.measure_context` on the dense
Bell-product state, or `tableau_measure`, a concrete measurement on a
tableau of `PauliOperator` records (`RecordTableau`, each sign in its
stabilizer's phase) that updates the signs in place.  It builds its own
Bell tableau (`record_bell_tableau`) and shares no code with
`tableau.compile_context` beyond the input checks.  Words go onto each
observer's block with `oracles.relabel`, not with `tableau.embed`.

Each shot reads its own lane of the random layout, one bit at a time,
from NumPy's `Philox(key=[seed, entry])` with its counter set (`Lane`),
not from `bellcheck.rng`: shot s runs entry e = s mod len(schedule) as
lane q = s // len(schedule), and record bit r's uniform U has binary
digit k + 1 at bit q mod 256 of the block at counter (q // 256, r, k, 0).
A word's outcome reads its coin, record bit j + 1, and a recorded
outcome its flip and erasure bits by the definitions U < p and
U >= efficiency (`Lane.below`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import numpy as np

from oracles import bell_product_state, measure_context, relabel
from bellcheck.pauli import PauliOperator, commutes, identity, multiply, single
from bellcheck.protocol import MODES, ExperimentSummary, default_schedule
from bellcheck.rng import check_key
from bellcheck.tableau import _check_size, _checked_context


class RecordTableau(NamedTuple):
    """A tableau of `PauliOperator` records: each stabilizer's sign is its phase."""

    num_qubits: int
    stabilizers: tuple
    destabilizers: tuple


def record_bell_tableau(n):
    """The n Bell pairs: stabilizers X_k X_{n+k} and Z_k Z_{n+k}, destabilizers Z_k and X_{n+k}."""
    m = 2 * n
    pairs = [(k, n + k) for k in range(1, n + 1)]
    stabilizers = [multiply(single(p, a, m), single(p, b, m)) for p in "XZ" for a, b in pairs]
    destabilizers = [single("Z", a, m) for a, _ in pairs] + [single("X", b, m) for _, b in pairs]
    return RecordTableau(m, tuple(stabilizers), tuple(destabilizers))


def tableau_measure(tableau, context_ops, rng):
    """Measure word by word, each outcome drawn before the next word is seen."""
    ops = _checked_context(context_ops)
    for op in ops:
        _check_size(op, tableau)
    stabilizers = list(tableau.stabilizers)
    destabilizers = list(tableau.destabilizers)
    outcomes = []
    for op in ops:
        pivot = next((i for i, s in enumerate(stabilizers) if not commutes(s, op)), None)
        if pivot is None:
            acc = identity(op.num_qubits)
            for s, d in zip(stabilizers, destabilizers):
                if not commutes(d, op):
                    acc = multiply(acc, s)
            assert (acc.x_mask, acc.z_mask) == (op.x_mask, op.z_mask)
            p_plus = 1.0 if acc.phase_exponent == op.phase_exponent else 0.0
        else:
            p_plus = 0.5
        outcome = +1 if rng.random() < p_plus else -1
        outcomes.append(outcome)
        if pivot is None:
            continue
        row = stabilizers[pivot]
        for rows in (stabilizers, destabilizers):
            for i, other in enumerate(rows):
                if i != pivot and not commutes(other, op):
                    rows[i] = multiply(other, row)
        destabilizers[pivot] = row
        stabilizers[pivot] = PauliOperator(
            op.num_qubits, op.x_mask, op.z_mask, op.phase_exponent + (0 if outcome == +1 else 2)
        )
    return outcomes, RecordTableau(tableau.num_qubits, tuple(stabilizers), tuple(destabilizers))


BACKENDS = {
    "dense": (bell_product_state, measure_context),
    "tableau": (record_bell_tableau, tableau_measure),
}


class Round(NamedTuple):
    """Recorded outcomes of one round; None marks an erased outcome."""

    alice_outcomes: tuple
    bob_outcomes: tuple
    shared_alice: int | None
    shared_bob: int | None


def _on_side(n, observables, side):
    offset = 0 if side == "alice" else n
    return [relabel(o, {k: k + offset for k in range(1, n + 1)}, 2 * n) for o in observables]


@lru_cache(maxsize=1 << 16)
def _block(seed, entry, counter):
    """The block at a 256-bit counter of stream (seed, entry), as an int, from NumPy's `Philox`.

    NumPy's Philox steps its counter before each block, so it is set one below.
    """
    key = np.array([seed, entry], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=(counter - 1) % 2**256).random_raw(4)
    return sum(int(x) << 64 * w for w, x in enumerate(words))


class Lane:
    """The random bits of one lane (one shot) of an entry's stream."""

    def __init__(self, seed, entry, lane):
        self.seed, self.entry, self.lane = seed, entry, lane
        self.coins = 0

    def bit(self, r, k):
        """Digit k + 1 of record bit r's U: its bit in the block at counter (lane // 256, r, k, 0)."""
        counter = self.lane // 256 | r << 64 | k << 128
        return _block(self.seed, self.entry, counter) >> self.lane % 256 & 1

    def below(self, r, p):
        """Whether record bit r's U = 0.u1 u2 ... is below p, read digit by digit until decided."""
        low, width = Fraction(0), Fraction(1)  # U lies in [low, low + width)
        for k in count():
            if low + width <= p:
                return True
            if low >= p:
                return False
            width /= 2
            low += width * self.bit(r, k)

    def random(self):
        """The next word's draw, as a measurement reads it: below 1/2 iff its coin is 0.

        Word j's coin is record bit j + 1, U's first digit; the draw is
        the midpoint of the half of [0, 1) that digit names, so comparing
        it with an outcome probability of 0, 1/2 or 1 reads only the coin.
        """
        self.coins += 1
        return 0.25 + 0.5 * self.bit(self.coins, 0)


def _record(outcomes, first, width, p_flip, efficiency, lane):
    """Outcomes first, first + 1, ... of a round of `width` outcomes, flipped and erased."""
    recorded = []
    for j, value in enumerate(outcomes, first):
        flip = lane.below(1 + width + 2 * j, Fraction(p_flip))
        lost = not lane.below(2 + width + 2 * j, Fraction(efficiency))
        recorded.append(None if lost else (-value if flip else value))
    return tuple(recorded)


def _check_flip(p):
    """One flip probability for both observers; NaN fails both comparisons."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")


def reference_round(system, ctx_id, obs_id, bob_mode, noise, efficiency, rng, backend):
    initial, measure = BACKENDS[backend]
    n = system.num_qubits
    if not 0 <= ctx_id < len(system.contexts):
        raise ValueError(f"unknown context id {ctx_id}")
    if bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {bob_mode!r}")
    _check_flip(noise)
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    context = system.contexts[ctx_id]
    if not 0 <= obs_id < len(system.catalog):
        raise ValueError(f"unknown observable id {obs_id}")
    shared = system.catalog[obs_id]
    if shared not in context.observables:
        raise ValueError(f"shared observable {shared} is not in context {ctx_id}")
    shared_pos = context.observables.index(shared)

    state = initial(n)
    alice_raw, state = measure(state, _on_side(n, context.observables, "alice"), rng)
    if bob_mode == "alone":
        bob_raw, state = measure(state, _on_side(n, (shared,), "bob"), rng)
        bob_shared_pos = 0
    else:
        bob_raw, state = measure(state, _on_side(n, context.observables, "bob"), rng)
        bob_shared_pos = shared_pos
    width = len(alice_raw) + len(bob_raw)
    alice = _record(alice_raw, 0, width, noise, efficiency, rng)
    bob = _record(bob_raw, len(alice_raw), width, noise, efficiency, rng)
    return Round(alice, bob, alice[shared_pos], bob[bob_shared_pos])


def reference_experiment(config, backend="tableau"):
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    if config.shots > 2**72:
        raise ValueError(f"shots must be at most 2**72, got {config.shots}")
    _check_flip(config.noise)
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")
    check_key(config.seed, 0)
    # Experiment-wide settings are checked even when no round runs.
    if config.bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {config.bob_mode!r}")
    if not 0.0 < config.efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {config.efficiency}")
    comparable = equal = 0
    totals, passes = {}, {}
    shared_counts = {"alice": {+1: 0, -1: 0}, "bob": {+1: 0, -1: 0}}
    for shot in range(config.shots):
        lane, entry = divmod(shot, len(schedule))
        ctx_id, obs_id = schedule[entry]
        record = reference_round(
            config.system, ctx_id, obs_id, config.bob_mode, config.noise,
            config.efficiency, Lane(config.seed, entry, lane), backend,
        )
        if record.shared_alice is not None and record.shared_bob is not None:
            comparable += 1
            equal += record.shared_alice == record.shared_bob
        if record.shared_alice is not None:
            shared_counts["alice"][record.shared_alice] += 1
        if record.shared_bob is not None:
            shared_counts["bob"][record.shared_bob] += 1
        measured = [record.alice_outcomes]
        if config.bob_mode == "in_context":
            measured.append(record.bob_outcomes)
        for outcomes in measured:
            if None in outcomes:
                continue
            totals[ctx_id] = totals.get(ctx_id, 0) + 1
            if int(np.prod(outcomes)) == config.system.contexts[ctx_id].expected_sign:
                passes[ctx_id] = passes.get(ctx_id, 0) + 1
    return ExperimentSummary(
        shots=config.shots,
        equality_rate=equal / comparable if comparable else None,
        product_pass_rates={ci: passes.get(ci, 0) / t for ci, t in sorted(totals.items())},
        conclusive_fraction=comparable / config.shots if config.shots else None,
        seed=config.seed,
        bob_mode=config.bob_mode,
        noise=float(config.noise),
        efficiency=float(config.efficiency),
        equal_rounds=equal,
        comparable_rounds=comparable,
        shared_counts=shared_counts,
    )
