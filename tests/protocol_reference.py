"""Per-round reference protocol: the oracle for the compiled batch sampler.

`reference_experiment` runs one round per shot, each on a fresh
`shot_stream(seed, shot)`, and measures with a function passed in: either
`measure_context` on the dense Bell-product state, or `tableau_measure`,
a concrete tableau measurement that updates the signs in place and shares
no code with `states.compile_context` beyond the input checks.  Both draw
one number per word and two per recorded outcome, in the order the
compiled sampler reads them.  Words go onto each observer's block with
`pauli.relabel`, not with `states.embed`.
"""

from typing import NamedTuple

import numpy as np

from bellcheck.pauli import PauliOperator, commutes, identity, multiply, relabel
from bellcheck.protocol import MODES, ExperimentSummary, _noise_pair, default_schedule
from bellcheck.rng import check_key, shot_stream
from bellcheck.states import (
    StabilizerTableau,
    _check_size,
    _checked_context,
    bell_product_state,
    bell_product_tableau,
    measure_context,
)


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
    return outcomes, StabilizerTableau(tableau.num_qubits, tuple(stabilizers), tuple(destabilizers))


BACKENDS = {
    "dense": (bell_product_state, measure_context),
    "tableau": (bell_product_tableau, tableau_measure),
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


def _record(outcomes, p_flip, efficiency, rng):
    recorded = []
    for value in outcomes:
        flip = rng.random() < p_flip
        lost = rng.random() >= efficiency
        recorded.append(None if lost else (-value if flip else value))
    return tuple(recorded)


def reference_round(n, system, ctx_id, obs_id, bob_mode, noise, efficiency, rng, backend):
    initial, measure = BACKENDS[backend]
    if system.num_qubits != n:
        raise ValueError(f"system acts on {system.num_qubits} qubits, expected {n}")
    if not 0 <= ctx_id < len(system.contexts):
        raise ValueError(f"unknown context id {ctx_id}")
    if bob_mode not in MODES:
        raise ValueError(f"bob_mode must be one of {MODES}, got {bob_mode!r}")
    p_alice, p_bob = _noise_pair(noise)
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
    alice = _record(alice_raw, p_alice, efficiency, rng)
    bob = _record(bob_raw, p_bob, efficiency, rng)
    return Round(alice, bob, alice[shared_pos], bob[bob_shared_pos])


def reference_experiment(config, backend="tableau"):
    if config.shots < 0:
        raise ValueError(f"shots must be >= 0, got {config.shots}")
    p_alice, p_bob = _noise_pair(config.noise)
    schedule = config.schedule or default_schedule(config.system)
    if not schedule:
        raise ValueError("schedule is empty")
    check_key(config.seed, 0)
    comparable = equal = 0
    totals, passes = {}, {}
    shared_counts = {"alice": {+1: 0, -1: 0}, "bob": {+1: 0, -1: 0}}
    for shot in range(config.shots):
        ctx_id, obs_id = schedule[shot % len(schedule)]
        record = reference_round(
            config.n, config.system, ctx_id, obs_id, config.bob_mode, (p_alice, p_bob),
            config.efficiency, shot_stream(config.seed, shot), backend,
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
    common = dict(
        seed=config.seed,
        bob_mode=config.bob_mode,
        noise=(p_alice, p_bob),
        efficiency=float(config.efficiency),
    )
    if config.shots == 0:
        return ExperimentSummary(
            shots=0, equality_rate=None, product_pass_rates={}, conclusive_fraction=None, **common
        )
    return ExperimentSummary(
        shots=config.shots,
        equality_rate=equal / comparable if comparable else None,
        product_pass_rates={ci: passes.get(ci, 0) / t for ci, t in sorted(totals.items())},
        conclusive_fraction=comparable / config.shots,
        equal_rounds=equal,
        comparable_rounds=comparable,
        shared_counts=shared_counts,
        **common,
    )
