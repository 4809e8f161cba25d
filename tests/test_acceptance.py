"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion enforces its stated tolerance and runtime budget.
"""

import functools
import math
import operator
import time
from itertools import combinations

import numpy as np
from scipy import stats

from oracles import (
    MAX_DENSE_PAIRS,
    apply_pauli,
    brute_force,
    dense_oracle,
    dense_quantum_value,
    ghz_state,
    random_pauli,
)
from bellcheck.chsh import lhv_max, optimal_vectors, quantum_value
from bellcheck.constructions import (
    generalized_sets,
    ghz_contexts,
    ghz_observables,
    mermin_square,
    product_sign,
    validate,
)
from bellcheck.parity import (
    ParityRow,
    ParitySystem,
    build_parity_system,
    check_assignment,
    check_certificate,
    solve,
)
from bellcheck.pauli import PauliOperator, commutes, identity, multiply
from bellcheck.protocol import run_experiment
from bellcheck.tableau import eigenrelation_check

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def criterion(number, description, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            if budget_seconds is not None and elapsed > budget_seconds:
                print(f"criterion {number} ({description}): FAIL (over budget)")
                raise AssertionError(
                    f"runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"
                )
            print(f"criterion {number} ({description}): PASS [{elapsed:.2f}s]")

        return wrapper

    return decorate


@criterion(1, "square contexts, signs, and unsatisfiability", budget_seconds=1.0)
def test_criterion_1_square():
    system = mermin_square()
    assert len(system.contexts) == 6
    for ctx in system.contexts:
        for a, b in combinations(ctx.observables, 2):
            assert commutes(a, b)
    signs = [product_sign(ctx) for ctx in system.contexts]
    assert signs == [+1, +1, +1, +1, +1, -1]
    for ctx in system.contexts:
        product = identity(2)
        for obs in ctx.observables:
            product = multiply(product, obs)
        assert product == PauliOperator(2, 0, 0, 0 if ctx.expected_sign == 1 else 2)
    ps = build_parity_system(system)
    result = solve(ps)
    assert not result.satisfiable
    assert result.certificate == (0, 1, 2, 3, 4, 5)
    assert check_certificate(ps, result.certificate)


@criterion(2, "generalized family n in {3,5,7,9}", budget_seconds=5.0)
def test_criterion_2_generalized_family():
    for n in (3, 5, 7, 9):
        system = generalized_sets(n)
        assert len(system.contexts) == n + 2
        assert len(system.catalog) == 3 * n + 1
        assert set(system.occurrence_counts) == {2}
        report = validate(system)
        assert report.ok
        assert [c.product_sign for c in report.checks] == [-1] + [+1] * (n + 1)
        ps = build_parity_system(system)
        result = solve(ps)
        assert not result.satisfiable
        assert result.certificate == tuple(range(n + 2))
        assert check_certificate(ps, result.certificate)
        if n <= 7:
            assert not brute_force(ps).satisfiable


@criterion(3, "mirrored-observable eigenrelations", budget_seconds=5.0)
def test_criterion_3_eigenrelations():
    square = mermin_square()
    assert len(square.catalog) == 9
    for op in square.catalog:
        assert eigenrelation_check(op)
    for n in (3, 5):
        system = generalized_sets(n)
        assert len(system.catalog) == 3 * n + 1
        for op in system.catalog:
            assert eigenrelation_check(op)


@criterion(4, "two-observer protocol statistics", budget_seconds=None)
def test_criterion_4_protocol():
    shots = 10_000
    summaries = {}
    for label, builder in (("square", mermin_square), ("sets3", lambda: generalized_sets(3))):
        system = builder()
        for seed_offset, mode in enumerate(("alone", "in_context")):
            summary = run_experiment(system, shots, seed=100 + seed_offset, bob_mode=mode)
            assert summary.equality_rate == 1.0
            assert summary.comparable_rounds == shots
            assert set(summary.product_pass_rates.values()) == {1.0}
            summaries[(label, mode)] = summary
        table = np.array(
            [
                [summaries[(label, m)].shared_counts["bob"][v] for v in (+1, -1)]
                for m in ("alone", "in_context")
            ]
        )
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.001, f"modes distinguishable for {label}: p={p_value}"

    noisy = run_experiment(mermin_square(), shots, noise=0.5, seed=200)
    four_sigma = 4.0 * math.sqrt(0.25 / shots)
    assert abs(noisy.equality_rate - 0.5) < four_sigma


@criterion(5, "CHSH amplification gap", budget_seconds=10.0)
def test_criterion_5_chsh():
    vectors = optimal_vectors()
    for n in range(1, 7):
        target = TWO_SQRT2**n
        factorized = quantum_value(n, vectors)
        assert abs(factorized - target) <= 1e-9 * target
        if n <= MAX_DENSE_PAIRS:
            dense = dense_quantum_value(n, vectors)
            assert abs(dense - factorized) <= 1e-9 * abs(factorized)
        assert lhv_max(n) == 2.0**n
        ratio = factorized / lhv_max(n)
        assert abs(ratio - math.sqrt(2.0) ** n) <= 1e-9 * math.sqrt(2.0) ** n


@criterion(6, "three-particle observables and groupings", budget_seconds=1.0)
def test_criterion_6_ghz():
    observables = ghz_observables()
    product = identity(3)
    for op, _ in observables:
        product = multiply(product, op)
    assert product == PauliOperator(3, 0, 0, 2)  # exactly -identity

    state = ghz_state()
    indicated = [ev for _, ev in observables]
    assert indicated == [+1, +1, +1, -1]
    for (op, ev) in observables:
        moved = apply_pauli(op, state)
        assert np.array_equal(moved, ev * state.amplitudes)

    tripartite = ghz_contexts("tripartite")
    assert not solve(tripartite).satisfiable
    assert not brute_force(tripartite).satisfiable
    bipartite = ghz_contexts("bipartite")
    result = solve(bipartite)
    assert result.satisfiable
    assert check_assignment(bipartite, result.assignment)


@criterion(7, "oracle suite", budget_seconds=30.0)
def test_criterion_7_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        da, db = dense_oracle(a), dense_oracle(b)
        assert np.array_equal(dense_oracle(multiply(a, b)), da @ db)
        assert commutes(a, b) == np.array_equal(da @ db, db @ da)

    for _ in range(200):
        k = int(rng.integers(1, 21))
        rows = []
        for _ in range(int(rng.integers(1, 2 * k + 2))):
            # Up to 6 indices drawn with repeats, which cancel in pairs: some masks are 0.
            size = int(rng.integers(1, 7))
            mask = functools.reduce(operator.xor, (1 << int(v) for v in rng.integers(0, k, size=size)))
            rows.append(ParityRow(mask, int(rng.integers(0, 2))))
        ps = ParitySystem(tuple(f"v{i}" for i in range(k)), tuple(rows))
        fast = solve(ps)
        exhaustive = brute_force(ps)
        assert fast.satisfiable == exhaustive.satisfiable
        if fast.satisfiable:
            assert check_assignment(ps, fast.assignment)
            assert check_assignment(ps, exhaustive.assignment)
        else:
            assert check_certificate(ps, fast.certificate)
