"""GF(2) solver and its exhaustive oracle."""

import math
from functools import reduce
from operator import xor

import numpy as np
import pytest

from oracles import brute_force, random_obs_system
from bellcheck.constructions import (
    FAMILY_NS,
    Context,
    ContextSystem,
    generalized_sets,
    ghz_contexts,
    mermin_square,
    validate,
)
from bellcheck.dsl import parse_document
from bellcheck.parity import (
    ParityRow,
    ParitySystem,
    SolveResult,
    build_parity_system,
    check_assignment,
    check_certificate,
    solve,
)
from bellcheck.pauli import PauliOperator, format_pauli, parse_pauli


def random_system(rng, max_vars=20):
    """Rows of up to 6 variable indices drawn with repeats, which cancel in pairs: some masks are 0."""
    k = int(rng.integers(1, max_vars + 1))
    rows = []
    for _ in range(int(rng.integers(1, 2 * k + 2))):
        size = int(rng.integers(1, 7))
        mask = reduce(xor, (1 << int(v) for v in rng.integers(0, k, size=size)))
        rows.append(ParityRow(mask, int(rng.integers(0, 2))))
    return ParitySystem(tuple(f"v{i}" for i in range(k)), tuple(rows))


class TestBuild:
    def test_square(self):
        ps = build_parity_system(mermin_square())
        assert len(ps.variables) == 9
        assert len(ps.rows) == 6
        assert sum(row.rhs for row in ps.rows) == 1

    def test_generalized_5(self):
        ps = build_parity_system(generalized_sets(5))
        assert len(ps.variables) == 16
        assert len(ps.rows) == 7
        assert sum(row.rhs for row in ps.rows) == 1

    @pytest.mark.parametrize("n", [2, *FAMILY_NS])
    def test_variables_are_the_catalog_words(self, n):
        system = mermin_square() if n == 2 else generalized_sets(n)
        assert build_parity_system(system).variables == system.catalog

    def test_empty_system(self):
        from bellcheck.constructions import ContextSystem

        ps = build_parity_system(ContextSystem(2, ()))
        assert ps.rows == ()
        assert ps.variables == ()


class TestSolve:
    def test_square_unsat_with_all_rows_certificate(self):
        ps = build_parity_system(mermin_square())
        result = solve(ps)
        assert not result.satisfiable
        assert result.certificate == (0, 1, 2, 3, 4, 5)
        assert check_certificate(ps, result.certificate)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_generalized_unsat_with_all_rows_certificate(self, n):
        ps = build_parity_system(generalized_sets(n))
        result = solve(ps)
        assert not result.satisfiable
        assert result.certificate == tuple(range(n + 2))
        assert check_certificate(ps, result.certificate)

    def test_bipartite_ghz_sat(self):
        ps = ghz_contexts("bipartite")
        result = solve(ps)
        assert result.satisfiable
        assert check_assignment(ps, result.assignment)
        # The published example witness also satisfies the system.
        example = {"X1": +1, "Y1": +1, "Y2 Y3": +1, "X2 Y3": +1, "Y2 X3": +1, "X2 X3": -1}
        assert check_assignment(ps, {parse_pauli(text, 3): value for text, value in example.items()})

    def test_tripartite_ghz_unsat(self):
        ps = ghz_contexts("tripartite")
        result = solve(ps)
        assert not result.satisfiable
        assert check_certificate(ps, result.certificate)

    def test_single_row(self):
        ps = ParitySystem(("v1",), (ParityRow(0b1, 0),))
        result = solve(ps)
        assert result.satisfiable
        assert result.assignment == {"v1": +1}

    def test_an_empty_row_with_rhs_1_is_its_own_certificate(self):
        # 0 = 1: no variable, and the right side is 1.
        ps = ParitySystem(("a",), (ParityRow(0, 1),))
        result = solve(ps)
        assert result == SolveResult(False, certificate=(0,))
        assert check_certificate(ps, result.certificate)
        assert not brute_force(ps).satisfiable

    def test_free_variables_default_plus_one(self):
        ps = ParitySystem(("a", "b", "c"), (ParityRow(0b11, 1),))
        result = solve(ps)
        assert result.assignment["c"] == +1
        assert check_assignment(ps, result.assignment)

    def test_assignment_is_keyed_by_the_words(self):
        system = parse_document("qubits 2\nset Z1, Z2, Z1 Z2 = -1\n")
        ps = build_parity_system(system)
        result = solve(ps)
        z1, z2, z1z2 = system.catalog
        assert result.assignment == {z1: -1, z2: +1, z1z2: +1}
        assert check_assignment(ps, result.assignment)
        with pytest.raises(ValueError, match="^assignment must map 'Z1 Z2' to \\+1 or -1$"):
            check_assignment(ps, {z1: +1, z2: +1})

    def test_deterministic(self):
        ps = build_parity_system(generalized_sets(5))
        assert solve(ps) == solve(ps)


class TestBruteForce:
    def test_square_unsat(self):
        assert not brute_force(build_parity_system(mermin_square())).satisfiable

    def test_tripartite_unsat(self):
        assert not brute_force(ghz_contexts("tripartite")).satisfiable

    def test_bipartite_lexicographically_first_witness(self):
        result = brute_force(ghz_contexts("bipartite"))
        expected = {"X1": +1, "Y1": +1, "Y2 Y3": +1, "X2 Y3": +1, "Y2 X3": +1, "X2 X3": -1}
        assert result.assignment == {parse_pauli(text, 3): value for text, value in expected.items()}

    def test_single_row(self):
        ps = ParitySystem(("v1",), (ParityRow(0b1, 0),))
        assert brute_force(ps) == SolveResult(True, assignment={"v1": +1})

    def test_variable_guard(self):
        ps = ParitySystem(tuple(f"v{i}" for i in range(25)), (ParityRow(0b1, 0),))
        with pytest.raises(ValueError, match="limited"):
            brute_force(ps)

    def test_agrees_with_solve_on_random_systems(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            ps = random_system(rng, max_vars=14)
            fast = solve(ps)
            exhaustive = brute_force(ps)
            assert fast.satisfiable == exhaustive.satisfiable
            if fast.satisfiable:
                assert check_assignment(ps, fast.assignment)
                assert check_assignment(ps, exhaustive.assignment)
            else:
                assert check_certificate(ps, fast.certificate)


class TestWitnessChecks:
    def test_all_rows_certificate_true(self):
        ps = build_parity_system(mermin_square())
        assert check_certificate(ps, range(6))

    def test_partial_certificate_false(self):
        ps = build_parity_system(mermin_square())
        assert not check_certificate(ps, (0, 1))

    @pytest.mark.parametrize(
        "rows,certificate",
        [
            (None, ()),
            (None, (5,)),
            *((None, tuple(r for r in range(6) if r != dropped)) for dropped in range(5)),
            ((ParityRow(0, 0),), (0,)),
        ],
        ids=["empty", "square row 5 alone", *(f"square less row {r}" for r in range(5)), "one 0 = 0 row"],
    )
    def test_a_certificate_needs_both_zero_mask_and_rhs_one(self, rows, certificate):
        """Rows certify only if their masks XOR to 0 and their rhs values to 1.

        `rows` None is the square, whose only row with rhs 1 is row 5.
        """
        ps = build_parity_system(mermin_square()) if rows is None else ParitySystem((), rows)
        assert not check_certificate(ps, certificate)

    def test_out_of_range_certificate(self):
        ps = build_parity_system(mermin_square())
        with pytest.raises(ValueError, match="out of range"):
            check_certificate(ps, (0, 17))

    def test_assignment_value_validation(self):
        ps = ParitySystem(("v1",), (ParityRow(0b1, 0),))
        with pytest.raises(ValueError, match="\\+1 or -1"):
            check_assignment(ps, {"v1": 0})
        with pytest.raises(ValueError):
            check_assignment(ps, {})

    def test_assignment_check_matches_each_contexts_product(self):
        # The oracle reads the contexts, not the rows: an assignment passes
        # iff each context's values multiply to its declared sign.  A random
        # system's words are distinct masks, so its rows are its contexts.
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(100):
            system = random_obs_system(rng)
            ps = build_parity_system(system)
            assert len(ps.rows) == len(system.contexts)
            result = solve(ps)
            base = result.assignment or {v: +1 for v in ps.variables}
            # The solution (or all +1) itself, then five random flips of it.
            for flips in [np.zeros(len(ps.variables)), *rng.integers(0, 2, size=(5, len(ps.variables)))]:
                assignment = {v: -base[v] if flip else base[v] for v, flip in zip(ps.variables, flips)}
                expected = all(
                    math.prod(assignment[obs] for obs in ctx.observables) == ctx.expected_sign
                    for ctx in system.contexts
                )
                seen.add(expected)
                assert check_assignment(ps, assignment) == expected
        assert seen == {True, False}

    def test_flipping_an_odd_variable_of_a_solution_fails(self):
        rng = np.random.default_rng(37)
        systems = [ghz_contexts("bipartite")]
        while len(systems) < 40:
            ps = build_parity_system(random_obs_system(rng))
            if solve(ps).satisfiable:
                systems.append(ps)
        for ps in systems:
            assignment = solve(ps).assignment
            assert check_assignment(ps, assignment)
            odd = {v for row in ps.rows for v in range(len(ps.variables)) if row.mask >> v & 1}
            assert odd
            for v in odd:
                flipped = {**assignment, ps.variables[v]: -assignment[ps.variables[v]]}
                assert not check_assignment(ps, flipped)

    def test_all_rows_always_certify_generalized_family(self):
        # Every observable occurs in exactly two contexts, so XORing every
        # row cancels all variables while the right sides XOR to 1.
        for n in (3, 5, 7, 9, 11, 13):
            ps = build_parity_system(generalized_sets(n))
            assert check_certificate(ps, range(len(ps.rows)))


class TestTypes:
    def test_row_mask_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^row mask must be non-negative, got -1$"):
            ParityRow(-1, 0)

    def test_row_rhs_validation(self):
        with pytest.raises(ValueError, match="rhs"):
            ParityRow(0b1, 2)

    def test_system_index_validation(self):
        with pytest.raises(ValueError, match="^row variable index 1 out of range$"):
            ParitySystem(("a",), (ParityRow(0b10, 0),))

    def test_row_mask_cancels_repeats(self):
        # `Z1` listed twice in one context is Z1 * Z1 = I: its row's words cancel to mask 0.
        system = parse_document("qubits 2\nset Z1, Z1\nset Z1, Z2, Z1 Z2\n")
        ps = build_parity_system(system)
        assert ps.rows[0] == ParityRow(0, 0)
        assert len(ps.rows) == 2
        assert verdict(system).satisfiable


# The magic square with a scalar word appended to its first context: `- I`
# with that context declared -1, or `I` with it left at +1.  Both are the
# square, so both are UNSAT.
SQUARE_WITH_SCALAR = {
    "- I": "set X1, X2, X1 X2, - I = -1",
    "I": "set X1, X2, X1 X2, I",
}


def square_with_scalar(scalar: str) -> str:
    return (
        f"qubits 2\n{SQUARE_WITH_SCALAR[scalar]}\n"
        "set Z2, Z1, Z1 Z2\n"
        "set X1 Z2, Z1 X2, Y1 Y2\n"
        "set X1, Z2, X1 Z2\n"
        "set X2, Z1, Z1 X2\n"
        "set X1 X2, Z1 Z2, Y1 Y2 = -1\n"
    )


def with_scalar(system, context_index: int, negative: bool):
    """`system` with `I`, or `- I` and the context's sign flipped, appended to one context."""
    scalar = PauliOperator(system.num_qubits, 0, 0, 2 if negative else 0)
    contexts = list(system.contexts)
    ctx = contexts[context_index]
    sign = -ctx.expected_sign if negative else ctx.expected_sign
    contexts[context_index] = Context((*ctx.observables, scalar), sign)
    return ContextSystem(system.num_qubits, tuple(contexts))


def verdict(system) -> SolveResult:
    """`solve`'s verdict on `system`, with its witness checked and the oracle's agreement."""
    ps = build_parity_system(system)
    result = solve(ps)
    if result.satisfiable:
        assert check_assignment(ps, result.assignment)
    else:
        assert check_certificate(ps, result.certificate)
    if len(ps.variables) <= 16:
        assert brute_force(ps).satisfiable == result.satisfiable
    return result


class TestScalarWords:
    """`I` and `- I` have one eigenvalue each, +1 and -1, so no assignment may choose theirs."""

    @pytest.mark.parametrize("scalar", SQUARE_WITH_SCALAR)
    def test_square_with_a_scalar_is_unsat(self, scalar):
        system = parse_document(square_with_scalar(scalar))
        assert not validate(system).failures
        ps = build_parity_system(system)
        result = solve(ps)
        assert not result.satisfiable
        assert result.certificate == (0, 1, 2, 3, 4, 5, 6)
        assert check_certificate(ps, result.certificate)
        assert not brute_force(ps).satisfiable
        # The scalar is the fourth catalog word; its row follows the contexts'.
        assert format_pauli(system.catalog[3]) == scalar
        assert ps.rows[6] == ParityRow(1 << 3, 1 if scalar == "- I" else 0)

    @pytest.mark.parametrize("text,value", [("set I", 1), ("set - I = -1", -1)])
    def test_a_lone_scalar_takes_its_eigenvalue(self, text, value):
        system = parse_document(f"qubits 1\n{text}\n")
        ps = build_parity_system(system)
        assert len(ps.rows) == 2
        result = solve(ps)
        assert result.assignment == {system.catalog[0]: value}
        assert brute_force(ps) == result

    @pytest.mark.parametrize("n", [2, *FAMILY_NS])
    def test_a_scalar_never_changes_a_builtin_verdict(self, n):
        system = mermin_square() if n == 2 else generalized_sets(n)
        expected = verdict(system).satisfiable
        for i in range(len(system.contexts)):
            for negative in (False, True):
                changed = with_scalar(system, i, negative)
                assert not validate(changed).failures
                assert verdict(changed).satisfiable == expected

    def test_a_scalar_never_changes_a_random_verdict(self):
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(150):
            system = random_obs_system(rng)
            expected = verdict(system).satisfiable
            seen.add(expected)
            for i in range(len(system.contexts)):
                for negative in (False, True):
                    assert verdict(with_scalar(system, i, negative)).satisfiable == expected
        assert seen == {True, False}


# The magic square with `Y1 Y2` negated in its third row, which is declared
# -1 for it.  `- Y1 Y2` and `Y1 Y2` are one observable, so this is the square.
SQUARE_WITH_NEGATIVE = (
    "qubits 2\n"
    "set X1, X2, X1 X2\n"
    "set Z2, Z1, Z1 Z2\n"
    "set X1 Z2, Z1 X2, - Y1 Y2 = -1\n"
    "set X1, Z2, X1 Z2\n"
    "set X2, Z1, Z1 X2\n"
    "set X1 X2, Z1 Z2, Y1 Y2 = -1\n"
)


def with_negated(system, context_index: int, position: int):
    """`system` with one occurrence of a word negated and its context's sign flipped."""
    contexts = list(system.contexts)
    ctx = contexts[context_index]
    observables = list(ctx.observables)
    n, x, z, phase = observables[position]
    observables[position] = PauliOperator(n, x, z, phase + 2)
    contexts[context_index] = Context(tuple(observables), -ctx.expected_sign)
    return ContextSystem(system.num_qubits, tuple(contexts))


class TestNegatedWords:
    """`A` and `- A` are one observable, so v(- A) = -v(A) in every assignment."""

    def test_square_with_a_negated_word_is_unsat(self):
        system = parse_document(SQUARE_WITH_NEGATIVE)
        assert not validate(system).failures
        ps = build_parity_system(system)
        assert (len(ps.variables), len(ps.rows)) == (10, 7)
        result = solve(ps)
        assert not result.satisfiable
        assert check_certificate(ps, result.certificate)
        assert not brute_force(ps).satisfiable
        # `- Y1 Y2` is the ninth catalog word and `Y1 Y2` the tenth; their row follows the contexts'.
        assert [format_pauli(word) for word in system.catalog[8:]] == ["- Y1 Y2", "Y1 Y2"]
        assert ps.rows[6] == ParityRow(1 << 9 | 1 << 8, 1)

    def test_a_negative_without_its_word_adds_no_row(self):
        text = SQUARE_WITH_NEGATIVE.replace("Z1 Z2, Y1 Y2 = -1", "Z1 Z2, - Y1 Y2")
        ps = build_parity_system(parse_document(text))
        assert (len(ps.variables), len(ps.rows)) == (9, 6)
        assert not solve(ps).satisfiable

    @pytest.mark.parametrize("n", [2, *FAMILY_NS])
    def test_a_negated_word_never_changes_a_builtin_verdict(self, n):
        system = mermin_square() if n == 2 else generalized_sets(n)
        expected = verdict(system).satisfiable
        for i, ctx in enumerate(system.contexts):
            for k in range(len(ctx.observables)):
                changed = with_negated(system, i, k)
                assert not validate(changed).failures
                assert verdict(changed).satisfiable == expected

    def test_a_negated_word_never_changes_a_random_verdict(self):
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(150):
            system = random_obs_system(rng)
            expected = verdict(system).satisfiable
            seen.add(expected)
            for i, ctx in enumerate(system.contexts):
                for k in range(len(ctx.observables)):
                    assert verdict(with_negated(system, i, k)).satisfiable == expected
        assert seen == {True, False}
