"""GF(2) solver and its exhaustive oracle."""

import numpy as np
import pytest

from oracles import brute_force
from bellcheck.constructions import FAMILY_NS, generalized_sets, ghz_contexts, mermin_square
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


def random_system(rng, max_vars=20):
    k = int(rng.integers(1, max_vars + 1))
    rows = []
    for _ in range(int(rng.integers(1, 2 * k + 2))):
        size = int(rng.integers(1, min(k, 6) + 1))
        variables = tuple(sorted(rng.choice(k, size=size, replace=False).tolist()))
        rows.append(ParityRow(variables, int(rng.integers(0, 2))))
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
        assert check_assignment(ps, example)

    def test_tripartite_ghz_unsat(self):
        ps = ghz_contexts("tripartite")
        result = solve(ps)
        assert not result.satisfiable
        assert check_certificate(ps, result.certificate)

    def test_single_row(self):
        ps = ParitySystem(("v1",), (ParityRow((0,), 0),))
        result = solve(ps)
        assert result.satisfiable
        assert result.assignment == {"v1": +1}

    def test_free_variables_default_plus_one(self):
        ps = ParitySystem(("a", "b", "c"), (ParityRow((0, 1), 1),))
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
        assert result.assignment == {
            "X1": +1,
            "Y1": +1,
            "Y2 Y3": +1,
            "X2 Y3": +1,
            "Y2 X3": +1,
            "X2 X3": -1,
        }

    def test_single_row(self):
        ps = ParitySystem(("v1",), (ParityRow((0,), 0),))
        assert brute_force(ps) == SolveResult(True, assignment={"v1": +1})

    def test_variable_guard(self):
        ps = ParitySystem(tuple(f"v{i}" for i in range(25)), (ParityRow((0,), 0),))
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

    def test_out_of_range_certificate(self):
        ps = build_parity_system(mermin_square())
        with pytest.raises(ValueError, match="out of range"):
            check_certificate(ps, (0, 17))

    def test_assignment_value_validation(self):
        ps = ParitySystem(("v1",), (ParityRow((0,), 0),))
        with pytest.raises(ValueError, match="\\+1 or -1"):
            check_assignment(ps, {"v1": 0})
        with pytest.raises(ValueError):
            check_assignment(ps, {})

    def test_all_rows_always_certify_generalized_family(self):
        # Every observable occurs in exactly two contexts, so XORing every
        # row cancels all variables while the right sides XOR to 1.
        for n in (3, 5, 7, 9, 11, 13):
            ps = build_parity_system(generalized_sets(n))
            assert check_certificate(ps, range(len(ps.rows)))


class TestTypes:
    def test_row_needs_variables(self):
        with pytest.raises(ValueError, match="at least one"):
            ParityRow((), 0)

    def test_row_rhs_validation(self):
        with pytest.raises(ValueError, match="rhs"):
            ParityRow((0,), 2)

    def test_system_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            ParitySystem(("a",), (ParityRow((1,), 0),))

    def test_row_mask_cancels_repeats(self):
        ps = ParitySystem(("a", "b"), (ParityRow((0, 1, 0), 0),))
        assert ps.row_mask(0) == 0b10
