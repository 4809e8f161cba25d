"""Structural checks of the built-in observable families."""

from itertools import combinations

import numpy as np
import pytest

from conftest import dense_oracle, random_pauli
from bellcheck.constructions import (
    Context,
    ContextSystem,
    context_faults,
    generalized_sets,
    ghz_contexts,
    ghz_observables,
    mermin_square,
    product_sign,
    validate,
)
from bellcheck.pauli import commutes, format_pauli, parse_pauli


def dense_product(ops):
    out = np.eye(1 << ops[0].num_qubits, dtype=complex)
    for op in ops:
        out = out @ dense_oracle(op)
    return out


class TestMerminSquare:
    def test_shape(self):
        system = mermin_square()
        assert system.num_qubits == 2
        assert len(system.contexts) == 6
        assert len(system.catalog) == 9
        assert set(system.occurrence_counts) == {2}

    def test_row_products_are_plus_identity(self):
        system = mermin_square()
        for ctx in system.contexts[:3]:
            assert np.array_equal(dense_product(ctx.observables), np.eye(4))
            assert ctx.expected_sign == +1

    def test_column_products(self):
        system = mermin_square()
        for ctx, sign in zip(system.contexts[3:], (+1, +1, -1)):
            assert np.array_equal(dense_product(ctx.observables), sign * np.eye(4))
            assert ctx.expected_sign == sign

    def test_every_context_commutes(self):
        system = mermin_square()
        for ctx in system.contexts:
            for i, a in enumerate(ctx.observables):
                for b in ctx.observables[i + 1 :]:
                    assert commutes(a, b)

    def test_validation_report_all_pass(self):
        report = validate(mermin_square())
        assert report.ok
        assert [c.product_sign for c in report.checks] == [1, 1, 1, 1, 1, -1]


class TestGeneralizedSets:
    @pytest.mark.parametrize("n,contexts,distinct", [(3, 5, 10), (5, 7, 16)])
    def test_counting(self, n, contexts, distinct):
        system = generalized_sets(n)
        assert len(system.contexts) == contexts
        assert len(system.catalog) == distinct
        assert set(system.occurrence_counts) == {2}

    def test_first_context_product_minus_identity_dense(self):
        system = generalized_sets(3)
        first = system.contexts[0]
        labels = [format_pauli(o) for o in first.observables]
        assert labels == ["X1 Z2 X3", "X1 X2 Z3", "Z1 X2 X3", "Z1 Z2 Z3"]
        assert np.array_equal(dense_product(first.observables), -np.eye(8))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_signs(self, n):
        system = generalized_sets(n)
        signs = [product_sign(ctx) for ctx in system.contexts]
        assert signs == [-1] + [+1] * (n + 1)

    def test_validation_n7(self):
        system = generalized_sets(7)
        assert validate(system).ok
        assert len(system.catalog) == 22
        assert set(system.occurrence_counts) == {2}

    @pytest.mark.parametrize("n", [5, 7])
    def test_all_context_products_against_dense_oracle(self, n):
        system = generalized_sets(n)
        dim = 1 << n
        for ctx in system.contexts:
            assert np.array_equal(
                dense_product(ctx.observables), ctx.expected_sign * np.eye(dim)
            )

    @pytest.mark.parametrize("n", [11, 13])
    def test_large_n_signs_via_exact_word_arithmetic(self, n):
        system = generalized_sets(n)
        assert [product_sign(ctx) for ctx in system.contexts] == [-1] + [+1] * (n + 1)

    @pytest.mark.parametrize("bad", [2, 4, 6, 1, 15, -3])
    def test_rejects_even_or_out_of_range(self, bad):
        with pytest.raises(ValueError, match="odd"):
            generalized_sets(bad)

    def test_cyclic_wraparound_terms(self):
        system = generalized_sets(5)
        triples = [format_pauli(o) for o in system.contexts[0].observables[:-1]]
        assert triples[-2] == "X1 X4 Z5"  # X4 Z5 X1 canonicalized by index
        assert triples[-1] == "Z1 X2 X5"  # X5 Z1 X2


class TestOrderIndependence:
    @pytest.mark.parametrize("builder", [mermin_square, lambda: generalized_sets(3)])
    def test_product_sign_invariant_under_reordering(self, builder):
        rng = np.random.default_rng(5)
        system = builder()
        for ctx in system.contexts:
            base = product_sign(ctx)
            members = list(ctx.observables)
            for _ in range(10):
                rng.shuffle(members)
                assert product_sign(Context(tuple(members), ctx.expected_sign)) == base


class TestValidateFaultInjection:
    def test_flipped_sign_flagged_exactly_once(self):
        good = mermin_square()
        contexts = list(good.contexts)
        tampered_index = 1
        contexts[tampered_index] = Context(
            contexts[tampered_index].observables,
            -contexts[tampered_index].expected_sign,
        )
        report = validate(ContextSystem(2, tuple(contexts)))
        assert not report.ok
        assert report.failures == (tampered_index,)

    def test_non_commuting_context_flagged(self):
        system = ContextSystem(
            1, (Context((parse_pauli("X1", 1), parse_pauli("Z1", 1)), +1),)
        )
        report = validate(system)
        assert not report.ok
        assert report.checks[0].failing_pair == ("X1", "Z1")
        assert report.checks[0].problem == "observables X1 and Z1 do not commute"

    def test_non_hermitian_member_flagged(self):
        # (i X1)(-i X1) is +identity, so only the Hermiticity check catches it.
        system = ContextSystem(
            1, (Context((parse_pauli("i X1", 1), parse_pauli("-i X1", 1)), +1),)
        )
        report = validate(system)
        assert report.checks[0].commuting
        assert report.checks[0].product_sign == +1
        assert report.checks[0].non_hermitian == "i X1"
        assert report.failures == (0,)
        assert report.checks[0].problem == "observable i X1 is not Hermitian"

    def test_first_failing_pair_matches_commutes_in_combinations_order(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            words = [random_pauli(rng, n) for _ in range(int(rng.integers(1, 6)))]
            expected = next(
                ((format_pauli(a), format_pauli(b)) for a, b in combinations(words, 2) if not commutes(a, b)),
                None,
            )
            assert context_faults(words)[1] == expected

    def test_members_on_different_registers_raise(self):
        with pytest.raises(ValueError, match="mismatch: 2 vs 3"):
            validate(ContextSystem(2, (Context((parse_pauli("Z1", 2), parse_pauli("Z1", 3)), +1),)))

    def test_problem_names_wrong_and_missing_signs(self):
        system = ContextSystem(
            1,
            (
                Context((parse_pauli("Z1", 1),), +1),
                Context((parse_pauli("Z1", 1), parse_pauli("Z1", 1)), -1),
            ),
        )
        first, second = validate(system).checks
        assert first.problem == "product is not +-identity"
        assert second.problem == "product is +1 * identity, declared -1"
        assert validate(mermin_square()).checks[0].problem is None


class TestCatalogCache:
    def test_built_once_per_system(self):
        system = generalized_sets(5)
        assert system.catalog is system.catalog
        assert system.occurrence_counts is system.occurrence_counts

    def test_index_gives_catalog_positions(self):
        system = generalized_sets(7)
        assert list(system.catalog_index) == list(system.catalog)
        assert all(system.catalog[i] == obs for obs, i in system.catalog_index.items())
        assert system.catalog_index is system.catalog_index

    def test_cache_does_not_affect_equality(self):
        a, b = mermin_square(), mermin_square()
        a.catalog
        assert a == b
        assert hash(a) == hash(b)


class TestGhz:
    def test_operator_product_is_minus_identity(self):
        ops = [op for op, _ in ghz_observables()]
        assert np.array_equal(dense_product(ops), -np.eye(8))

    def test_stated_eigenvalues(self):
        assert [ev for _, ev in ghz_observables()] == [+1, +1, +1, -1]

    def test_tripartite_system(self):
        ps = ghz_contexts("tripartite")
        assert len(ps.variables) == 6
        assert len(ps.rows) == 4
        assert [row.rhs for row in ps.rows] == [0, 0, 0, 1]
        assert all(len(row.variables) == 3 for row in ps.rows)

    def test_bipartite_system(self):
        ps = ghz_contexts("bipartite")
        assert len(ps.variables) == 6
        assert len(ps.rows) == 4
        assert all(len(row.variables) == 2 for row in ps.rows)
        bob_vars = [i for i, name in enumerate(ps.variables) if " " in name]
        occurrences = [
            sum(v in row.variables for row in ps.rows) for v in bob_vars
        ]
        assert occurrences == [1, 1, 1, 1]

    def test_unknown_grouping(self):
        with pytest.raises(ValueError, match="grouping"):
            ghz_contexts("unipartite")
