"""Structural checks of the built-in observable families."""

from itertools import combinations

import numpy as np
import pytest

from oracles import dense_oracle, random_pauli
from bellcheck.constructions import (
    Context,
    ContextSystem,
    generalized_sets,
    ghz_contexts,
    ghz_observables,
    mermin_square,
    product_sign,
    validate,
)
from bellcheck.dsl import parse_document
from bellcheck.pauli import PauliOperator, commutes, context_fault, format_pauli, parse_pauli, product
from bellcheck.tableau import bell_product_tableau, compile_context, ghz_tableau, tableau_expectation


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

    @pytest.mark.parametrize("bad", [1, 4, 15])
    def test_refusal_names_the_family_range(self, bad):
        """The CLI refuses these first, so only this test reads the library's own text."""
        with pytest.raises(ValueError) as refused:
            generalized_sets(bad)
        assert str(refused.value) == f"n must be odd and within 3..13, got {bad}"

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
        assert report.checks[0].problem == "observables X1 and Z1 do not commute"

    def test_non_hermitian_member_flagged(self):
        # (i X1)(-i X1) is +identity, so only the Hermiticity check catches it.
        system = ContextSystem(
            1, (Context((parse_pauli("i X1", 1), parse_pauli("-i X1", 1)), +1),)
        )
        report = validate(system)
        assert report.checks[0].commuting
        assert report.checks[0].product_sign == +1
        assert report.failures == (0,)
        assert report.checks[0].problem == "observable i X1 is not Hermitian"

    def test_first_failing_pair_matches_commutes_in_combinations_order(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            words = [random_pauli(rng, n) for _ in range(int(rng.integers(1, 6)))]
            # Phase 0 or 2 makes each word Hermitian, so the message names the pair.
            hermitian = [w._replace(phase_exponent=w.phase_exponent & 2) for w in words]
            pair = next(((a, b) for a, b in combinations(hermitian, 2) if not commutes(a, b)), None)
            message = None if pair is None else f"observables {format_pauli(pair[0])} and {format_pauli(pair[1])} do not commute"
            assert context_fault(hermitian) == (message, pair is None)
            assert context_fault(words)[1] is (pair is None)

    @pytest.mark.parametrize(
        "words",
        [
            [parse_pauli("i X1", 2)],
            [parse_pauli("X1", 2), parse_pauli("Z1", 2)],
            [parse_pauli("Z1", 2), parse_pauli("Z1", 3)],
        ],
        ids=["non-hermitian", "non-commuting", "two registers"],
    )
    def test_every_refusal_gives_the_one_fault_message(self, words):
        try:
            message = validate(ContextSystem(2, (Context(tuple(words), +1),))).checks[0].problem
        except ValueError as err:
            message = str(err)
        assert message is not None
        with pytest.raises(ValueError) as compiled:
            compile_context(bell_product_tableau(1), words)
        assert str(compiled.value) == message
        if len(words) == 1:
            with pytest.raises(ValueError) as expectation:
                tableau_expectation(bell_product_tableau(1), words[0])
            assert str(expectation.value) == message

    def test_members_on_different_registers_raise(self):
        with pytest.raises(ValueError, match="mismatch: 2 vs 3"):
            validate(ContextSystem(2, (Context((parse_pauli("Z1", 2), parse_pauli("Z1", 3)), +1),)))

    def test_context_on_another_register_is_flagged_first(self):
        # A physical context on 3 qubits, and a non-Hermitian one, in a 2-qubit system.
        system = ContextSystem(
            2,
            (
                Context((parse_pauli("Z1", 3), parse_pauli("Z1", 3)), +1),
                Context((parse_pauli("i X1", 3), parse_pauli("-i X1", 3)), -1),
                Context((parse_pauli("Z1", 2), parse_pauli("Z1", 2)), +1),
            ),
        )
        report = validate(system)
        assert [check.problem for check in report.checks] == [
            "acts on 3 qubits, system has 2", "acts on 3 qubits, system has 2", None,
        ]
        assert report.checks[0].commuting and report.checks[0].product_sign == +1
        assert report.failures == (0, 1)

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


def random_context(rng) -> Context:
    """One to five words on 1-3 qubits, of any phase, some repeated.

    Most contexts are closed: a last word makes the ordered product +-I.
    Some of those then take an i and a -i on two members, so the product
    stays +-I with two members that are not Hermitian.  The declared sign
    is random.
    """
    n = int(rng.integers(1, 4))
    words = [random_pauli(rng, n) for _ in range(int(rng.integers(1, 4)))]
    words = [w if rng.random() < 0.2 else w._replace(phase_exponent=w.phase_exponent & 2) for w in words]
    if rng.random() < 0.3:
        words.append(words[int(rng.integers(len(words)))])
    if rng.random() < 0.7:
        acc = product(words)
        closer = PauliOperator(n, acc.x_mask, acc.z_mask)
        phase = product(words + [closer]).phase_exponent
        words.append(closer._replace(phase_exponent=2 * int(rng.integers(2)) - phase))
        if rng.random() < 0.3:
            a, b = rng.choice(len(words), size=2, replace=False)
            words[a] = words[a]._replace(phase_exponent=words[a].phase_exponent + 1)
            words[b] = words[b]._replace(phase_exponent=words[b].phase_exponent + 3)
    return Context(tuple(words), 1 - 2 * int(rng.integers(2)))


class TestValidateAgainstDense:
    @pytest.mark.parametrize("seed", range(20))
    def test_checks_match_the_dense_matrices(self, seed):
        rng = np.random.default_rng(seed)
        by_size: dict[int, list[Context]] = {}
        for _ in range(40):
            ctx = random_context(rng)
            by_size.setdefault(ctx.observables[0].num_qubits, []).append(ctx)
        kinds = set()
        for n, contexts in by_size.items():
            report = validate(ContextSystem(n, tuple(contexts)))
            assert len(report.checks) == len(contexts)
            for idx, (ctx, check) in enumerate(zip(contexts, report.checks)):
                mats = [dense_oracle(w) for w in ctx.observables]
                hermitian = all(np.allclose(m, m.conj().T) for m in mats)
                commuting = all(np.allclose(a @ b, b @ a) for a, b in combinations(mats, 2))
                total = dense_product(ctx.observables)
                sign = next((s for s in (+1, -1) if np.allclose(total, s * np.eye(1 << n))), None)
                physical = hermitian and commuting and sign == ctx.expected_sign
                assert check.context_index == idx
                assert check.expected_sign == ctx.expected_sign
                assert check.commuting == commuting
                assert check.product_sign == (sign if commuting else None)
                assert (check.problem is None) == physical
                if not commuting:
                    kinds.add("non-commuting")
                elif sign == ctx.expected_sign:
                    kinds.add("physical" if hermitian else "non-Hermitian only")
                elif hermitian and sign is not None:
                    kinds.add("wrong sign")
            assert report.failures == tuple(c.context_index for c in report.checks if c.problem is not None)
            assert report.ok == (report.failures == ())
        # Every seed holds each kind, so dropping any one of `validate`'s
        # checks fails every seed, not only the seeds that happen to need it.
        assert kinds == {"physical", "non-Hermitian only", "non-commuting", "wrong sign"}


class TestCatalogCache:
    def test_built_once_per_system(self):
        system = generalized_sets(5)
        assert system.catalog is system.catalog
        assert system.occurrence_counts is system.occurrence_counts

    def test_counts_occurrences_not_contexts(self):
        """A word that a context lists twice counts twice: X1 occurs 3 times in 2 contexts."""
        system = parse_document("qubits 2\nset X1, X1, Z2, Z2\nset X1, X2, X1 X2\n")
        assert [format_pauli(word) for word in system.catalog] == ["X1", "Z2", "X2", "X1 X2"]
        assert system.occurrence_counts == (3, 2, 1, 1)

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
        assert all(row.mask.bit_count() == 3 for row in ps.rows)

    def test_bipartite_system(self):
        ps = ghz_contexts("bipartite")
        assert len(ps.variables) == 6
        assert len(ps.rows) == 4
        assert all(row.mask.bit_count() == 2 for row in ps.rows)
        # The second observer holds particles 2 and 3, so its words have no letter on qubit 1.
        bob_vars = [i for i, word in enumerate(ps.variables) if not (word.x_mask | word.z_mask) & 1]
        occurrences = [sum(row.mask >> v & 1 for row in ps.rows) for v in bob_vars]
        assert occurrences == [1, 1, 1, 1]

    # Each grouping's observers, as the qubits each one holds (1-based).
    OBSERVERS = {"tripartite": ({1}, {2}, {3}), "bipartite": ({1}, {2, 3})}

    @pytest.mark.parametrize("grouping", OBSERVERS)
    def test_each_row_splits_its_observable_over_the_observers(self, grouping):
        """Row k holds one factor per observer, on that observer's qubits, and they multiply to observable k."""
        ps = ghz_contexts(grouping)
        observers = self.OBSERVERS[grouping]
        assert len(set(ps.variables)) == len(ps.variables) == 6
        assert len(ps.rows) == len(ghz_observables())
        for row, (op, _) in zip(ps.rows, ghz_observables()):
            # The variables run observer by observer, so a row's bits, low to high, are its factors in order.
            factors = [word for i, word in enumerate(ps.variables) if row.mask >> i & 1]
            assert len(factors) == len(observers)
            assert product(factors) == op  # phase 0 included
            for factor, qubits in zip(factors, observers):
                assert factor.phase_exponent == 0
                assert {q for q in (1, 2, 3) if factor.letter(q) != "I"} == qubits

    @pytest.mark.parametrize("grouping", OBSERVERS)
    def test_each_rhs_is_the_eigenvalue_on_the_ghz_state(self, grouping):
        ps = ghz_contexts(grouping)
        state = ghz_tableau()
        expectations = [tableau_expectation(state, op) for op, _ in ghz_observables()]
        assert [1 - 2 * row.rhs for row in ps.rows] == expectations

    def test_bipartite_variable_order(self):
        """The first observer's words, then the second's, each in order of first use."""
        words = ("X1", "Y1", "Y2 Y3", "X2 Y3", "Y2 X3", "X2 X3")
        assert ghz_contexts("bipartite").variables == tuple(parse_pauli(w, 3) for w in words)

    def test_unknown_grouping(self):
        with pytest.raises(ValueError, match="grouping"):
            ghz_contexts("unipartite")
