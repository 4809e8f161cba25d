"""Shared states, expectations, eigenrelations, projective measurement."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import dense_oracle, random_pauli
from protocol_reference import tableau_measure
from bellcheck.constructions import generalized_sets, mermin_square
from bellcheck.pauli import PauliOperator, commutes, parse_pauli, relabel
from bellcheck.rng import shot_stream
from bellcheck.states import (
    StateVector,
    apply_pauli,
    bell_product_state,
    dense_expectation,
    eigenrelation_check,
    expectation,
    ghz_state,
    measure_context,
    singlet_product_state,
)
from bellcheck.tableau import (
    bell_product_tableau,
    compile_context,
    embed,
    ghz_tableau,
    singlet_product_tableau,
    tableau_expectation,
)

INV_SQRT2 = 2.0 ** -0.5


def on_side(op, n, side):
    """Oracle for `embed`: the word relabelled onto qubits 1..n or n+1..2n."""
    offset = 0 if side == "alice" else n
    return relabel(op, {k: k + offset for k in range(1, n + 1)}, 2 * n)


class TestStates:
    def test_single_bell_pair(self):
        amp = bell_product_state(1).amplitudes
        assert np.array_equal(amp, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_two_bell_pairs(self):
        amp = bell_product_state(2).amplitudes
        assert np.array_equal(np.flatnonzero(amp), [0b0000, 0b0101, 0b1010, 0b1111])
        assert np.array_equal(amp[np.flatnonzero(amp)], [0.5] * 4)

    def test_three_bell_pairs(self):
        amp = bell_product_state(3).amplitudes
        nz = np.flatnonzero(amp)
        assert len(nz) == 8
        assert np.allclose(amp[nz], 2.0 ** -1.5)
        for index in nz:
            assert (index >> 3) == (index & 0b111)

    def test_single_singlet(self):
        amp = singlet_product_state(1).amplitudes
        assert np.array_equal(amp, [0, INV_SQRT2, -INV_SQRT2, 0])

    def test_two_singlets_signs(self):
        amp = singlet_product_state(2).amplitudes
        expected = {0b0011: 0.5, 0b0110: -0.5, 0b1001: -0.5, 0b1100: 0.5}
        for index, value in expected.items():
            assert amp[index] == value
        assert np.count_nonzero(amp) == 4

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_norms(self, n):
        assert abs(bell_product_state(n).norm - 1.0) < 1e-15
        assert abs(singlet_product_state(n).norm - 1.0) < 1e-15

    def test_ghz(self):
        amp = ghz_state().amplitudes
        assert amp[0] == INV_SQRT2
        assert amp[7] == -INV_SQRT2
        assert np.count_nonzero(amp) == 2

    def test_pair_count_guard(self):
        with pytest.raises(ValueError):
            bell_product_state(0)
        with pytest.raises(ValueError):
            singlet_product_state(14)

    def test_state_vector_normalization_guard(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        state = bell_product_state(1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestApplyPauli:
    def test_matches_dense_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            op = random_pauli(rng, m)
            amp = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
            amp /= np.linalg.norm(amp)
            state = StateVector(m, amp)
            assert np.allclose(apply_pauli(op, state), dense_oracle(op) @ amp, atol=1e-14)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli(parse_pauli("X1", 1), bell_product_state(1))


class TestExpectation:
    def test_mirrored_x_on_bell_pair(self):
        x = parse_pauli("X1", 1)
        op = on_side(x, 1, "alice") * on_side(x, 1, "bob")
        assert expectation(bell_product_state(1), op) == pytest.approx(1.0, abs=1e-12)

    def test_local_z_on_singlet_vanishes(self):
        assert expectation(singlet_product_state(1), parse_pauli("Z1", 2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity(self):
        assert expectation(bell_product_state(2), parse_pauli("I", 4)) == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(bell_product_state(1), PauliOperator(2, 0, 0, 1))

    def test_dense_expectation_matches(self):
        state = singlet_product_state(1)
        op = parse_pauli("Z1 Z2", 2)
        assert dense_expectation(state, dense_oracle(op)) == expectation(state, op)


def dense_eigenrelation(n, op):
    """State-vector oracle: apply op on block B, then on block A, compare."""
    state = bell_product_state(n)
    moved = StateVector(2 * n, apply_pauli(on_side(op, n, "bob"), state))
    moved = apply_pauli(on_side(op, n, "alice"), moved)
    return float(np.linalg.norm(moved - state.amplitudes)) < 1e-12


def hermitian_pauli(rng, num_qubits):
    op = random_pauli(rng, num_qubits)
    return PauliOperator(num_qubits, op.x_mask, op.z_mask, 2 * int(rng.integers(0, 2)))


class SequenceDraw:
    """Stand-in generator that hands out `values` in order."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return float(next(self.values))


def form_bits(forms, draws):
    """Evaluate affine forms on one draw per word: a coin is 1 when its draw is >= 1/2."""
    coins = 1 | sum(1 << (j + 1) for j, d in enumerate(draws) if d >= 0.5)
    return [(form & coins).bit_count() & 1 for form in forms]


def measure_compiled(tableau, contexts, draws):
    """Compile `contexts` one after another, then evaluate on one draw per word.

    Returns the +-1 outcomes and the post-measurement tableau with its sign
    forms evaluated into the rows' phases.
    """
    signs, forms = None, ()
    for ops in contexts:
        step, tableau, signs = compile_context(tableau, ops, signs, len(forms))
        forms += step
    signs = signs or (0,) * tableau.num_qubits
    bits = form_bits(forms + signs, draws)
    rows = tuple(
        PauliOperator(s.num_qubits, s.x_mask, s.z_mask, s.phase_exponent + 2 * flip)
        for s, flip in zip(tableau.stabilizers, bits[len(forms):])
    )
    return [1 - 2 * b for b in bits[: len(forms)]], tableau._replace(stabilizers=rows)


def commuting_words(rng, num_qubits, count):
    ops = []
    while len(ops) < count:
        op = hermitian_pauli(rng, num_qubits)
        if all(commutes(op, o) for o in ops):
            ops.append(op)
    return ops


class TestEmbed:
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_matches_relabel_on_random_words(self, side):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 14))
            op = random_pauli(rng, n)
            assert embed(op, n, side) == on_side(op, n, side)

    def test_size_mismatch(self):
        message = "operator acts on 1 qubits, expected 2"
        for side in ("alice", "bob"):
            with pytest.raises(ValueError, match=message):
                embed(parse_pauli("X1", 1), 2, side)
        with pytest.raises(ValueError, match=message):
            eigenrelation_check(2, parse_pauli("X1", 1))

    def test_unknown_side(self):
        with pytest.raises(ValueError, match="side"):
            embed(parse_pauli("X1", 1), 1, "carol")


class TestEigenrelation:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
    def test_tableau_matches_dense_oracle_on_catalog(self, n):
        system = mermin_square() if n == 2 else generalized_sets(n)
        for op in system.catalog:
            assert eigenrelation_check(n, op) == dense_eigenrelation(n, op)

    def test_tableau_matches_dense_oracle_on_y(self):
        op = parse_pauli("Y1", 1)
        assert eigenrelation_check(1, op) is dense_eigenrelation(1, op) is False

    def test_random_words_match_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            op = random_pauli(rng, n)
            assert eigenrelation_check(n, op) == dense_eigenrelation(n, op)

    def test_all_square_observables(self):
        for op in mermin_square().catalog:
            assert eigenrelation_check(2, op)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_all_generalized_observables(self, n):
        for op in generalized_sets(n).catalog:
            assert eigenrelation_check(n, op)

    def test_single_y_fails(self):
        # Y picks up a transpose sign across a Bell pair: direct expansion
        # of (Y (x) Y) on (|00>+|11>)/sqrt(2) gives amplitude -1 overlap.
        assert not eigenrelation_check(1, parse_pauli("Y1", 1))

    def test_single_x_and_z_hold(self):
        assert eigenrelation_check(1, parse_pauli("X1", 1))
        assert eigenrelation_check(1, parse_pauli("Z1", 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            eigenrelation_check(2, parse_pauli("X1", 1))


class TestMeasureContext:
    def embedded(self, context):
        return [on_side(o, 2, "alice") for o in context.observables]

    def test_row_products_always_plus_one(self):
        system = mermin_square()
        ops = self.embedded(system.contexts[0])
        state = bell_product_state(2)
        for shot in range(300):
            outcomes, post = measure_context(state, ops, shot_stream(2, shot))
            assert outcomes[0] * outcomes[1] * outcomes[2] == 1
            assert abs(post.norm - 1.0) < 1e-12

    def test_third_column_products_always_minus_one(self):
        system = mermin_square()
        ops = self.embedded(system.contexts[5])
        state = bell_product_state(2)
        for shot in range(300):
            outcomes, _ = measure_context(state, ops, shot_stream(3, shot))
            assert outcomes[0] * outcomes[1] * outcomes[2] == -1

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="commute"):
            measure_context(
                bell_product_state(1),
                [parse_pauli("X1", 2), parse_pauli("Z1", 2)],
                shot_stream(0, 0),
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            measure_context(bell_product_state(1), [PauliOperator(2, 0, 0, 1)], shot_stream(0, 0))

    def test_outcome_mean_matches_expectation(self):
        state = StateVector(1, np.array([0.6, 0.8]))
        op = parse_pauli("X1", 1)
        target = expectation(state, op)
        assert target == pytest.approx(0.96)
        shots = 10_000
        total = sum(
            measure_context(state, [op], shot_stream(5, shot))[0][0] for shot in range(shots)
        )
        sigma = math.sqrt((1.0 - target**2) / shots)
        assert abs(total / shots - target) < 4.0 * sigma

    def test_joint_distribution_invariant_under_reordering(self):
        system = mermin_square()
        ops = self.embedded(system.contexts[2])
        state = bell_product_state(2)
        shots = 10_000

        def sample(op_order, seed):
            counts = {}
            for shot in range(shots):
                outcomes, _ = measure_context(state, op_order, shot_stream(seed, shot))
                key = tuple(outcomes[op_order.index(op)] for op in ops)
                counts[key] = counts.get(key, 0) + 1
            return counts

        forward = sample(ops, seed=7)
        backward = sample(list(reversed(ops)), seed=8)
        keys = sorted(set(forward) | set(backward))
        table = np.array([[forward.get(k, 0) for k in keys], [backward.get(k, 0) for k in keys]])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.001

    def test_measurement_collapses_to_eigenstate(self):
        state = bell_product_state(1)
        op = parse_pauli("Z1", 2)
        outcomes, post = measure_context(state, [op], shot_stream(9, 0))
        assert expectation(post, op) == pytest.approx(float(outcomes[0]), abs=1e-12)


class TestTableau:
    @staticmethod
    def assert_relations(tableau):
        assert len(tableau.stabilizers) == len(tableau.destabilizers) == tableau.num_qubits
        for i, s in enumerate(tableau.stabilizers):
            assert s.is_hermitian
            for j, d in enumerate(tableau.destabilizers):
                assert commutes(s, d) == (i != j)
            assert all(commutes(s, t) for t in tableau.stabilizers)
            assert all(commutes(tableau.destabilizers[i], d) for d in tableau.destabilizers)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bell_tableau_relations(self, n):
        tableau = bell_product_tableau(n)
        assert tableau.num_qubits == 2 * n
        self.assert_relations(tableau)
        state = bell_product_state(n)
        for s in tableau.stabilizers:
            assert expectation(state, s) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def assert_matches_dense_on_every_hermitian_word(tableau, state):
        m = tableau.num_qubits
        words = [
            PauliOperator(m, x, z, phase)
            for x in range(1 << m)
            for z in range(1 << m)
            for phase in (0, 2)
        ]
        assert len(words) == 2 * 4**m
        for op in words:
            value = tableau_expectation(tableau, op)
            assert value in (-1.0, 0.0, 1.0)
            assert value == pytest.approx(expectation(state, op), abs=1e-12)

    def test_ghz_tableau_matches_dense_on_every_hermitian_word(self):
        tableau = ghz_tableau()
        self.assert_relations(tableau)
        self.assert_matches_dense_on_every_hermitian_word(tableau, ghz_state())

    @pytest.mark.parametrize("n", [1, 2])
    def test_singlet_tableau_matches_dense_on_every_hermitian_word(self, n):
        tableau = singlet_product_tableau(n)
        assert tableau is singlet_product_tableau(n)
        self.assert_relations(tableau)
        self.assert_matches_dense_on_every_hermitian_word(tableau, singlet_product_state(n))

    def test_bell_tableau_is_shared(self):
        assert bell_product_tableau(4) is bell_product_tableau(4)
        with pytest.raises(ValueError):
            bell_product_tableau(0)

    def test_expectation_matches_dense_on_random_words(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            op = hermitian_pauli(rng, 2 * n)
            dense = expectation(bell_product_state(n), op)
            assert tableau_expectation(bell_product_tableau(n), op) == pytest.approx(dense, abs=1e-12)

    @staticmethod
    def form_expectation(tableau, op):
        """`compile_context`'s reading: a form above 1 holds the word's own coin."""
        (form,), _, _ = compile_context(tableau, (op,))
        return 0.0 if form > 1 else 1.0 - 2.0 * form

    @staticmethod
    def probe_words(rng, tableau, count):
        """Random Hermitian words, and as many signed stabilizer products (forced)."""
        m = tableau.num_qubits
        for _ in range(count):
            yield hermitian_pauli(rng, m)
            picked = [s for s in tableau.stabilizers if rng.random() < 0.5] or [tableau.stabilizers[0]]
            word = picked[0]
            for s in picked[1:]:
                word = word * s
            yield PauliOperator(m, word.x_mask, word.z_mask, word.phase_exponent + 2 * int(rng.integers(0, 2)))

    def assert_expectations_agree(self, rng, tableau, state, count):
        for op in self.probe_words(rng, tableau, count):
            value = tableau_expectation(tableau, op)
            assert value == self.form_expectation(tableau, op)
            assert value == pytest.approx(expectation(state, op), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_expectation_without_collapse_after_random_contexts(self, n):
        """Tableaux reached by measuring random contexts, up to 12 qubits dense."""
        rng = np.random.default_rng(300 + n)
        for trial in range(8):
            state, contexts, draws = bell_product_state(n), [], []
            for step in range(2):
                ops = commuting_words(rng, 2 * n, 3)
                step_draws = rng.random(len(ops))
                _, state = measure_context(state, ops, SequenceDraw(step_draws))
                contexts.append(ops)
                draws.extend(step_draws)
            _, tableau = measure_compiled(bell_product_tableau(n), contexts, draws)
            self.assert_expectations_agree(rng, tableau, state, 25)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_expectation_without_collapse_on_singlets_and_ghz(self, n):
        rng = np.random.default_rng(400 + n)
        self.assert_expectations_agree(rng, singlet_product_tableau(n), singlet_product_state(n), 40)
        self.assert_expectations_agree(rng, ghz_tableau(), ghz_state(), 40)

    def test_random_outcome_has_p_plus_one_half(self):
        # Z1 anticommutes with the stabilizer X1 X2 of one Bell pair.
        op = parse_pauli("Z1", 2)
        assert expectation(bell_product_state(1), op) == pytest.approx(0.0, abs=1e-12)
        assert tableau_expectation(bell_product_tableau(1), op) == 0.0
        forms, _, _ = compile_context(bell_product_tableau(1), [op])
        assert forms == (0b10,)  # the word's own coin
        assert [form_bits(forms, [draw]) for draw in (0.4999, 0.5)] == [[0], [1]]
        for draw, outcome in ((0.4999, +1), (0.5, -1)):
            assert tableau_measure(bell_product_tableau(1), [op], SequenceDraw([draw]))[0] == [outcome]

    @pytest.mark.parametrize("text,sign", [("X1 X2", +1), ("Z1 Z2", +1), ("Y1 Y2", -1)])
    def test_forced_outcome_matches_dense_sign(self, text, sign):
        op = parse_pauli(text, 2)
        assert expectation(bell_product_state(1), op) == pytest.approx(sign, abs=1e-12)
        assert tableau_expectation(bell_product_tableau(1), op) == sign
        forms, post, signs = compile_context(bell_product_tableau(1), [op])
        assert forms == ((1 - sign) // 2,)  # a constant: no coin bits
        assert post == bell_product_tableau(1) and signs == (0, 0)
        for draw in (0.0, 0.5, 1.0 - 2.0**-53):
            outcomes, post = measure_compiled(bell_product_tableau(1), [[op]], [draw])
            assert outcomes == [sign]
            assert post == bell_product_tableau(1)

    def test_one_draw_per_word(self):
        """Outcome j reads the draws of words 0..j only, so each word takes one draw."""
        system = generalized_sets(5)
        for ctx in system.contexts:
            ops = [embed(o, 5, "alice") for o in ctx.observables]
            forms, _, _ = compile_context(bell_product_tableau(5), ops)
            assert len(forms) == len(ops)
            for j, form in enumerate(forms):
                assert form < 1 << (j + 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_measurement_sequences_match_dense(self, n):
        """Same draws, same outcomes; the post-measurement states agree on every word."""
        rng = np.random.default_rng(100 + n)
        for trial in range(40):
            state, contexts, draws = bell_product_state(n), [], []
            for step in range(3):
                ops = commuting_words(rng, 2 * n, 3)
                seed = int(rng.integers(0, 2**31))
                step_draws = shot_stream(seed, step).random(len(ops))
                slow, state = measure_context(state, ops, SequenceDraw(step_draws))
                contexts.append(ops)
                draws.extend(step_draws)
                fast, tableau = measure_compiled(bell_product_tableau(n), contexts, draws)
                assert fast[-len(ops):] == slow
                for s in tableau.stabilizers:
                    assert expectation(state, s) == pytest.approx(1.0, abs=1e-9)
            for _ in range(20):
                op = hermitian_pauli(rng, 2 * n)
                assert tableau_expectation(tableau, op) == pytest.approx(
                    expectation(state, op), abs=1e-9
                )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_compiled_forms_match_reference_measurements(self, n):
        """Alice's context, then Bob's copy, compiled once and evaluated per draw sequence.

        The references measure word by word on a concrete tableau and on
        the dense state, reading the same draws.
        """
        system = mermin_square() if n == 2 else generalized_sets(n)
        rng = np.random.default_rng(n)
        start, dense = bell_product_tableau(n), bell_product_state(n)
        for ctx in system.contexts:
            alice = [embed(o, n, "alice") for o in ctx.observables]
            bob = [embed(o, n, "bob") for o in ctx.observables]
            alice_forms, post, signs = compile_context(start, alice)
            bob_forms, _, _ = compile_context(post, bob, signs, len(alice))
            forms = alice_forms + bob_forms
            for j, form in enumerate(forms):
                # A coin is its own bit; a forced word uses earlier coins only.
                assert form == 1 << (j + 1) or form < 1 << (j + 1)
            for trial in range(12):
                draws = rng.random(len(forms))
                draws[rng.random(len(forms)) < 0.3] = 0.5
                bits = form_bits(forms, draws)
                compiled = [1 - 2 * b for b in bits]
                seq = SequenceDraw(draws)
                first, tableau = tableau_measure(start, alice, seq)
                second, _ = tableau_measure(tableau, bob, seq)
                assert compiled == first + second
                seq = SequenceDraw(draws)
                first, state = measure_context(dense, alice, seq)
                second, _ = measure_context(state, bob, seq)
                assert compiled == first + second

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chained_compiles_match_reference(self, n):
        """Contexts that do not commute with each other, compiled one after another."""
        rng = np.random.default_rng(200 + n)
        for trial in range(30):
            contexts = [commuting_words(rng, 2 * n, 3) for step in range(3)]
            draws = rng.random(9)
            outcomes, tableau = measure_compiled(bell_product_tableau(n), contexts, draws)
            seq, reference, expected = SequenceDraw(draws), bell_product_tableau(n), []
            for ops in contexts:
                step, reference = tableau_measure(reference, ops, seq)
                expected += step
            assert outcomes == expected
            # The symbolic signs, evaluated, are the reference tableau's signs.
            # Destabilizer phases carry no information and may differ.
            assert tableau.stabilizers == reference.stabilizers

    def test_post_measurement_tableau_matches_reference(self):
        rng = np.random.default_rng(23)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            ops = commuting_words(rng, 2 * n, 4)
            draws = rng.random(len(ops))
            fast = measure_compiled(bell_product_tableau(n), [ops], draws)
            slow = tableau_measure(bell_product_tableau(n), ops, SequenceDraw(draws))
            assert fast == slow

    def test_post_measurement_tableau_keeps_its_relations(self):
        ops = [embed(o, 3, "alice") for o in generalized_sets(3).contexts[0].observables]
        draws = shot_stream(1, 0).random(len(ops))
        _, tableau = measure_compiled(bell_product_tableau(3), [ops], draws)
        self.assert_relations(tableau)

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="X1 and Z1 do not commute"):
            compile_context(bell_product_tableau(1), [parse_pauli("X1", 2), parse_pauli("Z1", 2)])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            compile_context(bell_product_tableau(1), [PauliOperator(2, 0, 0, 1)])
        with pytest.raises(ValueError, match="Hermitian"):
            tableau_expectation(bell_product_tableau(1), PauliOperator(2, 1, 0, 3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            compile_context(bell_product_tableau(1), [parse_pauli("X1", 4)])
        with pytest.raises(ValueError, match="qubits"):
            tableau_expectation(bell_product_tableau(2), parse_pauli("X1", 2))
