"""Pauli-word algebra against the dense-matrix oracle."""

import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from oracles import dense_oracle, random_pauli, relabel
from bellcheck.pauli import (
    PauliOperator,
    PauliSyntaxError,
    commutes,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
    product,
    product_masks,
    single,
)


@st.composite
def pauli_pairs(draw, max_qubits=5):
    n = draw(st.integers(1, max_qubits))

    def one():
        return PauliOperator(
            n,
            draw(st.integers(0, (1 << n) - 1)),
            draw(st.integers(0, (1 << n) - 1)),
            draw(st.integers(0, 3)),
        )

    return one(), one()


single_paulis = pauli_pairs().map(lambda pair: pair[0])

PHASE_PREFIXES = {"": 0, "+": 0, "i": 1, "-": 2, "-i": 3}


@st.composite
def token_texts(draw, max_qubits=4):
    """(n, phase prefix, tokens): LETTER+INDEX tokens, or a bare "I" with index ""."""
    n = draw(st.integers(1, max_qubits))
    token = st.one_of(
        st.tuples(st.sampled_from("IXYZ"), st.integers(1, n)), st.just(("I", ""))
    )
    tokens = draw(st.lists(token, min_size=1, max_size=8))
    return n, draw(st.sampled_from(sorted(PHASE_PREFIXES))), tokens


@st.composite
def wide_token_texts(draw, max_qubits=4096):
    """As `token_texts`, on registers up to 4096 qubits.

    Indices come mostly from a few sites, so that tokens repeat them, and
    some carry leading zeros.
    """
    n = draw(st.integers(1, max_qubits))
    sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    index = st.one_of(st.sampled_from(sites), st.integers(1, n))
    token = st.one_of(
        st.tuples(st.sampled_from("IXYZ"), index, st.integers(0, 2)),
        st.just(("I", "", 0)),
    )
    tokens = draw(st.lists(token, min_size=1, max_size=12))
    return n, draw(st.sampled_from(sorted(PHASE_PREFIXES))), tokens


def left_fold(n, prefix, tokens):
    """The definition: the prefix's phase, times each token's one-letter
    word in turn; a bare "I" is the identity."""
    expected = PauliOperator(n, 0, 0, PHASE_PREFIXES[prefix])
    for letter, index, *_ in tokens:
        if index != "":
            expected = multiply(expected, single(letter, index, n))
    return expected


# Malformed words, with the message and the 0-based position each is
# reported at.
MALFORMED = [
    ("", 2, "empty operator text", 0),
    ("\t\n", 2, "empty operator text", 0),
    ("-", 2, "phase prefix without operator tokens", 0),
    ("  -i  ", 2, "phase prefix without operator tokens", 2),
    ("i", 3, "phase prefix without operator tokens", 0),
    ("x1", 2, "malformed token 'x1'", 0),
    ("X1 Q2", 2, "malformed token 'Q2'", 3),
    ("X1,", 2, "malformed token 'X1,'", 0),
    ("X-1", 2, "malformed token 'X-1'", 0),
    ("X+1", 2, "malformed token 'X+1'", 0),
    ("X1_0", 20, "malformed token 'X1_0'", 0),
    ("X\u00b2", 2, "malformed token 'X\u00b2'", 0),
    ("Z\u0661", 2, "malformed token 'Z\u0661'", 0),
    ("-- X1", 2, "malformed token '--'", 0),
    ("- - X1", 2, "malformed token '-'", 2),
    ("-i -i X1", 2, "malformed token '-i'", 3),
    ("XX1", 2, "malformed token 'XX1'", 0),
    ("1X", 2, "malformed token '1X'", 0),
    ("  X1\u00a0Q2", 2, "malformed token 'Q2'", 5),
    ("X1  Y", 2, "token 'Y' is missing a qubit index", 4),
    ("X1 Z", 2, "token 'Z' is missing a qubit index", 3),
    ("X0", 2, "qubit index 0 out of range 1..2", 0),
    ("X00", 2, "qubit index 0 out of range 1..2", 0),
    ("I0", 1, "qubit index 0 out of range 1..1", 0),
    ("I5", 3, "qubit index 5 out of range 1..3", 0),
    ("Y010", 9, "qubit index 10 out of range 1..9", 0),
    ("X1 Y2 Z99", 13, "qubit index 99 out of range 1..13", 6),
    ("X1\u3000Z7", 2, "qubit index 7 out of range 1..2", 3),
]

# Characters that `str.split` takes for whitespace, beyond the ASCII ones:
# the information separators, NEL, no-break and other Unicode spaces, and
# the line and paragraph separators.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"


@st.composite
def texts_with_one_bad_token(draw):
    """(text, k): valid 2-qubit tokens around one rejected token, the k-th, with any whitespace between."""
    tokens = draw(st.lists(st.sampled_from(["X1", "Y2", "Z1", "I", "X01", "-", "-i"]), max_size=5))
    tokens = [t for i, t in enumerate(tokens) if i == 0 or not t.startswith("-")]  # a phase only leads
    non_space = st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace())
    bad = draw(st.sampled_from(["X", "X9", "x1", "X1,", "-"]) | st.text(non_space, max_size=3).map("Q".__add__))
    k = draw(st.integers(0, len(tokens)))
    assume(k > 0 or bad != "-")  # a leading `-` is a phase prefix
    tokens.insert(k, bad)
    space = st.text(st.sampled_from(WHITESPACE), max_size=3)
    gaps = [" " + draw(space) for _ in tokens[1:]] + [draw(space)]
    return draw(space) + "".join(t + gap for t, gap in zip(tokens, gaps)), k


class TestParse:
    def test_basic_tokens(self):
        op = parse_pauli("X1 Z2 X3", 3)
        assert (op.x_mask, op.z_mask, op.phase_exponent) == (0b101, 0b010, 0)

    def test_all_z(self):
        op = parse_pauli("Z1 Z2 Z3", 3)
        assert (op.x_mask, op.z_mask, op.phase_exponent) == (0, 0b111, 0)

    def test_index_out_of_range_names_position(self):
        with pytest.raises(PauliSyntaxError, match="out of range"):
            parse_pauli("X4", 3)
        try:
            parse_pauli("X1 X4", 3)
        except PauliSyntaxError as err:
            assert err.position == 3

    def test_malformed_token(self):
        with pytest.raises(PauliSyntaxError, match="malformed"):
            parse_pauli("Q1", 2)
        with pytest.raises(PauliSyntaxError, match="missing a qubit index"):
            parse_pauli("X", 2)

    def test_empty_string(self):
        with pytest.raises(PauliSyntaxError, match="empty"):
            parse_pauli("   ", 2)

    def test_repeated_index_multiplies_in_order(self):
        op = parse_pauli("X1 Z1", 1)
        assert op == PauliOperator(1, 1, 1, 3)  # -i Y
        op = parse_pauli("Z1 X1", 1)
        assert op == PauliOperator(1, 1, 1, 1)  # +i Y

    @given(token_texts())
    def test_matches_left_fold_of_single_letters(self, case):
        n, prefix, tokens = case
        text = " ".join([prefix, *(f"{letter}{index}" for letter, index in tokens)])
        assert parse_pauli(text, n) == left_fold(n, prefix, tokens)

    @given(wide_token_texts())
    def test_matches_left_fold_on_wide_registers(self, case):
        n, prefix, tokens = case
        text = " ".join(
            [prefix, *(f"{letter}{'0' * zeros}{index}" for letter, index, zeros in tokens)]
        )
        assert parse_pauli(text, n) == left_fold(n, prefix, tokens)

    @pytest.mark.parametrize("text,n,message,position", MALFORMED)
    def test_error_text_and_position(self, text, n, message, position):
        with pytest.raises(PauliSyntaxError) as exc:
            parse_pauli(text, n)
        assert str(exc.value) == f"{message} (at position {position + 1})"
        assert exc.value.position == position

    @given(texts_with_one_bad_token())
    def test_error_position_is_where_re_finds_the_token(self, case):
        """The rejected token's offset is the start of the k-th `\\S+` match, as `re` finds it."""
        text, k = case
        with pytest.raises(PauliSyntaxError) as exc:
            parse_pauli(text, 2)
        assert exc.value.position == next(islice(re.finditer(r"\S+", text), k, None)).start()

    def test_index_past_the_int_digit_limit(self):
        # int() refuses more than 4300 digits; the index is still out of range.
        digits = "1" * 5000
        with pytest.raises(PauliSyntaxError) as exc:
            parse_pauli(f"X1 Y{digits}", 3)
        assert str(exc.value) == f"qubit index {digits} out of range 1..3 (at position 4)"
        assert exc.value.position == 3

    def test_leading_zeros_past_the_int_digit_limit(self):
        assert parse_pauli("Z" + "0" * 5000 + "2", 3) == PauliOperator(3, 0, 0b010)

    def test_phase_prefix(self):
        assert parse_pauli("-i Y1", 1) == PauliOperator(1, 1, 1, 3)
        assert parse_pauli("- X1", 2) == PauliOperator(2, 1, 0, 2)
        assert parse_pauli("I", 3) == identity(3)
        with pytest.raises(PauliSyntaxError, match="phase prefix"):
            parse_pauli("-i", 1)


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        result = multiply(single("X", 1, 1), single("Z", 1, 1))
        assert result == PauliOperator(1, 1, 1, 3)
        assert np.array_equal(dense_oracle(result), np.array([[0, -1], [1, 0]], dtype=complex))

    def test_identity_law(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            op = random_pauli(rng, int(rng.integers(1, 6)))
            assert multiply(op, identity(op.num_qubits)) == op
            assert multiply(identity(op.num_qubits), op) == op

    def test_third_column_product_is_minus_identity(self):
        ops = [parse_pauli(t, 2) for t in ("X1 X2", "Z1 Z2", "Y1 Y2")]
        result = multiply(multiply(ops[0], ops[1]), ops[2])
        assert result == PauliOperator(2, 0, 0, 2)
        expected = dense_oracle(ops[0]) @ dense_oracle(ops[1]) @ dense_oracle(ops[2])
        assert np.array_equal(expected, -np.eye(4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(identity(2), identity(3))

    def test_oracle_battery(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            assert np.array_equal(
                dense_oracle(multiply(a, b)), dense_oracle(a) @ dense_oracle(b)
            )

    @given(pauli_pairs())
    def test_matches_dense_product(self, pair):
        a, b = pair
        assert np.array_equal(dense_oracle(multiply(a, b)), dense_oracle(a) @ dense_oracle(b))

    @given(single_paulis)
    def test_words_square_to_plus_minus_identity(self, op):
        squared = multiply(op, op)
        assert squared.x_mask == 0 and squared.z_mask == 0
        assert squared.phase_exponent in (0, 2)


@st.composite
def anticommuting_words(draw, max_qubits=4):
    """2..5 words on one register with an odd number of anticommuting pairs.

    Reversing such a list negates its product, so the order of the fold shows.
    """
    n = draw(st.integers(1, max_qubits))
    word = st.builds(
        PauliOperator,
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 3),
    )
    words = draw(st.lists(word, min_size=2, max_size=5))
    pairs = [(a, b) for i, a in enumerate(words) for b in words[i + 1 :]]
    assume(sum(not commutes(a, b) for a, b in pairs) % 2 == 1)
    return words


class TestProduct:
    def test_single_word_and_order(self):
        x, z = single("X", 1, 1), single("Z", 1, 1)
        assert product([x]) == x
        assert product([x, z]) == PauliOperator(1, 1, 1, 3)  # XZ = -iY
        assert product([z, x]) == PauliOperator(1, 1, 1, 1)  # ZX = iY

    def test_rejects_no_words_and_mixed_registers(self):
        with pytest.raises(ValueError, match="at least one word"):
            product([])
        with pytest.raises(ValueError, match="mismatch: 2 vs 3"):
            product([identity(2), identity(2), identity(3)])
        assert product_masks([]) == (0, 0, 0)  # the int fold starts at the identity

    @given(anticommuting_words())
    def test_is_the_left_fold_of_multiply(self, words):
        acc = words[0]
        for word in words[1:]:
            acc = multiply(acc, word)
        assert product(words) == acc
        assert product(words) != product(words[::-1])
        matrix = dense_oracle(words[0])
        for word in words[1:]:
            matrix = matrix @ dense_oracle(word)
        assert np.array_equal(dense_oracle(product(words)), matrix)


class TestCommutes:
    def test_single_qubit_anticommutation(self):
        assert not commutes(single("X", 1, 1), single("Z", 1, 1))

    def test_two_qubit_pair_commutes(self):
        a, b = parse_pauli("X1 X2", 2), parse_pauli("Z1 Z2", 2)
        assert commutes(a, b)
        da, db = dense_oracle(a), dense_oracle(b)
        assert np.array_equal(da @ db, db @ da)

    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            op = random_pauli(rng, int(rng.integers(1, 6)))
            assert commutes(op, identity(op.num_qubits))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutes(identity(1), identity(2))

    @given(pauli_pairs())
    def test_symmetric_and_matches_dense(self, pair):
        a, b = pair
        da, db = dense_oracle(a), dense_oracle(b)
        dense_commute = np.array_equal(da @ db, db @ da)
        assert commutes(a, b) == commutes(b, a) == dense_commute


class TestToDense:
    def test_x(self):
        assert np.array_equal(dense_oracle(single("X", 1, 1)), np.array([[0, 1], [1, 0]]))

    def test_phased_identity(self):
        assert np.array_equal(dense_oracle(PauliOperator(1, 0, 0, 1)), 1j * np.eye(2))

    def test_x1z2_hand_kronecker(self):
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(dense_oracle(parse_pauli("X1 Z2", 2)), expected)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="limited"):
            dense_oracle(identity(15))


class TestRelabel:
    def test_moves_letters(self):
        op = parse_pauli("X1 Z2", 2)
        moved = relabel(op, {1: 3, 2: 4}, 4)
        assert moved == parse_pauli("X3 Z4", 4)

    def test_identity_under_any_map(self):
        assert relabel(identity(2), {1: 5, 2: 1}, 6) == identity(6)

    def test_three_site_move(self):
        op = parse_pauli("X1 Z2 X3", 3)
        assert relabel(op, {1: 2, 2: 4, 3: 6}, 6) == parse_pauli("X2 Z4 X6", 6)

    def test_phase_preserved(self):
        op = PauliOperator(1, 1, 1, 3)
        assert relabel(op, {1: 2}, 2).phase_exponent == 3

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError, match="injective"):
            relabel(parse_pauli("X1 Z2", 2), {1: 3, 2: 3}, 3)

    def test_target_overflow_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            relabel(parse_pauli("X1", 1), {1: 4}, 3)

    def test_uncovered_site_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            relabel(parse_pauli("X1 Z2", 2), {1: 1}, 4)


class TestFormat:
    def test_sorted_tokens_with_y_overlap(self):
        op = PauliOperator(3, 0b101, 0b010, 0)
        assert format_pauli(op) == "X1 Z2 X3"

    def test_identity(self):
        assert format_pauli(identity(4)) == "I"

    def test_minus_i_y(self):
        assert format_pauli(PauliOperator(1, 1, 1, 3)) == "-i Y1"

    def test_y_where_masks_overlap(self):
        assert format_pauli(PauliOperator(2, 0b11, 0b10, 0)) == "X1 Y2"

    def test_sparse_word_on_large_register(self):
        op = parse_pauli("Z3 Y400 X832", 832)
        assert format_pauli(op) == "Z3 Y400 X832"
        assert format_pauli(PauliOperator(832, 0, 0, 2)) == "- I"

    @given(single_paulis)
    def test_round_trip(self, op):
        assert parse_pauli(format_pauli(op), op.num_qubits) == op


# Refusals outside the parser's syntax errors: a call and its exact message.
REFUSALS = [
    (lambda: single("Q", 1, 2), "unknown Pauli letter 'Q'"),
    (lambda: single("X", 0, 2), "qubit index 0 out of range 1..2"),
    (lambda: single("Z", 3, 2), "qubit index 3 out of range 1..2"),
    (lambda: PauliOperator(2, 0, 0, 0).letter(0), "qubit index 0 out of range"),
    (lambda: PauliOperator(2, 0, 0, 0).letter(3), "qubit index 3 out of range"),
    (lambda: parse_pauli("X1", 0), "num_qubits must be >= 1, got 0"),
]


class TestConstruction:
    @pytest.mark.parametrize("call,message", REFUSALS, ids=[message for _, message in REFUSALS])
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            PauliOperator(0, 0, 0, 0)
        with pytest.raises(ValueError):
            PauliOperator(2, 0b100, 0, 0)

    def test_phase_normalized(self):
        assert PauliOperator(1, 0, 0, 7).phase_exponent == 3

    def test_hermitian_iff_real_phase(self):
        for phase in range(4):
            op = PauliOperator(2, 0b01, 0b11, phase)
            dense = dense_oracle(op)
            assert op.is_hermitian == np.array_equal(dense, dense.conj().T)
