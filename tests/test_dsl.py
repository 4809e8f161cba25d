"""Observable file format: parsing, positioned errors, round trips."""

import pytest

from bellcheck.constructions import Context, ContextSystem, generalized_sets, mermin_square
from bellcheck.dsl import MAX_QUBITS, DslSyntaxError, parse_document, serialize
from bellcheck.pauli import PauliOperator, parse_pauli


class TestParse:
    def test_single_set(self):
        system = parse_document("qubits 2\nset X1, X2, X1 X2 = +1\n")
        assert system.num_qubits == 2
        assert len(system.contexts) == 1
        ctx = system.contexts[0]
        assert ctx.expected_sign == +1
        assert [str(o) for o in ctx.observables] == ["X1", "X2", "X1 X2"]

    def test_all_z_line(self):
        system = parse_document("qubits 3\nset Z1, Z2, Z3, Z1 Z2 Z3 = +1\n")
        assert [str(o) for o in system.contexts[0].observables] == [
            "Z1",
            "Z2",
            "Z3",
            "Z1 Z2 Z3",
        ]

    def test_sign_defaults_to_plus_one(self):
        system = parse_document("qubits 2\nset X1, X2\n")
        assert system.contexts[0].expected_sign == +1

    def test_minus_sign(self):
        system = parse_document("qubits 2\nset X1 X2, Z1 Z2, Y1 Y2 = -1\n")
        assert system.contexts[0].expected_sign == -1

    def test_comments_and_blank_lines(self):
        text = "# header\n\nqubits 2   # register\n\nset X1, X2 = +1  # row\n"
        assert len(parse_document(text).contexts) == 1

    def test_crlf(self):
        system = parse_document("qubits 2\r\nset X1, X2 = +1\r\n")
        assert len(system.contexts) == 1

    def test_lone_cr(self):
        system = parse_document("qubits 2\rset X1, X2 = +1\rset Z1, Z2\r")
        assert len(system.contexts) == 2

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=ascii
    )
    def test_other_line_separators_stay_in_a_comment(self, char):
        # `str.splitlines` splits at these; an `.obs` line does not end there.
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(f"qubits 2\n# page{char}break\nset Z1, Z2, Z1 Z2\nbogus\n")
        assert str(exc.value) == "line 4, column 1: unknown directive 'bogus'"

    @pytest.mark.parametrize(
        "text",
        [
            "qubits\t2\nset Z1, Z2, Z1 Z2\n",
            "qubits 2\nset\tZ1, Z2, Z1 Z2\n",
            "\tqubits \t2\nset\t\tZ1,\tZ2, Z1\tZ2 =\t+1\n",
        ],
        ids=ascii,
    )
    def test_a_tab_separates_a_directive(self, text):
        system = parse_document(text)
        assert system.num_qubits == 2
        assert [str(o) for o in system.contexts[0].observables] == ["Z1", "Z2", "Z1 Z2"]

    def test_empty_document_has_no_contexts(self):
        assert parse_document("qubits 4\n").contexts == ()


class TestErrors:
    def test_index_beyond_declaration(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_document("qubits 2\nset X3\n")
        assert exc.value.line == 2
        assert exc.value.column == 5
        assert "out of range" in str(exc.value)

    def test_duplicate_qubits(self):
        with pytest.raises(DslSyntaxError, match="duplicate"):
            parse_document("qubits 2\nqubits 3\n")

    def test_missing_qubits(self):
        with pytest.raises(DslSyntaxError, match="missing qubits"):
            parse_document("# nothing\n")

    def test_set_before_qubits(self):
        with pytest.raises(DslSyntaxError, match="before qubits"):
            parse_document("set X1\nqubits 2\n")

    def test_bad_qubits_argument(self):
        with pytest.raises(DslSyntaxError, match="positive integer"):
            parse_document("qubits zero\n")

    @pytest.mark.parametrize("arg", ["\u00b2", "\u0663", "0", "000", "-3", "+3", "3.0"])
    def test_qubits_takes_ascii_digits_only(self, arg):
        with pytest.raises(DslSyntaxError, match="positive integer") as exc:
            parse_document(f"qubits {arg}\n")
        assert (exc.value.line, exc.value.column) == (1, 1)

    @pytest.mark.parametrize("arg", [str(MAX_QUBITS + 1), "1" + "0" * 18, "9" * 5000])
    def test_qubits_above_the_limit(self, arg):
        # 5000 digits is past int()'s 4300-digit limit: still a positioned error.
        with pytest.raises(DslSyntaxError, match=f"at most {MAX_QUBITS}") as exc:
            parse_document(f"# header\n  qubits {arg}\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_qubits_at_the_limit(self):
        assert parse_document(f"qubits 0{MAX_QUBITS}\n").num_qubits == MAX_QUBITS

    def test_qubits_with_leading_zeros_past_the_int_digit_limit(self):
        assert parse_document("qubits " + "0" * 5000 + "3\n").num_qubits == 3

    def test_index_past_the_int_digit_limit(self):
        # int() refuses more than 4300 digits; the error keeps its line and column.
        digits = "1" * 5000
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(f"qubits 3\nset X1, Z{digits}\n")
        assert (exc.value.line, exc.value.column) == (2, 9)
        assert str(exc.value) == (
            f"line 2, column 9: qubit index {digits} out of range 1..3 (at position 2)"
        )

    def test_first_error_in_the_text_is_reported(self):
        # The malformed token on line 2 comes before the bad directive on line 3.
        with pytest.raises(DslSyntaxError) as exc:
            parse_document("qubits 2\nset X1, Q2\nbogus\n")
        assert (exc.value.line, exc.value.column) == (2, 9)
        assert "malformed token 'Q2'" in str(exc.value)

    def test_unknown_directive(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_document("qubits 2\ncontext X1\n")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_bad_sign(self):
        with pytest.raises(DslSyntaxError, match="expected \\+1 or -1"):
            parse_document("qubits 2\nset X1 = 2\n")

    def test_empty_observable(self):
        with pytest.raises(DslSyntaxError, match="empty observable"):
            parse_document("qubits 2\nset X1, , X2\n")

    def test_malformed_token_carries_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_document("qubits 2\nset X1, Q7\n")
        assert exc.value.line == 2
        assert exc.value.column == 9


    @pytest.mark.parametrize(
        "line,column",
        [("set\tX1, Q7", 9), ("\tset\t\tX1, Q7", 11), ("set \tX1,\tQ7", 10)],
        ids=ascii,
    )
    def test_error_column_after_a_tab(self, line, column):
        # A tab is one column, like any other character.
        with pytest.raises(DslSyntaxError) as exc:
            parse_document(f"qubits 2\n{line}\n")
        assert (exc.value.line, exc.value.column) == (2, column)


class TestWordMemo:
    TEXT = (
        "qubits 3\n"
        "set X1 Z2, Z1 X2, Y1 Y2 = -1\n"
        "set  Z2 X1 ,X1 Z2,   X1 Z2  , - Y3\n"
        "set Y1 Y2, - Y3 Y3 Y3, X3 X3 Z1, - Y3\n"
    )

    def test_matches_per_word_parsing(self):
        system = parse_document(self.TEXT)
        lines = self.TEXT.splitlines()[1:]
        assert len(system.contexts) == len(lines)
        for ctx, line in zip(system.contexts, lines):
            body = line.removeprefix("set").partition("=")[0]
            assert ctx.observables == tuple(parse_pauli(piece, 3) for piece in body.split(","))

    def test_repeated_text_shares_one_record(self):
        first, second, third = parse_document(self.TEXT).contexts
        # " X1 Z2" and "   X1 Z2  " strip to one text, so one record.
        assert second.observables[1] is first.observables[0]
        assert second.observables[2] is first.observables[0]
        assert third.observables[3] is second.observables[3]

    @pytest.mark.parametrize("line", ["set X12, X1 2", "set X1 Z2, X1Z2"])
    def test_memo_never_hides_an_error(self, line):
        with pytest.raises(DslSyntaxError, match="malformed token"):
            parse_document(f"qubits 12\n{line}\n")

    def test_two_texts_for_one_word(self):
        first, second, third = parse_document(self.TEXT).contexts
        # "Z2 X1" and "X1 Z2" are two texts of one word: equal records.
        assert second.observables[0] == first.observables[0]
        assert third.observables[1] == second.observables[3] == PauliOperator(3, 0b100, 0b100, 2)
        assert third.observables[2] == PauliOperator(3, 0b000, 0b001)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder", [mermin_square, lambda: generalized_sets(3), lambda: generalized_sets(5)]
    )
    def test_builtin_systems(self, builder):
        system = builder()
        assert parse_document(serialize(system)) == system

    def test_set_line_counts(self):
        assert serialize(mermin_square()).count("\nset ") == 6
        assert serialize(generalized_sets(3)).count("\nset ") == 5

    def test_empty_system(self):
        system = ContextSystem(3, ())
        assert serialize(system) == "qubits 3\n"
        assert parse_document(serialize(system)) == system

    def test_phased_observable_round_trips(self):
        minus_y = PauliOperator(2, 0b01, 0b01, 3)
        system = ContextSystem(2, (Context((minus_y, minus_y), +1),))
        assert parse_document(serialize(system)) == system


class TestDeletionFuzz:
    REFERENCE = (
        "qubits 3\n"
        "set X1, Z2, X3, X1 Z2 X3 = +1\n"
        "set Z1, Z2, Z3, Z1 Z2 Z3 = +1\n"
        "set X1 Z2 X3, Z1 Z2 Z3 = -1\n"
    )

    def test_every_token_deletion_is_detected(self):
        # Deleting a token must never be silent: the parser either raises
        # with a position or yields a different system.  (Deleting a token
        # that leaves a grammatical file, e.g. one factor of a multi-token
        # observable, legitimately parses to something else.)
        original = parse_document(self.REFERENCE)
        tokens = []
        offset = 0
        for line in self.REFERENCE.splitlines(keepends=True):
            stripped = 0
            for piece in line.split():
                at = line.index(piece, stripped)
                tokens.append((offset + at, len(piece)))
                stripped = at + len(piece)
            offset += len(line)
        assert len(tokens) > 20
        for at, length in tokens:
            mutated = self.REFERENCE[:at] + self.REFERENCE[at + length :]
            try:
                system = parse_document(mutated)
            except DslSyntaxError as err:
                assert err.line >= 1 and err.column >= 1
            else:
                assert system != original
