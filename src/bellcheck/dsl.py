"""Text format for context systems (`.obs` files).

Grammar, one directive per line:

    qubits N                          # register size 1..4096, required, once
    set OBS, OBS, ... [= +1|-1]       # one context; sign defaults to +1

Each OBS is a whitespace-separated Pauli token list ("X1 Z2"), `#`
starts a comment, blank lines are ignored, and LF or CRLF both work.
Parsing builds the contexts verbatim; structural validation (commutation,
product signs) is deliberately left to the caller.
"""

from __future__ import annotations

from .constructions import Context, ContextSystem
from .pauli import PauliOperator, PauliSyntaxError, format_pauli, parse_pauli

# The largest register a file may declare, checked before any word is
# built: it caps each word's two masks at 1 KiB.
MAX_QUBITS = 4096


class DslSyntaxError(ValueError):
    """Parse failure with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_document(text: str) -> ContextSystem:
    """Parse `.obs` text into a ContextSystem (without validating it).

    One pass over the lines in order, so the first error in the text is
    the one reported.
    """
    declared: int | None = None
    declared_line = 0
    contexts: list[Context] = []
    # Every observable of a parity proof sits in at least two contexts, so
    # each word's text is parsed once and its record shared.
    words: dict[str, PauliOperator] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        word, sep, rest = line.lstrip().partition(" ")
        if word == "qubits":
            if declared is not None:
                raise DslSyntaxError(
                    f"duplicate qubits declaration (first on line {declared_line})",
                    lineno,
                    indent + 1,
                )
            arg = rest.strip()
            if not (arg.isascii() and arg.isdigit()) or not arg.strip("0"):
                raise DslSyntaxError(
                    f"qubits needs a positive integer, got {arg!r}", lineno, indent + 1
                )
            # Length first: int() refuses a text of more than 4300 digits.
            digits = arg.lstrip("0")
            if len(digits) > len(str(MAX_QUBITS)) or int(digits) > MAX_QUBITS:
                raise DslSyntaxError(
                    f"qubits must be at most {MAX_QUBITS}, got {arg}", lineno, indent + 1
                )
            declared = int(digits)
            declared_line = lineno
        elif word == "set":
            if declared is None:
                raise DslSyntaxError("set before qubits declaration", lineno, indent + 1)
            body_col = indent + len(word) + len(sep) + 1  # 1-based column of body
            contexts.append(_scan_set(rest, declared, lineno, body_col, words))
        else:
            raise DslSyntaxError(f"unknown directive {word!r}", lineno, indent + 1)
    if declared is None:
        raise DslSyntaxError("missing qubits declaration", 1, 1)
    return ContextSystem(declared, tuple(contexts))


def _scan_set(
    body: str, num_qubits: int, lineno: int, body_col: int, words: dict[str, PauliOperator]
) -> Context:
    sign = +1
    eq = body.find("=")
    if eq >= 0:
        sign_text = body[eq + 1 :].strip()
        if sign_text == "+1":
            sign = +1
        elif sign_text == "-1":
            sign = -1
        else:
            raise DslSyntaxError(
                f"expected +1 or -1 after '=', got {sign_text!r}",
                lineno,
                body_col + eq + 1,
            )
        body = body[:eq]
    ops = []
    start = 0
    for piece in body.split(","):
        key = piece.strip()
        op = words.get(key)
        if op is None:
            column = body_col + start
            if not key:
                raise DslSyntaxError("empty observable", lineno, column)
            try:
                op = words[key] = parse_pauli(piece, num_qubits)
            except PauliSyntaxError as err:
                raise DslSyntaxError(str(err), lineno, column + err.position) from None
        ops.append(op)
        start += len(piece) + 1
    return Context(tuple(ops), sign)


def serialize(system: ContextSystem) -> str:
    """Render a ContextSystem as `.obs` text; parse_document inverts it."""
    lines = [f"qubits {system.num_qubits}"]
    for ctx in system.contexts:
        body = ", ".join(format_pauli(o) for o in ctx.observables)
        sign = "+1" if ctx.expected_sign == +1 else "-1"
        lines.append(f"set {body} = {sign}")
    return "\n".join(lines) + "\n"
