"""Phased Pauli-word algebra on n qubits.

An n-qubit Pauli word is encoded by two bit masks and a global phase:

    operator = i**phase_exponent * (L_1 tensor L_2 tensor ... tensor L_n)

where the letter on qubit j (1-based) is determined by bit j-1 of the
masks: (x, z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z, (1,1) -> Y.  The Y
letter is the literal Pauli matrix [[0,-i],[i,0]]; the i of Y = iXZ is
absorbed into the site letter, never into phase_exponent.  Under this
canonical form an operator is Hermitian iff phase_exponent is 0 or 2.

Multiplication tracks phases exactly in integer arithmetic, so products
of Pauli words are exact; the dense-matrix export exists as an oracle
surface and for embedding words into larger operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_LETTERS = {0: "I", 1: "X", 2: "Z", 3: "Y"}  # index = x_bit + 2*z_bit

_PHASE_LABEL = {0: "+", 1: "i", 2: "-", 3: "-i"}
_LABEL_PHASE = {v: k for k, v in _PHASE_LABEL.items()}

_TOKEN_RE = re.compile(r"([IXYZ])([0-9]*)\Z")

MAX_DENSE_QUBITS = 14


class PauliSyntaxError(ValueError):
    """Raised on malformed Pauli token text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


@dataclass(frozen=True)
class PauliOperator:
    """Immutable phased Pauli word; see module docstring for the encoding."""

    num_qubits: int
    x_mask: int
    z_mask: int
    phase_exponent: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        full = (1 << self.num_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError(
                f"mask out of range for {self.num_qubits} qubits: "
                f"x={self.x_mask:#x} z={self.z_mask:#x}"
            )
        object.__setattr__(self, "phase_exponent", self.phase_exponent % 4)

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exponent in (0, 2)

    @property
    def is_identity_word(self) -> bool:
        """True when all site letters are I (any global phase)."""
        return self.x_mask == 0 and self.z_mask == 0

    def letter(self, index: int) -> str:
        """Site letter at 1-based qubit index."""
        if not 1 <= index <= self.num_qubits:
            raise ValueError(f"qubit index {index} out of range")
        bit = 1 << (index - 1)
        return _LETTERS[(1 if self.x_mask & bit else 0) + (2 if self.z_mask & bit else 0)]

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __str__(self) -> str:
        return format_pauli(self)


def identity(num_qubits: int) -> PauliOperator:
    return PauliOperator(num_qubits, 0, 0, 0)


def single(letter: str, index: int, num_qubits: int) -> PauliOperator:
    """Single-letter word: `letter` at 1-based `index`, identity elsewhere."""
    if letter not in ("I", "X", "Y", "Z"):
        raise ValueError(f"unknown Pauli letter {letter!r}")
    if not 1 <= index <= num_qubits:
        raise ValueError(f"qubit index {index} out of range 1..{num_qubits}")
    bit = 0 if letter == "I" else 1 << (index - 1)
    x = bit if letter in ("X", "Y") else 0
    z = bit if letter in ("Z", "Y") else 0
    return PauliOperator(num_qubits, x, z, 0)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact product a*b in canonical form.

    Phase bookkeeping: with U(x,z) = tensor of X^x Z^z per site and
    y = |{sites with both bits}|, the canonical letters satisfy
    letters = i^y * U(x,z).  Commuting the Z block of `a` past the X
    block of `b` costs (-1)^{|a.z & b.x|}, which gives

        phase = a.phase + b.phase + y_a + y_b - y_ab + 2*|a.z & b.x|  (mod 4).
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit-count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    phase = (
        a.phase_exponent
        + b.phase_exponent
        + (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return PauliOperator(a.num_qubits, x, z, phase % 4)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Symplectic commutation test: |a.x & b.z| + |a.z & b.x| even."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit-count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


def to_dense(op: PauliOperator) -> np.ndarray:
    """Dense 2^n matrix; qubit 1 is the most significant basis-index bit."""
    if op.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense export limited to {MAX_DENSE_QUBITS} qubits, got {op.num_qubits}"
        )
    import numpy as np  # here, so that importing `pauli` does not load numpy

    dense_letter = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    m = np.eye(1, dtype=complex)
    for j in range(1, op.num_qubits + 1):
        m = np.kron(m, dense_letter[op.letter(j)])
    return (1j ** op.phase_exponent) * m


def relabel(op: PauliOperator, qubit_map: dict[int, int], target_size: int) -> PauliOperator:
    """Move the word's letters to mapped (1-based) positions on a larger register.

    Every qubit carrying a non-identity letter must appear in the map;
    the map must be injective into 1..target_size.  Phase is preserved.
    """
    values = list(qubit_map.values())
    if len(set(values)) != len(values):
        raise ValueError("qubit_map is not injective")
    x = 0
    z = 0
    for src, dst in qubit_map.items():
        if not 1 <= src <= op.num_qubits:
            raise ValueError(f"source index {src} out of range 1..{op.num_qubits}")
        if not 1 <= dst <= target_size:
            raise ValueError(f"target index {dst} out of range 1..{target_size}")
        bit = 1 << (src - 1)
        if op.x_mask & bit:
            x |= 1 << (dst - 1)
        if op.z_mask & bit:
            z |= 1 << (dst - 1)
    unmapped = (op.x_mask | op.z_mask) & ~sum(1 << (s - 1) for s in qubit_map)
    if unmapped:
        raise ValueError("qubit_map does not cover all non-identity sites")
    return PauliOperator(target_size, x, z, op.phase_exponent)


def format_pauli(op: PauliOperator) -> str:
    """Canonical token text; inverse of parse_pauli.

    Letters are listed in qubit order with Y where the masks overlap.
    A phase prefix is emitted only when the phase is nontrivial; the
    identity word renders as "I".  Only the support's set bits are
    visited, so a sparse word on a large register formats quickly.
    """
    tokens = []
    support = op.x_mask | op.z_mask
    while support:
        bit = support & -support
        support ^= bit
        letter = _LETTERS[(1 if op.x_mask & bit else 0) + (2 if op.z_mask & bit else 0)]
        tokens.append(f"{letter}{bit.bit_length()}")
    if not tokens:
        tokens = ["I"]
    if op.phase_exponent:
        tokens.insert(0, _PHASE_LABEL[op.phase_exponent])
    return " ".join(tokens)


def parse_pauli(text: str, num_qubits: int) -> PauliOperator:
    """Parse whitespace-separated LETTER+INDEX tokens into a Pauli word.

    Indices are 1-based; repeated indices multiply left to right.  An
    optional leading phase token (+, -, i, -i) and a bare "I" identity
    word are accepted, matching format_pauli's output.
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    matches = list(re.finditer(r"\S+", text))
    if not matches:
        raise PauliSyntaxError("empty operator text", 0)
    op = identity(num_qubits)
    start = 0
    if matches[0].group() in _LABEL_PHASE:
        op = PauliOperator(num_qubits, 0, 0, _LABEL_PHASE[matches[0].group()])
        start = 1
        if len(matches) == 1:
            raise PauliSyntaxError("phase prefix without operator tokens", matches[0].start())
    for m in matches[start:]:
        token = m.group()
        parsed = _TOKEN_RE.match(token)
        if parsed is None:
            raise PauliSyntaxError(f"malformed token {token!r}", m.start())
        letter, digits = parsed.groups()
        if digits == "":
            if letter != "I":
                raise PauliSyntaxError(f"token {token!r} is missing a qubit index", m.start())
            continue
        index = int(digits)
        if index < 1 or index > num_qubits:
            raise PauliSyntaxError(
                f"qubit index {index} out of range 1..{num_qubits}", m.start()
            )
        op = multiply(op, single(letter, index, num_qubits))
    return op
