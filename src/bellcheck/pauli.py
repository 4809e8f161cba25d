"""Phased Pauli-word algebra on n qubits.

An n-qubit Pauli word is encoded by two bit masks and a global phase:

    operator = i**phase_exponent * (L_1 tensor L_2 tensor ... tensor L_n)

where the letter on qubit j (1-based) is determined by bit j-1 of the
masks: (x, z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z, (1,1) -> Y.  The Y
letter is the literal Pauli matrix [[0,-i],[i,0]]; the i of Y = iXZ is
absorbed into the site letter, never into phase_exponent.  Under this
canonical form an operator is Hermitian iff phase_exponent is 0 or 2.

Multiplication tracks phases exactly in integer arithmetic, so products
of Pauli words are exact.
"""

from collections import namedtuple
from itertools import combinations
_LETTERS = {0: "I", 1: "X", 2: "Z", 3: "Y"}  # index = x_bit + 2*z_bit
# Each letter's (x, z) bits on its site.
_SITE_BITS = {letter: (index & 1, index >> 1) for index, letter in _LETTERS.items()}

_PHASE_LABEL = {0: "+", 1: "i", 2: "-", 3: "-i"}
_LABEL_PHASE = {v: k for k, v in _PHASE_LABEL.items()}


class PauliSyntaxError(ValueError):
    """Raised on malformed Pauli token text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position


# Every record of the package is a `collections.namedtuple`: immutable, and
# cheap to define at import, which every CLI run pays; `typing.NamedTuple`
# would load `typing` and a dataclass `dataclasses` and `inspect`.  A record
# with methods or checks subclasses one with `__slots__ = ()`, and runs its
# checks in `__new__`, which its `_make`, and so `_replace`, also goes through.
class PauliOperator(namedtuple("PauliOperator", "num_qubits x_mask z_mask phase_exponent")):
    """Immutable phased Pauli word; see module docstring for the encoding."""

    __slots__ = ()

    def __new__(cls, num_qubits: int, x_mask: int, z_mask: int, phase_exponent: int = 0):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        full = (1 << num_qubits) - 1
        if not 0 <= x_mask <= full or not 0 <= z_mask <= full:
            raise ValueError(
                f"mask out of range for {num_qubits} qubits: x={x_mask:#x} z={z_mask:#x}"
            )
        return tuple.__new__(cls, (num_qubits, x_mask, z_mask, phase_exponent % 4))

    _make = classmethod(lambda cls, fields: cls(*fields))

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
    site = _SITE_BITS.get(letter)
    if site is None:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    if not 1 <= index <= num_qubits:
        raise ValueError(f"qubit index {index} out of range 1..{num_qubits}")
    return PauliOperator(num_qubits, site[0] << (index - 1), site[1] << (index - 1), 0)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact product a*b in canonical form: `product` of the two words."""
    return product((a, b))


def product(words) -> PauliOperator:
    """The left-to-right product of one or more words.

    The fold runs on plain ints (`product_masks`); one record is built,
    for the result.
    """
    words = list(words)
    n = _register(words)
    if n is None:
        raise ValueError("product needs at least one word")
    return PauliOperator(n, *product_masks(word[1:] for word in words))  # (x, z, phase)


def product_masks(rows) -> tuple[int, int, int]:
    """`product` on plain (x_mask, z_mask, phase_exponent) rows; (0, 0, 0) for none.

    Phase bookkeeping: with U(x,z) = tensor of X^x Z^z per site and
    y = |{sites with both bits}|, the canonical letters satisfy
    letters = i^y * U(x,z).  Commuting the Z block of `a` past the X
    block of `b` costs (-1)^{|a.z & b.x|}, so one product takes

        phase = a.phase + b.phase + y_a + y_b - y_ab + 2*|a.z & b.x|  (mod 4).

    Summed over the fold, the Y counts of the partial products cancel but
    the last.  So each row adds its phase, its own Y count and
    2|acc.z & row.x|, and the result's Y count comes off once at the end.
    """
    x = z = phase = 0
    for row_x, row_z, row_phase in rows:
        phase += row_phase + (row_x & row_z).bit_count() + 2 * (z & row_x).bit_count()
        x ^= row_x
        z ^= row_z
    return x, z, (phase - (x & z).bit_count()) % 4


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Symplectic commutation test: |a.x & b.z| + |a.z & b.x| even."""
    _register((a, b))
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


def context_fault(words) -> tuple[str | None, bool]:
    """Why `words` cannot be measured together (None if they can), and whether they commute.

    A non-Hermitian member is named first, else the first non-commuting
    pair in `combinations` order.  Words on different registers raise
    ValueError.
    """
    _register(words)
    # `commutes`'s symplectic test, on the masks.
    rows = [(o.x_mask, o.z_mask, o) for o in words]
    failing = next(
        ((a, b) for (ax, az, a), (bx, bz, b) in combinations(rows, 2) if ((ax & bz) ^ (az & bx)).bit_count() & 1),
        None,
    )
    non_hermitian = next((o for o in words if not o.is_hermitian), None)
    if non_hermitian is not None:
        return f"observable {format_pauli(non_hermitian)} is not Hermitian", failing is None
    if failing is not None:
        return f"observables {format_pauli(failing[0])} and {format_pauli(failing[1])} do not commute", False
    return None, True


def _register(words) -> int | None:
    """The qubit count that all of `words` share, None for no words; different counts raise ValueError."""
    for word in words:
        if word.num_qubits != words[0].num_qubits:
            raise ValueError(f"qubit-count mismatch: {words[0].num_qubits} vs {word.num_qubits}")
    return words[0].num_qubits if words else None


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

    One pass: a token on a site that is still I is OR'd into the masks,
    which needs no phase work; only a repeated site runs the exact phase
    rule (`product_masks`).  A token's position is found only when it is
    rejected.
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    tokens = text.split()
    if not tokens:
        raise PauliSyntaxError("empty operator text", 0)
    phase = _LABEL_PHASE.get(tokens[0])
    if phase is None:
        phase = first = 0
    elif len(tokens) == 1:
        raise _token_error(text, 0, "phase prefix without operator tokens")
    else:
        first = 1
    width = len(str(num_qubits))
    x = z = 0
    for k in range(first, len(tokens)):
        token = tokens[k]
        site = _SITE_BITS.get(token[0])
        digits = token[1:]
        if site is None or not (digits.isdigit() and digits.isascii()):
            if site is None or digits:
                raise _token_error(text, k, f"malformed token {token!r}")
            if token != "I":
                raise _token_error(text, k, f"token {token!r} is missing a qubit index")
            continue
        if len(digits) > width:
            # Leading zeros are allowed.  A longer index is out of range, and
            # never reaches int(), which refuses more than 4300 digits.
            digits = digits.lstrip("0") or "0"
            if len(digits) > width:
                raise _token_error(text, k, f"qubit index {digits} out of range 1..{num_qubits}")
        index = int(digits)
        if not 0 < index <= num_qubits:
            raise _token_error(text, k, f"qubit index {index} out of range 1..{num_qubits}")
        shift = index - 1
        bx = site[0] << shift
        bz = site[1] << shift
        if (x | z) >> shift & 1:
            x, z, phase = product_masks(((x, z, phase), (bx, bz, 0)))
        else:
            x |= bx
            z |= bz
    return PauliOperator(num_qubits, x, z, phase % 4)


def _token_error(text: str, k: int, message: str) -> PauliSyntaxError:
    """`message` at the start of the k-th whitespace-separated token of `text`."""
    start = end = 0
    for token in text.split()[: k + 1]:
        start = text.index(token, end)  # a token holds no whitespace, so it is found where it starts
        end = start + len(token)
    return PauliSyntaxError(message, start)
