"""Dense state vectors, stabilizer tableaux, and projective measurement.

Basis-index convention: qubit 1 is the most significant bit of the basis
index, matching the dense-matrix export of the Pauli module.  Shared
states use the block layout: for n pairs, the first observer holds
qubits 1..n, the second holds n+1..2n, and qubit k is paired with n+k.

All built-in states have dyadic-rational amplitudes, so the
product-constraint checks hold to 1e-12 with room to spare.  The
Bell-product state also exists as a stabilizer tableau, measured in exact
GF(2) arithmetic at O(n^2) memory; the protocol and the eigenrelation
check use it, and the dense path is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constructions import context_faults, fault_message
from .pauli import PauliOperator, commutes, format_pauli, identity, multiply

ATOL = 1e-12
MAX_STATE_QUBITS = 26
MAX_PAIRS = 13

_PHASES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_STATE_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_STATE_QUBITS}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amp.shape}"
            )
        if abs(np.vdot(amp, amp).real - 1.0) > ATOL:
            raise ValueError("state is not normalized")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def embed(op: PauliOperator, n: int, side: str) -> PauliOperator:
    """An n-qubit word moved onto one observer's block of the 2n-qubit register.

    Observer A ("alice") holds qubits 1..n and B ("bob") holds n+1..2n, so
    B's copy is both masks shifted left by n.  Phase is preserved.
    """
    if op.num_qubits != n:
        raise ValueError(f"operator acts on {op.num_qubits} qubits, expected {n}")
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    shift = n if side == "bob" else 0
    return PauliOperator(2 * n, op.x_mask << shift, op.z_mask << shift, op.phase_exponent)


def bell_product_state(n: int) -> StateVector:
    """Product of n Bell pairs (|00>+|11>)/sqrt(2) in the block layout.

    Amplitude 2^(-n/2) on exactly the basis states whose first-block bits
    equal their second-block bits.
    """
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"n must be in 1..{MAX_PAIRS}")
    amp = np.zeros(1 << (2 * n), dtype=complex)
    scale = 2.0 ** (-n / 2)
    for a in range(1 << n):
        amp[(a << n) | a] = scale
    return StateVector(2 * n, amp)


def singlet_product_state(n: int) -> StateVector:
    """Product of n singlets (|01>-|10>)/sqrt(2) in the block layout."""
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"n must be in 1..{MAX_PAIRS}")
    amp = np.zeros(1 << (2 * n), dtype=complex)
    scale = 2.0 ** (-n / 2)
    full = (1 << n) - 1
    for a in range(1 << n):
        amp[(a << n) | (a ^ full)] = scale * (-1) ** a.bit_count()
    return StateVector(2 * n, amp)


def ghz_state() -> StateVector:
    """Three-qubit GHZ state (|000> - |111>)/sqrt(2).

    This sign convention is the joint eigenstate of the XYY-type
    observables with eigenvalues (+1, +1, +1) and of XXX with -1.
    """
    amp = np.zeros(8, dtype=complex)
    amp[0] = 2.0 ** -0.5
    amp[7] = -(2.0 ** -0.5)
    return StateVector(3, amp)


def _dense_mask(mask: int, num_qubits: int) -> int:
    # Internal masks use bit j-1 for qubit j; basis indices put qubit 1
    # at the MSB, so the mask's bits reverse.
    out = 0
    for j in range(num_qubits):
        if mask >> j & 1:
            out |= 1 << (num_qubits - 1 - j)
    return out


def apply_pauli(op: PauliOperator, state: StateVector) -> np.ndarray:
    """Raw amplitudes of op|state> (not renormalized; Pauli words are unitary)."""
    if op.num_qubits != state.num_qubits:
        raise ValueError(
            f"operator acts on {op.num_qubits} qubits, state has {state.num_qubits}"
        )
    m = state.num_qubits
    dx = _dense_mask(op.x_mask, m)
    dz = _dense_mask(op.z_mask, m)
    # op = i^(phase+y) * tensor(X^x Z^z) with y the number of Y sites, so
    # op|b> = i^(phase+y) * (-1)^{|b & z|} |b xor x>.
    coef = _PHASES[(op.phase_exponent + (op.x_mask & op.z_mask).bit_count()) % 4]
    idx = np.arange(1 << m, dtype=np.uint64)
    signs = 1 - 2 * (np.bitwise_count(idx & np.uint64(dz)) & 1).astype(np.int64)
    out = np.empty_like(state.amplitudes)
    out[idx ^ np.uint64(dx)] = coef * signs * state.amplitudes
    return out


def expectation(state: StateVector, op: PauliOperator) -> float:
    """<state| op |state> for a Hermitian Pauli word."""
    if not op.is_hermitian:
        raise ValueError(f"operator {format_pauli(op)} is not Hermitian")
    value = np.vdot(state.amplitudes, apply_pauli(op, state))
    if abs(value.imag) > ATOL:
        raise AssertionError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def dense_expectation(state: StateVector, matrix: np.ndarray) -> float:
    """<state| M |state> for a dense Hermitian matrix."""
    return hermitian_overlap(state, matrix @ state.amplitudes)


def hermitian_overlap(state: StateVector, applied: np.ndarray) -> float:
    """<state| M |state> given applied = M|state> for a Hermitian M."""
    value = np.vdot(state.amplitudes, applied)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise AssertionError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def _checked_context(context_ops) -> list[PauliOperator]:
    ops = list(context_ops)
    fault = fault_message(*context_faults(ops))
    if fault is not None:
        raise ValueError(fault)
    return ops


def measure_context(
    state: StateVector,
    context_ops: list[PauliOperator] | tuple[PauliOperator, ...],
    rng: np.random.Generator,
) -> tuple[list[int], StateVector]:
    """Sequentially measure mutually commuting Hermitian words, projectively.

    For each observable the +1 probability is (1 + <O>)/2; the outcome is
    drawn, the state projected onto (I + outcome*O)/2 and renormalized.
    Probabilities within 1e-12 of 0 or 1 are snapped, so outcomes that
    are algebraically forced (context product constraints) are exact.
    """
    ops = _checked_context(context_ops)
    amp = state.amplitudes
    outcomes = []
    for op in ops:
        applied = apply_pauli(op, StateVector(state.num_qubits, amp))
        p_plus = (1.0 + float(np.vdot(amp, applied).real)) / 2.0
        if p_plus > 1.0 - ATOL:
            p_plus = 1.0
        elif p_plus < ATOL:
            p_plus = 0.0
        outcome = +1 if rng.random() < p_plus else -1
        projected = (amp + outcome * applied) / 2.0
        norm = float(np.linalg.norm(projected))
        if norm < ATOL:
            raise RuntimeError("projection collapsed the state (measurement bug)")
        amp = projected / norm
        outcomes.append(outcome)
    return outcomes, StateVector(state.num_qubits, amp)


# --- stabilizer tableau ----------------------------------------------------
#
# Every state the protocol meets is a stabilizer state: the Bell product
# and anything reached from it by measuring Pauli words.  The tableau of
# Aaronson and Gottesman (PRA 70, 052328, 2004) holds such a state on m
# qubits as m commuting Hermitian stabilizer words whose common +1
# eigenspace is the state (a -1 sign sits in the word's phase), plus m
# destabilizer words: destabilizers[i] anticommutes with stabilizers[i]
# and commutes with every other row of both lists.  A measured word is
# then a fair coin or forced, and memory is O(m^2) bits, not 2^m amplitudes.
#
# Measured symbolically (`compile_context`), each stabilizer's sign is a
# GF(2) affine form over the coins of the words measured so far, so one
# pass over a context serves every shot; the draws only evaluate the forms.


class StabilizerTableau(NamedTuple):
    # A NamedTuple, not a frozen dataclass: as immutable, and cheaper to
    # define at import, which every CLI run pays.
    num_qubits: int
    stabilizers: tuple[PauliOperator, ...]
    destabilizers: tuple[PauliOperator, ...]


@lru_cache(maxsize=16)
def bell_product_tableau(n: int) -> StabilizerTableau:
    """The n-pair Bell product of `bell_product_state` as a tableau.

    Pair k is stabilized by X_k X_{n+k} and Z_k Z_{n+k}, destabilized by
    Z_k and X_{n+k}.  The tableau is immutable, so one copy per n is shared.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = 2 * n
    pairs = [(1 << k) | (1 << (n + k)) for k in range(n)]
    stabilizers = [PauliOperator(m, p, 0) for p in pairs] + [PauliOperator(m, 0, p) for p in pairs]
    destabilizers = [PauliOperator(m, 0, 1 << k) for k in range(n)]
    destabilizers += [PauliOperator(m, 1 << (n + k), 0) for k in range(n)]
    return StabilizerTableau(m, tuple(stabilizers), tuple(destabilizers))


def _forced_form(stabilizers, destabilizers, signs, op: PauliOperator) -> int:
    """Outcome of `op`, a word commuting with every stabilizer, as an affine form.

    Such a word is +-(product of the stabilizers whose destabilizer it
    anticommutes with).  Stabilizer i is its row times (-1)^signs[i], so
    the outcome bit is the XOR of those rows' sign forms, plus 1 in bit 0
    when the exact product of the rows is -op.
    """
    acc = identity(op.num_qubits)
    form = 0
    for stabilizer, destabilizer, sign in zip(stabilizers, destabilizers, signs):
        if not commutes(destabilizer, op):
            acc = multiply(acc, stabilizer)
            form ^= sign
    if acc.x_mask != op.x_mask or acc.z_mask != op.z_mask:
        raise RuntimeError("tableau does not generate the measured word (tableau bug)")
    return form ^ (acc.phase_exponent != op.phase_exponent)


def _check_size(op: PauliOperator, tableau: StabilizerTableau) -> None:
    if op.num_qubits != tableau.num_qubits:
        raise ValueError(
            f"operator acts on {op.num_qubits} qubits, tableau has {tableau.num_qubits}"
        )


def tableau_expectation(tableau: StabilizerTableau, op: PauliOperator) -> float:
    """<state| op |state> for a Hermitian Pauli word: 0 or exactly +-1."""
    _check_size(op, tableau)
    if not op.is_hermitian:
        raise ValueError(f"operator {format_pauli(op)} is not Hermitian")
    if not all(commutes(s, op) for s in tableau.stabilizers):
        return 0.0
    signs = (0,) * tableau.num_qubits
    return 1.0 - 2.0 * _forced_form(tableau.stabilizers, tableau.destabilizers, signs, op)


def compile_context(
    tableau: StabilizerTableau,
    context_ops: list[PauliOperator] | tuple[PauliOperator, ...],
    signs: tuple[int, ...] | None = None,
    first: int = 0,
) -> tuple[tuple[int, ...], StabilizerTableau, tuple[int, ...]]:
    """Measure a context symbolically: every outcome as a GF(2) affine form.

    An outcome bit is 1 for the outcome -1.  A form is an int bitmask over
    the fair coins of the measured words: bit 0 is the constant, bit j+1
    the coin of word j, with the words numbered from `first`.  Whether a
    word is a coin depends only on commutation, never on earlier outcomes,
    so one pass labels each word either "fair coin j" (form 1 << (j+1)) or
    forced (a constant XOR earlier coins).

    Stabilizer i of the returned tableau is its row times (-1)^(post sign
    form i); `signs` gives those forms for the input tableau (all 0 when
    None), so a later context continues from this one's result.  Returns
    (outcome forms, post-measurement rows, post sign forms).
    """
    ops = _checked_context(context_ops)
    for op in ops:
        _check_size(op, tableau)
    stabilizers = list(tableau.stabilizers)
    destabilizers = list(tableau.destabilizers)
    row_signs = list(signs) if signs is not None else [0] * tableau.num_qubits
    forms = []
    for j, op in enumerate(ops, first):
        pivot = next((i for i, s in enumerate(stabilizers) if not commutes(s, op)), None)
        if pivot is None:
            forms.append(_forced_form(stabilizers, destabilizers, row_signs, op))
            continue
        coin = 1 << (j + 1)
        forms.append(coin)
        # Every other row anticommuting with op absorbs the pivot row, so
        # only the pivot anticommutes; it becomes a destabilizer and the
        # measured word, signed by the coin, takes its place.
        row, row_sign = stabilizers[pivot], row_signs[pivot]
        for i, other in enumerate(stabilizers):
            if i != pivot and not commutes(other, op):
                stabilizers[i] = multiply(other, row)
                row_signs[i] ^= row_sign
        for i, other in enumerate(destabilizers):
            if i != pivot and not commutes(other, op):
                destabilizers[i] = multiply(other, row)
        destabilizers[pivot] = row
        stabilizers[pivot] = op
        row_signs[pivot] = coin
    post = StabilizerTableau(tableau.num_qubits, tuple(stabilizers), tuple(destabilizers))
    return tuple(forms), post, tuple(row_signs)


def form_matrix(forms, width: int) -> np.ndarray:
    """Affine forms over `width` coins as a uint8 matrix: bit i of form j at [i, j]."""
    size = width // 8 + 1
    packed = np.frombuffer(b"".join(form.to_bytes(size, "little") for form in forms), np.uint8)
    bits = np.unpackbits(packed.reshape(len(forms), size), axis=1, count=width + 1, bitorder="little")
    return bits.T


def affine_values(forms, draws: np.ndarray) -> np.ndarray:
    """Evaluate affine forms on measurement draws, one row per shot.

    `draws[:, j]` is word j's draw; its coin comes up 1 (outcome -1) when
    the draw is >= 1/2, as `measure_context` does with p_plus = 1/2.  A
    forced word ignores its own draw.  Returns a uint8 array of bits.
    """
    shots, width = draws.shape
    coins = np.ones((shots, width + 1), dtype=np.uint8)
    coins[:, 1:] = draws >= 0.5
    # uint8 sums wrap mod 256, which keeps their parity.
    return (coins @ form_matrix(forms, width)) & 1


def eigenrelation_check(n: int, op: PauliOperator) -> bool:
    """Whether (op on block A)(op on block B) fixes the n-pair Bell product state.

    The mirrored product is always Hermitian; it fixes the state iff
    measuring it on the Bell tableau gives a forced +1.
    """
    mirrored = multiply(embed(op, n, "alice"), embed(op, n, "bob"))
    return tableau_expectation(bell_product_tableau(n), mirrored) == 1.0
