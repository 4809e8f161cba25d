"""Dense states and projective measurement: `tableau`'s test oracles, `chsh`'s singlets.

Basis-index convention: qubit 1 is the most significant bit of the basis
index, matching the dense-matrix export of the Pauli module.  Shared
states use the block layout: for n pairs, the first observer holds
qubits 1..n, the second holds n+1..2n, and qubit k is paired with n+k.

All built-in states have dyadic-rational amplitudes, so the
product-constraint checks hold to 1e-12 with room to spare.  The
Bell-product and GHZ states also exist as stabilizer tableaux, measured
in exact GF(2) arithmetic at O(n^2) memory without numpy (`tableau`); the
commands use those, and the dense states here are their test oracles.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .pauli import PauliOperator, format_pauli

# `eigenrelation_check` is also importable from here, where it used to live.
from .tableau import _checked_context, eigenrelation_check  # noqa: F401

ATOL = 1e-12
MAX_STATE_QUBITS = 26
MAX_PAIRS = 13

_PHASES = (1, 1j, -1, -1j)


class StateVector(namedtuple("StateVector", "num_qubits amplitudes")):
    """A normalized state; `amplitudes` is a read-only copy of the input."""

    __slots__ = ()

    def __new__(cls, num_qubits: int, amplitudes: np.ndarray):
        if not 1 <= num_qubits <= MAX_STATE_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_STATE_QUBITS}")
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (1 << num_qubits,):
            raise ValueError(f"expected {1 << num_qubits} amplitudes, got {amp.shape}")
        if abs(np.vdot(amp, amp).real - 1.0) > ATOL:
            raise ValueError("state is not normalized")
        amp = amp.copy()
        amp.flags.writeable = False
        return tuple.__new__(cls, (num_qubits, amp))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
    return int(f"{mask:0{num_qubits}b}"[::-1], 2)


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
