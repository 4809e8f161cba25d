"""Dense and exhaustive test oracles, with numpy.

Every verdict of the package is GF(2) algebra on Pauli words and
stabilizer tableaux, and no module of it imports numpy.  The tests check
that algebra against the independent computations here:

- Pauli words as dense matrices rebuilt from their site letters
  (`dense_oracle`), and `relabel`, which moves a word's letters by an
  explicit qubit map (the oracle of `tableau.embed`);
- GF(2) parity systems solved by exhausting all 2^k assignments
  (`brute_force`);
- NumPy's own `Philox` on a stream key (`shot_stream`);
- dense state vectors and projective measurement (`StateVector` and the
  functions after it), the oracles of the stabilizer tableaux;
- the CHSH operator as a dense matrix, its value on the dense singlet
  product (`dense_quantum_value`), and the local bound by enumerating
  every product strategy (`product_lhv_max`).

It also holds the random inputs that several test modules share
(`random_pauli`, `random_obs_system`).

Basis-index convention: qubit 1 is the most significant bit of the basis
index.  Shared states use the block layout: for n pairs, the first
observer holds qubits 1..n, the second holds n+1..2n, and qubit k is
paired with n+k.  All built-in states have dyadic-rational amplitudes,
so the product-constraint checks hold to 1e-12 with room to spare.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import product as iter_product

import numpy as np

from bellcheck.constructions import Context, product_sign, validate
from bellcheck.dsl import parse_document
from bellcheck.parity import ParitySystem, SolveResult
from bellcheck.pauli import PauliOperator, commutes, format_pauli, product
from bellcheck.rng import check_key
from bellcheck.tableau import _checked_context

# --- Pauli words ------------------------------------------------------------

MAX_DENSE_QUBITS = 14

LETTER_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_oracle(op: PauliOperator) -> np.ndarray:
    """Dense 2^n matrix by Kronecker products of the site letters (n <= 14)."""
    if op.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense export limited to {MAX_DENSE_QUBITS} qubits, got {op.num_qubits}")
    m = np.eye(1, dtype=complex)
    for j in range(1, op.num_qubits + 1):
        m = np.kron(m, LETTER_MATRIX[op.letter(j)])
    return (1j ** op.phase_exponent) * m


def random_pauli(rng: np.random.Generator, num_qubits: int) -> PauliOperator:
    return PauliOperator(
        num_qubits,
        int(rng.integers(0, 1 << num_qubits)),
        int(rng.integers(0, 1 << num_qubits)),
        int(rng.integers(0, 4)),
    )


def random_obs_system(rng):
    """A physical two-qubit `.obs` system of four to fifteen contexts, parsed from its text.

    Each of the fifteen non-identity masks gets one word, of either sign.
    A context is two commuting words closed by the word of their mask
    product, as in the square, and declares its product's sign.  About one
    system in ten holds a parity proof, which needs six contexts at least.
    """
    words = {
        (x, z): PauliOperator(2, x, z, 2 * int(rng.integers(0, 2)))
        for x in range(4)
        for z in range(4)
        if x or z
    }
    pool = list(words.values())
    lines = []
    contexts = int(rng.integers(4, 16))
    while len(lines) < contexts:
        a, b = (pool[int(i)] for i in rng.choice(len(pool), size=2, replace=False))
        if commutes(a, b):
            observables = (a, b, words[product((a, b))[1:3]])
            sign = product_sign(Context(observables, +1))
            lines.append(f"set {', '.join(map(format_pauli, observables))} = {sign:+d}")
    system = parse_document("qubits 2\n" + "\n".join(lines) + "\n")
    assert not validate(system).failures
    return system


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


# --- Parity systems -----------------------------------------------------------

MAX_BRUTE_FORCE_VARIABLES = 24


def brute_force(ps: ParitySystem) -> SolveResult:
    """Exhaustive oracle over all 2^k bit assignments (k <= 24).

    Returns the lexicographically first satisfying assignment (variables
    in catalog order, +1 before -1) or UNSAT with no certificate; the
    exhaustion itself is the proof.
    """
    k = len(ps.variables)
    if k > MAX_BRUTE_FORCE_VARIABLES:
        raise ValueError(f"brute force limited to {MAX_BRUTE_FORCE_VARIABLES} variables, got {k}")
    if not ps.rows:
        return SolveResult(True, assignment={name: +1 for name in ps.variables})
    # Assignment a encodes variable j as bit (k-1-j), so increasing a is
    # lexicographic order with +1 (bit 0) first.
    dtype = np.uint32
    space = np.arange(1 << k, dtype=dtype)
    sat = np.ones(1 << k, dtype=bool)
    for mask, rhs in ps.rows:
        reversed_mask = sum(1 << (k - 1 - j) for j in range(k) if mask >> j & 1)
        sat &= (np.bitwise_count(space & dtype(reversed_mask)) & 1) == rhs
    hits = np.flatnonzero(sat)
    if hits.size == 0:
        return SolveResult(False)
    first = int(hits[0])
    assignment = {name: 1 - 2 * (first >> (k - 1 - j) & 1) for j, name in enumerate(ps.variables)}
    return SolveResult(True, assignment=assignment)


# --- Random streams -------------------------------------------------------------


def shot_stream(seed: int, entry: int) -> np.random.Generator:
    """NumPy's generator on the stream of key (seed, entry): the reference for `rng.philox_blocks`.

    It steps its counter before each block, so its raw words are the
    blocks at counters (1, 0, 0, 0), (2, 0, 0, 0), ... in turn.
    """
    check_key(seed, entry)
    key = np.array([seed, entry], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- Dense states -----------------------------------------------------------------

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
        raise ValueError(f"operator acts on {op.num_qubits} qubits, state has {state.num_qubits}")
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


# --- CHSH -------------------------------------------------------------------------

MAX_DENSE_PAIRS = 5
MAX_PRODUCT_PAIRS = 3


def chsh_pair_operator(v) -> np.ndarray:
    """Dense 4x4 operator sigma.a (x) (sigma.b + sigma.b') + sigma.a' (x) (sigma.b - sigma.b').

    `v` is a `chsh.MeasurementVectors`; each sigma.u is summed from the
    letter matrices, not from `chsh`'s coefficient table.
    """
    a, a_prime, b, b_prime = (sum(c * LETTER_MATRIX[p] for c, p in zip(u, "XYZ")) for u in v)
    return np.kron(a, b + b_prime) + np.kron(a_prime, b - b_prime)


def dense_quantum_value(n: int, v) -> float:
    """The n-pair CHSH operator's expectation on the dense singlet product (n <= 5).

    The pair operator acts on each (k, n+k) qubit pair of the 2n-qubit
    state vector in turn; the value is the overlap with that state.
    """
    if not 1 <= n <= MAX_DENSE_PAIRS:
        raise ValueError(f"dense path limited to n in 1..{MAX_DENSE_PAIRS}, got {n}")
    state = singlet_product_state(n)
    # One tensor axis per qubit, qubit 1 first; the pair operator's
    # axes are (out k, out n+k, in k, in n+k).
    op = chsh_pair_operator(v).reshape(2, 2, 2, 2)
    amp = state.amplitudes.reshape((2,) * (2 * n))
    for k in range(n):
        amp = np.tensordot(op, amp, axes=([2, 3], [k, n + k]))
        amp = np.moveaxis(amp, (0, 1), (k, n + k))
    return hermitian_overlap(state, amp.reshape(-1))


def product_lhv_max(n: int) -> int:
    """The largest n-pair CHSH value over all 16^n product strategies (n <= 3).

    In a product strategy each observer fixes a +-1 outcome for each
    setting of each pair, and the observer's joint outcome for a setting
    string s is the product of those per-pair outcomes.  The n-pair value expands to
    the sum over setting strings s, t of (-1)^|s & t| A(s) B(t), that is
    A^T M^(x)n B with M = [[1, 1], [1, -1]]; it is evaluated for every
    pair of strategies, not factorized per pair.
    """
    if not 1 <= n <= MAX_PRODUCT_PAIRS:
        raise ValueError(f"product enumeration limited to n in 1..{MAX_PRODUCT_PAIRS}, got {n}")
    per_pair = np.array(list(iter_product((1, -1), repeat=2)))  # 4 strategies x 2 settings
    # Row i of `joint` is the outcome vector A(s), over the 2^n setting
    # strings s, of the i-th of the 4^n strategies of one observer.
    joint = reduce(np.kron, [per_pair] * n)
    m = reduce(np.kron, [np.array([[1, 1], [1, -1]])] * n)
    return int((joint @ m @ joint.T).max())
