"""Stabilizer tableaux and their exact measurement in GF(2) arithmetic.

Every state the protocol meets is a stabilizer state: the Bell product
and anything reached from it by measuring Pauli words; so is the GHZ
state.  The tableau of Aaronson and Gottesman (PRA 70, 052328, 2004)
holds such a state on m qubits as m commuting Hermitian stabilizer words
whose common +1 eigenspace is the state (a -1 sign sits in the word's
phase), plus m destabilizer words: destabilizers[i] anticommutes with
stabilizers[i] and commutes with every other row of both lists.  A
measured word is then a fair coin or forced, and memory is O(m^2) bits,
not 2^m amplitudes.

Measured symbolically (`compile_context`), each stabilizer's sign is a
GF(2) affine form over the coins of the words measured so far, so one
pass over a context serves every shot; the draws only evaluate the forms.

Shared states use the block layout of `states`: for n pairs, the first
observer holds qubits 1..n, the second n+1..2n, and qubit k is paired
with n+k.  This module needs no floating-point arrays and imports no
numpy, so `eigencheck`, `ghz` and `chsh`, which measure only here, never
load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .constructions import context_faults, fault_message
from .pauli import PauliOperator, format_pauli, multiply, product_masks


class StabilizerTableau(NamedTuple):
    # Every record of the package is a named tuple: immutable, and cheap to
    # define at import, which every CLI run pays.
    # A record with checks subclasses one and runs them in `__new__`, which
    # its `_make`, and so `_replace`, also goes through.
    num_qubits: int
    stabilizers: tuple[PauliOperator, ...]
    destabilizers: tuple[PauliOperator, ...]


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


@lru_cache(maxsize=16)
def bell_product_tableau(n: int) -> StabilizerTableau:
    """The n-pair Bell product of `states.bell_product_state` as a tableau.

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


@lru_cache(maxsize=16)
def singlet_product_tableau(n: int) -> StabilizerTableau:
    """The n-singlet product of `states.singlet_product_state` as a tableau.

    The rows of `bell_product_tableau(n)`, with the stabilizers negated:
    each singlet is the -1 eigenstate of X_k X_{n+k} and of Z_k Z_{n+k}.
    """
    bell = bell_product_tableau(n)
    stabilizers = tuple(PauliOperator(s.num_qubits, s.x_mask, s.z_mask, 2) for s in bell.stabilizers)
    return bell._replace(stabilizers=stabilizers)


def ghz_tableau() -> StabilizerTableau:
    """The GHZ state (|000> - |111>)/sqrt(2) of `states.ghz_state` as a tableau.

    Stabilizers Z1 Z2, Z2 Z3 and -X1 X2 X3; destabilizers X2 X3, X3, Z1.
    """
    stabilizers = (PauliOperator(3, 0, 0b011), PauliOperator(3, 0, 0b110), PauliOperator(3, 0b111, 0, 2))
    destabilizers = (PauliOperator(3, 0b110, 0), PauliOperator(3, 0b100, 0), PauliOperator(3, 0, 0b001))
    return StabilizerTableau(3, stabilizers, destabilizers)


def _checked_context(context_ops) -> list[PauliOperator]:
    ops = list(context_ops)
    fault = fault_message(*context_faults(ops))
    if fault is not None:
        raise ValueError(fault)
    return ops


def _rows(records) -> list[tuple[int, int, int]]:
    """Tableau rows as plain (x_mask, z_mask, phase_exponent) ints."""
    return [record[1:] for record in records]


def _records(num_qubits: int, old, rows) -> tuple[PauliOperator, ...]:
    """Rows back as records, keeping each old record whose row did not change."""
    return tuple(
        record if record[1:] == row else PauliOperator(num_qubits, *row)
        for record, row in zip(old, rows)
    )


def _forced_form(stabilizers, destabilizers, signs, x: int, z: int, phase: int) -> int:
    """Outcome of the word (x, z, phase), which commutes with every stabilizer, as an affine form.

    Such a word is +-(product of the stabilizers whose destabilizer it
    anticommutes with).  Stabilizer i is its row times (-1)^signs[i], so
    the outcome bit is the XOR of those rows' sign forms, plus 1 in bit 0
    when the exact product of the rows is -word.  Rows are plain ints.
    """
    named = [i for i, (dx, dz, _) in enumerate(destabilizers) if ((x & dz) ^ (z & dx)).bit_count() & 1]
    acc_x, acc_z, acc_phase = product_masks(stabilizers[i] for i in named)
    if acc_x != x or acc_z != z:
        raise RuntimeError("tableau does not generate the measured word (tableau bug)")
    form = int(acc_phase != phase)
    for i in named:
        form ^= signs[i]
    return form


def _check_size(op: PauliOperator, tableau: StabilizerTableau) -> None:
    if op.num_qubits != tableau.num_qubits:
        raise ValueError(
            f"operator acts on {op.num_qubits} qubits, tableau has {tableau.num_qubits}"
        )


def tableau_expectation(tableau: StabilizerTableau, op: PauliOperator) -> float:
    """<state| op |state> for a Hermitian Pauli word: 0 or exactly +-1.

    Read off the tableau without measuring (Aaronson and Gottesman, Sec. III):
    0 when the word anticommutes with a stabilizer, otherwise the sign by
    which the stabilizers named by its anticommuting destabilizers
    multiply to the word.  No row is rewritten.
    """
    if not op.is_hermitian:
        raise ValueError(fault_message(format_pauli(op), None))
    _check_size(op, tableau)
    _, x, z, phase = op
    for _, sx, sz, _ in tableau.stabilizers:
        if ((x & sz) ^ (z & sx)).bit_count() & 1:
            return 0.0
    signs = (0,) * tableau.num_qubits
    form = _forced_form(_rows(tableau.stabilizers), _rows(tableau.destabilizers), signs, x, z, phase)
    return 1.0 - 2.0 * form


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
    (outcome forms, post-measurement rows, post sign forms).  The pass
    runs on plain-int rows; records are built only for the rows it changed.
    """
    ops = _checked_context(context_ops)
    for op in ops:
        _check_size(op, tableau)
    stabilizers = _rows(tableau.stabilizers)
    destabilizers = _rows(tableau.destabilizers)
    row_signs = list(signs) if signs is not None else [0] * tableau.num_qubits
    forms = []
    for j, (_, x, z, phase) in enumerate(ops, first):
        pivot = next(
            (i for i, (sx, sz, _) in enumerate(stabilizers) if ((x & sz) ^ (z & sx)).bit_count() & 1),
            None,
        )
        if pivot is None:
            forms.append(_forced_form(stabilizers, destabilizers, row_signs, x, z, phase))
            continue
        coin = 1 << (j + 1)
        forms.append(coin)
        # Every other row anticommuting with the word absorbs the pivot row,
        # so only the pivot anticommutes; it becomes a destabilizer and the
        # measured word, signed by the coin, takes its place.  The rows
        # before the pivot commute with the word.
        row, row_sign = stabilizers[pivot], row_signs[pivot]
        for i in range(pivot + 1, len(stabilizers)):
            sx, sz, _ = stabilizers[i]
            if ((x & sz) ^ (z & sx)).bit_count() & 1:
                stabilizers[i] = product_masks((stabilizers[i], row))
                row_signs[i] ^= row_sign
        for i, (dx, dz, _) in enumerate(destabilizers):
            if i != pivot and ((x & dz) ^ (z & dx)).bit_count() & 1:
                destabilizers[i] = product_masks((destabilizers[i], row))
        destabilizers[pivot] = row
        stabilizers[pivot] = (x, z, phase)
        row_signs[pivot] = coin
    m = tableau.num_qubits
    post = StabilizerTableau(
        m, _records(m, tableau.stabilizers, stabilizers), _records(m, tableau.destabilizers, destabilizers)
    )
    return tuple(forms), post, tuple(row_signs)


def eigenrelation_check(n: int, op: PauliOperator) -> bool:
    """Whether (op on block A)(op on block B) fixes the n-pair Bell product state.

    The mirrored product is always Hermitian; it fixes the state iff
    measuring it on the Bell tableau gives a forced +1.
    """
    mirrored = multiply(embed(op, n, "alice"), embed(op, n, "bob"))
    return tableau_expectation(bell_product_tableau(n), mirrored) == 1.0
