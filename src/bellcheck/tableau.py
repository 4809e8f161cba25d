"""Stabilizer tableaux and their exact measurement in GF(2) arithmetic.

Every state the protocol meets is a stabilizer state: the Bell product
and anything reached from it by measuring Pauli words; so is the GHZ
state.  The tableau of Aaronson and Gottesman (PRA 70, 052328, 2004)
holds such a state on m qubits as m commuting stabilizer rows and m
destabilizer rows, plain (x_mask, z_mask) int pairs in the letters of
`pauli`: destabilizers[i] anticommutes with stabilizers[i] and commutes
with every other row of both lists.  A measured word is then a fair coin
or forced, and memory is O(m^2) bits, not 2^m amplitudes.

Stabilizer i is its row's letters times (-1)^signs[i], and the state is
the common +1 eigenspace of the signed stabilizers.  signs[i] is a GF(2)
affine form over the coins of the `measured` words so far: bit 0 the
constant, bit j+1 the coin of word j.  So `compile_context` measures a
context once for every shot, a later context continues from the tableau
it returns, and the draws only evaluate the forms.

Shared states use the block layout: for n pairs, the first observer
holds qubits 1..n, the second n+1..2n, and qubit k is paired with n+k.
This module needs no floating-point arrays and imports no numpy; the
dense state vectors that the tests compare it with live in
`tests/oracles.py`.
"""

from collections import namedtuple
from functools import lru_cache

from .pauli import PauliOperator, context_fault, multiply, product_masks


StabilizerTableau = namedtuple("StabilizerTableau", "num_qubits stabilizers destabilizers signs measured")


def embed(op: PauliOperator, side: str) -> PauliOperator:
    """A word on n qubits moved onto one observer's block of the 2n-qubit register.

    Observer A ("alice") holds qubits 1..n and B ("bob") holds n+1..2n, so
    B's copy is both masks shifted left by n.  Phase is preserved.
    """
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    n = op.num_qubits
    shift = n if side == "bob" else 0
    return PauliOperator(2 * n, op.x_mask << shift, op.z_mask << shift, op.phase_exponent)


@lru_cache(maxsize=16)
def bell_product_tableau(n: int) -> StabilizerTableau:
    """The product of n Bell pairs (|00>+|11>)/sqrt(2) as a tableau.

    Pair k is stabilized by X_k X_{n+k} and Z_k Z_{n+k}, destabilized by
    Z_k and X_{n+k}.  The tableau is immutable, so one copy per n is shared.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pairs = [(1 << k) | (1 << (n + k)) for k in range(n)]
    stabilizers = [(p, 0) for p in pairs] + [(0, p) for p in pairs]
    destabilizers = [(0, 1 << k) for k in range(n)] + [(1 << (n + k), 0) for k in range(n)]
    return StabilizerTableau(2 * n, tuple(stabilizers), tuple(destabilizers), (0,) * (2 * n), 0)


@lru_cache(maxsize=16)
def singlet_product_tableau(n: int) -> StabilizerTableau:
    """The product of n singlets (|01>-|10>)/sqrt(2) as a tableau.

    The rows of `bell_product_tableau(n)` with every sign 1: each singlet
    is the -1 eigenstate of X_k X_{n+k} and of Z_k Z_{n+k}.
    """
    return bell_product_tableau(n)._replace(signs=(1,) * (2 * n))


def ghz_tableau() -> StabilizerTableau:
    """The GHZ state (|000> - |111>)/sqrt(2) as a tableau.

    Stabilizers Z1 Z2, Z2 Z3 and -X1 X2 X3; destabilizers X2 X3, X3, Z1.
    """
    return StabilizerTableau(
        3, ((0, 0b011), (0, 0b110), (0b111, 0)), ((0b110, 0), (0b100, 0), (0, 0b001)), (0, 0, 1), 0
    )


def _checked_context(context_ops) -> list[PauliOperator]:
    ops = list(context_ops)
    fault, _ = context_fault(ops)
    if fault is not None:
        raise ValueError(fault)
    return ops


def _forced_form(stabilizers, destabilizers, signs, x: int, z: int, phase: int) -> int:
    """Outcome of the word (x, z, phase), which commutes with every stabilizer, as an affine form.

    Such a word is +-(product of the stabilizers whose destabilizer it
    anticommutes with).  Stabilizer i is its row times (-1)^signs[i], so
    the outcome bit is the XOR of those rows' sign forms, plus 1 in bit 0
    when the product of the rows' letters is -word.
    """
    named = [i for i, (dx, dz) in enumerate(destabilizers) if ((x & dz) ^ (z & dx)).bit_count() & 1]
    acc_x, acc_z, acc_phase = product_masks((*stabilizers[i], 0) for i in named)
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
    multiply to the word, each coin of a measured word counted as +1.
    No row is rewritten.
    """
    if not op.is_hermitian:
        raise ValueError(context_fault((op,))[0])
    _check_size(op, tableau)
    _, x, z, phase = op
    for sx, sz in tableau.stabilizers:
        if ((x & sz) ^ (z & sx)).bit_count() & 1:
            return 0.0
    form = _forced_form(tableau.stabilizers, tableau.destabilizers, tableau.signs, x, z, phase)
    return 1.0 - 2.0 * (form & 1)


def compile_context(
    tableau: StabilizerTableau, context_ops: list[PauliOperator] | tuple[PauliOperator, ...]
) -> tuple[tuple[int, ...], StabilizerTableau]:
    """Measure a context symbolically: every outcome as a GF(2) affine form.

    An outcome bit is 1 for the outcome -1.  A form is an int bitmask over
    the fair coins of the measured words: bit 0 is the constant, bit j+1
    the coin of word j, with the words numbered from `tableau.measured`.
    Whether a word is a coin depends only on commutation, never on earlier
    outcomes, so one pass labels each word either "fair coin j" (form
    1 << (j+1)) or forced (a constant XOR earlier coins).

    Returns (outcome forms, post-measurement tableau); the latter's sign
    forms and `measured` carry on, so a later context continues from it.
    """
    ops = _checked_context(context_ops)
    for op in ops:
        _check_size(op, tableau)
    stabilizers = list(tableau.stabilizers)
    destabilizers = list(tableau.destabilizers)
    signs = list(tableau.signs)
    forms = []
    for j, (_, x, z, phase) in enumerate(ops, tableau.measured):
        pivot = next(
            (i for i, (sx, sz) in enumerate(stabilizers) if ((x & sz) ^ (z & sx)).bit_count() & 1),
            None,
        )
        if pivot is None:
            forms.append(_forced_form(stabilizers, destabilizers, signs, x, z, phase))
            continue
        coin = 1 << (j + 1)
        forms.append(coin)
        # Every other row anticommuting with the word absorbs the pivot row,
        # so only the pivot anticommutes; it becomes a destabilizer and the
        # measured word, signed by the coin, takes its place.  The rows
        # before the pivot commute with the word.  Two stabilizers commute,
        # so their product is +-(its letters), the sign in the product's phase.
        row, sign = stabilizers[pivot], signs[pivot]
        px, pz = row
        for i in range(pivot + 1, len(stabilizers)):
            sx, sz = stabilizers[i]
            if ((x & sz) ^ (z & sx)).bit_count() & 1:
                stabilizers[i] = (sx ^ px, sz ^ pz)
                signs[i] ^= sign ^ (product_masks(((sx, sz, 0), (px, pz, 0)))[2] >> 1)
        for i, (dx, dz) in enumerate(destabilizers):
            if i != pivot and ((x & dz) ^ (z & dx)).bit_count() & 1:
                destabilizers[i] = (dx ^ px, dz ^ pz)
        destabilizers[pivot] = row
        stabilizers[pivot] = (x, z)
        signs[pivot] = coin ^ (phase >> 1)
    post = StabilizerTableau(
        tableau.num_qubits,
        tuple(stabilizers),
        tuple(destabilizers),
        tuple(signs),
        tableau.measured + len(ops),
    )
    return tuple(forms), post


def eigenrelation_check(op: PauliOperator) -> bool:
    """Whether (op on block A)(op on block B) fixes the Bell product state of op's size.

    The mirrored product is always Hermitian; it fixes the state iff
    measuring it on the Bell tableau gives a forced +1.
    """
    mirrored = multiply(embed(op, "alice"), embed(op, "bob"))
    return tableau_expectation(bell_product_tableau(op.num_qubits), mirrored) == 1.0
