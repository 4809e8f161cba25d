"""CHSH operator on shared singlets and the quantum vs local-realist gap.

The per-pair operator for measurement directions (a, a', b, b') is

    B = sigma.a (x) (sigma.b + sigma.b') + sigma.a' (x) (sigma.b - sigma.b')

and the n-pair operator is the product of one such factor per pair, each
acting on its own (k, n+k) qubit pair of the singlet product state.  The
singlet correlation entering the quantum value is always evaluated by
the state simulator, never substituted analytically; the local-realist
bound is obtained by enumerating all 16 deterministic strategies for one
pair and raising the maximum to the n-th power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .pauli import parse_pauli, to_dense
from .states import dense_expectation, hermitian_overlap, singlet_product_state

VTOL = 1e-12
MAX_DENSE_PAIRS = 5
# Largest n for which (2*sqrt(2))^n, the optimal quantum value, is a finite
# float64; beyond it the values overflow.
MAX_PAIRS = int(math.log(sys.float_info.max) / math.log(2.0 * math.sqrt(2.0)))

_AXES = ("X", "Y", "Z")


@dataclass(frozen=True)
class MeasurementVectors:
    a: tuple[float, float, float]
    a_prime: tuple[float, float, float]
    b: tuple[float, float, float]
    b_prime: tuple[float, float, float]

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            v = tuple(float(x) for x in getattr(self, name))
            if len(v) != 3:
                raise ValueError(f"{name} must be a 3-vector")
            if abs(math.sqrt(sum(x * x for x in v)) - 1.0) > VTOL:
                raise ValueError(f"{name} is not a unit vector: {v}")
            object.__setattr__(self, name, v)


def planar_vectors(a_deg, a_prime_deg, b_deg, b_prime_deg) -> MeasurementVectors:
    """Vectors in the x-z plane; angle 0 is +z, 90 degrees is +x."""

    def vec(deg: float) -> tuple[float, float, float]:
        rad = math.radians(deg)
        return (math.sin(rad), 0.0, math.cos(rad))

    return MeasurementVectors(vec(a_deg), vec(a_prime_deg), vec(b_deg), vec(b_prime_deg))


def optimal_vectors() -> MeasurementVectors:
    """A coplanar configuration whose singlet expectation is 2*sqrt(2).

    a at 0, a' at 90, b at 225 and b' at 135 degrees in the x-z plane;
    validated against a grid-search maximization oracle in the test
    suite rather than taken on trust.
    """
    return planar_vectors(0.0, 90.0, 225.0, 135.0)


def _coefficients(v: MeasurementVectors) -> np.ndarray:
    a = np.array(v.a)
    ap = np.array(v.a_prime)
    b = np.array(v.b)
    bp = np.array(v.b_prime)
    return np.outer(a, b + bp) + np.outer(ap, b - bp)


@lru_cache(maxsize=1)
def _pair_basis() -> tuple[tuple[np.ndarray, ...], ...]:
    """The nine 4x4 matrices alpha1 beta2, alpha and beta in X, Y, Z; built once."""
    basis = []
    for alpha in _AXES:
        row = []
        for beta in _AXES:
            matrix = to_dense(parse_pauli(f"{alpha}1 {beta}2", 2))
            matrix.flags.writeable = False  # shared by every caller
            row.append(matrix)
        basis.append(tuple(row))
    return tuple(basis)


def chsh_pair_operator(v: MeasurementVectors) -> np.ndarray:
    """Dense 4x4 CHSH operator for one pair."""
    coeff = _coefficients(v)
    basis = _pair_basis()
    out = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            out += coeff[i, j] * basis[i][j]
    if np.max(np.abs(out - out.conj().T)) > VTOL:
        raise AssertionError("CHSH pair operator is not Hermitian")
    return out


def pair_expectation(v: MeasurementVectors) -> float:
    """Singlet expectation of the pair operator, via the state simulator."""
    return dense_expectation(singlet_product_state(1), chsh_pair_operator(v))


def quantum_value(n: int, v: MeasurementVectors, method: str = "factorized") -> float:
    """Expectation of the n-pair operator on n shared singlets.

    "factorized" raises the simulated per-pair expectation to the n-th
    power (any n >= 1); "dense" applies the pair operator to each (k, n+k)
    qubit pair of the 2n-qubit singlet product state and takes the
    overlap with that state (n <= 5).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method == "factorized":
        return pair_expectation(v) ** n
    if method == "dense":
        if n > MAX_DENSE_PAIRS:
            raise ValueError(f"dense path limited to n <= {MAX_DENSE_PAIRS}, got {n}")
        state = singlet_product_state(n)
        # One tensor axis per qubit, qubit 1 first; the pair operator's
        # axes are (out k, out n+k, in k, in n+k).
        op = chsh_pair_operator(v).reshape(2, 2, 2, 2)
        amp = state.amplitudes.reshape((2,) * (2 * n))
        for k in range(n):
            amp = np.tensordot(op, amp, axes=([2, 3], [k, n + k]))
            amp = np.moveaxis(amp, (0, 1), (k, n + k))
        return hermitian_overlap(state, amp.reshape(-1))
    raise ValueError(f"method must be 'factorized' or 'dense', got {method!r}")


def lhv_pair_values() -> list[int]:
    """The CHSH value of each of the 16 deterministic +-1 strategies."""
    return [
        a * (b + bp) + ap * (b - bp)
        for a, ap, b, bp in iter_product((+1, -1), repeat=4)
    ]


def lhv_max(n: int) -> float:
    """Local-realist maximum for n pairs: per-pair deterministic max to the n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    per_pair = max(abs(value) for value in lhv_pair_values())
    return float(per_pair) ** n


@dataclass(frozen=True)
class ChshReport:
    n: int
    quantum_value: float
    lhv_bound: float
    ratio: float
    sub_classical: bool


def gap_report(n: int, vectors: MeasurementVectors | None = None) -> ChshReport:
    """Quantum value vs the local-realist bound for n shared singlets.

    Defaults to the optimal vectors; with other settings the quantum
    value may fall at or below the classical bound, which the report
    flags rather than hides.
    """
    v = vectors if vectors is not None else optimal_vectors()
    qv = quantum_value(n, v)
    bound = lhv_max(n)
    return ChshReport(
        n=n,
        quantum_value=qv,
        lhv_bound=bound,
        ratio=qv / bound,
        sub_classical=abs(qv) <= bound * (1.0 + 1e-9),
    )
