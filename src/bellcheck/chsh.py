"""CHSH operator on shared singlets and the quantum vs local-realist gap.

The per-pair operator for measurement directions (a, a', b, b') is

    B = sigma.a (x) (sigma.b + sigma.b') + sigma.a' (x) (sigma.b - sigma.b')
      = sum over i, j of c_ij alpha_i (x) beta_j,   alpha, beta in (X, Y, Z),

and the n-pair operator is the product of one such factor per pair, each
acting on its own (k, n+k) qubit pair of the singlet product state.  So
every term of either operator is a Pauli word, and the singlets are a
stabilizer state: each term's expectation is read exactly off the singlet
tableau (`tableau`), never substituted analytically, and without numpy.
The local-realist bound is obtained by enumerating all 16 deterministic
strategies for one pair and raising the maximum to the n-th power, which
assumes that each observer's joint outcome is the product of the
per-pair +-1 outcomes.
"""

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import product as iter_product

from .pauli import PauliOperator
from .tableau import singlet_product_tableau, tableau_expectation

VTOL = 1e-12
# The float slack of a CHSH value (a sum of products of doubles) against its target.
REL_TOL = 1e-9
MAX_TABLEAU_PAIRS = 5
# Largest n for which (2*sqrt(2))^n, the optimal quantum value, is a finite
# float64; beyond it the values overflow.
MAX_PAIRS = int(math.log(sys.float_info.max) / math.log(2.0 * math.sqrt(2.0)))

# The masks of X, Y and Z, indexed like the rows and columns of c_ij.
_X_BITS = (1, 1, 0)
_Z_BITS = (0, 1, 1)


class MeasurementVectors(namedtuple("MeasurementVectors", "a a_prime b b_prime")):
    """Four unit 3-vectors, each stored as a tuple of floats."""

    __slots__ = ()

    def __new__(cls, a, a_prime, b, b_prime):
        vectors = []
        for name, vector in zip(cls._fields, (a, a_prime, b, b_prime)):
            v = tuple(float(x) for x in vector)
            if len(v) != 3:
                raise ValueError(f"{name} must be a 3-vector")
            if not abs(math.sqrt(sum(x * x for x in v)) - 1.0) <= VTOL:  # NaN fails too
                raise ValueError(f"{name} is not a unit vector: {v}")
            vectors.append(v)
        return tuple.__new__(cls, vectors)

    _make = classmethod(lambda cls, fields: cls(*fields))


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


def _coefficients(v: MeasurementVectors) -> tuple[tuple[float, float, float], ...]:
    """c_ij = a_i (b_j + b'_j) + a'_i (b_j - b'_j), the weight of alpha_i beta_j in B."""
    return tuple(
        tuple(a * (b + bp) + ap * (b - bp) for b, bp in zip(v.b, v.b_prime))
        for a, ap in zip(v.a, v.a_prime)
    )


def _word(axes) -> PauliOperator:
    """alpha_i on qubit k and beta_j on qubit n+k for the k-th of n axis pairs (i, j)."""
    n = len(axes)
    x = z = 0
    for k, (i, j) in enumerate(axes):
        x |= _X_BITS[i] << k | _X_BITS[j] << (n + k)
        z |= _Z_BITS[i] << k | _Z_BITS[j] << (n + k)
    return PauliOperator(2 * n, x, z)


@lru_cache(maxsize=1)
def _pair_correlations() -> tuple[tuple[float, ...], ...]:
    """<alpha_i beta_j> on one singlet, read off its tableau once."""
    singlet = singlet_product_tableau(1)
    return tuple(
        tuple(tableau_expectation(singlet, _word([(i, j)])) for j in range(3)) for i in range(3)
    )


def pair_expectation(v: MeasurementVectors) -> float:
    """Singlet expectation of the pair operator: the sum of c_ij <alpha_i beta_j>."""
    coeff = _coefficients(v)
    corr = _pair_correlations()
    return sum(coeff[i][j] * corr[i][j] for i in range(3) for j in range(3))


def quantum_value(n: int, v: MeasurementVectors, method: str = "factorized") -> float:
    """Expectation of the n-pair operator on n shared singlets.

    "factorized" raises the per-pair expectation to the n-th power (any
    n >= 1).  "tableau" expands the n-pair operator into its Pauli words,
    up to 9^n of them (4^n for planar settings), and reads each word's
    expectation off the 2n-qubit singlet tableau, so it does not assume
    that the value factorizes (n <= 5).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method == "factorized":
        return pair_expectation(v) ** n
    if method == "tableau":
        if n > MAX_TABLEAU_PAIRS:
            raise ValueError(f"tableau path limited to n <= {MAX_TABLEAU_PAIRS}, got {n}")
        coeff = _coefficients(v)
        terms = [((i, j), coeff[i][j]) for i in range(3) for j in range(3) if coeff[i][j] != 0.0]
        state = singlet_product_tableau(n)
        total = 0.0
        for combo in iter_product(terms, repeat=n):
            weight = math.prod(c for _, c in combo)
            total += weight * tableau_expectation(state, _word([axes for axes, _ in combo]))
        return total
    raise ValueError(f"method must be 'factorized' or 'tableau', got {method!r}")


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


ChshReport = namedtuple("ChshReport", "n quantum_value lhv_bound ratio sub_classical")


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
        sub_classical=abs(qv) <= bound * (1.0 + REL_TOL),
    )
