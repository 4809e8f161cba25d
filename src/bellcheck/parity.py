"""GF(2) parity systems for noncontextual value assignments.

A +-1 value assignment v is encoded by bits via v = (-1)^b, turning each
context's product constraint (product of member values = expected sign)
into one XOR equation: the bits of the member observables must sum to 0
for sign +1 and to 1 for sign -1.  Deciding whether an assignment exists
is then plain Gaussian elimination over GF(2).

Unsatisfiability is witnessed by a certificate: a subset of rows whose
XOR has empty variable support but right-hand side 1.  Satisfiability is
witnessed by an explicit assignment.  Both witnesses are checkable
independently of the solver (`check_certificate`, `check_assignment`).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .pauli import format_pauli

MAX_BRUTE_FORCE_VARIABLES = 24


class ParityRow(namedtuple("ParityRow", "variables rhs")):
    __slots__ = ()

    def __new__(cls, variables: tuple[int, ...], rhs: int):
        if rhs not in (0, 1):
            raise ValueError(f"rhs must be 0 or 1, got {rhs}")
        if not variables:
            raise ValueError("parity row needs at least one variable")
        return tuple.__new__(cls, (variables, rhs))

    _make = classmethod(lambda cls, fields: cls(*fields))


class ParitySystem(namedtuple("ParitySystem", "variables rows")):
    __slots__ = ()

    def __new__(cls, variables: tuple[str, ...], rows: tuple[ParityRow, ...]):
        for row in rows:
            for v in row.variables:
                if not 0 <= v < len(variables):
                    raise ValueError(f"row variable index {v} out of range")
        return tuple.__new__(cls, (variables, rows))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def row_mask(self, index: int) -> int:
        """Row's variable set as an int bitset (bit j = variable j), with
        repeated indices cancelling mod 2."""
        mask = 0
        for v in self.rows[index].variables:
            mask ^= 1 << v
        return mask


class SolveResult(NamedTuple):
    satisfiable: bool
    assignment: dict[str, int] | None = None
    certificate: tuple[int, ...] | None = None


def build_parity_system(system) -> ParitySystem:
    """One XOR row per context of a ContextSystem; rhs 1 iff expected sign -1."""
    index = system.catalog_index
    rows = tuple(
        ParityRow(
            tuple(index[obs] for obs in ctx.observables),
            0 if ctx.expected_sign == +1 else 1,
        )
        for ctx in system.contexts
    )
    return ParitySystem(tuple(format_pauli(o) for o in system.catalog), rows)


def solve(ps: ParitySystem) -> SolveResult:
    """Gaussian elimination over GF(2) with certificate tracking.

    Rows are processed in input order; a reduced row pivots on its lowest
    set variable index.  Each working row carries the set of original rows
    XORed into it, so an inconsistent row (empty support, rhs 1) directly
    yields its certificate.  On success, free variables default to +1.
    """
    pivots: dict[int, tuple[int, int, int]] = {}  # var -> (mask, rhs, history)
    for ridx in range(len(ps.rows)):
        mask = ps.row_mask(ridx)
        rhs = ps.rows[ridx].rhs
        history = 1 << ridx
        while mask:
            low = (mask & -mask).bit_length() - 1
            if low not in pivots:
                break
            pmask, prhs, phist = pivots[low]
            mask ^= pmask
            rhs ^= prhs
            history ^= phist
        if mask == 0:
            if rhs == 1:
                certificate = tuple(i for i in range(len(ps.rows)) if history >> i & 1)
                return SolveResult(False, certificate=certificate)
            continue  # redundant row
        pivots[(mask & -mask).bit_length() - 1] = (mask, rhs, history)

    bits = [0] * len(ps.variables)
    for var in sorted(pivots, reverse=True):
        mask, rhs, _ = pivots[var]
        value = rhs
        rest = mask & ~(1 << var)
        while rest:
            j = (rest & -rest).bit_length() - 1
            value ^= bits[j]
            rest &= rest - 1
        bits[var] = value
    assignment = {name: 1 - 2 * bits[i] for i, name in enumerate(ps.variables)}
    return SolveResult(True, assignment=assignment)


def brute_force(ps: ParitySystem) -> SolveResult:
    """Exhaustive oracle over all 2^k bit assignments (k <= 24).

    Returns the lexicographically first satisfying assignment (variables
    in catalog order, +1 before -1) or UNSAT with no certificate; the
    exhaustion itself is the proof.
    """
    k = len(ps.variables)
    if k > MAX_BRUTE_FORCE_VARIABLES:
        raise ValueError(
            f"brute force limited to {MAX_BRUTE_FORCE_VARIABLES} variables, got {k}"
        )
    if not ps.rows:
        return SolveResult(True, assignment={name: +1 for name in ps.variables})
    import numpy as np  # here, so that importing `parity` does not load numpy

    # Assignment a encodes variable j as bit (k-1-j), so increasing a is
    # lexicographic order with +1 (bit 0) first.
    dtype = np.uint32
    space = np.arange(1 << k, dtype=dtype)
    sat = np.ones(1 << k, dtype=bool)
    for ridx in range(len(ps.rows)):
        mask = 0
        row_mask = ps.row_mask(ridx)
        for j in range(k):
            if row_mask >> j & 1:
                mask |= 1 << (k - 1 - j)
        sat &= (np.bitwise_count(space & dtype(mask)) & 1) == ps.rows[ridx].rhs
    hits = np.flatnonzero(sat)
    if hits.size == 0:
        return SolveResult(False)
    first = int(hits[0])
    assignment = {
        name: 1 - 2 * (first >> (k - 1 - j) & 1) for j, name in enumerate(ps.variables)
    }
    return SolveResult(True, assignment=assignment)


def check_certificate(ps: ParitySystem, certificate: Iterable[int]) -> bool:
    """True iff the rows XOR to empty variable support with rhs 1."""
    mask = 0
    rhs = 0
    for ridx in certificate:
        if not 0 <= ridx < len(ps.rows):
            raise ValueError(f"certificate row index {ridx} out of range")
        mask ^= ps.row_mask(ridx)
        rhs ^= ps.rows[ridx].rhs
    return mask == 0 and rhs == 1


def check_assignment(ps: ParitySystem, assignment: Mapping[str, int]) -> bool:
    """True iff every row's value product matches its sign."""
    for name in ps.variables:
        if assignment.get(name) not in (+1, -1):
            raise ValueError(f"assignment must map {name!r} to +1 or -1")
    for row in ps.rows:
        product = 1
        for v in row.variables:
            product *= assignment[ps.variables[v]]
        if product != (1 - 2 * row.rhs):
            return False
    return True
