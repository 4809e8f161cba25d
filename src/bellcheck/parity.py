"""GF(2) parity systems for noncontextual value assignments.

A +-1 value assignment v is encoded by bits via v = (-1)^b, turning each
context's product constraint (product of member values = expected sign)
into one XOR equation: the bits of the member observables must sum to 0
for sign +1 and to 1 for sign -1.  Deciding whether an assignment exists
is then plain Gaussian elimination over GF(2).

A row is stored as `(mask, rhs)`: an int bitmask whose bit j stands for
variable j, and the right-hand side.  The solver and both witness checks
read it as stored.  A word listed twice in one context cancels, so a row
whose words all cancel has mask 0, and holds iff its rhs is 0.

Unsatisfiability is witnessed by a certificate: a subset of rows whose
masks XOR to 0 but whose right-hand sides XOR to 1.  Satisfiability is
witnessed by an explicit assignment.  Both witnesses are checkable
independently of the solver (`check_certificate`, `check_assignment`).

The variables are any hashable labels, and an assignment is keyed by
them.  In every system the package builds they are Pauli words, so the
solver never names an observable; a report names each one by its text,
`str(word)`, only where it prints it.
"""

from collections import namedtuple
from collections.abc import Hashable, Iterable, Mapping


class ParityRow(namedtuple("ParityRow", "mask rhs")):
    __slots__ = ()

    def __new__(cls, mask: int, rhs: int):
        if rhs not in (0, 1):
            raise ValueError(f"rhs must be 0 or 1, got {rhs}")
        if mask < 0:
            raise ValueError(f"row mask must be non-negative, got {mask}")
        return tuple.__new__(cls, (mask, rhs))

    _make = classmethod(lambda cls, fields: cls(*fields))


class ParitySystem(namedtuple("ParitySystem", "variables rows")):
    __slots__ = ()

    def __new__(cls, variables: tuple[Hashable, ...], rows: tuple[ParityRow, ...]):
        for row in rows:
            if row.mask >> len(variables):
                raise ValueError(f"row variable index {row.mask.bit_length() - 1} out of range")
        return tuple.__new__(cls, (variables, rows))

    _make = classmethod(lambda cls, fields: cls(*fields))


SolveResult = namedtuple("SolveResult", "satisfiable assignment certificate", defaults=(None, None))
SolveResult.__doc__ = """`solve`'s verdict.  A satisfiable system has an `assignment`, a dict
from each variable to +1 or -1; an unsatisfiable one has a `certificate`,
the ascending indices of rows that sum to 0 = 1.  The other is None.
"""


def build_parity_system(system) -> ParitySystem:
    """One XOR row per context of a ContextSystem; rhs 1 iff expected sign -1.

    Then one row per scalar word of the catalog, a word with no letter
    but `I` such as `I` or `- I`, pinning it to its one eigenvalue: `I`
    is +1 and `- I` is -1 in every assignment.  (A non-Hermitian scalar
    fails validation.)  And one row per word `- A` whose `A` is also in
    the catalog, tying the two: v(- A) = -v(A).

    The variables are the catalog's own words, in catalog order: no name
    is made here, so a verdict that prints none formats none.
    """
    index = system.catalog_index
    rows = []
    for ctx in system.contexts:
        mask = 0
        for obs in ctx.observables:
            mask ^= 1 << index[obs]  # a word listed twice cancels
        rows.append(ParityRow(mask, 0 if ctx.expected_sign == +1 else 1))
    for i, (n, x, z, phase) in enumerate(system.catalog):
        if not x | z:
            rows.append(ParityRow(1 << i, phase >> 1))
        elif phase == 2 and (n, x, z, 0) in index:  # a record equals its field tuple
            rows.append(ParityRow(1 << index[n, x, z, 0] | 1 << i, 1))
    return ParitySystem(system.catalog, tuple(rows))


def solve(ps: ParitySystem) -> SolveResult:
    """Gaussian elimination over GF(2) with certificate tracking.

    Rows are processed in input order; a reduced row pivots on its lowest
    set variable index.  Each working row carries the set of original rows
    XORed into it, so an inconsistent row (empty support, rhs 1) directly
    yields its certificate.  On success, free variables default to +1.
    """
    pivots: dict[int, tuple[int, int, int]] = {}  # var -> (mask, rhs, history)
    for ridx, (mask, rhs) in enumerate(ps.rows):
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
    return SolveResult(True, assignment={v: 1 - 2 * b for v, b in zip(ps.variables, bits)})


def check_certificate(ps: ParitySystem, certificate: Iterable[int]) -> bool:
    """True iff the rows XOR to empty variable support with rhs 1."""
    mask = 0
    rhs = 0
    for ridx in certificate:
        if not 0 <= ridx < len(ps.rows):
            raise ValueError(f"certificate row index {ridx} out of range")
        mask ^= ps.rows[ridx].mask
        rhs ^= ps.rows[ridx].rhs
    return mask == 0 and rhs == 1


def check_assignment(ps: ParitySystem, assignment: Mapping[Hashable, int]) -> bool:
    """True iff every row's value product matches its sign."""
    negative = 0  # bit j set iff variable j is -1
    for j, v in enumerate(ps.variables):
        value = assignment.get(v)
        if value not in (+1, -1):
            raise ValueError(f"assignment must map {str(v)!r} to +1 or -1")
        if value == -1:
            negative |= 1 << j
    return all((row.mask & negative).bit_count() & 1 == row.rhs for row in ps.rows)
