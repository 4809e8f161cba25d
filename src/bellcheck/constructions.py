"""Built-in families of commuting observable sets and their validation.

A Context is an ordered list of mutually commuting Pauli words whose
operator product is (expected_sign * identity).  A ContextSystem bundles
contexts over a fixed register together with a catalog of the distinct
observables and how often each occurs.  Every built-in constructor
self-validates its structural properties before returning.
"""

from collections import namedtuple
from functools import cached_property

from .pauli import PauliOperator, context_fault, format_pauli, parse_pauli, product, single


# The odd n for which `generalized_sets` builds a family.
FAMILY_NS = range(3, 14, 2)


class ConstructionError(RuntimeError):
    """A built-in construction failed its own validation (internal bug)."""


class Context(namedtuple("Context", "observables expected_sign")):
    __slots__ = ()

    def __new__(cls, observables: tuple[PauliOperator, ...], expected_sign: int):
        if expected_sign not in (+1, -1):
            raise ValueError(f"expected_sign must be +1 or -1, got {expected_sign}")
        if not observables:
            raise ValueError("context needs at least one observable")
        return tuple.__new__(cls, (observables, expected_sign))

    _make = classmethod(lambda cls, fields: cls(*fields))


class ContextSystem(namedtuple("ContextSystem", "num_qubits contexts")):
    # No `__slots__`: the instance `__dict__` holds the cached catalog.

    @property
    def catalog(self) -> tuple[PauliOperator, ...]:
        """Distinct observables in order of first appearance (phase included)."""
        return self._catalog_counts[0]

    @property
    def occurrence_counts(self) -> tuple[int, ...]:
        """How often each catalog entry occurs over all contexts, catalog order.

        An entry that a context lists twice counts twice there.
        """
        return self._catalog_counts[1]

    @property
    def catalog_index(self) -> dict[PauliOperator, int]:
        """Position of each catalog entry in `catalog`; shared, so read it only."""
        return self._catalog_counts[2]

    @cached_property
    def _catalog_counts(
        self,
    ) -> tuple[tuple[PauliOperator, ...], tuple[int, ...], dict[PauliOperator, int]]:
        # Built once per system: the contexts are immutable.
        seen: dict[PauliOperator, int] = {}
        counts: list[int] = []
        for ctx in self.contexts:
            for obs in ctx.observables:
                if obs in seen:
                    counts[seen[obs]] += 1
                else:
                    seen[obs] = len(counts)
                    counts.append(1)
        return tuple(seen), tuple(counts), seen


def product_sign(context: Context) -> int:
    """Sign s such that the ordered operator product equals s * identity.

    Raises ConstructionError if the product is not +-identity (which can
    only happen for a malformed context).
    """
    acc = product(context.observables)
    if not acc.is_identity_word or acc.phase_exponent not in (0, 2):
        raise ConstructionError(
            f"context product is not +-identity: {format_pauli(acc)}"
        )
    return +1 if acc.phase_exponent == 0 else -1


ContextCheck = namedtuple("ContextCheck", "context_index commuting product_sign expected_sign problem")
ContextCheck.__doc__ = """One context's verdict (`validate`).  `product_sign` is the s of a
product s * identity, or None where the members do not commute or the
product is not +-identity; `problem` is why the context is not a physical
one, or None when it is.
"""


class ValidationReport(namedtuple("ValidationReport", "checks failures")):
    """A `ContextCheck` per context, and the indices of those that have a problem."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(system: ContextSystem) -> ValidationReport:
    """Check Hermiticity, pairwise commutation and product sign of every context.

    A context's `problem` is the first of: members on a register other
    than the system's, a member that is not Hermitian, a pair of members
    that do not commute, a product that is not +-identity, and a product
    sign other than the declared one.  A context that is not physical is
    reported, not raised; only members acting on different registers from
    each other raise ValueError.
    """
    checks = []
    for idx, ctx in enumerate(system.contexts):
        fault, commuting = context_fault(ctx.observables)
        sign = None
        if commuting:
            try:
                sign = product_sign(ctx)
            except ConstructionError:
                pass
        width = ctx.observables[0].num_qubits
        if width != system.num_qubits:
            problem = f"acts on {width} qubits, system has {system.num_qubits}"
        else:
            problem = fault
        if problem is None and sign is None:
            problem = "product is not +-identity"
        elif problem is None and sign != ctx.expected_sign:
            problem = f"product is {sign:+d} * identity, declared {ctx.expected_sign:+d}"
        checks.append(ContextCheck(idx, commuting, sign, ctx.expected_sign, problem))
    return ValidationReport(tuple(checks), tuple(c.context_index for c in checks if c.problem is not None))


def _validated(system: ContextSystem, what: str) -> ContextSystem:
    report = validate(system)
    if not report.ok:
        raise ConstructionError(f"{what} failed self-validation: contexts {report.failures}")
    return system


def mermin_square() -> ContextSystem:
    """The 3x3 square of two-qubit observables with its six contexts.

    Rows and columns each form a commuting triple; every product is
    +identity except the third column, whose product is -identity.
    Each of the nine observables sits in exactly one row and one column.
    """
    rows = [
        [parse_pauli(t, 2) for t in ("X1", "X2", "X1 X2")],
        [parse_pauli(t, 2) for t in ("Z2", "Z1", "Z1 Z2")],
        [parse_pauli(t, 2) for t in ("X1 Z2", "Z1 X2", "Y1 Y2")],
    ]
    contexts = [Context(tuple(r), +1) for r in rows]
    for j in range(3):
        column = tuple(rows[i][j] for i in range(3))
        contexts.append(Context(column, -1 if j == 2 else +1))
    system = _validated(ContextSystem(2, tuple(contexts)), "mermin_square")
    if len(system.catalog) != 9 or set(system.occurrence_counts) != {2}:
        raise ConstructionError("mermin_square catalog structure is wrong")
    return system


def generalized_sets(n: int) -> ContextSystem:
    """The n-qubit family of n+2 commuting sets built from cyclic X-Z-X triples.

    For odd n, the triples t_i = X_i Z_{i+1} X_{i+2} (indices cyclic,
    1-based) plus the all-Z word form one commuting set with product
    -identity; each triple also forms a +identity set with its three
    single-qubit factors, and the all-Z word forms one with the n
    single-Z factors.  That yields 3n+1 distinct observables, each
    occurring in exactly two sets.
    """
    if n not in FAMILY_NS:
        raise ValueError(f"n must be odd and within {FAMILY_NS[0]}..{FAMILY_NS[-1]}, got {n}")

    def wrap(i: int) -> int:
        return (i - 1) % n + 1

    factors = [
        (single("X", i, n), single("Z", wrap(i + 1), n), single("X", wrap(i + 2), n))
        for i in range(1, n + 1)
    ]
    triples = tuple(product(f) for f in factors)
    singles_z = tuple(single("Z", i, n) for i in range(1, n + 1))
    all_z = product(singles_z)

    contexts = [Context(triples + (all_z,), -1)]
    contexts.extend(Context(f + (t,), +1) for f, t in zip(factors, triples))
    contexts.append(Context(singles_z + (all_z,), +1))

    system = _validated(ContextSystem(n, tuple(contexts)), f"generalized_sets({n})")
    if len(system.catalog) != 3 * n + 1 or set(system.occurrence_counts) != {2}:
        raise ConstructionError(f"generalized_sets({n}) catalog structure is wrong")
    return system


def ghz_observables() -> tuple[tuple[PauliOperator, int], ...]:
    """The four three-qubit XYY-type observables with their joint eigenvalues."""
    return (
        (parse_pauli("X1 Y2 Y3", 3), +1),
        (parse_pauli("Y1 X2 Y3", 3), +1),
        (parse_pauli("Y1 Y2 X3", 3), +1),
        (parse_pauli("X1 X2 X3", 3), -1),
    )


# Each grouping's observers, as the mask of the qubits each one holds.
_GHZ_OBSERVERS = {"tripartite": (0b001, 0b010, 0b100), "bipartite": (0b001, 0b110)}


def ghz_contexts(grouping: str):
    """Value-assignment parity constraints for the GHZ observables, as a `ParitySystem`.

    Each observable splits into one factor per observer of the grouping,
    its letters on that observer's qubits ("tripartite": one observer per
    particle; "bipartite": particle 1 and particles 2+3).  The variables
    are the distinct factors, observer by observer, each observer's in
    order of first use; row k's mask XORs the bits of observable k's
    factors, with rhs 1 iff its stated eigenvalue is -1.
    """
    from .parity import ParityRow, ParitySystem  # here, so that `constructions` does not load `parity`

    if grouping not in _GHZ_OBSERVERS:
        raise ValueError(f"grouping must be 'tripartite' or 'bipartite', got {grouping!r}")
    masks = _GHZ_OBSERVERS[grouping]
    terms = [([PauliOperator(3, op.x_mask & m, op.z_mask & m) for m in masks], ev) for op, ev in ghz_observables()]
    index: dict[PauliOperator, int] = {}
    for j in range(len(masks)):
        for factors, _ in terms:
            index.setdefault(factors[j], len(index))
    rows = []
    for factors, ev in terms:
        mask = 0
        for f in factors:
            mask ^= 1 << index[f]
        rows.append(ParityRow(mask, 0 if ev == +1 else 1))
    return ParitySystem(tuple(index), tuple(rows))
