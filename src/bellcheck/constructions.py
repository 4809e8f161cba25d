"""Built-in families of commuting observable sets and their validation.

A Context is an ordered list of mutually commuting Pauli words whose
operator product is (expected_sign * identity).  A ContextSystem bundles
contexts over a fixed register together with a catalog of the distinct
observables and how often each occurs.  Every built-in constructor
self-validates its structural properties before returning.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .parity import ParityRow, ParitySystem
from .pauli import PauliOperator, format_pauli, parse_pauli, product, single


# The n for which `generalized_sets` builds a family: odd, 3..13.
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
        """Number of contexts containing each catalog entry, catalog order."""
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


def context_faults(observables) -> tuple[str | None, tuple[str, str] | None]:
    """The first non-Hermitian member and the first non-commuting pair, as text.

    Pairs are tried in `combinations` order; either part is None when the
    context has no such fault.  Members on different registers raise
    ValueError.
    """
    for o in observables:
        if o.num_qubits != observables[0].num_qubits:
            raise ValueError(f"qubit-count mismatch: {observables[0].num_qubits} vs {o.num_qubits}")
    non_hermitian = next((format_pauli(o) for o in observables if not o.is_hermitian), None)
    # `commutes`'s symplectic test, on the masks.
    rows = [(o.x_mask, o.z_mask, o) for o in observables]
    for (ax, az, a), (bx, bz, b) in combinations(rows, 2):
        if ((ax & bz) ^ (az & bx)).bit_count() & 1:
            return non_hermitian, (format_pauli(a), format_pauli(b))
    return non_hermitian, None


def fault_message(non_hermitian: str | None, failing_pair: tuple[str, str] | None) -> str | None:
    """Why a context's words are not jointly measurable; Hermiticity goes first."""
    if non_hermitian is not None:
        return f"observable {non_hermitian} is not Hermitian"
    if failing_pair is not None:
        return f"observables {failing_pair[0]} and {failing_pair[1]} do not commute"
    return None


class ContextCheck(NamedTuple):
    context_index: int
    commuting: bool
    failing_pair: tuple[str, str] | None
    product_sign: int | None
    expected_sign: int
    non_hermitian: str | None = None  # first member that is not an observable

    @property
    def problem(self) -> str | None:
        """Why the context is not a physical one, or None when it is."""
        fault = fault_message(self.non_hermitian, self.failing_pair)
        if fault is not None:
            return fault
        if self.product_sign is None:
            return "product is not +-identity"
        if self.product_sign != self.expected_sign:
            return f"product is {self.product_sign:+d} * identity, declared {self.expected_sign:+d}"
        return None

    @property
    def ok(self) -> bool:
        return self.problem is None


class ValidationReport(NamedTuple):
    checks: tuple[ContextCheck, ...]
    failures: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(system: ContextSystem) -> ValidationReport:
    """Check Hermiticity, pairwise commutation and product sign of every context.

    The report carries a per-context verdict; it never raises on a mismatch.
    """
    checks = []
    failures = []
    for idx, ctx in enumerate(system.contexts):
        non_hermitian, failing = context_faults(ctx.observables)
        sign = None
        if failing is None:
            try:
                sign = product_sign(ctx)
            except ConstructionError:
                sign = None
        check = ContextCheck(idx, failing is None, failing, sign, ctx.expected_sign, non_hermitian)
        checks.append(check)
        if not check.ok:
            failures.append(idx)
    return ValidationReport(checks=tuple(checks), failures=tuple(failures))


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
        raise ValueError(f"n must be odd and within 3..13, got {n}")

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


def ghz_contexts(grouping: str) -> ParitySystem:
    """Value-assignment parity constraints for the GHZ observables.

    "tripartite": one variable per single-particle component (X and Y on
    each of three particles); every equation sums three variables.
    "bipartite": particle 1 is one observer, particles 2+3 the other, so
    the second observer only holds the four two-particle products; every
    equation sums two variables and each product variable occurs once.
    """
    if grouping == "tripartite":
        variables = ("X1", "Y1", "X2", "Y2", "X3", "Y3")
        terms = [("X1", "Y2", "Y3"), ("Y1", "X2", "Y3"), ("Y1", "Y2", "X3"), ("X1", "X2", "X3")]
    elif grouping == "bipartite":
        variables = ("X1", "Y1", "Y2 Y3", "X2 Y3", "Y2 X3", "X2 X3")
        terms = [("X1", "Y2 Y3"), ("Y1", "X2 Y3"), ("Y1", "Y2 X3"), ("X1", "X2 X3")]
    else:
        raise ValueError(f"grouping must be 'tripartite' or 'bipartite', got {grouping!r}")
    index = {name: i for i, name in enumerate(variables)}
    eigenvalues = [ev for _, ev in ghz_observables()]
    rows = tuple(
        ParityRow(tuple(index[name] for name in term), 0 if ev == +1 else 1)
        for term, ev in zip(terms, eigenvalues)
    )
    return ParitySystem(variables, rows)
