"""`bellcheck verify square|sets`: the built-in families, validated and refuted.

Each family's contexts must commute and multiply to their signs, it must
have the family's shape, and its verdict, reported by `commands._verdict`,
must be UNSAT, with a certificate that uses each of its contexts once.
"""

from ..cli import Command, Option
from . import _system, _verdict


def _family(report, system, contexts: int, observables: int) -> None:
    """Validate `system`, check its shape, and report its verdict."""
    from ..constructions import validate
    from ..parity import build_parity_system

    for check in validate(system).checks:
        report.check(f"context {check.context_index} commuting", check.commuting, True)
        report.check(
            f"context {check.context_index} product sign",
            check.product_sign,
            check.expected_sign,
        )
    report.check("context count", len(system.contexts), contexts)
    report.check("distinct observables", len(system.catalog), observables)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    result = _verdict(report, build_parity_system(system), expected=False)
    if not result.satisfiable:
        report.check("certificate rows", len(result.certificate), contexts)


def square(args, report) -> None:
    _family(report, _system(report, 2), 6, 9)


def sets(args, report) -> None:
    _family(report, _system(report, args.n, square=False), args.n + 2, 3 * args.n + 1)


COMMAND = Command(
    "validate a built-in observable family",
    dest="target",
    words={
        "square": Command("the 3x3 two-qubit square", run=square),
        "sets": Command("the n-qubit commuting-set family", (Option("--n", int, required=True),), sets),
    },
)
