"""`bellcheck verify square|sets`: the built-in families, validated and refuted.

Each family's contexts must commute and multiply to their signs, and its
parity system must have no value assignment, refuted by a certificate of
the expected size.
"""

from ..cli import Command, Option
from . import _system_for


def _validation_checks(report, system) -> None:
    from ..constructions import validate

    result = validate(system)
    for check in result.checks:
        report.check(f"context {check.context_index} commuting", check.commuting, True)
        report.check(
            f"context {check.context_index} product sign",
            check.product_sign,
            check.expected_sign,
        )


def _parity_checks(report, system, expect_rows: int) -> None:
    from ..parity import build_parity_system, check_certificate, solve

    ps = build_parity_system(system)
    result = solve(ps)
    report.check("value assignment exists", result.satisfiable, False)
    if result.certificate is not None:
        report.check("certificate rows", len(result.certificate), expect_rows)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)
        report.extras["certificate"] = list(result.certificate)


def square(args, report) -> None:
    from ..constructions import mermin_square

    system = mermin_square()
    _validation_checks(report, system)
    report.check("distinct observables", len(system.catalog), 9)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    _parity_checks(report, system, expect_rows=6)


def sets(args, report) -> None:
    n = args.n
    system = _system_for(n, square=False)
    _validation_checks(report, system)
    report.check("context count", len(system.contexts), n + 2)
    report.check("distinct observables", len(system.catalog), 3 * n + 1)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    _parity_checks(report, system, expect_rows=n + 2)


COMMAND = Command(
    "validate a built-in observable family",
    dest="target",
    words={
        "square": Command("the 3x3 two-qubit square", run=square),
        "sets": Command("the n-qubit commuting-set family", (Option("--n", int, required=True),), sets),
    },
)
