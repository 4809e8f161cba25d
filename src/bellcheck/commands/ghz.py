"""`bellcheck ghz`: the GHZ observables on the GHZ state, and each grouping's verdict."""

from ..cli import Command, Option
from . import _verdict


def run(args, report) -> None:
    from ..constructions import ghz_contexts, ghz_observables
    from ..pauli import PauliOperator, format_pauli, product
    from ..tableau import ghz_tableau, tableau_expectation

    observables = ghz_observables()
    report.check(
        "operator product",
        format_pauli(product([op for op, _ in observables])),
        format_pauli(PauliOperator(3, 0, 0, 2)),
    )
    state = ghz_tableau()
    for op, indicated in observables:
        report.check(
            f"eigenvalue of {format_pauli(op)}",
            tableau_expectation(state, op),
            float(indicated),
        )
    _verdict(report, ghz_contexts(args.grouping), expected=args.grouping == "bipartite")


COMMAND = Command(
    "three-particle observable checks",
    (Option("--grouping", choices=("tripartite", "bipartite"), required=True),),
    run,
)
