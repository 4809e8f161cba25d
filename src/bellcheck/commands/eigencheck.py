"""`bellcheck eigencheck`: each mirrored observable pair fixes the shared Bell state."""

from ..cli import Command, Option
from . import _system


def run(args, report) -> None:
    from ..pauli import format_pauli
    from ..tableau import eigenrelation_check

    system = _system(report, args.n)
    for op in system.catalog:
        report.check(
            f"mirrored {format_pauli(op)} fixes the shared state",
            eigenrelation_check(op),
            True,
        )


COMMAND = Command("mirrored-observable eigenrelations", (Option("--n", int, required=True),), run)
