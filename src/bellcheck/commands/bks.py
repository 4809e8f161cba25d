"""`bellcheck bks solve`: the value-assignment verdict on a family or an `.obs` file."""

from ..cli import Command, Option
from . import _system, _verdict


def run(args, report) -> None:
    from ..parity import build_parity_system

    _verdict(report, build_parity_system(_system(report, args.n, args.file, square=False)))


COMMAND = Command(
    "value-assignment solver",
    dest="action",
    words={
        "solve": Command(
            "solve a parity system", (Option("--n", int), Option("--file", help="path to a .obs file")), run
        ),
    },
)
