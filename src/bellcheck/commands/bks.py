"""`bellcheck bks solve`: the value-assignment verdict on a family or an `.obs` file."""

from ..cli import Command, Option
from . import _system_for, _verdict


def run(args, report) -> None:
    from ..constructions import validate
    from ..parity import build_parity_system

    if (args.n is None) == (args.file is None):
        raise ValueError("bks solve needs exactly one of --n or --file")
    if args.n is not None:
        system = _system_for(args.n, square=False)
    else:
        from ..dsl import parse_document  # only `--file` reads `.obs` text

        # utf-8-sig drops the byte-order mark that some editors write.
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            system = parse_document(fh.read())
        # A verdict on contexts that are not physical would be meaningless.
        for check in validate(system).checks:
            if check.problem is not None:
                raise ValueError(f"{args.file}: context {check.context_index}: {check.problem}")
    _verdict(report, build_parity_system(system))


COMMAND = Command(
    "value-assignment solver",
    dest="action",
    words={
        "solve": Command(
            "solve a parity system", (Option("--n", int), Option("--file", help="path to a .obs file")), run
        ),
    },
)
