"""`bellcheck eigencheck`: each mirrored observable pair fixes the shared Bell state."""

from ..cli import RunReport, _add_format, _system_for


def add_parser(sub) -> None:
    eig = sub.add_parser("eigencheck", help="mirrored-observable eigenrelations")
    eig.add_argument("--n", type=int, required=True)
    _add_format(eig)
    eig.set_defaults(func=run)


def run(args) -> RunReport:
    from ..pauli import format_pauli
    from ..tableau import eigenrelation_check

    system = _system_for(args.n)
    report = RunReport("eigencheck", {"n": args.n})
    for op in system.catalog:
        report.check(
            f"mirrored {format_pauli(op)} fixes the shared state",
            eigenrelation_check(op),
            True,
        )
    return report
