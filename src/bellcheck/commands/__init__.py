"""One handler module per `bellcheck` command word, and the helpers some of them share.

Module `bellcheck.commands.<word>` declares the `<word>` command line as
data, a `cli.Command` of `cli.Option`s named `COMMAND`, and holds the code
that runs it, `run(args, report)`, which fills the report that `cli`
built from `COMMAND`.  So a child that runs one command compiles only that
command's handler.  `cli` reads a plain command line from `COMMAND` itself,
and `bellcheck.usage` builds its argparse subparser from it for anything
else.  A package rather than flat modules beside `cli`, because the `chsh`
command's handler cannot share its name with the `chsh` library module.

This module, which every handler loads with its package, holds the two
helpers that only some handlers call, so that `cli` compiles neither:
`_system` loads the context system that `--n` or `--file` names, and
`_verdict` solves a parity system, checks the verdict the paper expects, if
given, and reports it with its sizes and witness.  Every handler that runs
a system, of `verify`, `bks solve`, `correlate` and `eigencheck`, gets it
from `_system`, so each refuses the same inputs with the same text.  Every
SAT/UNSAT report, of `verify`, `bks solve` and `ghz`, is solved and written
by `_verdict`, so all have one shape.  Each helper imports the library
modules it runs only when called.
"""


def _system(report, n, path=None, square=True):
    """The system of `--n` or `--file`; both or neither is refused in `report`'s command name.

    `--n` is the family for n in `constructions.FAMILY_NS`, or the square
    for n = 2 if `square`; `dsl.load` reads a file.
    """
    if (n is None) == (path is None):
        raise ValueError(f"{report.command} needs exactly one of --n or --file")
    if path is not None:
        from ..dsl import load

        return load(path)
    from ..constructions import FAMILY_NS, generalized_sets, mermin_square

    if square and n == 2:
        return mermin_square()
    if n not in FAMILY_NS:
        allowed = "2 (square) or odd" if square else "odd"
        raise ValueError(f"--n must be {allowed} in {FAMILY_NS[0]}..{FAMILY_NS[-1]}, got {n}")
    return generalized_sets(n)


def _verdict(report, ps, expected=None):
    """Solve `ps`; report SAT/UNSAT, its sizes, the `expected` verdict if given, the witness and its check."""
    from ..parity import check_assignment, check_certificate, solve

    result = solve(ps)
    report.extras["result"] = "SAT" if result.satisfiable else "UNSAT"
    report.extras["variables"] = len(ps.variables)
    report.extras["rows"] = len(ps.rows)
    if expected is not None:
        report.check("value assignment exists", result.satisfiable, expected)
    if result.satisfiable:
        report.extras["assignment"] = {str(v): result.assignment[v] for v in ps.variables}
        report.check("assignment verifies", check_assignment(ps, result.assignment), True)
    else:
        report.extras["certificate"] = list(result.certificate)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)
    return result
