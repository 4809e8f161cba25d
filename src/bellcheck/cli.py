"""Command-line front end: every check as a reproducible, scriptable run.

Commands print a text or JSON report; exit status 0 means all checks
passed (or the solver ran), 1 means a verification failed, 2 means a
usage or input error.  JSON reports are byte-identical for identical
invocations and seeds, so they diff cleanly in CI; wall time is shown
only in text output for that reason.

Each command imports the bellcheck modules it runs, and this module only
the stdlib, so a child loads (and compiles) no module it does not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import NamedTuple

REL_TOL = 1e-9
# The most shots `correlate` accepts, checked before any work.  On a 2-core
# Xeon VM 10**7 shots of `--n 13 --noise 0.05 --efficiency 0.9` (the
# slowest regime) take 37 s at 21 MiB peak RSS, so this cap stands for
# about six minutes; a larger count is refused, not left to run for hours.
MAX_SHOTS = 10**8


class Check(NamedTuple):
    name: str
    passed: bool
    measured: object
    expected: object
    tolerance: float | None = None


class RunReport:
    def __init__(self, command: str, parameters: dict, seed: int | None = None):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.checks: list[Check] = []
        self.extras: dict = {}

    def check(self, name, measured, expected, tolerance: float | None = None) -> None:
        if tolerance:
            scale = max(abs(expected), 1.0)
            passed = abs(measured - expected) <= tolerance * scale
        else:
            passed = measured == expected
        self.checks.append(Check(name, passed, measured, expected, tolerance))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "passed": self.passed,
        }
        payload.update(self.extras)
        payload["checks"] = [c._asdict() for c in self.checks]
        return json.dumps(payload, indent=2)

    def to_text(self, wall_time: float) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            lines.append(f"  {key}: {value}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        for key, value in self.extras.items():
            lines.append(f"{key}: {value}")
        if self.checks:
            width = max(len(c.name) for c in self.checks)
            for c in self.checks:
                status = "PASS" if c.passed else "FAIL"
                detail = f"measured={c.measured} expected={c.expected}"
                if c.tolerance:
                    detail += f" rel_tol={c.tolerance}"
                lines.append(f"  {c.name:<{width}}  {status}  {detail}")
        lines.append(f"wall time: {wall_time:.3f} s")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _system_for(n: int, square: bool = True):
    """The generalized family for odd n in 3..13, and the square for n = 2 if `square`."""
    from .constructions import FAMILY_NS, generalized_sets, mermin_square

    if square and n == 2:
        return mermin_square()
    if n not in FAMILY_NS:
        allowed = "2 (square) or odd" if square else "odd"
        raise UsageError(f"--n must be {allowed} in 3..13, got {n}")
    return generalized_sets(n)


def _validation_checks(report: RunReport, system) -> None:
    from .constructions import validate

    result = validate(system)
    for check in result.checks:
        report.check(f"context {check.context_index} commuting", check.commuting, True)
        report.check(
            f"context {check.context_index} product sign",
            check.product_sign,
            check.expected_sign,
        )


def _parity_checks(report: RunReport, system, expect_rows: int) -> None:
    from .parity import build_parity_system, check_certificate, solve

    ps = build_parity_system(system)
    result = solve(ps)
    report.check("value assignment exists", result.satisfiable, False)
    if result.certificate is not None:
        report.check("certificate rows", len(result.certificate), expect_rows)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)
        report.extras["certificate"] = list(result.certificate)


def _verdict(report: RunReport, ps, result, **sizes) -> None:
    """Report SAT/UNSAT, then `sizes`, then the witness and its check."""
    from .parity import check_assignment, check_certificate

    report.extras["result"] = "SAT" if result.satisfiable else "UNSAT"
    report.extras.update(sizes)
    if result.satisfiable:
        report.extras["assignment"] = {str(v): result.assignment[v] for v in ps.variables}
        report.check("assignment verifies", check_assignment(ps, result.assignment), True)
    elif result.certificate is not None:
        report.extras["certificate"] = list(result.certificate)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)


def cmd_verify_square(args) -> RunReport:
    from .constructions import mermin_square

    report = RunReport("verify square", {})
    system = mermin_square()
    _validation_checks(report, system)
    report.check("distinct observables", len(system.catalog), 9)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    _parity_checks(report, system, expect_rows=6)
    return report


def cmd_verify_sets(args) -> RunReport:
    n = args.n
    report = RunReport("verify sets", {"n": n})
    system = _system_for(n, square=False)
    _validation_checks(report, system)
    report.check("context count", len(system.contexts), n + 2)
    report.check("distinct observables", len(system.catalog), 3 * n + 1)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    _parity_checks(report, system, expect_rows=n + 2)
    return report


def cmd_bks_solve(args) -> RunReport:
    from .constructions import validate
    from .parity import build_parity_system, solve

    if (args.n is None) == (args.file is None):
        raise UsageError("bks solve needs exactly one of --n or --file")
    if args.n is not None:
        report = RunReport("bks solve", {"n": args.n})
        system = _system_for(args.n, square=False)
    else:
        from .dsl import parse_document  # only `--file` reads `.obs` text

        report = RunReport("bks solve", {"file": args.file})
        with open(args.file, "r", encoding="utf-8") as fh:
            system = parse_document(fh.read())
        # A verdict on contexts that are not physical would be meaningless.
        for check in validate(system).checks:
            if not check.ok:
                raise UsageError(f"{args.file}: context {check.context_index}: {check.problem}")
    ps = build_parity_system(system)
    _verdict(report, ps, solve(ps), variables=len(ps.variables), rows=len(ps.rows))
    return report


def cmd_ghz(args) -> RunReport:
    from .constructions import ghz_contexts, ghz_observables
    from .parity import solve
    from .pauli import PauliOperator, format_pauli, product
    from .tableau import ghz_tableau, tableau_expectation

    report = RunReport("ghz", {"grouping": args.grouping})
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
            tolerance=1e-12,
        )
    ps = ghz_contexts(args.grouping)
    result = solve(ps)
    expect_sat = args.grouping == "bipartite"
    report.check("value assignment exists", result.satisfiable, expect_sat)
    _verdict(report, ps, result)
    return report


def cmd_correlate(args) -> RunReport:
    if args.shots > MAX_SHOTS:
        raise ValueError(f"--shots must be at most {MAX_SHOTS}, got {args.shots}")
    from .protocol import ExperimentConfig, run_experiment

    system = _system_for(args.n)
    report = RunReport(
        "correlate",
        {
            "n": args.n,
            "shots": args.shots,
            "noise": args.noise,
            "efficiency": args.efficiency,
        },
        seed=args.seed,
    )
    exact_regime = args.noise == 0.0 and args.efficiency == 1.0
    for mode in ("alone", "in_context"):
        summary = run_experiment(
            ExperimentConfig(
                n=args.n,
                system=system,
                shots=args.shots,
                noise=args.noise,
                efficiency=args.efficiency,
                seed=args.seed,
                bob_mode=mode,
            )
        )
        report.extras[f"{mode}_equality_rate"] = summary.equality_rate
        report.extras[f"{mode}_conclusive_fraction"] = summary.conclusive_fraction
        report.extras[f"{mode}_product_pass_rates"] = {
            str(k): v for k, v in summary.product_pass_rates.items()
        }
        if exact_regime and args.shots > 0:
            report.check(f"{mode} equality rate", summary.equality_rate, 1.0)
            report.check(
                f"{mode} product constraints",
                sorted(set(summary.product_pass_rates.values())),
                [1.0],
            )
    return report


def cmd_chsh(args) -> RunReport:
    import random

    from . import chsh as chsh_mod

    n = args.n
    if not 1 <= n <= chsh_mod.MAX_PAIRS:
        raise UsageError(f"--n must be in 1..{chsh_mod.MAX_PAIRS}, got {n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    report = RunReport("chsh", {"n": n}, seed=args.seed)
    vectors = chsh_mod.optimal_vectors()
    target = (2.0 * math.sqrt(2.0)) ** n
    gap = chsh_mod.gap_report(n, vectors)  # the factorized value
    report.check("quantum value (factorized)", gap.quantum_value, target, tolerance=REL_TOL)
    if n <= chsh_mod.MAX_TABLEAU_PAIRS:
        tableau_value = chsh_mod.quantum_value(n, vectors, method="tableau")
        report.check("quantum value (tableau)", tableau_value, gap.quantum_value, tolerance=REL_TOL)
    report.check("local-realist bound", gap.lhv_bound, 2.0 ** n)
    report.check("ratio", gap.ratio, math.sqrt(2.0) ** n, tolerance=REL_TOL)
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(200):
        vs = []
        for _ in range(4):
            g = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in g))
            vs.append(tuple(x / norm for x in g))
        value = chsh_mod.pair_expectation(chsh_mod.MeasurementVectors(*vs))
        worst = max(worst, abs(value))
    report.extras["random_sweep_max"] = worst
    report.check(
        "random settings stay within quantum bound",
        worst <= 2.0 * math.sqrt(2.0) + 1e-9,
        True,
    )
    return report


def cmd_eigencheck(args) -> RunReport:
    from .pauli import format_pauli
    from .tableau import eigenrelation_check

    system = _system_for(args.n)
    report = RunReport("eigencheck", {"n": args.n})
    for op in system.catalog:
        report.check(
            f"mirrored {format_pauli(op)} fixes the shared state",
            eigenrelation_check(args.n, op),
            True,
        )
    return report


class UsageError(ValueError):
    pass


def _to_devnull(stream) -> None:
    """Point a stream whose reader closed the pipe at devnull, so the flush at exit cannot raise."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(message: str) -> None:
    """Print the one `error:` line on stderr, each line break of `message` made a space.

    If stderr is a closed pipe the line is lost, but the exit status stays
    2: exit 1 means that a verification failed.
    """
    try:
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Argument errors end in one `error:` line and exit 2, like every other failure.

    Subparsers are built from the same class, so they inherit this.
    """

    def error(self, message: str):
        _error(" ".join(message.split()))
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellcheck",
        description="Verify commuting-set constructions, value-assignment "
        "impossibility, shared-state correlations, and CHSH bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="validate a built-in observable family")
    verify_sub = verify.add_subparsers(dest="target", required=True)
    vs = verify_sub.add_parser("square", help="the 3x3 two-qubit square")
    add_format(vs)
    vs.set_defaults(func=cmd_verify_square)
    vn = verify_sub.add_parser("sets", help="the n-qubit commuting-set family")
    vn.add_argument("--n", type=int, required=True)
    add_format(vn)
    vn.set_defaults(func=cmd_verify_sets)

    bks = sub.add_parser("bks", help="value-assignment solver")
    bks_sub = bks.add_subparsers(dest="action", required=True)
    solve_p = bks_sub.add_parser("solve", help="solve a parity system")
    solve_p.add_argument("--n", type=int)
    solve_p.add_argument("--file", help="path to a .obs file")
    add_format(solve_p)
    solve_p.set_defaults(func=cmd_bks_solve)

    ghz = sub.add_parser("ghz", help="three-particle observable checks")
    ghz.add_argument("--grouping", choices=("tripartite", "bipartite"), required=True)
    add_format(ghz)
    ghz.set_defaults(func=cmd_ghz)

    corr = sub.add_parser("correlate", help="two-observer protocol statistics")
    corr.add_argument("--n", type=int, required=True)
    corr.add_argument("--shots", type=int, required=True)
    corr.add_argument("--noise", type=float, default=0.0)
    corr.add_argument("--efficiency", type=float, default=1.0)
    corr.add_argument("--seed", type=int, default=0)
    add_format(corr)
    corr.set_defaults(func=cmd_correlate)

    chsh_p = sub.add_parser("chsh", help="quantum vs local-realist gap")
    chsh_p.add_argument("--n", type=int, required=True)
    chsh_p.add_argument("--seed", type=int, default=0)
    add_format(chsh_p)
    chsh_p.set_defaults(func=cmd_chsh)

    eig = sub.add_parser("eigencheck", help="mirrored-observable eigenrelations")
    eig.add_argument("--n", type=int, required=True)
    add_format(eig)
    eig.set_defaults(func=cmd_eigencheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (ValueError, OSError) as err:
        _error(str(err))
        return 2
    except Exception as err:  # exit 1 is reserved for a failed verification
        _error(f"{type(err).__name__}: {' '.join(str(err).split())}")
        return 2
    wall = time.perf_counter() - started
    try:
        print(report.to_json() if args.format == "json" else report.to_text(wall))
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        _error("standard output was closed before the report was written")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
