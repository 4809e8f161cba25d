"""Command-line front end: every check as a reproducible, scriptable run.

Commands print a text or JSON report; exit status 0 means all checks
passed (or the solver ran), 1 means a verification failed, 2 means a
usage or input error.  JSON reports are byte-identical for identical
invocations and seeds, so they diff cleanly in CI; wall time is shown
only in text output for that reason.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .constructions import (
    FAMILY_NS,
    generalized_sets,
    ghz_contexts,
    ghz_observables,
    mermin_square,
    validate,
)
from .dsl import DslSyntaxError, parse_document
from .parity import build_parity_system, check_assignment, check_certificate, solve
from .pauli import PauliOperator, format_pauli, multiply
from .tableau import eigenrelation_check, ghz_tableau, tableau_expectation

REL_TOL = 1e-9


@dataclass
class Check:
    name: str
    passed: bool
    measured: object
    expected: object
    tolerance: float | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


@dataclass
class RunReport:
    command: str
    parameters: dict
    seed: int | None = None
    checks: list[Check] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

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
        payload["checks"] = [c.as_dict() for c in self.checks]
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


def _system_for(n: int):
    """The square for n = 2, the generalized family for odd n in 3..13."""
    if n == 2:
        return mermin_square()
    if n not in FAMILY_NS:
        raise UsageError(f"--n must be 2 (square) or odd in 3..13, got {n}")
    return generalized_sets(n)


def _validation_checks(report: RunReport, system) -> None:
    result = validate(system)
    for check in result.checks:
        report.check(f"context {check.context_index} commuting", check.commuting, True)
        report.check(
            f"context {check.context_index} product sign",
            check.product_sign,
            check.expected_sign,
        )


def _parity_checks(report: RunReport, system, expect_rows: int) -> None:
    ps = build_parity_system(system)
    result = solve(ps)
    report.check("value assignment exists", result.satisfiable, False)
    if result.certificate is not None:
        report.check("certificate rows", len(result.certificate), expect_rows)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)
        report.extras["certificate"] = list(result.certificate)


def _verdict(report: RunReport, ps, result, **sizes) -> None:
    """Report SAT/UNSAT, then `sizes`, then the witness and its check."""
    report.extras["result"] = "SAT" if result.satisfiable else "UNSAT"
    report.extras.update(sizes)
    if result.satisfiable:
        report.extras["assignment"] = {name: result.assignment[name] for name in ps.variables}
        report.check("assignment verifies", check_assignment(ps, result.assignment), True)
    elif result.certificate is not None:
        report.extras["certificate"] = list(result.certificate)
        report.check("certificate verifies", check_certificate(ps, result.certificate), True)


def cmd_verify_square(args) -> RunReport:
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
    system = generalized_sets(n)
    _validation_checks(report, system)
    report.check("context count", len(system.contexts), n + 2)
    report.check("distinct observables", len(system.catalog), 3 * n + 1)
    report.check("occurrences per observable", sorted(set(system.occurrence_counts)), [2])
    _parity_checks(report, system, expect_rows=n + 2)
    return report


def cmd_bks_solve(args) -> RunReport:
    if (args.n is None) == (args.file is None):
        raise UsageError("bks solve needs exactly one of --n or --file")
    if args.n is not None:
        report = RunReport("bks solve", {"n": args.n})
        system = generalized_sets(args.n)
    else:
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
    report = RunReport("ghz", {"grouping": args.grouping})
    observables = ghz_observables()
    product = observables[0][0]
    for op, _ in observables[1:]:
        product = multiply(product, op)
    report.check(
        "operator product",
        format_pauli(product),
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
    # Imported here, like numpy in `cmd_chsh`: the other commands never load numpy.
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
    import numpy as np

    from . import chsh as chsh_mod

    n = args.n
    if not 1 <= n <= chsh_mod.MAX_PAIRS:
        raise UsageError(f"--n must be in 1..{chsh_mod.MAX_PAIRS}, got {n}")
    report = RunReport("chsh", {"n": n}, seed=args.seed)
    vectors = chsh_mod.optimal_vectors()
    target = (2.0 * math.sqrt(2.0)) ** n
    factorized = chsh_mod.quantum_value(n, vectors, method="factorized")
    report.check("quantum value (factorized)", factorized, target, tolerance=REL_TOL)
    if n <= chsh_mod.MAX_DENSE_PAIRS:
        dense = chsh_mod.quantum_value(n, vectors, method="dense")
        report.check("quantum value (dense)", dense, factorized, tolerance=REL_TOL)
    bound = chsh_mod.lhv_max(n)
    report.check("local-realist bound", bound, 2.0 ** n)
    gap = chsh_mod.gap_report(n, vectors)
    report.check("ratio", gap.ratio, math.sqrt(2.0) ** n, tolerance=REL_TOL)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(200):
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        value = chsh_mod.pair_expectation(
            chsh_mod.MeasurementVectors(tuple(vs[0]), tuple(vs[1]), tuple(vs[2]), tuple(vs[3]))
        )
        worst = max(worst, abs(value))
    report.extras["random_sweep_max"] = worst
    report.check(
        "random settings stay within quantum bound",
        worst <= 2.0 * math.sqrt(2.0) + 1e-9,
        True,
    )
    return report


def cmd_eigencheck(args) -> RunReport:
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


def _odd_n(value: str) -> int:
    n = int(value)
    if n not in FAMILY_NS:
        raise argparse.ArgumentTypeError(f"n must be odd and within 3..13, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """Argument errors end in one `error:` line and exit 2, like every other failure.

    Subparsers are built from the same class, so they inherit this.
    """

    def error(self, message: str):
        print(f"error: {' '.join(message.split())}", file=sys.stderr)
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
    vn.add_argument("--n", type=_odd_n, required=True)
    add_format(vn)
    vn.set_defaults(func=cmd_verify_sets)

    bks = sub.add_parser("bks", help="value-assignment solver")
    bks_sub = bks.add_subparsers(dest="action", required=True)
    solve_p = bks_sub.add_parser("solve", help="solve a parity system")
    solve_p.add_argument("--n", type=_odd_n)
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
    except (UsageError, DslSyntaxError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # exit 1 is reserved for a failed verification
        print(f"error: {type(err).__name__}: {' '.join(str(err).split())}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    try:
        print(report.to_json() if args.format == "json" else report.to_text(wall))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull, so that the
        # flush at interpreter exit does not raise again; exit 2, because
        # exit 1 means that a verification failed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
