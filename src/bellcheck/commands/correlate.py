"""`bellcheck correlate`: two-observer protocol statistics on shared Bell pairs."""

from ..cli import Command, Option
from . import _system

# The most shots `correlate` accepts, checked before any work.  On a 2-core
# Xeon VM 10**7 shots of `--n 13 --noise 0.05 --efficiency 0.9` (the
# slowest regime) take 37 s at 21 MiB peak RSS, so this cap stands for
# about six minutes; a larger count is refused, not left to run for hours.
MAX_SHOTS = 10**8


def run(args, report) -> None:
    if args.shots > MAX_SHOTS:
        raise ValueError(f"--shots must be at most {MAX_SHOTS}, got {args.shots}")
    from ..protocol import MODES, run_experiment

    system = _system(report, args.n)
    exact_regime = args.noise == 0.0 and args.efficiency == 1.0
    for mode in MODES:
        summary = run_experiment(
            system, args.shots, noise=args.noise, efficiency=args.efficiency, seed=args.seed, bob_mode=mode
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


COMMAND = Command(
    "two-observer protocol statistics",
    (
        Option("--n", int, required=True),
        Option("--shots", int, required=True),
        Option("--noise", float, 0.0),
        Option("--efficiency", float, 1.0),
        Option("--seed", int, 0),
    ),
    run,
)
