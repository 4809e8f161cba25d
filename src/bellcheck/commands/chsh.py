"""`bellcheck chsh`: the quantum vs local-realist CHSH gap on `n` singlet pairs."""

import math

from ..cli import Command, Option


def run(args, report) -> None:
    import random

    from .. import chsh as chsh_mod

    n = args.n
    if not 1 <= n <= chsh_mod.MAX_PAIRS:
        raise ValueError(f"--n must be in 1..{chsh_mod.MAX_PAIRS}, got {n}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    vectors = chsh_mod.optimal_vectors()
    target = (2.0 * math.sqrt(2.0)) ** n
    gap = chsh_mod.gap_report(n, vectors)  # the factorized value
    report.check("quantum value (factorized)", gap.quantum_value, target, tolerance=chsh_mod.REL_TOL)
    if n <= chsh_mod.MAX_TABLEAU_PAIRS:
        tableau_value = chsh_mod.quantum_value(n, vectors, method="tableau")
        report.check("quantum value (tableau)", tableau_value, gap.quantum_value, tolerance=chsh_mod.REL_TOL)
    report.check("local-realist bound", gap.lhv_bound, 2.0 ** n)
    report.check("ratio", gap.ratio, math.sqrt(2.0) ** n, tolerance=chsh_mod.REL_TOL)
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
        worst <= 2.0 * math.sqrt(2.0) + chsh_mod.REL_TOL,
        True,
    )


COMMAND = Command(
    "quantum vs local-realist gap", (Option("--n", int, required=True), Option("--seed", int, 0)), run
)
