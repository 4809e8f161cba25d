"""bellcheck benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`, not
installed.  The workloads, metrics and bounds are declared in
`BENCHMARK.json`; `bench/workloads.py` turns the seed into argv lists and
`.obs` files, and `bench/oracle.py` checks every report.

--trace 0 runs each command as a child `python -m bellcheck ... --format
json`, one child at a time from this one process, repeating the workload's
command list for `--seconds` (at least two passes, so that every report's
digest is compared with a repeat).  It
prints the end-to-end metrics, computed from each command's median child
wall time over the passes: `wall_s` is their sum, `cmd_p50_s` their median,
`throughput_per_s` the protocol rounds (both Bob modes) per second of
`wall_s` on correlate workloads and the commands per second elsewhere.
`peak_rss_mib` is the largest `ru_maxrss` of any child, and `setup_s` the
median time a fresh interpreter takes to import `bellcheck.cli`.

On a shared VM the host's speed drifts by a third or more within a minute.
So after every PROBE_EVERY_S seconds of commands a probe times the import
(for `setup_s`) and then the bellcheck-free `bench/reference.py` child, and
each timing is scaled by REFERENCE_S over the mean of the reference times
just before and after it: the reported timings read as seconds on a host
where the reference takes REFERENCE_S.  The unscaled figures are printed
above the JSON line.

--trace 1 drives the same command lists in-process through
`bellcheck.cli.main`, alternating an untraced pass with a traced pass whose
spans come from `bench/spans.py`, and prints the median over traced passes
of each per-layer metric plus the tracing overhead (median traced minus
median untraced pass wall time).  These are unscaled; `host.reference_s`
gives the reference time they were measured at.  All spans are written to
`.bench_work/<workload>/spans.tsv`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `bench/collect.py` repeats
runs over seeds and writes the baseline, `bench/baseline.json`.
"""

from __future__ import annotations

import os

# Children inherit these; set before numpy loads here.  One BLAS thread keeps
# the dense kernels' timings independent of how many cores happen to be free.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bellcheck.cli; print(time.perf_counter() - t)"
)
REFERENCE = Path(__file__).resolve().with_name("reference.py")
# The reference child's typical wall time on a 2-core VM (Python 3.11,
# NumPy 2.4); fixed, so that scaled timings compare across runs and commits.
REFERENCE_S = 0.35
# Probes are taken at the start of a run and then whenever a command ends
# PROBE_EVERY_S seconds of command time after the last one.
PROBES_AT_START = 2
PROBE_EVERY_S = 1.0
MIN_PASSES = 2
# Per-layer metrics that this file, not bench/spans.py, computes.
RUN_LAYER_METRICS = ("cli.import_s", "host.reference_s", "trace.overhead_s", "trace.overhead_frac")


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit 2."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _probe_child(argv: list[str], what: str) -> tuple[float, str]:
    start = time.perf_counter()
    out = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise BenchError(f"{what} failed: {out.stderr.strip()[-500:]}")
    return wall, out.stdout


class Timeline:
    """Timings in the order they were taken, reference samples among them.

    `scaled(key)` scales each timing under `key` by REFERENCE_S over the
    mean of the reference samples taken just before and just after it (the
    one there is, at either end), so that it reads as seconds on a host
    where the reference takes REFERENCE_S.
    """

    REF = "reference"

    def __init__(self):
        self.events: list[tuple[object, float]] = []

    def add(self, key, seconds: float) -> None:
        self.events.append((key, seconds))

    def unscaled(self, key) -> list[float]:
        return [seconds for k, seconds in self.events if k == key]

    def scaled(self, key) -> list[float]:
        out = []
        before = None
        waiting: list[float] = []
        for k, seconds in self.events:
            if k == self.REF:
                for t in waiting:
                    out.append(t * REFERENCE_S / ((before + seconds) / 2 if before is not None else seconds))
                waiting, before = [], seconds
            elif k == key:
                waiting.append(seconds)
        if waiting and before is None:
            raise BenchError("no reference sample was taken")
        out += [t * REFERENCE_S / before for t in waiting]
        return out


def take_probe(timeline: Timeline) -> None:
    """Time `import bellcheck.cli` in a fresh interpreter, then the reference child."""
    _, out = _probe_child([sys.executable, "-c", IMPORT_PROBE], "importing bellcheck.cli")
    timeline.add("setup", float(out))
    wall, _ = _probe_child([sys.executable, str(REFERENCE)], "the reference child")
    timeline.add(Timeline.REF, wall)


# --- untraced: one child per command --------------------------------------


def run_child(command) -> tuple[float, float, int, str]:
    """(wall s, peak RSS MiB, exit code, stdout) of one child run."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellcheck", *command.argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
        )
        with proc.stdout:
            out = proc.stdout.read()
        # wait4, not RUSAGE_CHILDREN: the latter accumulates over all children.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.decode(errors="replace")


def run_untraced(commands, seconds: float, checker, timeline: Timeline, probe) -> tuple[dict, int, int]:
    """Scaled end-to-end metrics; `probe` runs every PROBE_EVERY_S s of commands."""
    peak_rss = 0.0
    attempted = failed = 0
    since_probe = 0.0
    started = time.perf_counter()
    # The command list repeats, and the run stops at the first command
    # boundary past `seconds` once every command has run MIN_PASSES times.
    for attempt in itertools.count():
        if attempt >= MIN_PASSES * len(commands) and time.perf_counter() - started >= seconds:
            break
        index = attempt % len(commands)
        command = commands[index]
        wall, rss, code, out = run_child(command)
        timeline.add(index, wall)
        peak_rss = max(peak_rss, rss)
        attempted += 1
        failed += checker(command, code, out)
        since_probe += wall
        if since_probe >= PROBE_EVERY_S:
            probe()
            since_probe = 0.0
    probe()  # so that the last commands have a reference sample after them
    print(f"{attempted} runs of {len(commands)} commands in {time.perf_counter() - started:.1f} s")
    references = timeline.unscaled(Timeline.REF)
    print(f"reference child: median {statistics.median(references):.4f} s "
          f"over {len(references)} samples, scaled to {REFERENCE_S} s")
    unscaled = _figures(commands, timeline.unscaled, peak_rss)
    for name, value in unscaled.items():
        print(f"  unscaled {name:<31} {value:>14.6g}")
    return _figures(commands, timeline.scaled, peak_rss), attempted, failed


def _figures(commands, samples, peak_rss: float) -> dict:
    # On a shared machine a child is now and then slowed by a third or more.
    # Taking each command's median over the passes first keeps such moments
    # out of the run's figures.  A run ends mid-pass, so sample counts differ
    # by one between commands; median_low would take the lower middle value
    # of an even count, and so shift with where the run happened to end.
    typical = [statistics.median(samples(index)) for index in range(len(commands))]
    wall = sum(typical)
    rounds = sum(c.rounds for c in commands)
    return {
        "wall_s": wall,
        "throughput_per_s": (rounds or len(commands)) / wall,
        "cmd_p50_s": statistics.median(typical),
        "peak_rss_mib": peak_rss,
        "setup_s": statistics.median(samples("setup")),
    }


# --- traced: in-process ---------------------------------------------------


def run_inprocess(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
    if code != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return code, out.getvalue()


def run_traced(commands, seconds: float, checker, workload: str, names, probe=lambda: None) -> tuple[dict, int, int]:
    """Per-layer metrics `names` and the tracing overhead; `probe` runs after each pair of passes."""
    import spans
    from bellcheck import cli

    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    recorded: list[list] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        # Alternate which pass of a pair goes first, so warm-up and drift
        # do not bias the overhead.
        for mode in ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain"):
            missing = tracer.install() if mode == "traced" else []
            for name in missing:
                print(f"warning: trace target {name} not found", file=sys.stderr)
            pass_start = time.perf_counter()
            for command in commands:
                tracer.command += 1
                if mode == "traced":
                    code, out = tracer.call(spans.MAIN, run_inprocess, cli.main, command.argv)
                else:
                    code, out = run_inprocess(cli.main, command.argv)
                attempted += 1
                failed += checker(command, code, out)
            wall = time.perf_counter() - pass_start
            if mode == "traced":
                tracer.uninstall()
                span_list, counters = tracer.take()
                recorded.append(span_list)
                per_pass.append(spans.layer_metrics(span_list, counters, names))
                traced.append(wall)
            else:
                plain.append(wall)
        probe()
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pair_start) > seconds:
            break
    spans.write_tsv(WORK / workload / "spans.tsv", recorded)
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
    print(f"pairs of untraced and traced passes: {len(traced)}")
    return metrics, attempted, failed


# --- entry point -----------------------------------------------------------


def make_checker():
    import oracle

    digests = oracle.Digests()

    def checker(command, code, out) -> int:
        problems = oracle.check(command, code, out)
        if code == 0:
            problems += digests.check(command, out)
        for problem in problems:
            print(f"FAILED {command.key}: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "bellcheck" / "__init__.py").is_file():
            raise BenchError(f"no bellcheck package under {SRC}; run from a checkout's root")
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        import workloads

        WORK.mkdir(exist_ok=True)
        commands = workloads.build(args.workload, args.seed, WORK / args.workload)
        timeline = Timeline()
        take_probe(Timeline())  # warm-up: writes the bytecode caches
        for _ in range(PROBES_AT_START):
            take_probe(timeline)

        checker = make_checker()
        if args.trace:
            declared = spec["per_layer"]
            names = [m["name"] for m in declared if m["name"] not in RUN_LAYER_METRICS]
            metrics, attempted, failed = run_traced(
                commands, args.seconds, checker, args.workload, names, lambda: take_probe(timeline)
            )
            metrics["cli.import_s"] = statistics.median(timeline.unscaled("setup"))
            metrics["host.reference_s"] = statistics.median(timeline.unscaled(Timeline.REF))
        else:
            declared = spec["end_to_end"]
            metrics, attempted, failed = run_untraced(
                commands, args.seconds, checker, timeline, lambda: take_probe(timeline)
            )
        undeclared = [m["name"] for m in declared if m["name"] not in metrics]
        if undeclared:
            raise BenchError(f"BENCHMARK.json declares metrics this benchmark lacks: {undeclared}")
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = {}
    for entry in declared:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<40} {value:>14.6g} {entry['unit']}")
    print(f"{'failed_frac':<40} {failed / attempted:>14.6g} ratio ({failed} of {attempted} commands)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
