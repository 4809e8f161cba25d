"""Tests of the benchmark's own parts: generator, span arithmetic, oracle, and
a tiny run of every workload.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from bellcheck import build_parity_system, parse_document, solve, validate  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


def _files(commands) -> dict[str, str]:
    return {
        Path(c.args[-1]).name: Path(c.args[-1]).read_text(encoding="utf-8")
        for c in commands
        if "--file" in c.args
    }


# --- generator -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_commands(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    second = workloads.build(name, 7, tmp_path / "b")
    assert [c.key.replace(str(tmp_path / "a"), "") for c in first] == [
        c.key.replace(str(tmp_path / "b"), "") for c in second
    ]
    assert _files(first) == _files(second)


def test_other_seed_other_inputs(tmp_path):
    first = workloads.build("verdicts", 1, tmp_path / "a")
    second = workloads.build("verdicts", 2, tmp_path / "b")
    a, b = _files(first), _files(second)
    assert a.keys() == b.keys()
    assert all(a[k] != b[k] for k in a)
    assert workloads.build("correlate-small", 1, tmp_path) != workloads.build("correlate-small", 2, tmp_path)


def test_generated_files_validate_and_have_the_expected_verdict(tmp_path):
    commands = [c for c in workloads.build("verdicts", 3, tmp_path) if "--file" in c.args]
    assert {c.expect["result"] for c in commands} == {"SAT", "UNSAT"}
    for command in commands:
        system = parse_document(Path(command.args[-1]).read_text(encoding="utf-8"))
        assert validate(system).ok
        result = solve(build_parity_system(system))
        assert ("SAT" if result.satisfiable else "UNSAT") == command.expect["result"]


def test_check_physical_rejects_a_non_commuting_context():
    with pytest.raises(ValueError, match="fails validation"):
        workloads.check_physical("qubits 1\nset X1, Y1\n")


# --- span arithmetic -------------------------------------------------------


def _tree() -> list[spans.Span]:
    # main [0, 10]
    #   a [1, 4]
    #     a [2, 3]        nested span of the same name
    #   b [5, 9]
    #     c [6, 8]
    return [
        spans.Span("main", 0.0, 10.0, -1, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("a", 2.0, 3.0, 1, 1),
        spans.Span("b", 5.0, 9.0, 0, 1),
        spans.Span("c", 6.0, 8.0, 3, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_busy_time_counts_nested_spans_once():
    tree = _tree()
    assert spans.busy_times(tree) == {"main": 10.0, "a": 3.0, "b": 4.0, "c": 2.0}
    assert spans.covered(tree, ("b", "c")) == 4.0
    assert spans.covered(tree, ("a", "c")) == 5.0


def test_layer_metrics_follow_the_declared_names():
    tree = [
        spans.Span("cli.main", 0.0, 10.0, -1, 1),
        spans.Span("states.apply_pauli", 1.0, 4.0, 0, 1),
        spans.Span("states.measure_context", 5.0, 9.0, 0, 1),
        spans.Span("states.apply_pauli", 6.0, 8.0, 2, 1),
    ]
    names = [
        "states.apply_pauli.calls",
        "states.apply_pauli.busy_s",
        "states.measure_context.self_s",
        "dsl.bytes",
        "parity.rows",
        "states.kernel_share",
        "trace.spans",
    ]
    assert spans.layer_metrics(tree, {"dsl.bytes": 5}, names) == {
        "states.apply_pauli.calls": 2,
        "states.apply_pauli.busy_s": 5.0,
        "states.measure_context.self_s": 2.0,
        "dsl.bytes": 5,
        "parity.rows": 0,
        "states.kernel_share": 0.7,
        "trace.spans": 4,
    }
    for unknown in ("states.apply_pauli.typo", "nosuch.calls", "cli.import_s"):
        with pytest.raises(ValueError, match="no per-layer metric"):
            spans.layer_metrics(tree, {}, [unknown])


def test_tracer_records_parents_and_restores_functions():
    from bellcheck import cli, protocol, states

    original = states.measure_context
    tracer = spans.Tracer()
    assert tracer.install() == []
    assert protocol.measure_context is not original
    assert protocol.measure_context is states.measure_context
    try:
        run.run_inprocess(cli.main, ["correlate", "--n", "2", "--shots", "1", "--format", "json"])
    finally:
        tracer.uninstall()
    assert protocol.measure_context is original
    recorded, _ = tracer.take()
    names = [s.name for s in recorded]
    assert names.count("protocol.run_round") == 2
    for s in recorded:
        if s.name == "states.measure_context":
            assert recorded[s.parent].name == "protocol.run_round"


def test_timeline_scales_by_the_reference_samples_around_each_timing():
    timeline = run.Timeline()
    r = run.REFERENCE_S
    for key, seconds in [(0, 1.0), ("ref", 2 * r), (0, 3.0), (1, 5.0), ("ref", 4 * r), (0, 6.0)]:
        timeline.add(run.Timeline.REF if key == "ref" else key, seconds)
    # 1.0 has a sample only after it, 3.0 sits between 2r and 4r, 6.0 only before.
    assert timeline.scaled(0) == pytest.approx([0.5, 1.0, 1.5])
    assert timeline.scaled(1) == pytest.approx([5.0 / 3])
    assert timeline.unscaled(0) == [1.0, 3.0, 6.0]
    with pytest.raises(run.BenchError):
        bare = run.Timeline()
        bare.add(0, 1.0)
        bare.scaled(0)


# --- oracle ----------------------------------------------------------------


def _report(**fields) -> str:
    return json.dumps({"command": "x", "passed": True, "checks": [], **fields}, indent=2)


def test_oracle_fails_a_wrong_verdict():
    command = workloads.verdict("bks", "solve", "--n", "3", result="UNSAT")
    assert oracle.check(command, 0, _report(result="UNSAT")) == []
    assert oracle.check(command, 0, _report(result="SAT"))
    assert run.make_checker()(command, 0, _report(result="SAT")) == 1


def test_oracle_fails_bad_exit_and_failed_report():
    command = workloads.verdict("verify", "square")
    assert oracle.check(command, 1, _report())
    assert oracle.check(command, 0, _report(passed=False))
    assert oracle.check(command, 0, "Traceback (most recent call last):")


def _correlate(rate: float, conclusive: float, products: float) -> str:
    fields = {}
    for mode in oracle.MODES:
        fields[f"{mode}_equality_rate"] = rate
        fields[f"{mode}_conclusive_fraction"] = conclusive
        fields[f"{mode}_product_pass_rates"] = {"0": products}
    return _report(**fields)


def test_oracle_exact_regime_needs_exact_rates():
    command = workloads.correlate(3, 1000, seed=1)
    assert oracle.check(command, 0, _correlate(1.0, 1.0, 1.0)) == []
    assert oracle.check(command, 0, _correlate(0.999, 1.0, 1.0))
    assert oracle.check(command, 0, _correlate(1.0, 1.0, 0.999))


def test_oracle_noisy_regime_bands():
    command = workloads.correlate(3, 10000, seed=1, noise=0.05, efficiency=0.9)
    equal = 0.95**2 + 0.05**2
    assert oracle.check(command, 0, _correlate(equal, 0.81, 0.9)) == []
    assert oracle.check(command, 0, _correlate(equal - 0.05, 0.81, 0.9))
    assert oracle.check(command, 0, _correlate(equal, 0.76, 0.9))


def test_digest_must_repeat():
    digests = oracle.Digests()
    command = workloads.verdict("verify", "square")
    assert digests.check(command, _report()) == []
    assert digests.check(command, _report()) == []
    assert digests.check(command, _report(extra=1))


# --- tiny run of every workload -----------------------------------------------


def _tiny(commands):
    """One command of each kind, with correlate cut to two shots."""
    out, seen = [], set()
    for c in commands:
        if c.kind == "correlate":
            e = c.expect
            c = workloads.correlate(e["n"], 2, 5, e["noise"], e["efficiency"])
        kind = (c.args[0], c.expect.get("result"), c.expect.get("noise"), c.expect.get("n"))
        if kind not in seen:
            seen.add(kind)
            out.append(c)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    commands = _tiny(workloads.build(name, 11, tmp_path / "inputs"))
    timeline = run.Timeline()

    def probe():  # a host exactly as fast as the reference
        timeline.add("setup", 0.1)
        timeline.add(run.Timeline.REF, run.REFERENCE_S)

    probe()
    metrics, attempted, failed = run.run_untraced(commands, 0.0, run.make_checker(), timeline, probe)
    assert (attempted, failed) == (run.MIN_PASSES * len(commands), 0)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(value > 0 for value in metrics.values())
    assert metrics["setup_s"] == pytest.approx(0.1)

    names = [m["name"] for m in SPEC["per_layer"] if m["name"] not in run.RUN_LAYER_METRICS]
    metrics, attempted, failed = run.run_traced(commands, 0.0, run.make_checker(), name, names)
    assert (attempted, failed) == (2 * len(commands), 0)
    assert {m["name"] for m in SPEC["per_layer"]} - set(metrics) == {"cli.import_s", "host.reference_s"}
    assert metrics["cli.main.busy_s"] > 0
    assert (tmp_path / name / "spans.tsv").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdicts", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "no bellcheck package" in out.stderr
