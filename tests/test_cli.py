"""Command surface: exit codes, report formats, determinism."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bellcheck
from bellcheck import cli, constructions, pauli, protocol, usage
from bellcheck.commands import correlate as correlate_command
from bellcheck.constructions import Context, ContextSystem, generalized_sets, ghz_contexts, mermin_square
from bellcheck.dsl import parse_document
from bellcheck.parity import build_parity_system, check_assignment, solve

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """The argv of every `bellcheck ...` line in the README, comments dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [line.split("#")[0].split()[1:] for line in lines if line.startswith("bellcheck ")]


def readme_python_blocks() -> list[str]:
    """The source of every ```python block in the README, in order."""
    text = README.read_text(encoding="utf-8")
    return [block.split("```")[0] for block in text.split("```python\n")[1:]]


def readme_obs() -> str:
    """The README's own `.obs` example, which `--file my.obs` reads."""
    return README.read_text(encoding="utf-8").split("## Observable files")[1].split("```")[1]


def write_readme_obs(directory: Path) -> None:
    """`my.obs` in `directory`: the README's `.obs` example."""
    (directory / "my.obs").write_text(readme_obs(), encoding="utf-8")


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package from `src`.

    A fresh interpreter, because any earlier test may have imported a module
    that a test asserts is never imported.
    """
    src = str(Path(bellcheck.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def fresh_main(argv, imported: str, cwd=None) -> str:
    """Run `cli.main(argv)` in a fresh interpreter: "<exit code> <whether `imported` loaded>"."""
    script = (
        "import sys\n"
        "from bellcheck import cli\n"
        f"code = cli.main({[*argv, '--format', 'json']!r})\n"
        f"print(code, {imported!r} in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(),
        cwd=cwd, timeout=120,
    )
    assert result.stderr == ""
    return result.stdout.splitlines()[-1]


# Commands that must run without numpy: every command.
VERDICTS = [
    ["verify", "square"],
    ["verify", "sets", "--n", "13"],
    ["bks", "solve", "--n", "13"],
    ["bks", "solve", "--file", "my.obs"],
    ["eigencheck", "--n", "13"],
    ["ghz", "--grouping", "tripartite"],
    ["ghz", "--grouping", "bipartite"],
    ["chsh", "--n", "5", "--seed", "7"],
    ["chsh", "--n", "682"],
]
SMALL_RUNS = [
    *(
        ["correlate", "--n", str(n), "--shots", str(shots), *regime]
        for n, shots in ((2, 300), (3, 250), (5, 200), (7, 50), (9, 3))
        for regime in ([], ["--noise", "0.05", "--efficiency", "0.9"])
    ),
    ["correlate", "--n", "13", "--shots", "200"],
    ["correlate", "--n", "3", "--shots", "0"],
    ["correlate", "--n", "13", "--shots", "5800", "--noise", "0.05", "--efficiency", "0.9"],
]
# A larger noisy run, which before 0.8.0 drew 68,000 and 112,500 Philox
# blocks of the per-shot layout and ran on a numpy kernel.
LARGE_RUN = ["correlate", "--n", "13", "--shots", "10000", "--noise", "0.05", "--efficiency", "0.9"]
# The bellcheck modules each command loads besides `bellcheck`, `bellcheck.cli`
# and `bellcheck.commands`: its own handler module and the modules it runs.
# `bks solve --file` also loads `dsl`.
COMMAND_MODULES = {
    "verify": "commands.verify constructions parity pauli",
    "bks": "commands.bks constructions parity pauli",
    "eigencheck": "commands.eigencheck constructions pauli tableau",
    "ghz": "commands.ghz constructions parity pauli tableau",
    "chsh": "chsh commands.chsh pauli tableau",
    "correlate": "commands.correlate constructions pauli protocol rng tableau",
}


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_json_is_byte_identical(self, capsys, tmp_path, monkeypatch, argv):
        write_readme_obs(tmp_path)
        monkeypatch.chdir(tmp_path)
        first = run(capsys, [*argv, "--format", "json"])
        second = run(capsys, [*argv, "--format", "json"])
        assert first[0] == 0, first[2]
        assert first == second
        assert json.loads(first[1])["passed"] is True

    def test_examples_are_in_the_report_corpus(self):
        """`tests/golden/` pins every example's report, and its `my.obs` is the README's."""
        corpus = json.loads((REPO / "tests" / "golden" / "corpus.json").read_text(encoding="utf-8"))
        recorded = [e["argv"] for e in corpus]
        assert all([*argv, "--format", "json"] in recorded for argv in readme_examples())
        assert (REPO / "tests" / "golden" / "my.obs").read_text(encoding="utf-8") == readme_obs()

    def test_python_blocks_run(self):
        """The library examples run in order in one namespace, as a reader would paste them."""
        blocks = readme_python_blocks()
        assert len(blocks) == 2
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)


class TestVerify:
    def test_square_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "square"])
        assert code == 0
        assert "result: PASS" in out

    def test_sets_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "sets", "--n", "5"])
        assert code == 0
        assert "result: PASS" in out

    def test_sets_rejects_even_n(self, capsys):
        code, out, err = run(capsys, ["verify", "sets", "--n", "4"])
        assert code == 2
        assert (out, err) == ("", "error: --n must be odd in 3..13, got 4\n")

    def test_json_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["verify", "square", "--format", "json"])
        _, second, _ = run(capsys, ["verify", "square", "--format", "json"])
        assert first == second
        payload = json.loads(first)
        assert payload["command"] == "verify square"
        assert payload["passed"] is True
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5]
        assert all(c["passed"] for c in payload["checks"])

    @pytest.fixture
    def tampered(self, monkeypatch):
        """The square with context 0 declared -1, which `verify square` then checks."""
        contexts = list(mermin_square().contexts)
        contexts[0] = Context(contexts[0].observables, -1)
        system = ContextSystem(2, tuple(contexts))
        monkeypatch.setattr(constructions, "mermin_square", lambda: system)
        return system

    def test_failure_exits_one(self, capsys, tampered):
        code, out, _ = run(capsys, ["verify", "square"])
        assert code == 1
        assert "FAIL" in out

    def test_failure_reports_its_assignment(self, capsys, tampered):
        """Two contexts declared -1 have a value assignment, and the report shows it."""
        code, out, _ = run(capsys, ["verify", "square", "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] == "SAT"
        ps = build_parity_system(tampered)
        assert list(payload["assignment"]) == [str(v) for v in ps.variables]
        assert check_assignment(ps, {v: payload["assignment"][str(v)] for v in ps.variables})
        checks = {c["name"]: c["passed"] for c in payload["checks"]}
        assert checks["value assignment exists"] is False
        assert checks["assignment verifies"] is True
        assert "certificate rows" not in checks


class TestBksSolve:
    def test_builtin_family(self, capsys):
        code, out, _ = run(capsys, ["bks", "solve", "--n", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "UNSAT"
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5, 6]
        assert (payload["variables"], payload["rows"]) == (16, 7)

    def test_builtin_family_rejects_even_n(self, capsys):
        code, out, err = run(capsys, ["bks", "solve", "--n", "4", "--format", "json"])
        assert code == 2
        assert (out, err) == ("", "error: --n must be odd in 3..13, got 4\n")

    @pytest.mark.parametrize("given", [["--n", "3", "--file", "my.obs"], []], ids=["both", "neither"])
    def test_needs_exactly_one_of_n_or_file(self, capsys, tmp_path, monkeypatch, given):
        write_readme_obs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["bks", "solve", *given, "--format", "json"])
        assert (code, out, err) == (2, "", "error: bks solve needs exactly one of --n or --file\n")

    @pytest.mark.parametrize("argv", [["bks", "solve"], ["verify", "sets"]], ids=" ".join)
    def test_n_two_is_refused_where_the_square_is_no_member(self, capsys, argv):
        """`correlate` and `eigencheck` take `--n 2` as the square; these two commands check the odd family."""
        code, out, err = run(capsys, [*argv, "--n", "2", "--format", "json"])
        assert (code, out, err) == (2, "", "error: --n must be odd in 3..13, got 2\n")

    def test_satisfiable_file(self, capsys, tmp_path):
        path = tmp_path / "simple.obs"
        path.write_text("qubits 2\nset Z1, Z2, Z1 Z2 = +1\n")
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "SAT"
        assert set(payload["assignment"].values()) <= {1, -1}

    def test_unsatisfiable_file(self, capsys, tmp_path):
        path = tmp_path / "square.obs"
        path.write_text(
            "qubits 2\n"
            "set X1, X2, X1 X2\n"
            "set Z2, Z1, Z1 Z2\n"
            "set X1 Z2, Z1 X2, Y1 Y2\n"
            "set X1, Z2, X1 Z2\n"
            "set X2, Z1, Z1 X2\n"
            "set X1 X2, Z1 Z2, Y1 Y2 = -1\n"
        )
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "UNSAT"
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("first", ["set X1, X2, X1 X2, - I = -1", "set X1, X2, X1 X2, I"])
    def test_square_with_a_scalar_word_is_unsat(self, capsys, tmp_path, first):
        """`I` is +1 and `- I` is -1 in every assignment, so either file is the square."""
        path = tmp_path / "square.obs"
        path.write_text(
            f"qubits 2\n{first}\n"
            "set Z2, Z1, Z1 Z2\n"
            "set X1 Z2, Z1 X2, Y1 Y2\n"
            "set X1, Z2, X1 Z2\n"
            "set X2, Z1, Z1 X2\n"
            "set X1 X2, Z1 Z2, Y1 Y2 = -1\n"
        )
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["result"], payload["variables"], payload["rows"]) == ("UNSAT", 10, 7)
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["checks"][0]["passed"]

    def test_square_with_a_negated_word_is_unsat(self, capsys, tmp_path):
        """`- Y1 Y2` in one context and `Y1 Y2` in another are one observable, so this is the square."""
        path = tmp_path / "square.obs"
        path.write_text(
            "qubits 2\n"
            "set X1, X2, X1 X2\n"
            "set Z2, Z1, Z1 Z2\n"
            "set X1 Z2, Z1 X2, - Y1 Y2 = -1\n"
            "set X1, Z2, X1 Z2\n"
            "set X2, Z1, Z1 X2\n"
            "set X1 X2, Z1 Z2, Y1 Y2 = -1\n"
        )
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["result"], payload["variables"], payload["rows"]) == ("UNSAT", 10, 7)
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["checks"][0]["passed"]

    def test_square_with_a_byte_order_mark_and_crlf_is_unsat(self, capsys, tmp_path):
        """A UTF-8 file as Windows editors write it: a byte-order mark and CRLF line ends."""
        path = tmp_path / "square.obs"
        text = (
            "qubits 2\r\n"
            "set X1, X2, X1 X2\r\n"
            "set Z2, Z1, Z1 Z2\r\n"
            "set X1 Z2, Z1 X2, Y1 Y2\r\n"
            "set X1, Z2, X1 Z2\r\n"
            "set X2, Z1, Z1 X2\r\n"
            "set X1 X2, Z1 Z2, Y1 Y2 = -1\r\n"
        )
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["result"], payload["certificate"]) == ("UNSAT", [0, 1, 2, 3, 4, 5])
        assert payload["checks"][0]["passed"]

    def test_a_file_that_is_not_utf8_exits_two_with_one_line(self, capsys, tmp_path):
        """A UTF-16 byte-order mark is not UTF-8: the decode error is the one `error:` line."""
        path = tmp_path / "utf16.obs"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("line,word,value", [("set I", "I", 1), ("set - I = -1", "- I", -1)])
    def test_a_lone_scalar_word_takes_its_eigenvalue(self, capsys, tmp_path, line, word, value):
        path = tmp_path / "scalar.obs"
        path.write_text(f"qubits 1\n{line}\n")
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["result"], payload["rows"], payload["assignment"]) == ("SAT", 2, {word: value})

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("qubits 1\nset Z1 = +1\nset Z1 = -1\n", "context 0: product is not +-identity"),
            ("qubits 1\nset X1 = -1\nset X1 = +1\n", "context 0: product is not +-identity"),
            ("qubits 1\nset X1, Y1\n", "context 0: observables X1 and Y1 do not commute"),
            ("qubits 1\nset i X1, -i X1\n", "context 0: observable i X1 is not Hermitian"),
            ("qubits 2\nset Z1, Z2, Z1 Z2\nset Z1, Z1 = -1\n", "context 1: product is +1 * identity, declared -1"),
        ],
    )
    def test_non_physical_file_exits_two(self, capsys, tmp_path, text, problem):
        # The error is one line even when the file's name holds a line break.
        for name, shown in (("bad.obs", "bad.obs"), ("bad\nname.obs", "bad name.obs")):
            path = tmp_path / name
            path.write_text(text)
            code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
            assert code == 2
            assert out == ""
            assert err == f"error: {tmp_path / shown}: {problem}\n"

    @pytest.mark.parametrize(
        "qubits,message",
        [
            ("4097", "qubits must be at most 4096, got 4097"),
            ("1000000000000000000", "qubits must be at most 4096, got 1000000000000000000"),
            ("\u00b2", "qubits needs a positive integer, got '\u00b2'"),
            ("\u0663", "qubits needs a positive integer, got '\u0663'"),
        ],
    )
    def test_refused_register_exits_two_with_one_line(self, capsys, tmp_path, qubits, message):
        path = tmp_path / "big.obs"
        path.write_text(f"qubits {qubits}\nset Z1, Z2, Z1 Z2\n", encoding="utf-8")
        code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert (code, out, err) == (2, "", f"error: line 1, column 1: {message}\n")

    def test_largest_register_solves(self, capsys, tmp_path):
        path = tmp_path / "wide.obs"
        path.write_text("qubits 4096\nset Z4096, Z1, Z1 Z4096\n")
        code, out, _ = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"] == "SAT"

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.obs"
        path.write_text("qubits 2\nset X9\n")
        code, _, err = run(capsys, ["bks", "solve", "--file", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, ["bks", "solve", "--file", "/nonexistent.obs"])
        assert code == 2
        assert "error" in err

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bks", "solve"])
        assert code == 2
        path = tmp_path / "x.obs"
        path.write_text("qubits 1\nset Z1\n")
        code, _, err = run(capsys, ["bks", "solve", "--n", "3", "--file", str(path)])
        assert code == 2

    def test_form_feed_in_a_comment_is_a_comment(self, capsys, tmp_path):
        path = tmp_path / "page.obs"
        path.write_text("qubits 2\n# page\x0cbreak\nset Z1, Z2, Z1 Z2\n", encoding="utf-8")
        code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["assignment"] == {"Z1": 1, "Z2": 1, "Z1 Z2": 1}


# Every SAT/UNSAT report, with the parity system it decides, built here.
VERDICT_REPORTS = [
    pytest.param(argv, system, id=" ".join(argv))
    for argv, system in (
        (["verify", "square"], lambda: build_parity_system(mermin_square())),
        (["verify", "sets", "--n", "3"], lambda: build_parity_system(generalized_sets(3))),
        (["bks", "solve", "--n", "3"], lambda: build_parity_system(generalized_sets(3))),
        (["bks", "solve", "--file", "my.obs"], lambda: build_parity_system(parse_document(readme_obs()))),
        (["ghz", "--grouping", "tripartite"], lambda: ghz_contexts("tripartite")),
        (["ghz", "--grouping", "bipartite"], lambda: ghz_contexts("bipartite")),
    )
]


class TestVerdictShape:
    """Every SAT/UNSAT report has one shape: its verdict, its sizes, then its witness and one check of it."""

    @pytest.mark.parametrize("argv,system", VERDICT_REPORTS)
    def test_one_shape(self, capsys, tmp_path, monkeypatch, argv, system):
        write_readme_obs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        ps = system()
        result = "SAT" if solve(ps).satisfiable else "UNSAT"
        witness = "assignment" if result == "SAT" else "certificate"
        # The key order is part of the report's bytes.
        keys = list(payload)
        assert keys[keys.index("passed") + 1:][:4] == ["result", "variables", "rows", witness]
        verdict = (payload["result"], payload["variables"], payload["rows"])
        assert verdict == (result, len(ps.variables), len(ps.rows))
        verified = [c["name"] for c in payload["checks"] if c["name"].endswith(" verifies") and c["passed"]]
        assert verified == [f"{witness} verifies"]
        # The paper's expectation, where there is one, is checked once, just before the witness.
        names = [c["name"] for c in payload["checks"]]
        expectation = [] if argv[0] == "bks" else ["value assignment exists"]
        assert [name for name in names if name == "value assignment exists"] == expectation
        if expectation:
            assert names[names.index(f"{witness} verifies") - 1] == "value assignment exists"


class TestNameTraffic:
    """A verdict names a variable (`format_pauli` of its word) only where its report prints it."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        calls = []
        real = pauli.format_pauli

        def counting(op):
            calls.append(real(op))
            return calls[-1]

        monkeypatch.setattr(pauli, "format_pauli", counting)
        return calls

    @pytest.mark.parametrize("argv", [["verify", "sets", "--n", "13"], ["bks", "solve", "--n", "13"]], ids=" ".join)
    def test_unsat_verdict_formats_no_variable(self, capsys, formatted, argv):
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert "certificate" in json.loads(out)
        assert formatted == []

    def test_sat_report_formats_each_variable_once(self, capsys, formatted, monkeypatch):
        monkeypatch.chdir(REPO / "tests" / "golden")
        code, out, _ = run(capsys, ["bks", "solve", "--file", "verdicts-1/diag-a.obs", "--format", "json"])
        payload = json.loads(out)
        assert (code, payload["result"]) == (0, "SAT")
        assert len(formatted) == payload["variables"]
        assert formatted == list(payload["assignment"])  # each name once, in report order


class TestGhz:
    @pytest.mark.parametrize("grouping,result", [("tripartite", "UNSAT"), ("bipartite", "SAT")])
    def test_groupings(self, capsys, grouping, result):
        code, out, _ = run(capsys, ["ghz", "--grouping", grouping, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == result
        assert payload["passed"] is True

    def test_grouping_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ghz"])
        assert exc.value.code == 2


class TestCorrelate:
    def test_exact_regime_checks(self, capsys):
        code, out, _ = run(
            capsys,
            ["correlate", "--n", "2", "--shots", "200", "--seed", "3", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alone_equality_rate"] == 1.0
        assert payload["in_context_equality_rate"] == 1.0

    def test_noisy_regime_reports_without_thresholds(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "correlate", "--n", "3", "--shots", "100", "--noise", "0.2",
                "--efficiency", "0.9", "--seed", "5", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] == []
        assert 0.0 <= payload["alone_equality_rate"] <= 1.0

    def test_seed_determinism(self, capsys):
        argv = ["correlate", "--n", "2", "--shots", "100", "--noise", "0.3",
                "--seed", "11", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("n", [11, 13])
    def test_large_n_runs_on_the_tableau(self, capsys, n):
        code, out, _ = run(
            capsys,
            ["correlate", "--n", str(n), "--shots", "200", "--seed", "1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4
        assert all(c["passed"] for c in payload["checks"])

    def test_bad_n_exits_two(self, capsys):
        code, _, err = run(capsys, ["correlate", "--n", "4", "--shots", "10"])
        assert code == 2
        assert "odd" in err
        code, _, err = run(capsys, ["correlate", "--n", "15", "--shots", "10"])
        assert code == 2
        assert err == "error: --n must be 2 (square) or odd in 3..13, got 15\n"

    @pytest.mark.parametrize(
        "seed,shots",
        [
            ("18446744073709551617", "200"),  # 2**64 + 1 would alias seed 1
            ("-5", "0"),  # checked even when no shot runs
        ],
    )
    def test_bad_seed_exits_two_with_one_line(self, capsys, seed, shots):
        argv = ["correlate", "--n", "3", "--shots", shots, "--noise", "0.1",
                "--efficiency", "0.9", "--seed", seed, "--format", "json"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed and entry index must be non-negative and below 2**64\n"

    @pytest.mark.parametrize("shots", ["18446744073709551617", "100000000000000000000"])
    def test_shots_past_the_key_range_exit_two_at_once(self, capsys, shots):
        """Counts past 2**64, like any count above `MAX_SHOTS`, are refused before any shot is sampled."""
        argv = ["correlate", "--n", "3", "--shots", shots, "--format", "json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --shots must be at most 100000000, got {shots}\n"

    def test_shots_above_the_cap_exit_two_before_any_work(self, capsys, monkeypatch):
        """A count above `MAX_SHOTS` is refused before the system is built or a round compiled."""
        assert correlate_command.MAX_SHOTS == 10**8
        monkeypatch.setattr(correlate_command, "_system", lambda *args: pytest.fail("built the system"))
        monkeypatch.setattr(protocol, "run_experiment", lambda *args, **kwargs: pytest.fail("ran"))
        argv = ["correlate", "--n", "13", "--shots", str(10**8 + 1), "--noise", "0.1", "--format", "json"]
        assert run(capsys, argv) == (2, "", "error: --shots must be at most 100000000, got 100000001\n")

    def test_zero_shots_still_checks_efficiency(self, capsys):
        argv = ["correlate", "--n", "2", "--shots", "0", "--efficiency", "7", "--format", "json"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert (out, err) == ("", "error: efficiency must be in (0, 1], got 7.0\n")

    @pytest.mark.parametrize("regime", [[], ["--noise", "0.1", "--efficiency", "0.9"]])
    def test_never_imports_numpy_random(self, regime):
        """Draws come from the plain-int Philox in `rng`, never from NumPy's generator."""
        argv = ["correlate", "--n", "3", "--shots", "300", *regime]
        assert fresh_main(argv, "numpy.random") == "0 False"

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=" ".join)
    def test_small_runs_never_import_numpy(self, argv):
        """Runs read plain-int Philox blocks; numpy's import would dominate them."""
        assert fresh_main(argv, "numpy") == "0 False"

    def test_large_noisy_run_loads_no_numpy_and_repeats_its_report(self, capsys):
        assert fresh_main(LARGE_RUN, "numpy") == "0 False"
        first = run(capsys, [*LARGE_RUN, "--format", "json"])
        assert first[0] == 0
        assert run(capsys, [*LARGE_RUN, "--format", "json"]) == first


class TestChsh:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, ["chsh", "--n", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "quantum value (factorized)" in names
        assert "quantum value (tableau)" in names
        assert payload["passed"] is True

    def test_large_n_skips_dense(self, capsys):
        code, out, _ = run(capsys, ["chsh", "--n", "6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "quantum value (tableau)" not in names

    @pytest.mark.parametrize("n", ["0", "683", "1100"])
    def test_out_of_range_n_exits_two(self, capsys, n):
        code, out, err = run(capsys, ["chsh", "--n", n, "--format", "json"])
        assert code == 2
        assert out == ""
        assert err == f"error: --n must be in 1..682, got {n}\n"

    def test_negative_seed_exits_two_with_one_line(self, capsys):
        code, out, err = run(capsys, ["chsh", "--n", "1", "--seed", "-1", "--format", "json"])
        assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")

    def test_largest_n_passes(self, capsys):
        code, out, _ = run(capsys, ["chsh", "--n", "682", "--format", "json"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_seed_determinism(self, capsys):
        _, first, _ = run(capsys, ["chsh", "--n", "1", "--seed", "7", "--format", "json"])
        _, second, _ = run(capsys, ["chsh", "--n", "1", "--seed", "7", "--format", "json"])
        assert first == second


class TestEigencheck:
    @pytest.mark.parametrize("n", [2, 3])
    def test_builtin_families(self, capsys, n):
        code, out, _ = run(capsys, ["eigencheck", "--n", str(n), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        expected = 9 if n == 2 else 3 * n + 1
        assert len(payload["checks"]) == expected

    @pytest.mark.parametrize("n", [11, 13])
    def test_large_families(self, capsys, n):
        code, out, _ = run(capsys, ["eigencheck", "--n", str(n), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["checks"]) == 3 * n + 1
        assert all(c["passed"] for c in payload["checks"])

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, ["eigencheck", "--n", "6"])
        assert code == 2
        code, _, err = run(capsys, ["eigencheck", "--n", "15"])
        assert code == 2
        assert err == "error: --n must be 2 (square) or odd in 3..13, got 15\n"


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "square", "--frob"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "sets", "--n", "4"], "--n must be odd in 3..13, got 4"),
            (
                ["correlate", "--n", "3", "--shots", "5", "--seed", "1.5"],
                "argument --seed: invalid int value: '1.5'",
            ),
            ([], "the following arguments are required: command"),
            (["verify"], "the following arguments are required: target"),
        ],
    )
    def test_parser_errors_are_one_line(self, capsys, argv, message):
        # argparse exits from inside `main`; a command's own check returns 2.
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_parser_errors_quote_the_value_as_typed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ghz", "--grouping", "a  b"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: argument --grouping: invalid choice: 'a  b' (")

    def test_unexpected_errors_keep_their_spacing(self, capsys, monkeypatch):
        def broken():
            raise OverflowError("result  too\nlarge")

        monkeypatch.setattr(constructions, "mermin_square", broken)
        assert run(capsys, ["verify", "square"]) == (2, "", "error: OverflowError: result  too large\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate", "--help"])
        assert exc.value.code == 0
        assert "--shots" in capsys.readouterr().out

    def test_unexpected_error_exits_two_with_one_line(self, capsys, monkeypatch):
        def broken():
            raise OverflowError("result\ntoo large")

        monkeypatch.setattr(constructions, "mermin_square", broken)
        code, out, err = run(capsys, ["verify", "square"])
        assert code == 2
        assert out == ""
        assert err == "error: OverflowError: result too large\n"

    def test_text_report_shows_wall_time(self, capsys):
        _, out, _ = run(capsys, ["verify", "square"])
        assert "wall time:" in out

    def test_json_report_omits_wall_time(self, capsys):
        _, out, _ = run(capsys, ["verify", "square", "--format", "json"])
        assert "wall" not in out


class TestOneSubparser:
    """Whatever the plain reader declines, `main` prints and exits as the full argparse parser does."""

    ERRORS = [
        ["correlate", "--n", "3"],  # a required option missing
        ["bks", "solve", "--n", "x"],  # a non-int --n
        ["ghz", "--grouping", "pairs"],  # a choice not offered
        ["verify", "square", "extra"],  # an extra positional
        ["verify"],  # no target
    ]

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exit_and_output(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "argv", [*([word, "--help"] for word in cli.COMMANDS), *ERRORS], ids=" ".join
    )
    def test_command_word_output_is_the_full_parsers(self, capsys, argv):
        full = self.exit_and_output(capsys, usage.build_parser().parse_args, argv)
        assert self.exit_and_output(capsys, cli.main, argv) == full
        if argv[-1] == "--help":
            assert full[0] == 0 and full[1].startswith(f"usage: bellcheck {argv[0]} ")
        else:
            assert full[0] == 2 and full[2].startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], [], ["nosuch"], ["--format", "json"]], ids=repr)
    def test_anything_else_builds_the_full_parser(self, capsys, argv):
        full = self.exit_and_output(capsys, usage.build_parser().parse_args, argv)
        assert self.exit_and_output(capsys, cli.main, argv) == full


# Values that `cli._json` must leave to `json`, or write exactly as it does.
AWKWARD_STRINGS = [
    "", "plain text", "caf\u00e9", "\u2028", "\U0001f600", "\ud800", "\x00", "\x1f", "\x7f",
    '"', "\\", "a\"b\\c", "tab\there", "line\nbreak",
]
AWKWARD_SCALARS = [
    None, True, False, 0, -1, 2**64, -(2**64) - 1, 10**40,
    0.0, -0.0, 5e-324, 1e300, 0.1, float("nan"), float("inf"), float("-inf"),
    *AWKWARD_STRINGS,
]
json_scalars = st.one_of(
    st.sampled_from(AWKWARD_SCALARS),
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.text(),
)
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.sampled_from(AWKWARD_STRINGS), st.text()), children, max_size=4),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    """`cli._json` is `json.dumps(value, indent=2)`, byte for byte, without loading `json`."""

    @pytest.mark.parametrize("value", AWKWARD_SCALARS, ids=repr)
    def test_awkward_scalars(self, value):
        for payload in (value, [value], (1, [value]), {"key": value, "nested": {"deeper": [value]}}):
            assert cli._json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("key", [*AWKWARD_STRINGS, 1, -2**70, 0.5, True, None], ids=repr)
    def test_awkward_keys(self, key):
        for payload in ({key: 1}, {"a": [{key: [], "b": {}}]}, [{"x": 1, key: (2, 3)}]):
            assert cli._json(payload) == json.dumps(payload, indent=2)

    def test_empty_and_nested_containers(self):
        for payload in ([], (), {}, [[]], [(), {}], {"a": [], "b": {}, "c": [[], [[{}]]]}):
            assert cli._json(payload) == json.dumps(payload, indent=2)

    @given(json_payloads)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2)

    def test_every_recorded_report_is_written_without_json(self, monkeypatch):
        """The writer gives every report of the corpus its recorded bytes without `json`."""
        corpus = json.loads((REPO / "tests" / "golden" / "corpus.json").read_text(encoding="utf-8"))
        recorded = [entry["stdout"] for entry in corpus if entry["stdout"]]
        reports = [json.loads(text) for text in recorded]
        monkeypatch.setitem(sys.modules, "json", None)  # `import json` now raises
        assert [cli._json(report) + "\n" for report in reports] == recorded


class TestStartup:
    @pytest.mark.parametrize("argv", VERDICTS, ids=" ".join)
    def test_verdicts_never_import_numpy(self, tmp_path, argv):
        """These checks are integer GF(2) and Pauli algebra; numpy's import would dominate them."""
        write_readme_obs(tmp_path)
        assert fresh_main(argv, "numpy", cwd=tmp_path) == "0 False"

    def test_no_command_loads_dataclasses_inspect_or_typing(self, tmp_path):
        """Records are `collections` named tuples: `dataclasses`, with its `inspect`, costs a
        child about 14 ms, and `typing` about 5 ms.  Nor does any command load
        `json` (about 2 ms: `cli._json` writes the reports) or `__future__`,
        nor, on these well-formed command lines, `argparse` with the `gettext`
        and `locale` it loads (4-5 ms: `cli._read` reads them), or the
        argparse parser's module `bellcheck.usage`.  Nor `re` with its `enum`
        (3-4 ms: `pauli` finds a rejected token's offset with `str` methods).

        Every command runs in one fresh interpreter started with `-S`, so no
        `.pth` file of `site` loads these modules first, and after each
        command it prints what has newly loaded since before `bellcheck.cli`.
        """
        forbidden = {
            "dataclasses", "inspect", "typing", "_typing",
            "json", "json.decoder", "json.encoder", "__future__", "argparse", "gettext", "locale",
            "bellcheck.usage", "re", "enum",
        }
        write_readme_obs(tmp_path)
        runs = [[*argv, "--format", "json"] for argv in VERDICTS + SMALL_RUNS + [LARGE_RUN]]
        script = (
            "import io, sys\n"
            "before = set(sys.modules)\n"
            "from bellcheck import cli\n"
            f"for argv in {runs!r}:\n"
            "    sys.stdout, out = io.StringIO(), sys.stdout\n"
            "    code = cli.main(argv)\n"
            "    sys.stdout = out\n"
            f"    print(code, *argv, sorted({forbidden!r} & set(sys.modules) - before))\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=fresh_env(),
            cwd=tmp_path, timeout=300,
        )
        assert result.stderr == ""
        assert result.stdout.splitlines() == [f"0 {' '.join(argv)} []" for argv in runs]

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        """Without bytecode caches a child compiles every module it loads, so each loads only its own.

        Before each command every bellcheck module is dropped, so the
        command imports its modules afresh, and it prints those it loaded.
        The sets must match exactly, so no other command's handler module
        may load either.
        """
        write_readme_obs(tmp_path)
        runs = [[*argv, "--format", "json"] for argv in VERDICTS + SMALL_RUNS + [LARGE_RUN]]
        script = (
            "import importlib, io, sys\n"
            f"for argv in {runs!r}:\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'bellcheck']:\n"
            "        del sys.modules[name]\n"
            "    cli = importlib.import_module('bellcheck.cli')\n"
            "    sys.stdout, out = io.StringIO(), sys.stdout\n"
            "    code = cli.main(argv)\n"
            "    sys.stdout = out\n"
            "    loaded = [m.partition('.')[2] for m in sys.modules if m.startswith('bellcheck.')]\n"
            "    print(code, *argv, '|', *sorted(set(loaded) - {'cli', 'commands'}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(),
            cwd=tmp_path, timeout=300,
        )
        assert result.stderr == ""
        expected = []
        for argv in runs:
            modules = COMMAND_MODULES[argv[0]].split()
            modules += ["dsl"] * ("--file" in argv)
            expected.append(f"0 {' '.join(argv)} | {' '.join(sorted(modules))}")
        assert result.stdout.splitlines() == expected

    def test_cli_import_loads_only_cli(self):
        """A fresh `import bellcheck.cli`, what the benchmark's `setup_s` times, loads no other bellcheck module.

        Nor `gc`: only `main()` with no argv imports it, to freeze the heap.
        """
        script = (
            "import sys, bellcheck.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('bellcheck')), 'gc' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        assert (result.stderr, result.stdout) == ("", "['bellcheck', 'bellcheck.cli'] False\n")

    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
    def test_program_entry_freezes_the_startup_heap(self, flags):
        """`main()` with no argv, the entry of `python -m bellcheck` and the console script, freezes the heap.

        Frozen objects are never traversed, so the collections at the child's
        exit skip everything that start-up made.
        """
        script = (
            "import gc, io, sys\n"
            "from bellcheck import cli\n"
            "before = gc.get_freeze_count()\n"
            "sys.argv = ['bellcheck', 'verify', 'square', '--format', 'json']\n"
            "sys.stdout, out = io.StringIO(), sys.stdout\n"
            "code = cli.main()\n"
            "sys.stdout = out\n"
            "print(before, code, gc.get_freeze_count() > 0)\n"
        )
        result = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        assert (result.stderr, result.stdout) == ("", "0 0 True\n")

    def test_in_process_main_does_not_freeze(self, capsys):
        """`main(argv)`, as the tests, the corpus and the traced benchmark call it, leaves the heap collectable."""
        before = gc.get_freeze_count()
        assert cli.main(["verify", "square", "--format", "json"]) == 0
        assert gc.get_freeze_count() == before
        assert capsys.readouterr().out.startswith('{\n  "command": "verify square",')

    def test_argparse_form_loads_the_parser_module_and_prints_the_same_report(self):
        """`--format=json` goes to `bellcheck.usage`'s parser and prints the bytes of `--format json`."""
        argv = ["correlate", "--n", "3", "--shots", "100"]
        runs = [[*argv, "--format", "json"], [*argv, "--format=json"]]
        script = (
            "import io, sys\n"
            "from bellcheck import cli\n"
            f"for argv in {runs!r}:\n"
            "    sys.stdout, out = io.StringIO(), sys.stdout\n"
            "    code = cli.main(argv)\n"
            "    sys.stdout, report = out, sys.stdout.getvalue()\n"
            "    print(repr((code, 'bellcheck.usage' in sys.modules, report)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        assert result.stderr == ""
        plain, equals = map(ast.literal_eval, result.stdout.splitlines())
        assert plain[:2] == (0, False) and plain[2].startswith('{\n  "command": "correlate",')
        assert equals == (0, True, plain[2])

    def test_importtime_lists_the_handler_module(self):
        """`-X importtime` reports the command's handler module, which `main` imports on the builtin path.

        A well-formed command line is read without argparse, so it is not listed.
        """
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bellcheck", "verify", "square"],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert result.returncode == 0
        imported = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()]
        assert "bellcheck.commands.verify" in imported
        assert "argparse" not in imported

    def test_large_noisy_run_without_numpy_exits_zero(self):
        """Where numpy cannot be imported, every `correlate` run still samples and reports."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None  # as on a host without numpy\n"
            "from bellcheck import cli\n"
            f"print(cli.main({[*LARGE_RUN, '--format', 'json']!r}))\n"
            "print(sorted(m for m in sys.modules if m.startswith('bellcheck.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        assert result.stderr == ""
        *_, code, loaded = result.stdout.splitlines()
        assert code == "0"
        modules = "cli commands commands.correlate constructions pauli protocol rng tableau".split()
        assert loaded == repr([f"bellcheck.{m}" for m in modules])

    @staticmethod
    def run_into_closed_pipe(argv, *streams):
        """Run the CLI with each of `streams` ("stdout", "stderr") on a pipe with no reader."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        pipes = {name: write_end if name in streams else subprocess.PIPE for name in ("stdout", "stderr")}
        try:
            return subprocess.run(
                [sys.executable, "-m", "bellcheck", *argv],
                **pipes, text=True, env=fresh_env(), timeout=120,
            )
        finally:
            os.close(write_end)

    def test_closed_stdout_exits_two_without_traceback(self):
        argv = ["verify", "sets", "--n", "13", "--format", "json"]
        result = self.run_into_closed_pipe(argv, "stdout")
        assert result.returncode == 2
        assert result.stderr == "error: standard output was closed before the report was written\n"

    def test_closed_stdout_and_stderr_exit_two(self):
        # The `error:` line itself meets the closed pipe; it is lost, the exit status is not.
        for fmt in ("json", "text"):
            argv = ["verify", "sets", "--n", "13", "--format", fmt]
            assert self.run_into_closed_pipe(argv, "stdout", "stderr").returncode == 2

    @pytest.mark.parametrize("argv", [["verify", "sets", "--n", "4"], ["verify", "sets"]], ids=" ".join)
    def test_usage_error_with_closed_stderr_exits_two(self, argv):
        result = self.run_into_closed_pipe(argv, "stderr")
        assert (result.returncode, result.stdout) == (2, "")


# The package namespace before it became lazy, less the dense oracles that
# 0.9.0 moved to `tests/oracles.py` and the `ExperimentConfig` record that
# 0.18.0 folded into `run_experiment`'s arguments: submodule -> names.  Each
# must still resolve, to the very object its submodule holds.
OLD_NAMESPACE = {
    "chsh": "ChshReport MeasurementVectors gap_report lhv_max "
    "optimal_vectors pair_expectation planar_vectors quantum_value",
    "constructions": "ConstructionError Context ContextSystem ValidationReport generalized_sets "
    "ghz_contexts ghz_observables mermin_square product_sign validate",
    "dsl": "DslSyntaxError parse_document serialize",
    "parity": "ParityRow ParitySystem SolveResult build_parity_system "
    "check_assignment check_certificate solve",
    "pauli": "PauliOperator PauliSyntaxError commutes format_pauli identity multiply "
    "parse_pauli single",
    "protocol": "ExperimentSummary default_schedule run_experiment",
    "tableau": "StabilizerTableau bell_product_tableau compile_context eigenrelation_check "
    "embed tableau_expectation",
}


def absolute_imports():
    """(file, its tree, the import node, the top-level packages it names) of each absolute import in `src`."""
    for path in sorted((REPO / "src" / "bellcheck").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            yield path, tree, node, {module.split(".")[0] for module in modules}


class TestPackage:
    def test_every_name_resolves_to_its_submodule_object(self):
        names = []
        for module_name, listed in OLD_NAMESPACE.items():
            module = importlib.import_module(f"bellcheck.{module_name}")
            for name in listed.split():
                assert getattr(bellcheck, name) is getattr(module, name), name
                names.append(name)
        assert sorted(names) == sorted(bellcheck.__all__)
        assert isinstance(bellcheck.__version__, str)

    def test_import_loads_no_submodule_and_dir_lists_every_name(self):
        script = (
            "import sys, bellcheck\n"
            "print(sorted(m for m in sys.modules if m.startswith('bellcheck.')))\n"
            "print(' '.join(dir(bellcheck)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        loaded, listed = result.stdout.splitlines()
        assert loaded == "[]"
        expected = {name for names in OLD_NAMESPACE.values() for name in names.split()}
        assert expected | {"__version__"} <= set(listed.split())

    def test_no_module_imports_numpy(self):
        """numpy is a test dependency: no module imports it, at any depth, and none is required."""
        for path, _, node, packages in absolute_imports():
            assert "numpy" not in packages, f"{path.relative_to(REPO)}:{node.lineno}"
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            return
        project = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["dependencies"] == []

    def test_only_the_parser_module_imports_argparse(self):
        """argparse costs a child 4-5 ms: only `usage`, which `main` loads for help and errors, imports it."""
        found = [
            (path.relative_to(REPO).as_posix(), node in tree.body)
            for path, tree, node, packages in absolute_imports()
            if "argparse" in packages
        ]
        assert found == [("src/bellcheck/usage.py", True)]

    def test_only_the_commands_package_module_loads_systems(self):
        """Every handler gets its system from `commands._system`, so one module builds or reads it."""
        loaders = {"mermin_square", "generalized_sets", "FAMILY_NS", "dsl"}
        found = set()
        for path in (REPO / "src" / "bellcheck" / "commands").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.ImportFrom):
                    names = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
                elif isinstance(node, ast.Import):
                    names = {part for alias in node.names for part in alias.name.split(".")}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                if names & loaders:
                    found.add(path.name)
        assert found == {"__init__.py"}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bellcheck.no_such_name  # noqa: B018
