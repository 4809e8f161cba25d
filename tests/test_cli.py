"""Command surface: exit codes, report formats, determinism."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellcheck
from bellcheck import cli
from bellcheck.constructions import Context, ContextSystem, mermin_square

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """The argv of every `bellcheck ...` line in the README, comments dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [line.split("#")[0].split()[1:] for line in lines if line.startswith("bellcheck ")]


def write_readme_obs(directory: Path) -> None:
    """`my.obs` in `directory`: the README's own `.obs` example, which `--file my.obs` reads."""
    example = README.read_text(encoding="utf-8").split("## Observable files")[1]
    (directory / "my.obs").write_text(example.split("```")[1], encoding="utf-8")


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
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sets", "--n", "4"])
        assert exc.value.code == 2

    def test_json_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["verify", "square", "--format", "json"])
        _, second, _ = run(capsys, ["verify", "square", "--format", "json"])
        assert first == second
        payload = json.loads(first)
        assert payload["command"] == "verify square"
        assert payload["passed"] is True
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5]
        assert all(c["passed"] for c in payload["checks"])

    def test_failure_exits_one(self, capsys, monkeypatch):
        good = mermin_square()
        contexts = list(good.contexts)
        contexts[0] = Context(contexts[0].observables, -1)
        tampered = ContextSystem(2, tuple(contexts))
        monkeypatch.setattr(cli, "mermin_square", lambda: tampered)
        code, out, _ = run(capsys, ["verify", "square"])
        assert code == 1
        assert "FAIL" in out


class TestBksSolve:
    def test_builtin_family(self, capsys):
        code, out, _ = run(capsys, ["bks", "solve", "--n", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "UNSAT"
        assert payload["certificate"] == [0, 1, 2, 3, 4, 5, 6]
        # The key order is part of the report's bytes.
        assert list(payload)[4:] == ["result", "variables", "rows", "certificate", "checks"]
        assert (payload["variables"], payload["rows"]) == (16, 7)

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
        path = tmp_path / "bad.obs"
        path.write_text(text)
        code, out, err = run(capsys, ["bks", "solve", "--file", str(path), "--format", "json"])
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {problem}\n"

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


class TestGhz:
    @pytest.mark.parametrize("grouping,result", [("tripartite", "UNSAT"), ("bipartite", "SAT")])
    def test_groupings(self, capsys, grouping, result):
        code, out, _ = run(capsys, ["ghz", "--grouping", grouping, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == result
        assert payload["passed"] is True
        witness = "assignment" if result == "SAT" else "certificate"
        assert list(payload)[4:] == ["result", witness, "checks"]

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
        assert err == "error: seed and shot index must be non-negative and below 2**64\n"

    @pytest.mark.parametrize("regime", [[], ["--noise", "0.1", "--efficiency", "0.9"]])
    def test_never_imports_numpy_random(self, regime):
        """Draws come from the batched Philox kernel, not NumPy's generator."""
        argv = ["correlate", "--n", "3", "--shots", "300", *regime]
        assert fresh_main(argv, "numpy.random") == "0 False"


class TestChsh:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, ["chsh", "--n", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "quantum value (factorized)" in names
        assert "quantum value (dense)" in names
        assert payload["passed"] is True

    def test_large_n_skips_dense(self, capsys):
        code, out, _ = run(capsys, ["chsh", "--n", "6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "quantum value (dense)" not in names

    @pytest.mark.parametrize("n", ["0", "683", "1100"])
    def test_out_of_range_n_exits_two(self, capsys, n):
        code, out, err = run(capsys, ["chsh", "--n", n, "--format", "json"])
        assert code == 2
        assert out == ""
        assert err == f"error: --n must be in 1..682, got {n}\n"

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
            (["verify", "sets", "--n", "4"], "argument --n: n must be odd and within 3..13, got 4"),
            (
                ["correlate", "--n", "3", "--shots", "5", "--seed", "1.5"],
                "argument --seed: invalid int value: '1.5'",
            ),
            ([], "the following arguments are required: command"),
            (["verify"], "the following arguments are required: target"),
        ],
    )
    def test_parser_errors_are_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate", "--help"])
        assert exc.value.code == 0
        assert "--shots" in capsys.readouterr().out

    def test_unexpected_error_exits_two_with_one_line(self, capsys, monkeypatch):
        def broken():
            raise OverflowError("result\ntoo large")

        monkeypatch.setattr(cli, "mermin_square", broken)
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


class TestStartup:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "square"],
            ["verify", "sets", "--n", "13"],
            ["bks", "solve", "--n", "13"],
            ["bks", "solve", "--file", "my.obs"],
            ["eigencheck", "--n", "13"],
            ["ghz", "--grouping", "tripartite"],
            ["ghz", "--grouping", "bipartite"],
        ],
        ids=" ".join,
    )
    def test_verdicts_never_import_numpy(self, tmp_path, argv):
        """These checks are integer GF(2) and Pauli algebra; numpy's import would dominate them."""
        write_readme_obs(tmp_path)
        assert fresh_main(argv, "numpy", cwd=tmp_path) == "0 False"

    def test_closed_stdout_exits_two_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # so the report meets a pipe with no reader
        try:
            result = subprocess.run(
                [sys.executable, "-m", "bellcheck", "verify", "sets", "--n", "13", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=fresh_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == "error: standard output was closed before the report was written\n"


# The package namespace before it became lazy: submodule -> names.  Each must
# still resolve, to the very object its submodule holds.
OLD_NAMESPACE = {
    "chsh": "ChshReport MeasurementVectors chsh_pair_operator gap_report lhv_max "
    "optimal_vectors pair_expectation planar_vectors quantum_value",
    "constructions": "ConstructionError Context ContextSystem ValidationReport generalized_sets "
    "ghz_contexts ghz_observables mermin_square product_sign validate",
    "dsl": "DslSyntaxError parse_document serialize",
    "parity": "ParityRow ParitySystem SolveResult brute_force build_parity_system "
    "check_assignment check_certificate solve",
    "pauli": "PauliOperator PauliSyntaxError commutes format_pauli identity multiply "
    "parse_pauli relabel single to_dense",
    "protocol": "ExperimentConfig ExperimentSummary default_schedule run_experiment",
    "rng": "shot_draws shot_stream",
    "states": "StabilizerTableau StateVector affine_values apply_pauli bell_product_state "
    "bell_product_tableau compile_context dense_expectation eigenrelation_check embed "
    "expectation ghz_state measure_context singlet_product_state tableau_expectation",
}


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

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bellcheck.no_such_name  # noqa: B018
