"""The report corpus: every recorded command still gives the same bytes.

`golden/corpus.json` holds, for each command, its argv, exit code, stdout
and stderr, as `golden/regenerate.py` recorded them.  The commands run from
`golden/`, so a `--file` argument is a path relative to it, and the report,
which echoes that path, does not depend on where the checkout lives.  Only
`--format json` reports are recorded: a text report shows its wall time.
A subset of the corpus also runs as `python -m bellcheck` children, so that
the program entry (runpy, `__main__`, `sys.exit` and the interpreter's
exit) is checked byte for byte as well; CI runs the same subset through the
installed `bellcheck` script.
`golden/help.json` holds the `--help` page of the parser and of every
command and subcommand word at `COLUMNS=80`, with the Python minor version
that recorded it: argparse lays out its help differently from one version
to the next.

The corpus pins behaviour; it is not an oracle for the physics.  A change
that alters a report regenerates the corpus and names each changed command
in CHANGES.md.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bellcheck import cli
from test_cli import fresh_env

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"
HELP = GOLDEN / "help.json"
# One entry per command word, a `bks solve --file` and a refusal (exit 2):
# the corpus entries that `check_program` runs as children.
PROGRAM_SUBSET = [
    ["verify", "square"],
    ["bks", "solve", "--n", "5"],
    ["bks", "solve", "--file", "verdicts-1/family13-x64.obs"],
    ["ghz", "--grouping", "tripartite"],
    ["correlate", "--n", "3", "--shots", "10000", "--noise", "0.05", "--efficiency", "0.9", "--seed", "1"],
    ["chsh", "--n", "5", "--seed", "7"],
    ["eigencheck", "--n", "3"],
    ["verify", "sets", "--n", "4"],
]
# The words whose `--help` pages `help.json` records.
HELP_WORDS = [[], *([word] for word in cli.COMMANDS), ["verify", "square"], ["verify", "sets"], ["bks", "solve"]]


def run_cli(argv: list[str]) -> dict:
    """One corpus entry: `argv` run through `cli.main` in process, from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_program(program: list[str]) -> None:
    """Run each `PROGRAM_SUBSET` entry as a child `program <argv>` from `golden/`; assert the corpus's bytes.

    The children import the package that this module imported.
    """
    env = fresh_env()
    recorded = {tuple(entry["argv"]): entry for entry in load_corpus()}
    expected, runs = [], []
    for argv in PROGRAM_SUBSET:
        argv = [*argv, "--format", "json"]
        expected.append(recorded[tuple(argv)])
        result = subprocess.run([*program, *argv], cwd=GOLDEN, capture_output=True, env=env, timeout=120)
        stdout, stderr = result.stdout.decode(), result.stderr.decode()
        runs.append({"argv": argv, "exit": result.returncode, "stdout": stdout, "stderr": stderr})
    assert runs == expected


def help_page(words: list[str]) -> str:
    """The stdout of `bellcheck <words> --help`, run through `cli.main` in process.

    The width comes from `COLUMNS`, which the caller sets to 80.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main([*words, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


def record_help() -> dict:
    """`help.json`'s content: the Python minor version and each word's help page."""
    python = "{}.{}".format(*sys.version_info)
    return {"python": python, "pages": {" ".join(words): help_page(words) for words in HELP_WORDS}}


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def pytest_generate_tests(metafunc):
    # Read at collection, not import, so that `regenerate.py` can import `run_cli`.
    if "entry" in metafunc.fixturenames:
        entries = load_corpus()
        metafunc.parametrize("entry", entries, ids=[" ".join(e["argv"]) for e in entries])


def test_report_is_unchanged(entry, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run_cli(entry["argv"]) == entry


def test_program_entry_reports_are_unchanged():
    check_program([sys.executable, "-m", "bellcheck"])


def test_help_is_unchanged(monkeypatch):
    recorded = json.loads(HELP.read_text(encoding="utf-8"))
    python = "{}.{}".format(*sys.version_info)
    if python != recorded["python"]:
        pytest.skip(f"help.json was recorded on Python {recorded['python']}, whose argparse layout may differ")
    monkeypatch.setenv("COLUMNS", "80")
    assert record_help() == recorded
