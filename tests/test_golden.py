"""The report corpus: every recorded command still gives the same bytes.

`golden/corpus.json` holds, for each command, its argv, exit code, stdout
and stderr, as `golden/regenerate.py` recorded them.  The commands run from
`golden/`, so a `--file` argument is a path relative to it, and the report,
which echoes that path, does not depend on where the checkout lives.  Only
`--format json` reports are recorded: a text report shows its wall time.

The corpus pins behaviour; it is not an oracle for the physics.  A change
that alters a report regenerates the corpus and names each changed command
in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

from bellcheck import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"


def run_cli(argv: list[str]) -> dict:
    """One corpus entry: `argv` run through `cli.main` in process, from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


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

