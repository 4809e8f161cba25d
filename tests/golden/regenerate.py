"""Rewrite the report corpus in this directory from the current code.

    python tests/golden/regenerate.py

The commands are, in this order and each once:
- the README's `bellcheck ...` examples, with `my.obs` written here from
  the README's own `.obs` example;
- every command of the `verdicts` workload at benchmark seed 1, with the
  `.obs` files it generates written to `verdicts-1/`;
- every command of `correlate-small` and `correlate-dense` at seeds 1-10;
- the refusals whose messages the CLI tests pin.

Each runs with `--format json` through `cli.main` in process, from this
directory, and `corpus.json` records its argv, exit code, stdout and stderr.
The commands and `.obs` files come from `bench/workloads.py`, which only
this script imports; `tests/test_golden.py` reads what it wrote.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(REPO / "bench")]

import workloads  # noqa: E402
from test_cli import readme_examples, write_readme_obs  # noqa: E402
from test_golden import CORPUS, run_cli  # noqa: E402

VERDICTS_SEED = 1
CORRELATE_SEEDS = tuple(range(1, 11))
REFUSALS = [
    ["verify", "sets", "--n", "4"],
    ["correlate", "--n", "15", "--shots", "10"],
    ["correlate", "--n", "13", "--shots", "100000001", "--noise", "0.1"],
    ["correlate", "--n", "3", "--shots", "200", "--noise", "0.1", "--efficiency", "0.9",
     "--seed", "18446744073709551617"],
    ["correlate", "--n", "3", "--shots", "0", "--noise", "0.1", "--efficiency", "0.9", "--seed", "-5"],
    ["chsh", "--n", "683"],
]


def commands() -> list[list[str]]:
    """The argv of every corpus command, without `--format json`; writes the `.obs` inputs."""
    write_readme_obs(HERE)
    argvs = list(readme_examples())
    workdir = Path(f"verdicts-{VERDICTS_SEED}")
    argvs += [list(c.args) for c in workloads.build("verdicts", VERDICTS_SEED, workdir)]
    for name in ("correlate-small", "correlate-dense"):
        for seed in CORRELATE_SEEDS:
            argvs += [list(c.args) for c in workloads.build(name, seed, workdir)]
    argvs += REFUSALS
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def main() -> None:
    os.chdir(HERE)  # `--file` paths are relative to this directory
    entries = [run_cli([*argv, "--format", "json"]) for argv in commands()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} commands written to {CORPUS.relative_to(REPO)}")


if __name__ == "__main__":
    main()
