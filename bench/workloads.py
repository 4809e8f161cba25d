"""Seeded command lists and `.obs` inputs for the benchmark workloads.

A workload is a list of `Command`s: the argv handed to `python -m bellcheck`
plus what the oracle expects of its report.  Everything is derived from the
benchmark seed, so the same seed gives the same argv and the same files;
bellcheck itself sees only the argv and the generated files.

The generated `.obs` files are physical systems only (every context commutes
and its product is the declared sign), checked with `constructions.validate`
before use.  `bks solve --file` does not validate its input, so a
non-physical file could get a verdict the physics does not support; keeping
such files out means a later fix for that does not change any verdict here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("correlate-small", "correlate-dense", "verdicts")

# Odd n with a built-in family; n = 2 is the magic square.
FAMILY_NS = (3, 5, 7, 9, 11, 13)


@dataclass(frozen=True)
class Command:
    """One child invocation and the oracle's expectations for its report.

    `kind` names the oracle rule set, `expect` carries its parameters, and
    `rounds` counts protocol rounds simulated (both Bob modes; 0 if none).
    """

    args: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict, hash=False, compare=False)
    rounds: int = 0

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--format", "json"]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def correlate(n: int, shots: int, seed: int, noise: float = 0.0, efficiency: float = 1.0) -> Command:
    args = ("correlate", "--n", str(n), "--shots", str(shots), "--seed", str(seed))
    if noise or efficiency != 1.0:
        args += ("--noise", repr(noise), "--efficiency", repr(efficiency))
    expect = {"n": n, "shots": shots, "noise": noise, "efficiency": efficiency}
    return Command(args, "correlate", expect, rounds=2 * shots)


def verdict(*args: str, result: str | None = None) -> Command:
    """A verification command; `result` is the expected SAT/UNSAT field."""
    return Command(tuple(args), "verdict", {"result": result} if result else {})


# --- .obs generation -------------------------------------------------------

_TOKEN = re.compile(r"([XYZ])(\d+)")


def _remap(text: str, qubit_map: dict[int, int]) -> str:
    """Move the qubit indices of canonical Pauli text (`format_pauli` output)."""
    return _TOKEN.sub(lambda m: f"{m.group(1)}{qubit_map[int(m.group(2))]}", text)


def copies_obs(base: str, copies: int, rng: random.Random) -> str:
    """`copies` relabelled copies of a built-in family on disjoint qubits.

    Each copy's qubits go to a random disjoint set of positions in one large
    register; contexts and their members are shuffled.  Members of a context
    commute, so shuffling them keeps each product and sign.  Every copy is
    UNSAT on its own, so the whole file is UNSAT.
    """
    from bellcheck import format_pauli, generalized_sets, mermin_square

    system = mermin_square() if base == "square" else generalized_sets(int(base))
    width = system.num_qubits
    positions = list(range(1, copies * width + 1))
    rng.shuffle(positions)
    lines = []
    for c in range(copies):
        qubit_map = {k + 1: positions[c * width + k] for k in range(width)}
        for ctx in system.contexts:
            words = [_remap(format_pauli(o), qubit_map) for o in ctx.observables]
            rng.shuffle(words)
            lines.append(_set_line(words, ctx.expected_sign))
    rng.shuffle(lines)
    return f"qubits {copies * width}\n" + "\n".join(lines) + "\n"


def diagonal_obs(qubits: int, contexts: int, size: int, pool: int, rng: random.Random) -> str:
    """A SAT system of diagonal Z-word contexts.

    Each context draws `size - 1` words from a shared pool of signed Z words
    and closes with the word that makes the mask product the identity.  All
    Z words commute and share the eigenbasis, so the eigenvalues on |0...0>
    satisfy every context: the system is physical and SAT.
    """
    words = [(rng.getrandbits(qubits) or 1, rng.random() < 0.5) for _ in range(pool)]
    lines = []
    while len(lines) < contexts:
        members = rng.sample(words, size - 1)
        closing = 0
        for mask, _ in members:
            closing ^= mask
        if closing == 0 or closing in {mask for mask, _ in members}:
            continue
        members.append((closing, rng.random() < 0.5))
        sign = -1 if sum(neg for _, neg in members) % 2 else +1
        lines.append(_set_line([_z_word(mask, neg) for mask, neg in members], sign))
    return f"qubits {qubits}\n" + "\n".join(lines) + "\n"


def _z_word(mask: int, negative: bool) -> str:
    tokens = [f"Z{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1]
    return ("- " if negative else "") + " ".join(tokens)


def _set_line(words: list[str], sign: int) -> str:
    return f"set {', '.join(words)} = {'+1' if sign > 0 else '-1'}"


def check_physical(text: str) -> None:
    """Raise unless every context of the `.obs` text commutes and has its sign."""
    from bellcheck import parse_document, validate

    report = validate(parse_document(text))
    if not report.ok:
        raise ValueError(f"generated system fails validation: contexts {report.failures}")


# (file stem, generator arguments, expected verdict).  Sized so that parse,
# catalog build and solve are a visible share of the verdicts workload.
OBS_FILES = (
    ("diag-a", ("diag", 24, 400, 5, 500), "SAT"),
    ("diag-b", ("diag", 40, 300, 8, 800), "SAT"),
    ("square-x128", ("copies", "square", 128), "UNSAT"),
    ("family5-x96", ("copies", "5", 96), "UNSAT"),
    ("family13-x64", ("copies", "13", 64), "UNSAT"),
)


def write_obs_files(workdir: Path, rng: random.Random) -> list[Command]:
    workdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for stem, spec, result in OBS_FILES:
        if spec[0] == "diag":
            text = diagonal_obs(*spec[1:], rng)
        else:
            text = copies_obs(*spec[1:], rng)
        check_physical(text)
        path = workdir / f"{stem}.obs"
        path.write_text(text, encoding="utf-8")
        commands.append(verdict("bks", "solve", "--file", str(path), result=result))
    return commands


# --- workloads -------------------------------------------------------------


def _noisy_regime(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(0.02, 0.08), 3), round(rng.uniform(0.85, 0.95), 3)


def build(name: str, seed: int, workdir: Path) -> list[Command]:
    """The command list of workload `name` for benchmark seed `seed`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "correlate-small":
        commands = []
        for n, shots in ((2, 300), (3, 250), (5, 200)):
            commands.append(correlate(n, shots, rng.randrange(2**31)))
            commands.append(correlate(n, shots, rng.randrange(2**31), *_noisy_regime(rng)))
        return commands
    if name == "correlate-dense":
        # n = 11 and 13 are left out: the dense state path needs GiBs there.
        return [
            correlate(7, 50, rng.randrange(2**31)),
            correlate(7, 50, rng.randrange(2**31), *_noisy_regime(rng)),
            correlate(9, 3, rng.randrange(2**31)),
        ]
    if name == "verdicts":
        commands = [verdict("verify", "square")]
        commands += [verdict("verify", "sets", "--n", str(n)) for n in FAMILY_NS]
        commands += [verdict("bks", "solve", "--n", str(n), result="UNSAT") for n in FAMILY_NS]
        commands.append(verdict("ghz", "--grouping", "tripartite", result="UNSAT"))
        commands.append(verdict("ghz", "--grouping", "bipartite", result="SAT"))
        commands += [verdict("eigencheck", "--n", str(n)) for n in (2, 3, 5, 7, 9)]
        commands += [
            verdict("chsh", "--n", str(n), "--seed", str(rng.randrange(2**31)))
            for n in range(1, 6)
        ]
        commands += write_obs_files(workdir, rng)
        return commands
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
