"""Fuzzed command lines and `.obs` files: every run ends in exit 0, 1 or 2.

Exit 0 and 1 are verdicts, exit 2 a usage or input error reported in one
line; no input may end in a traceback.  argparse rejects bad flags with
SystemExit(2), and `--help` exits 0, so SystemExit codes count as exits.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from bellcheck import cli

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def flag(name, values):
    """`[name, value]`, or nothing for one draw in ten."""
    return st.integers(0, 9).flatmap(
        lambda keep: values.map(lambda v: [name, v]) if keep else st.just([])
    )


def mostly(valid, fuzzed):
    """A value from `valid` for three draws in four, else from `fuzzed`."""
    return st.integers(0, 3).flatmap(lambda pick: valid if pick else fuzzed)


JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "-0", "0x3", " 3", "--", "-h"])
SMALL_INT = st.integers(-3, 15).map(str)
NUMBER = st.one_of(
    SMALL_INT,
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
    JUNK,
)
N = st.one_of(SMALL_INT, st.sampled_from(["682", "683", "1100", "-1"]), JUNK)
SHOTS = mostly(st.integers(0, 50).map(str), st.one_of(st.integers(-2, 0).map(str), JUNK))


def run(argv):
    """(exit code, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, err.getvalue()


@st.composite
def argv(draw, obs_path):
    command = draw(
        st.sampled_from(
            ["verify square", "verify sets", "verify", "bks solve", "ghz", "correlate",
             "chsh", "eigencheck", "teleport"]
        )
    )
    args = command.split()
    n = flag("--n", mostly(st.sampled_from(["2", "3", "5", "7", "13"]), N))
    if command in ("verify sets", "correlate", "chsh", "eigencheck"):
        args += draw(n)
    if command == "bks solve":
        path = flag("--file", mostly(st.just(obs_path), st.sampled_from([obs_path + ".x", ""])))
        # Exactly one of --n and --file is valid; both or neither is fuzz.
        args += draw(mostly(st.one_of(n, path), st.tuples(n, path).map(lambda p: p[0] + p[1])))
    if command == "ghz":
        args += draw(flag("--grouping", st.sampled_from(["tripartite", "bipartite", "pairs"])))
    if command == "correlate":
        args += draw(flag("--shots", SHOTS))
        args += draw(flag("--noise", mostly(st.floats(0.0, 1.0).map(repr), NUMBER)))
        args += draw(flag("--efficiency", mostly(st.floats(0.0, 1.0).map(repr), NUMBER)))
    if command in ("correlate", "chsh"):
        args += draw(flag("--seed", mostly(st.integers(0, 2**70).map(str), NUMBER)))
    args += draw(flag("--format", st.sampled_from(["json", "text", "xml"])))
    args += draw(mostly(st.just([]), st.lists(JUNK, max_size=1)))
    return args


SQUARE = "qubits 2\nset X1, X2, X1 X2\nset Z1, Z2, Z1 Z2 = +1\nset Y1 Y2, X1 Z2, Z1 X2 = -1\n"


@given(data=st.data())
@FUZZ
def test_fuzzed_argv_exits_cleanly(tmp_path, data):
    path = tmp_path / "system.obs"
    path.write_text(SQUARE, encoding="utf-8")
    code, err = run(data.draw(argv(str(path))))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


WORD = st.builds(
    lambda phase, letters: " ".join(([phase] if phase else []) + letters),
    st.sampled_from(["", "+", "-", "i", "-i"]),
    st.lists(
        st.builds("{}{}".format, st.sampled_from("IXYZQ"), st.sampled_from(["", "0", "1", "2", "3", "9"])),
        min_size=1,
        max_size=3,
    ),
)
LINE = st.one_of(
    st.integers(-1, 4).map("qubits {}".format),
    st.builds(
        lambda words, sign: "set " + ", ".join(words) + sign,
        st.lists(WORD, min_size=1, max_size=4),
        st.sampled_from(["", " = +1", " = -1", " = 0", " ="]),
    ),
    st.sampled_from(["", "# comment", "set", "qubits", "qubits 2 3", "set X1,, X2"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@given(
    header=st.booleans(),
    lines=st.lists(LINE, max_size=6),
    raw=st.one_of(st.none(), st.binary(max_size=24)),
)
@FUZZ
def test_fuzzed_obs_file_exits_cleanly(tmp_path, header, lines, raw):
    path = tmp_path / "fuzz.obs"
    if raw is None:
        path.write_text("\n".join(["qubits 3"] * header + lines), encoding="utf-8")
    else:
        path.write_bytes(raw)
    code, err = run(["bks", "solve", "--file", str(path), "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
