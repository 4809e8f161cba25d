"""The two command-line readers: `cli._read` returns what argparse returns, or declines.

`cli._read` reads a plain command line from each command's `COMMAND`
declaration without loading argparse.  Its oracle is the argparse parser
that `usage.build_parser` builds from the same declarations: whenever the
reader returns a namespace, argparse must return one with the same
attributes, and whatever argparse refuses or answers with help, the reader
must decline, so that argparse prints it.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import test_cli
import test_cli_fuzz
from bellcheck import cli, usage
from test_golden import load_corpus


def parsed(argv):
    """`vars()` of the full argparse parser's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(usage.build_parser().parse_args(argv))
        except SystemExit:
            return None


def runnable():
    """(words, `Command`) of every command that runs, from the declarations."""
    for word in cli.COMMANDS:
        command = cli._command(word)
        if command.words is None:
            yield [word], command
        else:
            yield from (([word, sub], leaf) for sub, leaf in command.words.items())


RUNNABLE = list(runnable())
JUNK = st.one_of(test_cli_fuzz.JUNK, st.sampled_from(["-5", "-0.5", "-x", "-", "--n", "--help", "verify"]))


def values(option):
    """Text for `option`: mostly a valid value, else junk or a `-`-leading value."""
    if option.choices is not None:
        valid = st.sampled_from(option.choices)
    elif option.type is int:
        valid = st.integers(-3, 2**70).map(str)
    elif option.type is float:
        valid = st.floats().map(repr)
    else:
        valid = st.text(max_size=6)
    return test_cli_fuzz.mostly(valid, JUNK)


@st.composite
def declared_argv(draw):
    """A command line built from one command's declaration, then perhaps bent out of shape.

    Its options come in any order, the required ones mostly present.  A
    pair may become `--flag=value`, an abbreviated flag, or `-h`; a pair
    may repeat; a junk token may land anywhere.
    """
    words, command = draw(st.sampled_from(RUNNABLE))
    options = draw(st.permutations([*command.options, cli.FORMAT]))
    complete = draw(st.integers(0, 3))
    argv = list(words)
    for option in options:
        if not (option.required and complete) and draw(st.booleans()):
            continue
        flag, value = option.flag, draw(values(option))
        form = draw(st.integers(0, 11))
        if form == 0:
            argv.append(f"{flag}={value}")
            continue
        if form == 1:
            flag = flag[: draw(st.integers(2, len(flag) - 1))]
        elif form == 2:
            flag = "-h"
        argv += [flag, value] * (2 if form == 3 else 1)
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


def nan_marked(values):
    """`values` with each NaN made one marker: both readers convert `nan`, but `nan != nan`."""
    return values and {key: "<nan>" if value != value else value for key, value in values.items()}


@given(st.one_of(declared_argv(), test_cli_fuzz.argv("system.obs")))
@example(["correlate", "--n", "0", "--shots", "0", "--efficiency", "nan"])
@example(["correlate", "--n", "0", "--shots", "0", "--noise", "nan"])
@settings(max_examples=400, deadline=None)
def test_reader_returns_what_argparse_returns(argv):
    namespace = cli._read(argv)
    if namespace is not None:
        assert nan_marked(vars(namespace)) == nan_marked(parsed(argv))


# Command lines that argparse refuses: the ones `tests/test_cli.py` pins.
REFUSED = [
    *test_cli.TestOneSubparser.ERRORS,
    ["frobnicate"],
    ["verify", "square", "--frob"],
    ["correlate", "--n", "3", "--shots", "5", "--seed", "1.5"],
    [],
    ["verify"],
    ["ghz", "--grouping", "a  b"],
]
HELP = [
    ["--help"],
    ["-h"],
    *([word, "--help"] for word in cli.COMMANDS),
    ["verify", "square", "--help"],
    ["verify", "sets", "-h"],
    ["bks", "solve", "--help"],
    ["correlate", "--n", "3", "--shots", "5", "--help"],
]
# Command lines that argparse reads and the reader leaves to it.
ARGPARSE_ONLY = [
    ["correlate", "--n", "3", "--shots", "100", "--format=json"],
    ["correlate", "--n", "3", "--sh", "100"],
    ["chsh", "--n", "2", "--n", "3"],
    ["correlate", "--n", "3", "--shots", "5", "--seed", "-5"],
    ["bks", "solve", "--file", "-"],
]


@pytest.mark.parametrize("argv", REFUSED + HELP, ids=repr)
def test_reader_declines_errors_and_help(argv):
    assert cli._read(argv) is None
    assert parsed(argv) is None


@pytest.mark.parametrize("argv", ARGPARSE_ONLY, ids=repr)
def test_reader_leaves_other_forms_to_argparse(argv):
    assert cli._read(argv) is None
    assert parsed(argv) is not None


def test_reader_reads_every_passing_corpus_command():
    """Every exit-0 command of the report corpus with no `-`-leading value, such as the workloads'."""
    plain = [
        entry["argv"]
        for entry in load_corpus()
        if entry["exit"] == 0
        and not any(flag.startswith("--") and value.startswith("-") for flag, value in zip(entry["argv"], entry["argv"][1:]))
    ]
    assert len(plain) > 100
    for argv in plain:
        namespace = cli._read(argv)
        assert namespace is not None, argv
        assert vars(namespace) == parsed(argv)
