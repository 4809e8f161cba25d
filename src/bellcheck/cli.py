"""Command-line front end: every check as a reproducible, scriptable run.

Commands print a text or JSON report; exit status 0 means all checks
passed (or the solver ran), 1 means a verification failed, 2 means a
usage or input error.  JSON reports are byte-identical for identical
invocations and seeds, so they diff cleanly in CI; wall time is shown
only in text output for that reason.

This module holds what every run executes: the declaration types, the
report and its JSON writer, the plain command-line reader, the error
handling and `main`.  Each command word's options (a `Command` of
`Option`s) and handler live in its own module under `bellcheck.commands`,
and that one declaration feeds two readers.  `_read` takes a plain
command line, `<word> [<subword>] (--flag value)*` with every flag in full
and once, and returns what argparse would; any other command line,
`--help` included, goes to the argparse parser of `bellcheck.usage`, so
every help, usage and error byte is argparse's.  Either reader returns
only the options; `_report` reads the report's name and the handler from
the declaration, and `main` runs that `run(args, report)` to fill it.  Only
`bellcheck.usage` imports argparse, which with the `gettext` and `locale`
it loads costs each child 4-5 ms; a well-formed run loads none of them.
Either way `main` imports only the handler module of the command word it
is given; each handler imports the bellcheck modules it runs, and this
module only the stdlib.  So a child loads (and compiles) no module it
does not run.  A JSON report is written by `_json`, not by the `json`
package, whose import (with its regexes) would cost every child about
2 ms; `json` loads only for a value that the writer leaves to it.
"""

import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

# The command words, in help order.  Word `w` runs in `bellcheck.commands.w`,
# whose `COMMAND` declares its options and names its handler.
COMMANDS = ("verify", "bks", "ghz", "correlate", "chsh", "eigencheck")

# One option: `flag` takes one value, converted by `type` (None keeps the
# text) and checked against `choices`; if it is not `required`, a command
# line without it gets `default`.
Option = namedtuple("Option", "flag type default required choices help", defaults=(None, None, False, None, None))
# A command word.  Either `run(args, report)` handles it, with `options`
# and `--format`, or it takes a subcommand word, stored as `dest`, that
# picks one `Command` of the dict `words`.
Command = namedtuple("Command", "help options run dest words", defaults=((), None, None, None))
# Every command that runs takes this option, after its own.
FORMAT = Option("--format", choices=("text", "json"), default="text")


# `tolerance` is None for an exact comparison (see `RunReport.check`).
Check = namedtuple("Check", "name passed measured expected tolerance", defaults=(None,))


class RunReport:
    def __init__(self, command: str, parameters: dict, seed: int | None = None):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.checks: list[Check] = []
        self.extras: dict = {}

    def check(self, name, measured, expected, tolerance: float | None = None) -> None:
        if tolerance:
            scale = max(abs(expected), 1.0)
            passed = abs(measured - expected) <= tolerance * scale
        else:
            passed = measured == expected
        self.checks.append(Check(name, passed, measured, expected, tolerance))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "passed": self.passed,
        }
        payload.update(self.extras)
        payload["checks"] = [c._asdict() for c in self.checks]
        return _json(payload)

    def to_text(self, wall_time: float) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            lines.append(f"  {key}: {value}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        for key, value in self.extras.items():
            lines.append(f"{key}: {value}")
        if self.checks:
            width = max(len(c.name) for c in self.checks)
            for c in self.checks:
                status = "PASS" if c.passed else "FAIL"
                detail = f"measured={c.measured} expected={c.expected}"
                if c.tolerance:
                    detail += f" rel_tol={c.tolerance}"
                lines.append(f"  {c.name:<{width}}  {status}  {detail}")
        lines.append(f"wall time: {wall_time:.3f} s")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _json(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, each line break followed by `newline`'s indent.

    Dicts with `str` keys, lists, tuples, `None`, bools, ints, finite floats
    and strings of printable ASCII with no `"` or `\\` are written here,
    exactly as `json` writes them.  Any other value (a string to escape, a
    non-finite float, a non-`str` key, another type) goes to `json.dumps`
    itself, imported only then, so the bytes are its bytes.
    """
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int or kind is float and value - value == 0:
        return repr(value)
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    elif kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    elif kind is dict:
        if not value:
            return "{}"
        if all(type(key) is str for key in value):
            inner = newline + "  "
            items = [f"{_json(key)}: {_json(item, inner)}" for key, item in value.items()]
            return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    import json

    return json.dumps(value, indent=2).replace("\n", newline)


def _to_devnull(stream) -> None:
    """Point a stream whose reader closed the pipe at devnull, so the flush at exit cannot raise."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(message: str) -> None:
    """Print the one `error:` line on stderr, each line break of `message` made a space.

    If stderr is a closed pipe the line is lost, but the exit status stays
    2: exit 1 means that a verification failed.
    """
    try:
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _command(word: str) -> Command:
    """The `Command` of a command word, from its handler module."""
    # The builtin import, unlike `importlib.import_module`, shows in `-X importtime`.
    return __import__(f"{__package__}.commands.{word}", fromlist=("COMMAND",)).COMMAND


def _read(argv):
    """What `usage.build_parser().parse_args(argv)` returns, for a plain command line; else None.

    A plain command line is `<word> [<subword>] (--flag value)*` where each
    flag is one of its command's, written in full and given once, no value
    starts with `-`, each value converts with its option's type and lies in
    its choices, and every required flag is given.  Help, abbreviations,
    `--flag=value` and every error are left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    command, rest = _command(argv[0]), argv[1:]
    if command.words is not None:
        if not rest or rest[0] not in command.words:
            return None
        values[command.dest] = rest[0]
        command, rest = command.words[rest[0]], rest[1:]
    if len(rest) % 2:
        return None
    options = {option.flag: option for option in (*command.options, FORMAT)}
    given = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        option = options.get(flag)
        if option is None or flag in given or text.startswith("-"):
            return None
        try:
            value = text if option.type is None else option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        given[flag] = value
    for flag, option in options.items():
        if option.required and flag not in given:
            return None
        values[flag[2:]] = given.get(flag, option.default)
    return SimpleNamespace(**values)


def _report(args):
    """The handler of what `args` runs, and its empty report, echoing the options given.

    It is named by the command words; `--seed` is its seed, and each other
    declared option whose value is not None a parameter, in declaration order.
    """
    name = args.command
    command = _command(name)
    if command.words is not None:
        word = getattr(args, command.dest)
        name, command = f"{name} {word}", command.words[word]
    parameters, seed = {}, None
    for option in command.options:
        key = option.flag[2:]
        value = getattr(args, key)
        if key == "seed":
            seed = value
        elif value is not None:
            parameters[key] = value
    return command.run, RunReport(name, parameters, seed)


def main(argv: list[str] | None = None) -> int:
    """Run `argv` and return its exit status; with no `argv`, freeze the heap and run `sys.argv[1:]`."""
    if argv is None:
        # The program entry.  No collection traverses frozen objects, the full
        # ones at exit included, so a child's teardown skips the start-up heap.
        import gc

        gc.freeze()
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # Help, `--flag=value`, an abbreviation or an error: argparse prints it.
        from .usage import build_parser

        args = build_parser().parse_args(argv)
    run, report = _report(args)
    started = time.perf_counter()
    try:
        run(args, report)
    except (ValueError, OSError) as err:
        _error(str(err))
        return 2
    except Exception as err:  # exit 1 is reserved for a failed verification
        _error(f"{type(err).__name__}: {err}")
        return 2
    wall = time.perf_counter() - started
    try:
        print(report.to_json() if args.format == "json" else report.to_text(wall))
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        _error("standard output was closed before the report was written")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
