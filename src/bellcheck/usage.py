"""The argparse `bellcheck` parser, for every command line that `cli._read` declines.

Help, an abbreviated flag, `--flag=value`, a `-`-leading value and every
usage error come here, so each help, usage and error byte is argparse's.
The parser is built from the same `cli.Command` declarations that the
plain reader reads, with every command word's subparser.  This is the one
module that imports argparse: with the `gettext` and `locale` it loads,
that costs a child 4-5 ms, so `cli.main` imports this module only when
its own reader declines.
"""

import argparse

from .cli import COMMANDS, FORMAT, Command, _command, _error


class Parser(argparse.ArgumentParser):
    """Argument errors end in one `error:` line and exit 2, like every other failure.

    Subparsers are built from the same class, so they inherit this.
    """

    def error(self, message: str):
        _error(message)
        raise SystemExit(2)


def build_parser() -> Parser:
    """The argparse `bellcheck` parser, with the subparser of every command word."""
    parser = Parser(
        prog="bellcheck",
        description="Verify commuting-set constructions, value-assignment "
        "impossibility, shared-state correlations, and CHSH bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for word in COMMANDS:
        _add_command(sub, word, _command(word))
    return parser


def _add_command(sub, word: str, command: Command) -> None:
    """Add `word`'s subparser, built from its `Command`, to the subparsers action `sub`."""
    parser = sub.add_parser(word, help=command.help)
    if command.words is not None:
        inner = parser.add_subparsers(dest=command.dest, required=True)
        for subword, subcommand in command.words.items():
            _add_command(inner, subword, subcommand)
        return
    for option in (*command.options, FORMAT):
        parser.add_argument(
            option.flag, type=option.type, default=option.default, required=option.required,
            choices=option.choices, help=option.help,
        )
