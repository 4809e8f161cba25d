"""One handler module per `bellcheck` command word.

Module `bellcheck.commands.<word>` declares the `<word>` command line as
data, a `cli.Command` of `cli.Option`s named `COMMAND`, and holds the code
that runs it, `run(args, report)`, which fills the report that `cli`
built from `COMMAND`.  So a child that runs one command compiles only that
command's handler.  `cli` reads a plain command line from `COMMAND` itself
and builds its argparse subparser from it for anything else.  A package
rather than flat modules beside `cli`, because the `chsh` command's
handler cannot share its name with the `chsh` library module.
"""
