"""One handler module per `bellcheck` command word.

Module `bellcheck.commands.<word>` adds the `<word>` subparser to the
`bellcheck` parser (`add_parser`) and holds the code that runs it, so a
child that runs one command compiles only that command's handler.  A
package rather than flat modules beside `cli`, because the `chsh`
command's handler cannot share its name with the `chsh` library module.
"""
