"""Golden pin of the command-line contract.

``golden/cli_outputs.json`` holds two things:

- the exit code and stdout of every command of the README tour, run in-process
  through ``main()`` from a fresh directory after ``sample-data``;
- a snapshot of the argument parser: for every parser (the top level, each
  verb and each leaf command) its ordered actions and its mutually exclusive
  groups.  The snapshot records what argparse was told, not how it formats
  ``--help``, so it does not depend on the Python version.

A change to how the CLI is written must leave every byte of it in place.
Regenerate (only when the CLI is meant to change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import shlex
import tempfile

from prostd.cli import build_parser, canonical_json, main

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_outputs.json"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def tour_commands() -> list[list[str]]:
    return [shlex.split(line[2:])[1:]
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("$ prostd ")]


def tour_outputs(workdir) -> list[dict]:
    """Run the README tour in ``workdir``; its first command writes the
    sample data the others read."""
    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in tour_commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = e.code
            out.append({"argv": argv, "exit": code, "stdout": stdout.getvalue()})
    finally:
        os.chdir(cwd)
    return out


def _action(a: argparse.Action) -> dict:
    row = {
        "class": type(a).__name__,
        "option_strings": list(a.option_strings),
        "dest": a.dest,
        "default": a.default,
        "type": getattr(a.type, "__name__", None),
        "choices": list(a.choices) if a.choices is not None else None,
        "required": a.required,
        "help": a.help,
        "metavar": a.metavar,
        "nargs": a.nargs,
    }
    if isinstance(a, argparse._SubParsersAction):
        # the commands listed in the parent's help: only those given a help
        row["listed"] = [[c.dest, c.help] for c in a._get_subactions()]
    return row


def parser_snapshot() -> dict:
    out = {}

    def walk(parser):
        out[parser.prog] = {
            "description": parser.description,
            "actions": [_action(a) for a in parser._actions],
            "exclusive": [{"required": g.required,
                           "options": [a.option_strings for a in g._group_actions]}
                          for g in parser._mutually_exclusive_groups],
        }
        for a in parser._actions:
            if isinstance(a, argparse._SubParsersAction):
                for child in a.choices.values():
                    walk(child)

    walk(build_parser())
    return out


def golden_outputs(workdir) -> dict:
    return {"tour": tour_outputs(workdir), "parsers": parser_snapshot()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_tour_outputs_match_golden(tmp_path):
    want = _golden()["tour"]
    got = json.loads(canonical_json(tour_outputs(tmp_path)))
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g == w, w["argv"]


def test_parser_matches_golden():
    want = _golden()["parsers"]
    got = json.loads(canonical_json(parser_snapshot()))
    assert len(want) == 21  # the top level, 4 verbs and 16 leaf commands
    assert sorted(got) == sorted(want)
    for prog in want:
        assert got[prog] == want[prog], prog


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(canonical_json(golden_outputs(tmp)), encoding="utf-8")
