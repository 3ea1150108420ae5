"""Fuzz the README tour: one flag value of one command replaced by a bad one.

Each case runs in-process through ``main()`` from a directory holding the
sample data.  Whatever the value (an out-of-range integer, an empty string,
a malformed word or coefficient, a missing or wrong file), the command must
end with exit code 0, 1 or 2 and let no exception escape.  Rings and levels
stay small: integers are at most one digit long, and a word power large
enough to matter is refused by the enumeration bound.
"""

import contextlib
import io
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prostd.cli import main  # noqa: E402
from test_cli_golden import tour_commands  # noqa: E402

BAD_VALUES = [
    "-1", "0", "1", "9", "",
    # words
    "x", "x0", "x1^", "[x1", "(x1", "x1]", "[x1, x2", "x1^9999999", ")", "x1 x9",
    # coefficients and argument lists
    "2,", ",", "t^", "abc", "2,4", "2,4,8,16", "2;4", "-", "t", "1/2", "2,4,8; 6",
    # files: missing, a directory, and sample files of the wrong kind
    "missing.json", "data", "data/broken.json", "data/additive.json", "data/dirprod.json",
]

# short text without multi-digit runs, so no ring or level grows large
_TEXT = st.text(alphabet="x1[](),^-; t.", max_size=8).filter(
    lambda s: not re.search(r"\d\d", s))


def _value_slots(argv) -> list[int]:
    """Indices of the flag values and positional arguments of a command."""
    i, slots = 1 if argv[0] == "probe" else 2, []
    while i < len(argv):
        if not argv[i].startswith("--"):
            slots.append(i)
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            slots.append(i + 1)
            i += 1
        i += 1
    return slots


# every tour command after sample-data, which writes the files the others read
CASES = [(argv, slot) for argv in tour_commands()[1:] for slot in _value_slots(argv)]


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse rejects the value itself
            return e.code


def test_value_slots_cover_flags_and_positionals():
    argv = ["fgl", "check", "additive", "--p", "3", "--D", "6"]
    assert _value_slots(argv) == [2, 4, 6]
    assert _value_slots(["probe", "--word", "x1^2", "--format", "json"]) == [2, 4]
    assert len(CASES) >= 40


def test_mutated_tour_commands_exit_cleanly(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(["sample-data", "data"]) == 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(CASES), value=st.sampled_from(BAD_VALUES) | _TEXT)
    def mutated(case, value):
        argv, slot = case
        argv = argv[:slot] + [value] + argv[slot + 1:]
        assert _exit_code(argv) in (0, 1, 2), argv

    mutated()
