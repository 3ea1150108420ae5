import json

import pytest

from prostd.atlas import extension_from_json
from prostd.cli import main
from prostd.fgl import builtin, law_from_json
from prostd.rings import padic
from prostd.stdgrp import StandardGroup


@pytest.fixture()
def samples(tmp_path):
    assert main(["sample-data", str(tmp_path)]) == 0
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- exit codes -----------------------------------------------------------------------


def test_check_pass_and_fail(samples, capsys):
    code, out, err = run(capsys, ["fgl", "check", "additive"])
    assert code == 0 and "law: PASS" in out and err == ""
    code, out, err = run(capsys, ["fgl", "check", str(samples / "broken.json")])
    assert code == 1 and "law: FAIL" in out
    assert "unit-right: FAIL (component 1: X1^2)" in out


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, ["fgl", "check", "no_such_law.json"])
    assert code == 2 and "FileNotFoundError" in err and out == ""


def test_invalid_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["fgl", "check", str(bad)])
    assert code == 2 and "JSONDecodeError" in err


@pytest.mark.parametrize("kind", ["json", "word"])
def test_deep_nesting_is_an_error_line(tmp_path, capsys, kind):
    # nesting deeper than the interpreter's recursion limit is reported like
    # any other malformed input, never as a traceback
    if kind == "json":
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv, want = ["fgl", "check", str(deep)], (2, "JSONDecodeError")
    else:
        word = "(" * 3000 + "x1" + ")" * 3000
        argv, want = ["word", "series", "--law", "additive", "--word", word], (1, "WordSyntaxError")
    code, out, err = run(capsys, argv)
    assert code == want[0] and out == ""
    assert err.startswith(f"error: {want[1]}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, content", [
    (["fgl", "check"], [1, 2]),  # a list where an object belongs
    (["fgl", "check"], {"spec": {"kind": "p-adic", "p": 2, "K": 4}}),  # no "F"
    (["group", "inv", "--x", "2,2,2", "--group"], {"law": 3}),
    (["atlas", "validate", "--level", "1", "--extension"], {"L": []}),
])
def test_wrong_json_shape_is_data_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, argv + [str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ShapeError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_flag_conflicts_are_usage_errors(samples, capsys):
    code, out, err = run(capsys, ["fgl", "transport", "multiplicative"])
    assert code == 2 and "usage:" in err
    code, out, err = run(capsys, ["group", "mul", "--x", "2", "--y", "2",
                                  "--law", "additive", "--m", "1"])
    assert code == 2 and "--Dt" in err
    # neither --Dt without --m nor --law beside --group may be silently dropped
    code, out, err = run(capsys, ["group", "mul", "--x", "2", "--y", "2",
                                  "--law", "additive", "--Dt", "3"])
    assert (code, out, err) == (2, "", "error: usage: --Dt needs --m\n")
    code, out, err = run(capsys, ["group", "mul", "--x", "2,4,8", "--y", "6,2,4",
                                  "--group", str(samples / "heisenberg_group.json"),
                                  "--law", "additive"])
    assert (code, out) == (2, "") and "--group" in err and "--law" in err
    # --level picks exhaustive mode and --samples picks sampled mode; giving
    # both must be rejected up front, not resolved by silently dropping one
    with pytest.raises(SystemExit) as ei:
        main(["atlas", "validate", "--extension", str(samples / "dirprod.json"),
              "--level", "2", "--samples", "10"])
    assert ei.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv, given, beside", [
    (["fgl", "check", "LAW/additive.json", "--p", "4", "--m", "1"], "--p, --m", "the law file"),
    (["fgl", "inverse", "LAW/additive.json", "--ring", "eq-char"], "--ring", "the law file"),
    (["word", "series", "--word", "x1", "--law", "LAW/heisenberg.json", "--D", "3"], "--D",
     "the law file"),
    (["group", "inv", "--group", "LAW/heisenberg_group.json", "--x", "2,4,8", "--N", "3"],
     "--N", "--group"),
    (["group", "inv", "--group", "LAW/heisenberg_group.json", "--x", "2,4,8", "--K", "5",
      "--dim", "1"], "--K, --dim", "--group"),
])
def test_flags_that_do_not_apply_are_usage_errors(samples, capsys, argv, given, beside):
    # a law file fixes its ring, truncation and dimension, and a group file
    # its level; the flags for them apply to catalogue laws alone
    argv = [a.replace("LAW", str(samples)) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: usage: {given} not allowed with {beside}")


def test_catalogue_defaults_apply_only_where_flags_are_left_out(samples, capsys):
    explicit = ["--p", "2", "--K", "4", "--ring", "p-adic", "--D", "4", "--dim", "1"]
    inverse = ["fgl", "inverse", "multiplicative"]
    assert run(capsys, inverse) == run(capsys, inverse + explicit)
    inv = ["group", "inv", "--x", "2", "--law", "additive"]
    assert run(capsys, inv) == run(capsys, inv + explicit + ["--N", "1"])
    law = str(samples / "heisenberg.json")
    assert run(capsys, ["group", "inv", "--law", law, "--x", "2,4,8", "--N", "1"]) == \
        (0, "(30, 28, 0)\n", "")
    code, out, err = run(capsys, ["group", "inv", "--law", law, "--x", "2,4,8", "--N", "3"])
    assert (code, out) == (1, "") and "MaximalIdealError" in err


def test_domain_errors_exit_one(samples, capsys):
    code, out, err = run(capsys, ["word", "eval", "--word", "x1]", "--law",
                                  "additive", "--args", "2"])
    assert code == 1 and "WordSyntaxError" in err
    code, out, err = run(capsys, ["group", "inv", "--x", "1", "--law", "additive"])
    assert code == 1 and "MaximalIdealError" in err
    code, out, err = run(capsys, ["group", "mul", "--x", "2,4,8,1", "--y", "6,2,4",
                                  "--group", str(samples / "heisenberg_group.json")])
    assert (code, out) == (1, "")
    assert err == "error: ValueError: expected 3 coordinates, got 4\n"
    # a prime too large to test exactly is refused at once, not trial-divided
    code, out, err = run(capsys, ["group", "inv", "--x", "2", "--law", "additive",
                                  "--p", str(2**127 - 1)])
    assert (code, out) == (1, "") and err.startswith("error: ValueError: p must be below ")
    code, out, err = run(capsys, ["atlas", "validate", "--extension",
                                  str(samples / "inversion_p2.json"), "--samples", "-5"])
    assert code == 1 and out == ""
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    code, out, err = run(capsys, ["probe", "--word", "x1^2", "--extension",
                                  str(samples / "inversion_p2.json"), "--lmax", "1",
                                  "--grid-depth", "0"])
    assert code == 1 and out == ""
    assert err == "error: ValueError: grid depth must be in 1..3, got 0\n"


def test_truncation_visible_quotient_exits_one(capsys):
    # the inverse of x + y + xy is cut at D=3, which the level-6 quotient sees;
    # with --D 8 the same abelian image is the identity alone
    argv = ["word", "image", "--word", "[x1, x2]", "--M", "6", "--law", "multiplicative",
            "--p", "2", "--K", "8"]
    code, out, err = run(capsys, argv + ["--D", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ExactnessError: quotient level M=6 exceeds D*N=3 ")
    assert err.count("\n") == 1
    code, out, err = run(capsys, argv + ["--D", "8"])
    assert code == 0 and "size: 1" in out and err == ""


@pytest.mark.parametrize("text", ["abc", "-5"])
def test_bad_enum_bound_env_exits_one(monkeypatch, capsys, text):
    monkeypatch.setenv("PROSTD_ENUM_BOUND", text)
    code, out, err = run(capsys, ["group", "quotient", "--M", "2", "--law",
                                  "additive", "--p", "3", "--K", "3"])
    assert (code, out) == (1, "")
    assert err == ("error: ValueError: PROSTD_ENUM_BOUND must be a positive integer, "
                   f"got '{text}'\n")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["fgl", "frobenius"])
    assert ei.value.code == 2


# -- determinism -----------------------------------------------------------------------


def test_json_output_is_deterministic(samples, capsys):
    argv = ["fgl", "inverse", "multiplicative", "--K", "6", "--D", "6",
            "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second and first[0] == 0
    payload = json.loads(first[1])
    assert law_from_json(payload).F == builtin("multiplicative", padic(2, 6), 6).F


def test_sample_data_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sample-data", str(a)]) == 0
    assert main(["sample-data", str(b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == ["additive.json", "broken.json", "dirprod.json",
                     "heisenberg.json", "heisenberg_group.json",
                     "inversion_p2.json", "inversion_p3.json",
                     "mult_deformed.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sample_files_reload(samples):
    for name in ["additive.json", "heisenberg.json", "mult_deformed.json"]:
        law_from_json(json.loads((samples / name).read_text()))
    for name in ["inversion_p2.json", "inversion_p3.json", "dirprod.json"]:
        extension_from_json(json.loads((samples / name).read_text()))
    with pytest.raises(ValueError):
        law_from_json(json.loads((samples / "broken.json").read_text()))


# -- command output -----------------------------------------------------------------------


def test_group_arithmetic_matches_library(samples, capsys):
    base = ["--group", str(samples / "heisenberg_group.json")]
    code, out, err = run(capsys, ["group", "mul", "--x", "2,4,8",
                                  "--y", "6,2,4"] + base)
    G = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1)
    expect = G.mul(G.element(["2", "4", "8"]), G.element(["6", "2", "4"]))
    assert code == 0 and out.strip() == str(expect)
    code, out, err = run(capsys, ["group", "pow", "--x", "2,4,8", "--n", "-3"] + base)
    assert code == 0
    assert out.strip() == str(G.power(G.element(["2", "4", "8"]), -3))


def test_group_quotient_listing(capsys):
    code, out, err = run(capsys, ["group", "quotient", "--M", "2", "--law",
                                  "additive", "--p", "3", "--K", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size: 3"
    assert lines[1:] == ["(0)", "(3)", "(6)"]


def test_word_commands(samples, capsys):
    code, out, err = run(capsys, ["word", "series", "--word", "[x1, x2]",
                                  "--law", "heisenberg", "--K", "5", "--D", "5"])
    assert code == 0
    assert out.splitlines()[0] == "W1 = 0"
    assert "X1*X5" in out and "X2*X4" in out
    code, out, err = run(capsys, ["word", "image", "--word", "x1^2", "--M", "3",
                                  "--law", "heisenberg", "--K", "5", "--D", "5",
                                  "--closure", "verbal", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 8 and payload["closure"] == "verbal"


def test_atlas_commands(samples, capsys):
    ext = str(samples / "dirprod.json")
    code, out, err = run(capsys, ["atlas", "validate", "--extension", ext,
                                  "--samples", "25"])
    assert code == 0 and "ok: true" in out and "mode: sampled 25" in out
    code, out, err = run(capsys, ["atlas", "marginal", "--word", "[x1, x2]",
                                  "--extension", ext])
    assert code == 0 and "all-constant: true" in out
    p3 = str(samples / "inversion_p3.json")
    code, out, err = run(capsys, ["atlas", "marginal", "--word", "x1^2",
                                  "--extension", p3])
    assert code == 0 and "all-constant: false" in out
    assert "witness: component 1: X1" in out
    code, out, err = run(capsys, ["atlas", "wordmap", "--word", "x1^2",
                                  "--extension", p3, "--cosets", "s"])
    assert code == 0 and out.splitlines()[0] == "target: 1"


def test_symbolic_commands_refuse_extensions_that_are_not_groups(samples, capsys):
    # C_s = X1 + X1^2 is not a law automorphism of the additive law, so the
    # file is not a group; atlas validate reports it, and the symbolic
    # commands refuse it before answering
    obj = json.loads((samples / "inversion_p3.json").read_text())
    obj["C"]["s"][0]["terms"] = [[[1], "1"], [[2], "1"]]
    bad = samples / "not_a_group.json"
    bad.write_text(json.dumps(obj))
    for argv in (["atlas", "marginal", "--word", "x1^2"],
                 ["atlas", "wordmap", "--word", "x1^2", "--cosets", "s"],
                 ["probe", "--word", "x1^2", "--lmax", "2", "--grid-depth", "2"]):
        code, out, err = run(capsys, argv + ["--extension", str(bad)])
        assert (code, out) == (1, "")
        assert err == "error: ExtensionDataError: associativity fails at (1, 1, s)\n"
    code, out, err = run(capsys, ["atlas", "validate", "--extension", str(bad)])
    assert code == 1 and "ok: false" in out and err == ""


def test_probe_commands(samples, capsys):
    code, out, err = run(capsys, ["probe", "--word", "x1",
                                  "--extension", str(samples / "inversion_p2.json"),
                                  "--lmax", "2", "--grid-depth", "3"])
    assert code == 0 and out.splitlines()[-1] == "min_l: 2"
    assert "l=1: witness" in out and "l=2: constant, trivial" in out
    code, out, err = run(capsys, ["probe", "--word", "x1^2",
                                  "--extension", str(samples / "inversion_p3.json"),
                                  "--lmax", "2", "--grid-depth", "2"])
    assert code == 0 and out.splitlines()[-1] == "min_l: none"


def test_text_and_json_agree(samples, capsys):
    argv = ["atlas", "marginal", "--word", "[x1, x2]",
            "--extension", str(samples / "dirprod.json")]
    code, text_out, _ = run(capsys, argv)
    code2, json_out, _ = run(capsys, argv + ["--format", "json"])
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["all_constant"] is True
    assert f"image-bound: {payload['image_bound']}" in text_out
