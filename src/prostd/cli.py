"""Command-line frontend.

Verbs mirror the library: ``fgl`` (check, inverse, transport), ``group``
(mul, inv, pow, conj, quotient), ``word`` (eval, series, image), ``atlas``
(validate, wordmap, marginal), ``probe`` and ``sample-data``.

Each command is declared once, in ``build_parser``: its name, handler, help
and arguments.  The argument groups several commands share (law flags,
group flags, ``--bound``, ``--format``) are declared once as ordered tuples
of ``(flag, add_argument kwargs)`` specs, and each output shape (one group
element, a list of elements) has one renderer.

Laws are referenced either by a JSON file path or by a catalogue name
(additive, multiplicative, heisenberg) together with ring flags, which a
law or group file refuses, as ``--group`` refuses ``--N``.  JSON
output is canonical: sorted keys, two-space indent, graded-lex term order,
trailing newline, so identical inputs give byte-identical bytes.

Exit codes: 0 success, 1 a domain check failed or input data was invalid
(diagnostic on stderr or a failing report on stdout), 2 usage errors and
unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atlas import (
    check_marginality,
    coset_word_series,
    cyclic_table,
    direct_product,
    extension_from_json,
    extension_to_json,
    inversion_extension,
    validate_transversal,
)
from .errors import _json_shape
from .fgl import BUILTIN_LAWS, builtin, law_from_json, law_series_from_json, make_law, verify
from .rings import (
    PrecisionReduction,
    RingSpec,
    eqchar,
    nested,
    padic,
    parse_coefficient,
    residue_map,
)
from .series import Series, SeriesTuple
from .specialise import Specialisation, concision_probe, ideal_grid
from .stdgrp import StandardGroup
from .words import marginal_subgroup, parse_word, verbal_subgroup, word_image, word_series


class _Usage(Exception):
    """Flag combinations argparse cannot express; mapped to exit code 2."""


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(args, payload: dict, text_lines) -> int:
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")
    return 0


def _emit_element(args, el) -> int:
    return _emit(args, {"coords": [str(c) for c in el.coords]}, [str(el)])


def _emit_elements(args, elements, **fields) -> int:
    """A list of coordinate tuples: a ``size:`` line and one tuple a line, or
    the JSON ``size`` and ``elements`` beside ``fields``."""
    rows = [[str(c) for c in el] for el in elements]
    lines = [f"size: {len(rows)}"] + ["(" + ", ".join(row) + ")" for row in rows]
    return _emit(args, {**fields, "size": len(rows), "elements": rows}, lines)


def _series_lines(prefix: str, T: SeriesTuple) -> list[str]:
    return [f"{prefix}{i + 1} = {s}" for i, s in enumerate(T.components)]


# --------------------------------------------------------------------------
# shared loading helpers


# the catalogue defaults; the flags default to None, so that one given where
# it does not apply (beside a law or group file) is refused, not ignored
_LAW_DEFAULTS = {"p": 2, "K": 4, "ring": "p-adic", "D": 4, "dim": 1, "m": None, "Dt": None}


def _refuse(args, flags, beside: str) -> None:
    given = ", ".join(f"--{flag}" for flag in flags if getattr(args, flag) is not None)
    if given:
        raise _Usage(f"{given} not allowed with {beside}")


def _catalogue(args, ref: str) -> bool:
    """Whether ``ref`` names a catalogue law, whose defaults it fills in."""
    if ref not in BUILTIN_LAWS:
        _refuse(args, _LAW_DEFAULTS, f"the law file {ref}")
        return False
    vars(args).update({k: v for k, v in _LAW_DEFAULTS.items() if getattr(args, k) is None})
    return True


def _spec_from_args(args) -> RingSpec:
    base = padic(args.p, args.K) if args.ring == "p-adic" else eqchar(args.p, args.K)
    if (args.m is None) != (args.Dt is None):
        raise _Usage("--m needs --Dt" if args.Dt is None else "--Dt needs --m")
    return base if args.m is None else nested(base, args.m, args.Dt)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # nesting deeper than the interpreter's stack
            raise json.JSONDecodeError("JSON nested too deeply", "", 0) from None


def _load_law(args, ref: str):
    if _catalogue(args, ref):
        return builtin(ref, _spec_from_args(args), args.D, dim=args.dim)
    return law_from_json(_read_json(ref))


def _load_group(args) -> StandardGroup:
    if args.group and args.law:
        raise _Usage("give one of --group or --law, not both")
    if args.group:
        _refuse(args, ("N", *_LAW_DEFAULTS), "--group")
        obj = _read_json(args.group)
        with _json_shape("group"):
            law_obj = obj["law"]
        law = law_from_json(law_obj)
        with _json_shape("group"):
            return StandardGroup(law, obj["N"])
    if args.law:
        return StandardGroup(_load_law(args, args.law), 1 if args.N is None else args.N)
    raise _Usage("one of --group or --law is required")


def _parse_element(group: StandardGroup, text: str):
    return group.element([c.strip() for c in text.split(",")])


def _load_extension(args):
    """The extension file, proved a group before any symbolic work."""
    return extension_from_json(_read_json(args.extension)).check()


# --------------------------------------------------------------------------
# fgl


def _law_series_from_ref(args, ref: str) -> SeriesTuple:
    if _catalogue(args, ref):
        return _load_law(args, ref).F
    return law_series_from_json(_read_json(ref))


def cmd_fgl_check(args) -> int:
    report = verify(_law_series_from_ref(args, args.law_ref))
    lines = [f"{c.name}: " + ("ok" if c.ok else f"FAIL ({c.witness})")
             for c in report.checks]
    lines.append("law: " + ("PASS" if report.ok else "FAIL"))
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def cmd_fgl_inverse(args) -> int:
    law = make_law(_law_series_from_ref(args, args.law_ref))
    return _emit(args, law.to_json(), _series_lines("I", law.I))


def _transport_map(args, spec: RingSpec):
    chosen = [x for x in (args.point, args.residue or None, args.precision) if x]
    if len(chosen) != 1:
        raise _Usage("exactly one of --point, --residue, --precision is required")
    if args.point:
        return Specialisation(spec, [q.strip() for q in args.point.split(",")])
    if args.residue:
        return residue_map(spec)
    parts = [int(x) for x in args.precision.split(",")]
    if len(parts) > 2:
        raise _Usage("--precision takes K or K,Dt")
    return PrecisionReduction(spec, *parts)


def cmd_fgl_transport(args) -> int:
    law = _load_law(args, args.law_ref)
    out = law.map_coefficients(_transport_map(args, law.spec))
    lines = [f"spec: {out.spec.to_json()}"]
    lines += _series_lines("F", out.F) + _series_lines("I", out.I)
    return _emit(args, out.to_json(), lines)


# --------------------------------------------------------------------------
# group


def _cmd_group_op(args) -> int:
    """``group mul``, ``inv`` and ``pow``."""
    g = _load_group(args)
    x = _parse_element(g, args.x)
    if args.sub == "mul":
        return _emit_element(args, g.mul(x, _parse_element(g, args.y)))
    if args.sub == "inv":
        return _emit_element(args, g.inv(x))
    return _emit_element(args, g.power(x, args.n))


def cmd_group_conj(args) -> int:
    g = _load_group(args)
    C = g.conj_series(_parse_element(g, args.g))
    payload = {"spec": g.law.spec.to_json(), "d": g.d, "D": g.law.D, "C": C.to_json()}
    return _emit(args, payload, _series_lines("C", C))


def cmd_group_quotient(args) -> int:
    q = _load_group(args).quotient(args.M, args.bound)
    return _emit_elements(args, q.elements, M=args.M)


# --------------------------------------------------------------------------
# word


def cmd_word_eval(args) -> int:
    g = _load_group(args)
    w = parse_word(args.word)
    points = [_parse_element(g, part) for part in args.args.split(";")]
    return _emit_element(args, w.evaluate(g, points))


def cmd_word_series(args) -> int:
    law = _load_law(args, args.law)
    w = parse_word(args.word)
    ws = word_series(w, law)
    payload = {"word": w.text(), "k": w.k, "d": law.d, "D": law.D,
               "spec": law.spec.to_json(), "W": ws.W.to_json()}
    return _emit(args, payload, _series_lines("W", ws.W))


def cmd_word_image(args) -> int:
    g = _load_group(args)
    w = parse_word(args.word)
    q = g.quotient(args.M, args.bound)
    fn = {"none": word_image, "verbal": verbal_subgroup, "marginal": marginal_subgroup}
    out = fn[args.closure](w, q, args.bound)
    ordered = sorted(out, key=lambda el: tuple(c.sort_key() for c in el))
    return _emit_elements(args, ordered, word=w.text(), M=args.M, closure=args.closure)


# --------------------------------------------------------------------------
# atlas


def cmd_atlas_validate(args) -> int:
    data = extension_from_json(_read_json(args.extension))  # reports failures itself
    report = validate_transversal(data, level=args.level, samples=args.samples,
                                  seed=args.seed, bound=args.bound)
    lines = [f"mode: {report.mode}", f"checked: {report.checked}",
             "ok: " + ("true" if report.ok else "false")]
    lines += [f"failure: {f}" for f in report.failures]
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def cmd_atlas_wordmap(args) -> int:
    data = _load_extension(args)
    w = parse_word(args.word)
    cosets = tuple(t.strip() for t in args.cosets.split(","))
    cs = coset_word_series(w, data, cosets)
    payload = {"word": w.text(), "cosets": list(cs.cosets), "target": cs.target,
               "W": cs.W.to_json()}
    return _emit(args, payload, [f"target: {cs.target}"] + _series_lines("W", cs.W))


def cmd_atlas_marginal(args) -> int:
    data = _load_extension(args)
    w = parse_word(args.word)
    rep = check_marginality(w, data, args.bound)
    if rep.all_constant:
        lines = ["all-constant: true", f"image-bound: {rep.image_bound}"]
        for r in rep.rows:
            cs = ", ".join(r.cosets)
            vals = ", ".join(str(c) for c in r.constants)
            lines.append(f"cosets ({cs}) -> {r.target}: ({vals})")
    else:
        lines = ["all-constant: false",
                 "witness-cosets: (" + ", ".join(rep.witness_cosets) + ")",
                 f"witness: {rep.witness}"]
    return _emit(args, rep.to_json(), lines)


# --------------------------------------------------------------------------
# probe


def cmd_probe(args) -> int:
    data = _load_extension(args)
    w = parse_word(args.word)
    grid = ideal_grid(data.L.law.spec, args.grid_depth)
    report = concision_probe(w, data, args.lmax, grid, args.bound)
    lines = [f"word: {w.text()}", f"lmax: {args.lmax}"]
    for i, pt in enumerate(report.grid):
        lines.append(f"grid[{i}] = (" + ", ".join(str(q) for q in pt) + ")")
    for lv in report.levels:
        if lv.status == "witness":
            cs = ", ".join(lv.witness_cosets)
            lines.append(f"l={lv.l}: witness {lv.witness} at cosets ({cs})")
        else:
            van = ", ".join(str(i) for i in lv.vanishing)
            flag = "trivial" if lv.trivial else "non-trivial"
            lines.append(f"l={lv.l}: constant, {flag}, vanishing grid indices [{van}]")
    lines.append(f"min_l: {report.min_l if report.min_l is not None else 'none'}")
    return _emit(args, report.to_json(), lines)


# --------------------------------------------------------------------------
# sample data


def _broken_law_json() -> dict:
    spec = padic(2, 4)
    x = Series.variable(spec, 2, 4, 0)
    y = Series.variable(spec, 2, 4, 1)
    F = SeriesTuple.of(x + y + x * x)
    return {"d": 1, "D": 4, "spec": spec.to_json(), "F": F.to_json()}


def _deformed_law_json() -> dict:
    spec = nested(padic(2, 4), 1, 3)
    x = Series.variable(spec, 2, 5, 0)
    y = Series.variable(spec, 2, 5, 1)
    t1 = parse_coefficient(spec, "t1")
    law = make_law(SeriesTuple.of(x + y + (x * y).scale(t1)))
    return law.to_json()


def _sample_objects() -> dict:
    add_law = builtin("additive", padic(2, 4), 4)
    heis = builtin("heisenberg", padic(2, 5), 5)
    inv2 = inversion_extension(
        StandardGroup(builtin("additive", nested(eqchar(2, 3), 1, 3), 4), 1))
    inv3 = inversion_extension(
        StandardGroup(builtin("additive", nested(padic(3, 3), 1, 3), 4), 1))
    # D = 7 = zero valuation of the nested ring, so the truncated inverse
    # series is exact at full precision and sampled validation is sound
    dirp = direct_product(
        StandardGroup(builtin("multiplicative", nested(padic(2, 4), 1, 4), 7), 1),
        cyclic_table(2))
    return {
        "additive.json": add_law.to_json(),
        "heisenberg.json": heis.to_json(),
        "heisenberg_group.json": {"law": heis.to_json(), "N": 1},
        "broken.json": _broken_law_json(),
        "mult_deformed.json": _deformed_law_json(),
        "inversion_p2.json": extension_to_json(inv2),
        "inversion_p3.json": extension_to_json(inv3),
        "dirprod.json": extension_to_json(dirp),
    }


def cmd_sample_data(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    for name, obj in sorted(_sample_objects().items()):
        path = os.path.join(args.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(obj))
        sys.stdout.write(f"wrote {path}\n")
    return 0


# --------------------------------------------------------------------------
# parser: argument groups as ordered (flag, add_argument kwargs) specs


_REQUIRED = {"required": True}
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}

_FORMAT = (("--format", {"choices": ("text", "json"), "default": "text"}),)
_BOUND = (("--bound", _INT),)
_LAW_REF = (("law_ref", {"metavar": "LAW"}),)
_LAW_OPTS = (
    ("--p", _INT),
    ("--K", _INT),
    ("--ring", {"choices": ("p-adic", "eq-char")}),
    ("--D", _INT),
    ("--dim", _INT),
    ("--m", _INT),
    ("--Dt", _INT),
)
_LAW_HELP = "law JSON file or catalogue name"
_GROUP_OPTS = (
    ("--group", {"help": "group JSON file"}),
    ("--law", {"help": _LAW_HELP}),
    ("--N", _INT),
) + _LAW_OPTS
_X = (("--x", _REQUIRED),)
_WORD = (("--word", _REQUIRED),)
_EXTENSION = (("--extension", _REQUIRED),)


def _command(parent, name: str, func, *arguments, **help) -> None:
    """Add the leaf command ``name``.  Each argument is a ``(flag, kwargs)``
    spec, or a tuple of specs that form one mutually exclusive group.
    ``help`` is passed only when given: a command added with ``help=None``
    would still be listed in its parent's help."""
    p = parent.add_parser(name, **help)
    for spec in arguments:
        if isinstance(spec[0], str):
            p.add_argument(spec[0], **spec[1])
        else:
            group = p.add_mutually_exclusive_group()
            for flag, kwargs in spec:
                group.add_argument(flag, **kwargs)
    p.set_defaults(func=func)


def _verb(top, name: str, help: str):
    return top.add_parser(name, help=help).add_subparsers(dest="sub", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prostd",
        description="formal group laws and standard groups over truncated rings")
    top = parser.add_subparsers(dest="cmd", required=True)

    fgl = _verb(top, "fgl", "formal group laws")
    _command(fgl, "check", cmd_fgl_check, *_LAW_REF, *_LAW_OPTS, *_FORMAT,
             help="verify the law axioms symbolically")
    _command(fgl, "inverse", cmd_fgl_inverse, *_LAW_REF, *_LAW_OPTS, *_FORMAT,
             help="compute the formal inverse")
    _command(fgl, "transport", cmd_fgl_transport, *_LAW_REF,
             ("--point", {"help": "comma-separated base coefficients for t1..tm"}),
             ("--residue", {"action": "store_true", "help": "reduce mod p"}),
             ("--precision", {"help": "new K, or K,Dt for nested rings"}),
             *_LAW_OPTS, *_FORMAT, help="apply a coefficient map to a law")

    grp = _verb(top, "group", "standard group arithmetic")
    _command(grp, "mul", _cmd_group_op, *_X, ("--y", _REQUIRED), *_GROUP_OPTS, *_FORMAT)
    _command(grp, "inv", _cmd_group_op, *_X, *_GROUP_OPTS, *_FORMAT)
    _command(grp, "pow", _cmd_group_op, *_X, ("--n", _REQUIRED_INT), *_GROUP_OPTS, *_FORMAT)
    _command(grp, "conj", cmd_group_conj, ("--g", _REQUIRED), *_GROUP_OPTS, *_FORMAT,
             help="conjugation series of a group element")
    _command(grp, "quotient", cmd_group_quotient, ("--M", _REQUIRED_INT), *_GROUP_OPTS,
             *_BOUND, *_FORMAT, help="enumerate the level-M quotient")

    wrd = _verb(top, "word", "word maps")
    _command(wrd, "eval", cmd_word_eval, *_WORD,
             ("--args", {"required": True, "help": "semicolon-separated elements, "
                                                   "comma-separated coordinates"}),
             *_GROUP_OPTS, *_FORMAT, help="evaluate a word at group elements")
    _command(wrd, "series", cmd_word_series, *_WORD,
             ("--law", {"required": True, "help": _LAW_HELP}), *_LAW_OPTS, *_FORMAT,
             help="symbolic word-map series")
    _command(wrd, "image", cmd_word_image, *_WORD, ("--M", _REQUIRED_INT),
             ("--closure", {"choices": ("none", "verbal", "marginal"), "default": "none"}),
             *_GROUP_OPTS, *_BOUND, *_FORMAT, help="word image in a finite quotient")

    atl = _verb(top, "atlas", "transversal extensions")
    _command(atl, "validate", cmd_atlas_validate, *_EXTENSION,
             (("--level", _INT), ("--samples", _INT)),
             ("--seed", {"type": int, "default": 0}), *_BOUND, *_FORMAT,
             help="check the extension group axioms")
    _command(atl, "wordmap", cmd_atlas_wordmap, *_WORD, *_EXTENSION,
             ("--cosets", {"required": True, "help": "comma-separated coset labels"}),
             *_FORMAT, help="word-map series on fixed cosets")
    _command(atl, "marginal", cmd_atlas_marginal, *_WORD, *_EXTENSION, *_BOUND, *_FORMAT,
             help="constancy over all coset tuples")

    _command(top, "probe", cmd_probe, *_WORD, *_EXTENSION, ("--lmax", _REQUIRED_INT),
             ("--grid-depth", {"type": int, "required": True, "dest": "grid_depth"}),
             *_BOUND, *_FORMAT, help="search for l with w^l trivial")
    _command(top, "sample-data", cmd_sample_data, ("dir", {}),
             help="write example JSON inputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as e:
        sys.stderr.write(f"error: usage: {e}\n")
        return 2
    except json.JSONDecodeError as e:
        sys.stderr.write(f"error: JSONDecodeError: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
