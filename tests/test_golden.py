"""Golden outputs of the symbolic layer.

The marginality tables, conciseness probes and transport-coherence checks of
the three ``sample-data`` extensions, and three word series, are pinned as
canonical JSON in ``golden/series_outputs.json``.  The file was written by
an earlier version of the package, so a change to how series store or
combine their terms must leave every byte of it in place.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib

from prostd.atlas import check_marginality, extension_from_json
from prostd.cli import _sample_objects, canonical_json
from prostd.fgl import builtin, law_from_json
from prostd.rings import nested, padic
from prostd.specialise import concision_probe, ideal_grid, transport_coherence
from prostd.words import parse_word, word_series

GOLDEN = pathlib.Path(__file__).with_name("golden") / "series_outputs.json"

EXTENSIONS = ("inversion_p2", "inversion_p3", "dirprod")
# [u^2, v^2] is marginal on all three extensions; [x1, x2] on the abelian
# quotients and x1 x2 x1 x2 on inversion_p2 only, so the other pairs pin a
# witness
MARGINAL_WORDS = ("[x1^2, x2^2]", "[x1, x2]", "x1 x2 x1 x2", "x1^2 x2^-1")
PROBE_WORDS = ("x1^2", "[x1, x2]")
COHERENCE_WORDS = {"inversion_p2": ("[x1^2, x2^2]", "x1 x2 x1 x2"),
                   "inversion_p3": ("[x1^2, x2^2]",),
                   "dirprod": ("[x1^2, x2^2]", "[x1, x2]")}
WORD_SERIES = (("heisenberg", padic(2, 5), 5, "[x1, x2] x1^2 x2^-1"),
               ("multiplicative", nested(padic(2, 6), 1, 4), 8, "x1 x2^-1 x1^2 [x1, x2]"))
# the sample law x + y + t1*x*y over Z/16[[t1]], whose coefficients carry t1
DEFORMED_WORD = "x1 x2^-1 x1^2 [x1, x2]"


def golden_outputs() -> dict:
    out = {}
    objects = _sample_objects()
    for name in EXTENSIONS:
        data = extension_from_json(objects[f"{name}.json"])
        spec = data.L.law.spec
        for text in MARGINAL_WORDS:
            rep = check_marginality(parse_word(text), data)
            out[f"marginality {name} {text}"] = rep.to_json()
        for depth in (2, 3):
            grid = ideal_grid(spec, depth)
            for text in PROBE_WORDS:
                rep = concision_probe(parse_word(text), data, 2, grid)
                out[f"probe {name} {text} depth {depth}"] = rep.to_json()
            for text in COHERENCE_WORDS[name]:
                checks = transport_coherence(parse_word(text), data, grid)
                out[f"coherence {name} {text} depth {depth}"] = [
                    {"index": c.index, "ok": c.ok, "detail": c.detail} for c in checks]
    for law_name, spec, D, text in WORD_SERIES:
        ws = word_series(parse_word(text), builtin(law_name, spec, D))
        out[f"word series {law_name} {spec.kind} {text}"] = ws.W.to_json()
    ws = word_series(parse_word(DEFORMED_WORD), law_from_json(objects["mult_deformed.json"]))
    out[f"word series mult_deformed {DEFORMED_WORD}"] = ws.W.to_json()
    return out


def test_symbolic_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(canonical_json(golden_outputs()))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(canonical_json(golden_outputs()), encoding="utf-8")
