"""Per-layer tracing of prostd from outside the package.

`Tracer.install()` replaces public functions and methods of the prostd
modules with wrappers; `src/` is never edited.  A module-level function is
replaced in every prostd module that imported it, so calls between modules
go through the wrapper too.  Span wrappers record a span (name, start, end,
parent span, query id) while the tracer is recording and always add to the
call count and self time; the `Coefficient` wrappers only count, because
there are millions of such calls in a run.

Self time is a span's duration minus the time its child spans cover.  The
benchmark reads the counters at the end of the trace window (set-up plus the
first round of queries), so `.calls` repeat exactly for a given seed.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, layer metric stem)
SPANS = (
    ("rings", "evaluate_terms", "rings.evaluate_terms"),
    ("rings", "specialise", "rings.specialise"),
    ("rings", "representatives", "rings.representatives"),
    ("series", "Series.__mul__", "series.Series.mul"),
    ("series", "substitute", "series.substitute"),
    ("series", "compose", "series.compose"),
    ("series", "constancy", "series.constancy"),
    ("fgl", "verify", "fgl.verify"),
    ("fgl", "formal_inverse", "fgl.formal_inverse"),
    ("fgl", "builtin", "fgl.builtin"),
    ("fgl", "law_from_json", "fgl.law_from_json"),
    ("stdgrp", "QuotientGroup.__init__", "stdgrp.QuotientGroup.init"),
    ("stdgrp", "QuotientGroup.mul", "stdgrp.QuotientGroup.mul"),
    ("stdgrp", "StandardGroup.mul", "stdgrp.StandardGroup.mul"),
    ("stdgrp", "StandardGroup.inv", "stdgrp.StandardGroup.inv"),
    ("stdgrp", "StandardGroup.power", "stdgrp.StandardGroup.power"),
    ("words", "WordExpr.evaluate", "words.WordExpr.evaluate"),
    ("words", "word_image", "words.word_image"),
    ("words", "verbal_subgroup", "words.verbal_subgroup"),
    ("words", "marginal_subgroup", "words.marginal_subgroup"),
    ("words", "word_series", "words.word_series"),
    ("atlas", "HQuotient.mul", "atlas.HQuotient.mul"),
    ("atlas", "TransversalData.mul", "atlas.TransversalData.mul"),
    ("atlas", "validate_transversal", "atlas.validate_transversal"),
    ("atlas", "coset_word_series", "atlas.coset_word_series"),
    ("atlas", "check_marginality", "atlas.check_marginality"),
    ("atlas", "extension_from_json", "atlas.extension_from_json"),
    ("specialise", "concision_probe", "specialise.concision_probe"),
    ("specialise", "transport_coherence", "specialise.transport_coherence"),
)
COUNTS = (
    ("rings", "Coefficient.__mul__", "rings.Coefficient.mul"),
    ("rings", "Coefficient.__rmul__", "rings.Coefficient.mul"),
    ("rings", "Coefficient.__add__", "rings.Coefficient.add"),
    ("rings", "Coefficient.__radd__", "rings.Coefficient.add"),
    ("rings", "Coefficient.mod_ideal_power", "rings.Coefficient.mod_ideal_power"),
    ("stdgrp", "QuotientGroup.inv", "stdgrp.QuotientGroup.inv"),
    ("specialise", "Specialisation.__call__", "specialise.Specialisation.call"),
)

# The per-layer metrics, each with its unit and which way is better, and the
# end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("rings.evaluate_terms.calls", "count", "lower", "query_p50_ms on quotient-dense/sparse"),
    ("rings.evaluate_terms.self_s", "s", "lower", "query_p50_ms on quotient-dense/sparse"),
    ("rings.Coefficient.mod_ideal_power.calls", "count", "lower", "query_p50_ms on quotient-dense/sparse"),
    ("rings.Coefficient.mul.calls", "count", "lower", "queries_per_s on symbolic"),
    ("rings.Coefficient.add.calls", "count", "lower", "queries_per_s on symbolic"),
    ("rings.specialise.calls", "count", "lower", "queries_per_s on symbolic"),
    ("rings.specialise.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("rings.representatives.self_s", "s", "lower", "setup_s on quotient-dense/sparse"),
    ("series.Series.mul.calls", "count", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.Series.mul.self_s", "s", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.substitute.calls", "count", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.substitute.self_s", "s", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.substitute.terms_out", "count", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.compose.calls", "count", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.compose.self_s", "s", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.constancy.calls", "count", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("series.constancy.self_s", "s", "lower", "queries_per_s, query_p90_ms on symbolic"),
    ("fgl.verify.calls", "count", "lower", "queries_per_s on symbolic"),
    ("fgl.verify.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("fgl.formal_inverse.calls", "count", "lower", "queries_per_s on symbolic"),
    ("fgl.formal_inverse.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("fgl.builtin.self_s", "s", "lower", "setup_s on every workload"),
    ("fgl.law_from_json.self_s", "s", "lower", "setup_s on every workload"),
    ("stdgrp.QuotientGroup.mul.calls", "count", "lower", "query_p50_ms on quotient-dense"),
    ("stdgrp.QuotientGroup.mul.self_s", "s", "lower", "query_p50_ms on quotient-dense"),
    ("stdgrp.QuotientGroup.mul.distinct_ratio", "ratio", "higher", "query_p50_ms on quotient-dense"),
    ("stdgrp.QuotientGroup.inv.calls", "count", "lower", "query_p50_ms on quotient-dense"),
    ("stdgrp.QuotientGroup.init.self_s", "s", "lower", "setup_s on quotient-dense/sparse"),
    ("stdgrp.StandardGroup.mul.calls", "count", "lower", "query_p50_ms on quotient-sparse"),
    ("stdgrp.StandardGroup.mul.self_s", "s", "lower", "query_p50_ms on quotient-sparse"),
    ("stdgrp.StandardGroup.inv.calls", "count", "lower", "query_p50_ms on quotient-sparse"),
    ("stdgrp.StandardGroup.inv.self_s", "s", "lower", "query_p50_ms on quotient-sparse"),
    ("stdgrp.StandardGroup.power.calls", "count", "lower", "query_p50_ms on quotient-sparse"),
    ("stdgrp.StandardGroup.power.self_s", "s", "lower", "query_p50_ms on quotient-sparse"),
    ("words.WordExpr.evaluate.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("words.WordExpr.evaluate.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("words.word_image.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("words.word_image.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("words.word_image.calls_in_verbal", "count", "lower", "query_p90_ms on quotient-dense"),
    ("words.verbal_subgroup.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("words.verbal_subgroup.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("words.marginal_subgroup.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("words.marginal_subgroup.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("words.word_series.calls", "count", "lower", "queries_per_s on symbolic"),
    ("words.word_series.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("atlas.HQuotient.mul.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("atlas.HQuotient.mul.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("atlas.TransversalData.mul.calls", "count", "lower", "query_p90_ms on quotient-dense"),
    ("atlas.TransversalData.mul.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("atlas.validate_transversal.self_s", "s", "lower", "query_p90_ms on quotient-dense"),
    ("atlas.coset_word_series.calls", "count", "lower", "queries_per_s on symbolic"),
    ("atlas.coset_word_series.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("atlas.check_marginality.calls", "count", "lower", "queries_per_s on symbolic"),
    ("atlas.check_marginality.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("atlas.extension_from_json.self_s", "s", "lower", "setup_s and query_p50_ms on cli-tour"),
    ("specialise.concision_probe.calls", "count", "lower", "queries_per_s on symbolic"),
    ("specialise.concision_probe.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("specialise.transport_coherence.calls", "count", "lower", "queries_per_s on symbolic"),
    ("specialise.transport_coherence.self_s", "s", "lower", "queries_per_s on symbolic"),
    ("specialise.Specialisation.call.calls", "count", "lower", "queries_per_s on symbolic"),
    ("cli.interpreter_s", "s", "lower", "query_p50_ms on cli-tour"),
    ("cli.import_s", "s", "lower", "query_p50_ms on cli-tour"),
    ("cli.main_s", "s", "lower", "query_p50_ms on cli-tour"),
    ("trace.queries_per_s", "1/s", "higher", "none: traced throughput, for the tracing overhead"),
)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[list] = []
        self.recording = True
        self.query = -1                     # -1 while setting up
        self.pairs: set = set()             # distinct QuotientGroup.mul arguments
        self.terms_out = 0                  # terms returned by substitute
        self.image_in_verbal = 0            # word_image calls under verbal_subgroup
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_query: list[int] = []
        self.window: dict | None = None
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, nid: int, before=None, after=None):
        tracer, calls, self_s, stack = self, self.calls, self.self_s, self.stack
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            calls[nid] += 1
            if tracer.recording:
                idx = len(tracer.span_name)
                tracer.span_name.append(nid)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(stack[-1][1] if stack else -1)
                tracer.span_query.append(tracer.query)
            else:
                idx = -1
            if before is not None:
                before(args)
            frame = [0.0, idx, nid]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[nid] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if idx >= 0:
                    tracer.span_start[idx] = t0
                    tracer.span_end[idx] = t1
            if after is not None:
                after(out)
            return out

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__doc__ = fn.__doc__
        return wrapped

    def _count(self, fn, nid: int):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapped

    def _pair(self, args):
        if self.recording:
            self.pairs.add((args[1], args[2]))

    def _image_in_verbal(self, args):
        if self.stack and self.stack[-1][2] == self._verbal:
            self.image_in_verbal += 1

    def _terms_out(self, out):
        self.terms_out += sum(len(s.terms) for s in getattr(out, "components", (out,)))

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target found in the imported prostd modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "prostd" or name.startswith("prostd.")}
        self._verbal = self._id("words.verbal_subgroup")
        before = {"stdgrp.QuotientGroup.mul": self._pair,
                  "words.word_image": self._image_in_verbal}
        after = {"series.substitute": self._terms_out}
        for targets, make in ((SPANS, "span"), (COUNTS, "count")):
            for modname, path, stem in targets:
                mod = mods.get(f"prostd.{modname}")
                try:
                    owner, attr = _resolve(mod, path)
                    orig = owner.__dict__[attr]
                except (AttributeError, KeyError, TypeError):
                    self.missing.append(f"{modname}.{path}")
                    continue
                nid = self._id(stem)
                if make == "span":
                    new = self._span(orig, nid, before.get(stem), after.get(stem))
                else:
                    new = self._count(orig, nid)
                if isinstance(owner, type):
                    setattr(owner, attr, new)
                else:
                    for m in mods.values():
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, new)
        return self

    # -- results -----------------------------------------------------------------

    def end_window(self) -> None:
        """Freeze the counters for the per-layer metrics and stop recording spans."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        qcalls = calls.get("stdgrp.QuotientGroup.mul", 0)
        self.window = {
            "calls": calls,
            "self_s": self_s,
            "extra": {
                "series.substitute.terms_out": self.terms_out,
                "words.word_image.calls_in_verbal": self.image_in_verbal,
                "stdgrp.QuotientGroup.mul.distinct": len(self.pairs),
                "stdgrp.QuotientGroup.mul.distinct_ratio": len(self.pairs) / qcalls if qcalls else 0.0,
            },
        }
        self.recording = False
        self.pairs = set()

    def spans(self) -> dict:
        """The recorded spans as columns; times in microseconds from the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        us = lambda t: round((t - t0) * 1e6)
        return {
            "names": self.names,
            "name": self.span_name,
            "start": [us(t) for t in self.span_start],
            "end": [us(t) for t in self.span_end],
            "parent": self.span_parent,
            "query": self.span_query,
        }


def merge_windows(windows) -> dict:
    """Sum the trace windows of several processes (the CLI tour's commands)."""
    out = {"calls": {}, "self_s": {}, "extra": {}}
    for w in windows:
        for part in ("calls", "self_s", "extra"):
            for key, val in w[part].items():
                out[part][key] = out[part].get(key, 0) + val
    qcalls = out["calls"].get("stdgrp.QuotientGroup.mul", 0)
    distinct = out["extra"].get("stdgrp.QuotientGroup.mul.distinct", 0)
    out["extra"]["stdgrp.QuotientGroup.mul.distinct_ratio"] = distinct / qcalls if qcalls else 0.0
    return out


def layer_values(window: dict, measured: dict) -> dict:
    """Every per-layer metric, by name, from the trace window and the values
    measured outside it; metrics of layers the run never entered read 0."""
    values = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        stem, _, kind = name.rpartition(".")
        if name in window["extra"]:
            values[name] = window["extra"][name]
        elif kind == "calls":
            values[name] = window["calls"].get(stem, 0)
        elif kind == "self_s":
            values[name] = window["self_s"].get(stem, 0.0)
        else:
            values[name] = measured.get(name, 0)
    return values
