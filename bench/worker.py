"""One benchmark process: set up a workload, then run its queries as a
single-client closed loop (each query starts when the previous one ended).

    python3 bench/worker.py PLAN.json [--setup-only] [--trace] [--seconds S]

The worker prints `READY` once set-up and warm-up are done, then one JSON line
with per-query latencies and answer digests; the normalised answers go to a
file under .bench_work/answers.  Only the library call of a
query is timed; turning the generated input into prostd objects before it and
normalising the answer after it are not.  The CLI tour runs each command as a
fresh `python3 -m prostd` process in a work directory inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:20]


# -- library workloads -------------------------------------------------------------


def _ints(el) -> list:
    return [int(str(c)) for c in el]


def _elements(els) -> list:
    return sorted(_ints(el) for el in els)


class Library:
    """Set-up objects and query execution for the three library workloads."""

    def __init__(self, workload: str):
        import prostd as ps

        self.ps = ps
        self.workload = workload
        self._transported: dict = {}
        heis = ps.builtin("heisenberg", ps.padic(2, 5), 5)
        if workload == "quotient-dense":
            self.Q = ps.StandardGroup(heis, 1).quotient(3)
            self.lookup = {tuple(_ints(el)): el for el in self.Q.elements}
            self.ext = ps.inversion_extension(
                ps.StandardGroup(ps.builtin("additive", ps.padic(2, 4), 4), 1))
            ps.word_image(ps.parse_word("x1^2"), self.Q)
        elif workload == "quotient-sparse":
            self.G = ps.StandardGroup(heis, 1)
            self.Q = self.G.quotient(5)
            self.Q.mul(self.Q.elements[1], self.Q.elements[2])
            self.G.mul(self.element([2, 4, 8]), self.element([6, 2, 4]))
        elif workload == "symbolic":
            self.heis = {D: ps.builtin("heisenberg", ps.padic(2, 5), D) for D in range(5, 9)}
            self.mult = {(m, D): ps.builtin("multiplicative", ps.nested(ps.padic(2, 6), m, 4), D)
                         for m in (1, 2) for D in (8, 10, 12, 14, 16)}
            from plan import CATALOGUE
            self.catalogue = {
                canonical([name, ring, D, dim]):
                    ps.builtin(name, ps.RingSpec.from_json(ring), D, dim=dim)
                for name, ring, D, dim in CATALOGUE}
            self.ext = self._extensions()
            self.grids = {(name, depth): ps.ideal_grid(ext.L.law.spec, depth)
                          for name, ext in self.ext.items() for depth in (2, 3)}
            for ext in self.ext.values():
                ps.check_marginality(ps.parse_word("[x1, x2]"), ext)
        else:
            raise ValueError(f"{workload} is not a library workload")

    def _extensions(self) -> dict:
        ps = self.ps

        def additive(base):
            return ps.StandardGroup(ps.builtin("additive", ps.nested(base, 1, 3), 4), 1)

        mult = ps.StandardGroup(
            ps.builtin("multiplicative", ps.nested(ps.padic(2, 4), 1, 4), 7), 1)
        return {
            "inversion_p2": ps.inversion_extension(additive(ps.eqchar(2, 3))),
            "inversion_p3": ps.inversion_extension(additive(ps.padic(3, 3))),
            "direct_product": ps.direct_product(mult, ps.cyclic_table(2)),
        }

    def element(self, coords):
        return self.G.element([str(c) for c in coords])

    def law_series(self, q: dict):
        """The F series of a catalogue law, transported as the query asks."""
        key = canonical([q["law"], q["ring"], q["D"], q["dim"], q["transport"]])
        if key not in self._transported:
            ps = self.ps
            law = self.catalogue[canonical([q["law"], q["ring"], q["D"], q["dim"]])]
            tr = q["transport"]
            if tr is None:
                F = law.F
            elif tr["kind"] == "precision":
                F = law.F.map_coefficients(ps.PrecisionReduction(law.spec, tr["K"]))
            else:
                F = law.F.map_coefficients(ps.Specialisation(law.spec, tr["point"]))
            self._transported[key] = F
        return self._transported[key]

    def prepare(self, q: dict):
        """(timed call, normaliser) for one query."""
        ps, op = self.ps, q["op"]
        w = ps.parse_word(q["word"]) if "word" in q else None
        if self.workload == "quotient-dense":
            Q = self.Q
            if op == "image":
                return lambda: ps.word_image(w, Q), _elements
            if op == "verbal":
                return lambda: ps.verbal_subgroup(w, Q), _elements
            if op == "marginal":
                return lambda: ps.marginal_subgroup(w, Q), _elements
            if op == "evaluate":
                args = [self.lookup[tuple(a)] for a in q["args"]]
                return lambda: w.evaluate(Q, args), _ints
            if op == "validate":
                ext, level = self.ext, q["level"]
                return lambda: ps.validate_transversal(ext, level=level), lambda r: r.to_json()
        if self.workload == "quotient-sparse":
            G, coords = self.G, lambda el: _ints(el.coords)
            if op == "image":
                return lambda: ps.word_image(w, self.Q), _elements
            if op == "group_mul":
                x, y = self.element(q["x"]), self.element(q["y"])
                return lambda: G.mul(x, y), coords
            if op == "group_inv":
                x = self.element(q["x"])
                return lambda: G.inv(x), coords
            if op == "group_power":
                x, n = self.element(q["x"]), q["n"]
                return lambda: G.power(x, n), coords
            if op == "group_evaluate":
                args = [self.element(a) for a in q["args"]]
                return lambda: w.evaluate(G, args), coords
        if self.workload == "symbolic":
            if op == "word_series_heis":
                law = self.heis[q["D"]]
                return lambda: ps.word_series(w, law), lambda ws: ws.W.to_json()
            if op == "word_series_mult":
                law = self.mult[(q["m"], q["D"])]
                return lambda: ps.word_series(w, law), lambda ws: ws.W.to_json()
            if op == "verify":
                F = self.law_series(q)
                return lambda: ps.verify(F), lambda r: r.to_json()
            if op == "formal_inverse":
                F = self.law_series(q)
                return lambda: ps.formal_inverse(F), lambda I: I.to_json()
            ext = self.ext[q["ext"]]
            if op == "marginality":
                return lambda: ps.check_marginality(w, ext), lambda r: r.to_json()
            grid = self.grids[(q["ext"], q["depth"])]
            if op == "probe":
                lmax = q["lmax"]
                return lambda: ps.concision_probe(w, ext, lmax, grid), lambda r: r.to_json()
            if op == "coherence":
                return (lambda: ps.transport_coherence(w, ext, grid),
                        lambda cs: [{"index": c.index, "ok": c.ok, "detail": c.detail} for c in cs])
        raise ValueError(f"unknown {self.workload} query op {op!r}")


# -- CLI tour ------------------------------------------------------------------------


def cli_env(trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # fixed hash order, so the traced commands' call counts repeat exactly;
    # untraced commands get hash randomisation, as in the determinism gate
    if trace:
        env["PYTHONHASHSEED"] = "0"
    else:
        env.pop("PYTHONHASHSEED", None)
    return env


class CliTour:
    """Each query is one README command in a fresh interpreter."""

    def __init__(self, trace: bool):
        from plan import SAMPLE_DATA

        self.trace = trace
        self.env = cli_env(trace)
        self.dir = WORK / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.summaries: list[Path] = []
        self.run(SAMPLE_DATA, summary=None)

    def command(self, argv, summary):
        if not self.trace:
            return [sys.executable, "-m", "prostd", *argv]
        return [sys.executable, str(BENCH / "clitrace.py"), str(summary or ""), *argv]

    def run(self, argv, summary):
        proc = subprocess.run(self.command(argv, summary), cwd=self.dir, env=self.env,
                              capture_output=True, timeout=120)
        return {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()}

    def prepare(self, q: dict, index: int, window: bool):
        summary = None
        if self.trace and window:
            summary = self.dir / f"trace-{index}.json"
            self.summaries.append(summary)
        return (lambda: self.run(q["argv"], summary)), (lambda a: a)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _median_wall(argv, env, n=5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_layers(tour: CliTour) -> tuple[dict, dict, list]:
    """Merged trace window of the first round's commands and the cli layer."""
    from tracing import merge_windows

    docs = [json.loads(p.read_text()) for p in tour.summaries]
    interpreter = _median_wall([sys.executable, "-c", "pass"], tour.env)
    imported = _median_wall([sys.executable, "-c", "import prostd.cli"], tour.env)
    cli = {
        "cli.interpreter_s": interpreter,
        "cli.import_s": imported - interpreter,
        "cli.main_s": statistics.median(d["main_s"] for d in docs),
    }
    spans = [dict(d["spans"], command=i) for i, d in enumerate(docs)]
    return merge_windows(d["window"] for d in docs), cli, spans


# -- the closed loop ------------------------------------------------------------------


def closed_loop(target, plan: dict, seconds: float, trace: bool, tracer, answers) -> dict:
    """Run queries until `seconds` have passed; a traced run also completes
    its trace window, the first round.  Each distinct answer goes to the file
    `answers` once, so the process's memory does not grow with the run."""
    queries, round_size = plan["queries"], plan["round_size"]
    window = round_size if trace else 0
    latencies, ids, seen, errors = [], [], set(), {}
    perf = time.perf_counter
    start = perf()
    n = 0
    while True:
        if tracer is not None:
            tracer.query = n
        q = queries[n % len(queries)]
        t0 = t1 = None
        try:
            if isinstance(target, CliTour):
                call, normalise = target.prepare(q, n, n < round_size)
            else:
                call, normalise = target.prepare(q)
            t0 = perf()
            out = call()
            t1 = perf()
            ans = normalise(out)
            key = digest(ans)
            if key not in seen:
                seen.add(key)
                answers.write(canonical([key, ans]) + "\n")
            ids.append(key)
        except Exception as e:  # a failed query is counted, the loop goes on
            now = perf()
            t0 = now if t0 is None else t0
            t1 = now if t1 is None else t1
            errors[n] = f"{type(e).__name__}: {e}"
            ids.append(None)
        latencies.append(t1 - t0)
        n += 1
        if tracer is not None and n == round_size:
            tracer.end_window()
        if perf() - start >= seconds and n >= window:
            break
    return {"latencies": latencies, "ids": ids,
            "errors": {str(k): v for k, v in errors.items()}}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    setup_only = "--setup-only" in args
    trace = "--trace" in args
    seconds = float(args[args.index("--seconds") + 1]) if "--seconds" in args else 10.0
    plan = json.loads(Path(args[0]).read_text())
    sys.path.insert(0, str(BENCH))
    workload = plan["workload"]
    tracer = None
    if workload == "cli-tour":
        target = CliTour(trace)
    else:
        sys.path.insert(0, str(SRC))
        import prostd  # noqa: F401  (imported before the tracer wraps it)

        if trace:
            from tracing import Tracer
            tracer = Tracer().install()
        target = Library(workload)
    print("READY", flush=True)
    try:
        if not setup_only:
            sys.stdout.write(json.dumps(measure(target, plan, seconds, trace, tracer)) + "\n")
    finally:
        if isinstance(target, CliTour):
            target.close()
    return 0


def measure(target, plan: dict, seconds: float, trace: bool, tracer) -> dict:
    answers = WORK / "answers" / f"{plan['workload']}-seed{plan['seed']}-{os.getpid()}.jsonl"
    answers.parent.mkdir(parents=True, exist_ok=True)
    with answers.open("w") as fh:
        result = closed_loop(target, plan, seconds, trace, tracer, fh)
    result["answers_file"] = str(answers.relative_to(ROOT))
    who = resource.RUSAGE_CHILDREN if isinstance(target, CliTour) else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if trace:
        if isinstance(target, CliTour):
            window, cli, spans = cli_layers(target)
        else:
            window, cli, spans = tracer.window, {}, tracer.spans()
            result["missing_targets"] = tracer.missing
        result["window"], result["cli"] = window, cli
        out = WORK / "spans" / f"{plan['workload']}-seed{plan['seed']}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(spans))
        result["spans_file"] = str(out.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())
