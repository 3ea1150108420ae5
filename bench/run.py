"""The prostd benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one exists): quotient-dense,
quotient-sparse, symbolic, cli-tour.  Each run generates its queries from the
seed (bench/plan.py), starts a fresh worker process that sets up the workload
and runs the queries as a single-client closed loop for S seconds
(bench/worker.py), then checks every answer against a reference model that
does not use prostd (bench/refmodel.py).

With --trace 0 the run reports the end-to-end metrics; set-up is repeated in
separate fresh processes and its median reported.  With --trace 1 the worker
wraps prostd's public functions (bench/tracing.py) and the run reports the
per-layer metrics of the trace window (set-up and the first round of queries).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit status is 0
when every answer checked out, 1 when any query failed its check or raised,
and 2 when the workload could not be run at all.  Each run also writes a
record (metadata, the queries it ran, latencies, metrics) under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import math
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import plan as plans  # noqa: E402
import refmodel  # noqa: E402
from tracing import LAYER_METRICS, layer_values  # noqa: E402
from worker import canonical  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60.0
RUN_GRACE = 90.0

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def _timed_out(signum, frame):
    raise TimeoutError


def spawn(plan_path: Path, flags, timeout: float):
    """Start a worker; return (seconds until READY, parsed output or None)."""
    # fixed hash order, so the traced `.calls` counts repeat exactly
    env = dict(os.environ, PYTHONHASHSEED="0")
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(math.ceil(timeout))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(plan_path), *flags],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise WorkerError("worker did not finish set-up")
        out = proc.stdout.read()
        proc.wait()
    except TimeoutError as e:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from e
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return setup_s, (json.loads(out.splitlines()[-1]) if out.strip() else None)


def check_answers(workload: str, queries, ids, answers: dict, errors: dict) -> list[int]:
    """Indices of the queries that raised or whose answer is wrong."""
    failed = {int(i) for i in errors}
    expected, verdicts, first_stdout = {}, {}, {}
    for i, aid in enumerate(ids):
        if aid is None:
            continue
        q, ans = queries[i % len(queries)], answers[aid]
        if workload == "cli-tour":
            argv = tuple(q["argv"])
            ok = (ans["exit"] == plans.cli_expected_exit(q["argv"])
                  and first_stdout.setdefault(argv, ans["stdout"]) == ans["stdout"])
        else:
            key = canonical(q)
            if (key, aid) not in verdicts:
                if key not in expected:
                    expected[key] = refmodel.expected(workload, q)
                verdicts[(key, aid)] = ans == expected[key]
            ok = verdicts[(key, aid)]
        if not ok:
            failed.add(i)
    return sorted(failed)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "host": platform.node(),
        "git_sha": git_sha(),
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns its record."""
    if not (ROOT / "src" / "prostd" / "__init__.py").is_file():
        raise WorkerError(f"no prostd sources under {ROOT / 'src'}")
    plan = plans.make_plan(workload, seed)
    plan_path = WORK / "plans" / f"{workload}-seed{seed}.json"
    plan_path.parent.mkdir(parents=True, exist_ok=True)
    plan_path.write_text(json.dumps(plan))

    flags = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(plan_path, ["--setup-only"], SETUP_TIMEOUT)[0])
    setup_s, out = spawn(plan_path, flags, seconds + RUN_GRACE)
    setups.append(setup_s)

    answers_file = ROOT / out["answers_file"]
    with answers_file.open() as fh:
        answers = dict(json.loads(line) for line in fh)
    answers_file.unlink()
    queries = plan["queries"]
    n = len(out["latencies"])
    failed = check_answers(workload, queries, out["ids"], answers, out["errors"])
    lat_ms = [t * 1000 for t in out["latencies"]]
    qps = n / sum(out["latencies"])
    record = {
        "meta": metadata(workload, seed, seconds, trace),
        "plan": str(plan_path.relative_to(ROOT)),
        "attempted": n,
        "failed": len(failed),
        "failures": {str(i): out["errors"].get(str(i), "wrong answer") for i in failed},
        "latencies_ms": lat_ms,
        "queries": [queries[i % len(queries)] for i in range(n)],
        "answer_ids": out["ids"],
    }
    if trace:
        record["layers"] = layer_values(out["window"], {**out["cli"], "trace.queries_per_s": qps})
        record["missing_targets"] = out.get("missing_targets", [])
        record["spans_file"] = out["spans_file"]
    else:
        record["metrics"] = {
            "queries_per_s": qps,
            "query_p50_ms": statistics.median(lat_ms),
            "query_p90_ms": percentile(lat_ms, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        record["setup_samples_s"] = setups
    record_path = WORK / "records" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record))
    record["record_file"] = str(record_path.relative_to(ROOT))
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    meta, n, failed = record["meta"], record["attempted"], record["failed"]
    print(f"workload {meta['workload']} seed {meta['seed']} trace {int(meta['trace'])}: "
          f"python {meta['python']}, nproc {meta['nproc']}, {meta['platform']}, "
          f"git {meta['git_sha'][:12]}")
    print(f"queries: {record['plan']} (record {record['record_file']})")
    if meta["trace"]:
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        moves = {name: m for name, _, _, m in LAYER_METRICS}
        for name, value in record["layers"].items():
            print(f"  {name:44s} {value:14.6g} {units[name]:6s} -> {moves[name]}")
        if record["missing_targets"]:
            print(f"  not found in prostd, reported as 0: {', '.join(record['missing_targets'])}")
        untraced = WORK / "records" / f"{meta['workload']}-seed{meta['seed']}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["queries_per_s"]
            traced = record["layers"]["trace.queries_per_s"]
            print(f"  tracing overhead: {traced:.4g} queries/s traced against {base:.4g} "
                  f"untraced on the same seed ({traced / base:.2f}x)")
        metrics = {name: {"value": record["layers"][name], "unit": units[name]}
                   for name in record["layers"]}
    else:
        m = record["metrics"]
        print(f"  queries_per_s {m['queries_per_s']:12.4f} 1/s")
        print(f"  query_p50_ms  {m['query_p50_ms']:12.4f} ms (n={n})")
        print(f"  query_p90_ms  {m['query_p90_ms']:12.4f} ms (n={n})")
        print(f"  setup_s       {m['setup_s']:12.4f} s  (median of {len(record['setup_samples_s'])})")
        print(f"  peak_rss_mb   {m['peak_rss_mb']:12.4f} MB")
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    print(f"  failed_ratio  {failed / n:12.4f} ({failed}/{n})")
    for i, why in list(record["failures"].items())[:5]:
        print(f"  failed query {i}: {record['queries'][int(i)]} -- {why}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        sys.stderr.write(f"bench: {args.workload}: {e}\n")
        return 2
    result = report(record)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
