"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

Runs are tiny (half a second of queries); each still sets up the workload in
fresh processes and checks every answer against the reference model.
"""

import importlib.util
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import plan  # noqa: E402
import refmodel  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

TINY = 0.5


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_tiny_run_has_no_failures(workload):
    record = run.run(workload, seed=1, seconds=TINY, trace=False)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failures"]


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_traced_run_matches_untraced_and_repeats_its_counts(workload):
    plain = run.run(workload, seed=2, seconds=TINY, trace=False)
    traced = [run.run(workload, seed=2, seconds=TINY, trace=True) for _ in range(2)]
    assert traced[0]["attempted"] >= plan.make_plan(workload, 2)["round_size"]
    n = min(plain["attempted"], traced[0]["attempted"])
    assert n >= 1 and traced[0]["answer_ids"][:n] == plain["answer_ids"][:n]
    calls = [{k: v for k, v in t["layers"].items() if k.endswith(".calls")} for t in traced]
    assert calls[0] == calls[1]
    assert traced[0]["missing_targets"] == []


def test_wrong_reference_answer_counts_as_failure(monkeypatch, capsys):
    real = refmodel.expected

    def wrong(workload, query):
        answer = real(workload, query)
        return {"not": answer} if query["op"] == "verify" else answer

    monkeypatch.setattr(refmodel, "expected", wrong)
    code = run.main(["--workload", "symbolic", "--seed", "1", "--seconds", str(TINY)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_same_seed_gives_same_queries():
    for workload in plan.WORKLOADS:
        assert plan.make_plan(workload, 5) == plan.make_plan(workload, 5)
        assert plan.make_plan(workload, 5) != plan.make_plan(workload, 6)


def test_reference_model_agrees_with_test_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    hq = oracles.HeisQuotient(2, 1, 3)
    for x in hq.elements:
        assert refmodel.heis_inv(x, 8) == hq.inv(x)
        for y in hq.elements[::7]:
            assert refmodel.heis_mul(x, y, 8) == hq.mul(x, y)
    commutator = [(1, -1), (2, -1), (1, 1), (2, 1)]
    assert refmodel.heis_image(commutator, 3) == hq.image(commutator, 2)
    assert refmodel.heis_verbal([(1, 1), (1, 1)], 3) == hq.verbal([(1, 1), (1, 1)], 1)
    assert refmodel.geometric_inverse(1, 0, 8) == oracles.geometric_inverse(8)


def test_cli_tour_commands_are_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    documented = [shlex.split(line[2:])[1:] for line in readme if line.startswith("$ prostd ")]
    for argv in [plan.SAMPLE_DATA, *plan.CLI_TOUR]:
        assert list(argv) in documented


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)


def test_fails_without_prostd_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "symbolic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
