"""Self-test of the benchmark: emitted metric names and failure counting.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

RUNNING_IDEAL = "abe,bc,cdf,ad"
RUNNING_BETTI = [9, 14, 6]  # beta of the square, as in the acceptance suite


@pytest.fixture(scope="module")
def lib():
    return bench.load_library(fresh=False)


@pytest.fixture(scope="module")
def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_benchmark_emits(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_sweep_emits_every_metric_and_counts_repeat(lib):
    items = bench.sweep_items(lib, seed=3, count=12)
    operation = bench.make_operation(lib, "sweep")
    passes, _ = bench.measure(items, operation, 0, traced=False)
    assert set(bench.end_to_end_metrics(passes, 0.5)) == set(bench.END_TO_END)
    assert bench.tally(passes) == (12, 0)

    counts = []
    for _ in range(2):
        passes, tracer = bench.measure(items, operation, 0, traced=True)
        metrics, problems = bench.per_layer_metrics(passes, tracer, len(items))
        assert problems == []
        assert set(metrics) == set(bench.PER_LAYER)
        assert bench.tally(passes) == (24, 0)
        counts.append(
            {n: metrics[n] for n, unit in bench.PER_LAYER.items() if unit == "count"}
        )
    assert counts[0] == counts[1]
    assert counts[0]["monomials.lcm_lattice.calls"] > 0


def test_betti_checks_pass_and_trace_the_cli(lib):
    item = bench.betti_item(lib, RUNNING_IDEAL, RUNNING_BETTI, lattice_size=0)
    operation = bench.make_operation(lib, "betti-q10-qq")
    passes, tracer = bench.measure([item], operation, 0, traced=True)
    metrics, problems = bench.per_layer_metrics(passes, tracer, 1)
    assert problems == []
    assert bench.tally(passes) == (2, 0)
    assert metrics["homology.rank.calls"] > 0 and metrics["homology.rank.gf2.s"] == 0


def test_corrupted_betti_vector_is_a_failure(lib):
    wrong = RUNNING_BETTI[:1] + [RUNNING_BETTI[1] + 1] + RUNNING_BETTI[2:]
    item = bench.betti_item(lib, RUNNING_IDEAL, wrong, lattice_size=0)
    operation = bench.make_operation(lib, "betti-q10-qq")
    passes, _ = bench.measure([item], operation, 0, traced=False)
    assert bench.tally(passes) == (1, 1)
    assert "reference" in passes[0].failures[0][1]


def test_nonzero_exit_is_a_failure(lib):
    item = bench.betti_item(lib, RUNNING_IDEAL, RUNNING_BETTI, lattice_size=0)
    fails = bench.check_betti(lib, item, 3, "", "resource limit: face cap")
    assert fails and "exit code 3" in fails[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
