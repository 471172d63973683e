"""Self-tests of the benchmark itself (not of vncalc).

    python3 -m pytest perfbench/tests -q

Each test runs ``run.py`` as the benchmark's users do, with one-second
runs; the whole file takes about a minute on a 2-core host.  Temporary
files go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import load_spans  # noqa: E402
from workloads import INPUT_SEEDS, WORKLOADS  # noqa: E402


def bench(*args: str, script: str = os.path.join(BENCH, "run.py"), cwd: str = ROOT):
    """(exit status, parsed result line or None, info or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    result = info = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
    return proc.returncode, result, info, proc.stderr


@pytest.fixture
def work_dir():
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_emits_every_layer_metric(workload):
    code, result, info, err = bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"
    )
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER[name]
        assert isinstance(metric["value"], (int, float))
    path = os.path.join(OUT_DIR, "results", f"{workload}-seed0-trace1.json")
    with open(path) as fh:
        reps = json.load(fh)["repetitions"]
    traced = [rep for rep in reps if "layers" in rep]
    untraced = [rep for rep in reps if "layers" not in rep]
    assert traced and untraced
    assert all(rep["digests"] == untraced[0]["digests"] for rep in reps)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.self_sum_s"] <= metrics["trace.traced_s"]
    assert metrics["trace.spans"] > 0
    spans = load_spans(os.path.join(OUT_DIR, "spans", workload))
    assert len(spans["start"]) == metrics["trace.spans"]
    assert all(
        spans["start"][i] <= spans["end"][i] and spans["parent"][i] < i
        for i in range(len(spans["start"]))
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_passes_every_check_and_emits_every_metric(workload):
    seed = 12345
    assert seed % INPUT_SEEDS != 0
    code, result, info, err = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"
    )
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and info["notes"] == []
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0
    assert {"python", "nproc", "cpu_model", "seed"} <= set(info)
    assert info["samples"]["setups"] > info["repetitions"]["untraced"]


def test_corrupted_golden_digest_fails_the_run(work_dir):
    shutil.copytree(
        BENCH, os.path.join(work_dir, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copytree(
        os.path.join(ROOT, "src"), os.path.join(work_dir, "src"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    path = os.path.join(work_dir, "perfbench", "golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    entry = golden["kernel-products"]["3"]
    entry["n=3"] = "0" * len(entry["n=3"])
    with open(path, "w") as fh:
        json.dump(golden, fh)
    code, result, info, err = bench(
        "--workload", "kernel-products", "--seed", "3", "--seconds", "1", "--trace", "0",
        script=os.path.join(work_dir, "perfbench", "run.py"), cwd=work_dir,
    )
    assert code == 1
    assert result is not None and not result["correct"] and result["failed"] > 0
    assert any("golden" in note for note in info["notes"])


def test_refuses_to_run_without_the_program(work_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    shutil.copytree(
        BENCH, os.path.join(work_dir, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, result, info, err = bench(
        "--workload", "cli-session", "--seed", "0", "--seconds", "1", "--trace", "0",
        script=os.path.join(work_dir, "perfbench", "run.py"), cwd=work_dir,
    )
    assert code != 0
    assert result is None
    assert "no vncalc sources" in err
