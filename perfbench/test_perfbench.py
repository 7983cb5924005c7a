"""The benchmark's own tests: checkers reject tampered answers, tampered
answers are counted as failed, every metric is printed, and the benchmark
refuses to run without the program's source.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostprobe  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mechfront.analysis import MonotonicityResult  # noqa: E402
from mechfront.model import MechanismId  # noqa: E402


def _first(name):
    wl = workloads.WORKLOADS[name]
    return wl, wl.pool(random.Random(3), 5)


def _replace_col(text, row, col, value):
    lines = text.splitlines()
    cols = lines[row].split(",")
    cols[col] = value
    lines[row] = ",".join(cols)
    return "\n".join(lines) + "\n"


def test_frontier_checker_rejects_tampered_rows():
    wl, pool = _first("frontier")
    req = pool[0]
    rc, text = wl.call(req)
    assert wl.check(req, (rc, text)) is None
    assert wl.check(req, (rc, _replace_col(text, 1, 1, "99"))) is not None  # wrong bound
    bound = text.splitlines()[2].split(",")[1]
    above = f"{float(bound) * 1.01:.6g}"
    assert wl.check(req, (rc, _replace_col(text, 2, 3, above))) is not None  # poa_emp > bound
    assert wl.check(req, (1, text)) is not None


def test_enumerate_checker_rejects_extra_winner():
    check = workloads.WORKLOADS["enumerate"].check
    fp = workloads.EnumerateRequest(MechanismId.fp(), (27, 11, 10))
    # the grid lets machine 1 win at bid 1.1, one step above the fastest
    assert workloads.enumerate_call(fp) == frozenset({1, 2})
    assert check(fp, frozenset({1, 2})) is None
    assert check(fp, frozenset({0, 1, 2})) is not None
    assert check(fp, frozenset({1})) is not None  # misses the fastest
    spa = workloads.EnumerateRequest(MechanismId.spa(1.5), (10, 40, 20))
    assert check(spa, workloads.enumerate_call(spa)) is None
    assert check(spa, frozenset({0, 1})) is not None


def test_verify_checker_rejects_forward_failure():
    wl, pool = _first("verify")
    req = next(r for r in pool if r.direction == "forward" and r.mech.kind != "fp")
    good = wl.call(req)
    assert wl.check(req, good) is None
    bad = MonotonicityResult(False, workloads.VERIFY_TRIALS, "forward", ((0, 0, 1, 0.1, 0.1),))
    assert wl.check(req, bad) is not None


@pytest.mark.parametrize("name, tamper", [
    ("frontier", lambda ans: (ans[0], _replace_col(ans[1], 1, 2, "0"))),
    # the complement drops a required winner or adds a forbidden one
    ("enumerate", lambda ans: frozenset(range(workloads.N)) - ans),
    ("verify", lambda ans: MonotonicityResult(False, workloads.VERIFY_TRIALS, "forward",
                                              ((0, 0, 1, 0.1, 0.1),))),
])
def test_tampered_answers_count_as_failed(name, tamper):
    wl = workloads.WORKLOADS[name]
    pool = wl.pool(random.Random(5), 5)
    if name == "verify":
        pool = [r for r in pool if r.direction == "forward"]
    tampered = workloads.Workload(wl.name, wl.pool, wl.pool_size,
                                  lambda req: tamper(wl.call(req)), wl.check,
                                  wl.layers, wl.absent)
    res = run.measure(tampered, pool, 0.0)
    assert res["timed"] == len(pool)
    assert res["failed"] == len(pool)
    assert len(res["wrong"]) == len(pool)


def test_scaler_uses_the_probes_around_each_request():
    scaler = hostprobe.Scaler(every_s=0.0, window=3)
    scaler.samples = [0.01, 0.02, 0.04, 0.02, 0.01]
    ref = hostprobe.REFERENCE_S
    # mark m: the request ran after probe m-1; windows are clamped at the ends
    assert scaler.factors([1, 3, 5]) == [ref / 0.02, ref / 0.02, ref / 0.02]
    assert scaler.factors([2]) == [ref / 0.02]
    assert scaler.factors([4]) == [ref / 0.02]
    scaler.samples = [0.01, 0.01, 0.04, 0.04, 0.04]
    assert scaler.factors([1, 5]) == [ref / 0.01, ref / 0.04]


def test_setup_replaces_the_numpy_import_by_its_reference(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PAIRS", 3)
    sampler = run.SetupSampler(0.0)
    sampler.program = [0.20, 0.31, 0.05]
    sampler.numpy = [0.15, 0.25, 0.20]
    sampler.with_numpy = [True, True, False]  # the last import skipped numpy
    ref = run.NUMPY_IMPORT_REFERENCE_S
    assert sampler.finish() == pytest.approx(ref + 0.05)
    sampler.with_numpy = [False, False, False]
    assert sampler.finish() == pytest.approx(0.20)


def test_self_time_counts_overlapping_children_once():
    t = tracing.Tracer()
    spans = ((0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (8.0, 9.0, 0), (2.0, 3.0, 1))
    for start, end, parent in spans:
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.name.append(0)
        t.request.append(0)
    # span 0's children overlap (worker threads); span 1's child does not
    assert t.self_times().tolist() == [10.0 - 7.0, 4.0 - 1.0, 4.0, 1.0, 1.0]


def _spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "0", "--trace", str(trace), "--requests", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in _spec()[key]}
    units = {m["name"]: m["unit"] for m in _spec()[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert result["attempted"] >= 1
    assert result["correct"], done.stderr


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
