"""mechfront benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

With one workload it runs that workload in this process, single client, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end with --trace 0, per-layer with --trace 1).
The line before it, starting with "info ", records the run's environment.
With --workload all it runs each workload untraced and traced in fresh
processes and prints a table with the tracing overhead.

The program is imported from ../src next to this directory; without it the
benchmark exits 2 before measuring anything.  See README.md for the
workloads, the metrics and what each layer metric is predicted to move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("frontier", "enumerate", "verify")
DEFAULT_SEED = 1
SETUP_PAIRS = 9  # fresh-interpreter import pairs timed per run
WARMUP_REQUESTS = 3
PROBE_EVERY_S = 0.2  # at most this much time between two host probes
PROBE_WINDOW = 5  # probes whose median scales one request
OUT_DIR = ROOT / ".bench_out"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mechfront; "
                "print(time.perf_counter() - t, 'numpy' in sys.modules)")
NUMPY_IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                      "print(time.perf_counter() - t)")
# numpy's import time on the reference host: setup_s reads as the import
# time on a host where a fresh `import numpy` takes this long
NUMPY_IMPORT_REFERENCE_S = 0.1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int,
                   help="requests per pass (default: the workload's pool size; "
                        "smaller values are for smoke tests)")
    return p


def _clean_env() -> dict:
    """The environment users get: no MECHFRONT_THREADS override."""
    env = dict(os.environ)
    env.pop("MECHFRONT_THREADS", None)
    return env


def _require_source() -> None:
    if not (SRC / "mechfront" / "__init__.py").is_file():
        print(f"perfbench: no mechfront source under {SRC}", file=sys.stderr)
        sys.exit(2)


def _import_program() -> float:
    """Import mechfront from SRC; returns the import time in seconds."""
    _require_source()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mechfront
    elapsed = time.perf_counter() - t0
    if Path(mechfront.__file__).resolve().parent != SRC / "mechfront":
        print(f"perfbench: mechfront imported from {mechfront.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return elapsed


class SetupSampler:
    """Times `import mechfront` in fresh interpreters, spread over the run
    between passes, each paired with a fresh interpreter's `import numpy`
    run next to it, in alternating order.

    Import time on a shared host doubles for minutes at a time, and the
    request probe does not follow it.  Nearly all of that drift is numpy's
    own import (its BLAS threads start while the import goes on), which
    mechfront cannot change; what mechfront's import adds beyond numpy's
    stays nearly constant.  So numpy's part is replaced by a reference time
    and mechfront's part is measured against a numpy import timed next to
    it."""

    def __init__(self, seconds: float):
        self.program = []
        self.with_numpy = []  # whether each program import loaded numpy
        self.numpy = []
        self.seconds = seconds

    def _run(self, code: str, *args: str) -> list:
        done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                              env=_clean_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        return done.stdout.split()

    def _sample(self) -> None:
        numpy_first = len(self.program) % 2 == 1
        if numpy_first:
            self.numpy.append(float(self._run(NUMPY_IMPORT_PROBE)[0]))
        seconds, with_numpy = self._run(IMPORT_PROBE, str(SRC))
        self.program.append(float(seconds))
        self.with_numpy.append(with_numpy == "True")
        if not numpy_first:
            self.numpy.append(float(self._run(NUMPY_IMPORT_PROBE)[0]))

    def after_pass(self, elapsed: float) -> None:
        while (len(self.program) < SETUP_PAIRS
               and elapsed >= len(self.program) * self.seconds / SETUP_PAIRS):
            self._sample()

    def finish(self) -> float:
        """The median over pairs of the program's import time with its numpy
        part replaced: numpy's reference time plus what the program's import
        took beyond its pair's numpy import.  An import that does not load
        numpy counts as measured."""
        while len(self.program) < SETUP_PAIRS:
            self._sample()
        return statistics.median(
            NUMPY_IMPORT_REFERENCE_S + p - n if with_numpy else p
            for p, n, with_numpy in zip(self.program, self.numpy, self.with_numpy))


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _time_metrics(timed: dict) -> dict:
    """The end-to-end time metrics of one set of per-request times."""
    ok = timed["ok_latencies"]
    return {
        "throughput_rps": {"value": statistics.median(timed["pass_rps"]), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ok) * 1e3 if ok else 0.0,
                           "unit": "ms"},
        "latency_p90_ms": {"value": _percentile(ok, 90) * 1e3 if len(ok) > 1 else 0.0,
                           "unit": "ms"},
        "cpu_per_req_ms": {"value": statistics.median(timed["pass_cpu_ms"]), "unit": "ms"},
    }


def measure(workload, pool, seconds: float, tracer=None, after_pass=None,
            scaler=None) -> dict:
    """Closed loop, one client: whole passes over `pool` until `seconds` have
    gone by (at least one pass).  Each request is timed from call to return;
    its answer is checked after the timer stops.  Host probes run between
    requests, outside the timed span, and each request's wall and CPU time is
    also kept scaled to the reference host by the probes around it.

    A request of the pool counts as failed once, however many of its
    replays failed, so `failed` is a function of the seed alone."""
    import hostprobe
    from mechfront.model import BudgetExceededError
    from workloads import Refusal

    for req in pool[:WARMUP_REQUESTS]:
        try:
            workload.call(req)
        except Exception:
            pass  # warm-up only; the measured loop counts every failure
    if scaler is None:
        scaler = hostprobe.Scaler(PROBE_EVERY_S, PROBE_WINDOW)
    hostprobe.probe()  # untimed warm-up of the probe itself
    latencies, cpus, marks, ok = [], [], [], []
    failed_ids = set()
    wrong = []
    first_pass = []
    passes = 0
    t_begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_begin < seconds:
        for index, req in enumerate(pool):
            error = None
            marks.append(scaler.maybe_probe())
            if tracer:
                tracer.begin_request()
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                answer = workload.call(req)
            except BudgetExceededError as e:
                answer = Refusal(f"budget: {e}")
            except Exception as e:  # counted and reported, the loop goes on
                answer, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            c1 = _cpu_seconds()
            if tracer:
                tracer.end_request()
            latencies.append(t1 - t0)
            cpus.append(c1 - c0)
            if error is None and not isinstance(answer, Refusal):
                error = workload.check(req, answer)
            ok.append(error is None and not isinstance(answer, Refusal))
            if not ok[-1]:
                failed_ids.add(index)
                if error is not None:
                    wrong.append(error)
            if passes == 0:
                first_pass.append((req, answer))
        passes += 1
        if after_pass:
            after_pass(time.perf_counter() - t_begin)
    scaler.maybe_probe()  # a probe after the last request
    factors = scaler.factors(marks)
    out = {"failed": len(failed_ids), "wrong": wrong, "first_pass": first_pass,
           "passes": passes, "timed": len(latencies),
           "probe_ms": statistics.median(scaler.samples) * 1e3}
    for kind, scale in (("raw", [1.0] * len(factors)), ("scaled", factors)):
        lat = [x * f for x, f in zip(latencies, scale)]
        cpu = [x * f for x, f in zip(cpus, scale)]
        pass_rps, pass_cpu_ms, pass_seconds = [], [], []
        for lo in range(0, len(lat), len(pool)):  # passes are whole pools
            rows = slice(lo, lo + len(pool))
            pass_seconds.append(sum(lat[rows]))
            pass_rps.append(sum(ok[rows]) / pass_seconds[-1])
            pass_cpu_ms.append(sum(cpu[rows]) / len(pool) * 1e3)
        out[kind] = {"ok_latencies": [x for x, good in zip(lat, ok) if good],
                     "pass_seconds": pass_seconds, "pass_rps": pass_rps,
                     "pass_cpu_ms": pass_cpu_ms}
    return out


def run_one(args) -> int:
    env_threads = os.environ.pop("MECHFRONT_THREADS", None)
    first_import = _import_program()
    import hostprobe
    import mechfront
    import numpy
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = args.requests or workload.pool_size
    pool = workload.pool(random.Random(args.seed), size)

    tracer = None
    sampler = None
    problems = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mechfront)
        problems += [f"binding {b} not found" for b in tracer.missing]
    else:
        sampler = SetupSampler(args.seconds)
        problems += [f"{b} is wrapped in an untraced run"
                     for b in tracing.wrapped_bindings(mechfront)]
    scaler = hostprobe.Scaler(PROBE_EVERY_S, PROBE_WINDOW)
    try:
        res = measure(workload, pool, args.seconds, tracer,
                      sampler.after_pass if sampler else None, scaler)
    finally:
        if tracer:
            tracer.uninstall()
    setup = sampler.finish() if sampler else None

    attempted = len(pool)  # each request of the pool once; passes replay them
    scaled = res["scaled"]
    ok = scaled["ok_latencies"]
    problems += res["wrong"][:5]
    run_error = workloads.run_level_check(args.workload, res["first_pass"])
    if run_error:
        problems.append(run_error)

    if tracer:
        counts = tracer.span_counts()
        problems += [f"layer {layer} recorded no span" for layer in workload.layers
                     if not counts.get(layer)]
        problems += [f"layer {name} recorded spans on this workload" for name in counts
                     if name.startswith(workload.absent)]
        metrics = tracer.metrics()
        metrics["trace.throughput_rps"] = {"value": statistics.median(scaled["pass_rps"]),
                                           "unit": "1/s"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}.npz")
    else:
        if not ok:
            problems.append("no request succeeded")
        metrics = {
            **_time_metrics(scaled),
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "setup_s": {"value": setup, "unit": "s"},
        }

    analysis = mechfront.analysis
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__,
        # the frontier sweep's default worker count; 1 once the pool is gone
        "workers": analysis.thread_count() if hasattr(analysis, "thread_count") else 1,
        "MECHFRONT_THREADS_removed": env_threads is not None,
        "pool": len(pool), "passes": res["passes"], "timed": res["timed"],
        "pass_seconds": [round(x, 4) for x in res["raw"]["pass_seconds"]],
        "attempted": attempted, "samples": len(ok),
        "failed_ratio": res["failed"] / attempted,
        # the host's speed during the run, and the metrics before scaling
        "probe_ms": res["probe_ms"], "reference_probe_ms": hostprobe.REFERENCE_S * 1e3,
        "unscaled": {k: v["value"] for k, v in _time_metrics(res["raw"]).items()},
        # import times in seconds: this process's own, then the fresh pairs
        "first_import_s": first_import,
        "setup_samples_s": sampler.program if sampler else [],
        "setup_numpy_s": sampler.numpy if sampler else [],
        "problems": problems,
    }
    print("info " + json.dumps(info))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _last_json(text: str):
    info, result = None, None
    for line in text.splitlines():
        if line.startswith("info "):
            info = json.loads(line[5:])
        elif line.startswith("{"):
            result = json.loads(line)
    return info, result


def run_all(args) -> int:
    """Each workload in fresh processes, untraced then traced, as a table."""
    _require_source()
    all_correct = True
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.requests:
                cmd += ["--requests", str(args.requests)]
            done = subprocess.run(cmd, cwd=ROOT, env=_clean_env(), capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(done.stderr)
            info, result = _last_json(done.stdout)
            if done.returncode != 0 or result is None:
                print(f"{name} trace={trace}: exited {done.returncode} without a result")
                all_correct = False
                continue
            results[trace] = (info, result)
            all_correct = all_correct and result["correct"]
        if 0 not in results:
            continue
        info, result = results[0]
        print(f"\n== {name}  seed={info['seed']} nproc={info['nproc']} "
              f"python={info['python']} numpy={info['numpy']} workers={info['workers']}")
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={info['samples']} passes={info['passes']}")
        print(f"   {'failed_ratio':<44} {info['failed_ratio']:>14.6g} ratio")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<44} {v['value']:>14.6g} {v['unit']}")
        if 1 in results:
            traced = results[1][1]["metrics"]
            for metric, v in traced.items():
                if v["value"]:
                    print(f"   {metric:<44} {v['value']:>14.6g} {v['unit']}")
            base = result["metrics"]["throughput_rps"]["value"]
            overhead = 1 - traced["trace.throughput_rps"]["value"] / base
            print(f"   {'tracing overhead (throughput)':<44} {overhead:>14.1%}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
