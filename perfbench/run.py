"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chat-prefix --seed 0 \\
        --seconds 30 --trace 0

Every workload is a closed loop driven by one single-threaded process.
``--trace 0`` splits ``--seconds`` of timed work, and the seed's pool
of inputs, over three fresh processes and prints the end-to-end metrics: ``setup_s`` (median over
the three processes), ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms``
(over every timed op) and ``peak_rss_mb`` (median).  ``--trace 1`` runs
one untraced and one traced process on the same third of the pool,
half the seconds each, and prints
the per-layer metrics of the traced one plus ``trace.overhead_ratio``.

Before any measured process starts, the sample tensors are loaded into
(or, on a fresh checkout, trained into) the benchmark's own store under
``.bench_build/perfbench``, so no measured process ever trains one.
BLAS/OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("codegen-grid", "chat-prefix", "fleet-poisson")
#: Fresh processes per untraced run; ``setup_s`` is their median.
PROCESSES = 3
#: Wall-clock limits (s): measured processes of one run, and priming
#: (which trains the sample tensors on a fresh checkout).
RUN_TIMEOUT_S = 170
PRIME_TIMEOUT_S = 800
#: Layer spans reported as ``<name>.calls`` / ``<name>.s`` per timed op.
TIMED_SPANS = (
    "gpu.banks.average_degree", "kernels.counters",
    "core.hotness.profile_hotness", "core.codegen.generate",
    "serve.costs.step_us", "serve.scheduler.schedule",
    "serve.scheduler.complete", "serve.paging.ensure",
    "serve.paging.release", "serve.prefix.match", "serve.prefix.insert",
    "serve.prefix.evict_lru", "cluster.fleet.route",
)
#: Layers whose set-up time (``<name>.setup_s``) is reported too: the
#: cost-table build that the serve workloads pay in set-up.
SETUP_SPANS = ("gpu.banks.average_degree", "kernels.counters",
               "core.hotness.profile_hotness", "core.codegen.generate")


class BenchError(Exception):
    """A run that cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_SAMPLE_CACHE"] = str(WORKDIR / "samples")
    return env


def run_child(args: list, timeout_s: float) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line, parsed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} timed out after {timeout_s:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def tail(latencies: list) -> tuple:
    """(value, percentile): the latency with exactly ten timed ops above
    it, i.e. the highest percentile with at least ten ops beyond it;
    the maximum when there are ten ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ops_per_s(result: dict) -> float:
    return len(result["op_ms"]) / result["loop_s"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list) -> dict:
    latencies = [x for r in results for x in r["op_ms"]]
    ops = len(latencies)
    tail_ms, _ = tail(latencies)
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in results),
                          "s"),
        "ops_per_s": metric(ops / sum(r["loop_s"] for r in results),
                            "1/s"),
        "op_p50_ms": metric(statistics.median(latencies), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced process.

    Units say what each value is normalised by: ``/op`` values are per
    timed op, ``s/setup`` values are the traced process's set-up total.
    """
    n = len(traced["op_ms"])
    layers = traced["layers"]
    zero = {"timed": (0, 0.0, 0.0), "setup": (0, 0.0, 0.0)}

    def layer(name):
        return layers.get(name, zero)

    out = {}
    for name in TIMED_SPANS:
        calls, secs, _ = layer(name)["timed"]
        out[f"{name}.calls"] = metric(calls / n, "calls/op")
        out[f"{name}.s"] = metric(secs / n, "s/op")
    for name in SETUP_SPANS:
        out[f"{name}.setup_s"] = metric(layer(name)["setup"][1], "s/setup")
    for name in ("core.codegen.generate", "serve.simulator.run",
                 "cluster.fleet.run"):
        out[f"{name}.self_s"] = metric(layer(name)["timed"][2] / n, "s/op")
    out["cluster.fleet.replica_step.calls"] = metric(
        layer("cluster.fleet.replica_step")["timed"][0] / n, "calls/op")
    out["obs.report.metrics.s"] = metric(
        layer("obs.report.metrics")["timed"][1] / n, "s/op")
    out["bench.workloads.samples.s"] = metric(
        layer("bench.workloads.samples")["setup"][1], "s/setup")
    out["serve.requests.make_trace.s"] = metric(
        layer("serve.requests.make_trace")["setup"][1], "s/setup")
    out["vq.samples_trained"] = metric(
        sum(layer("vq.quantize")[p][0] for p in ("timed", "setup")),
        "count")

    setup, end = traced["setup_counters"], traced["counters"]
    out["core.engine.memo_misses_setup"] = metric(
        setup.get("memo_misses", 0), "count")
    out["core.engine.memo_misses_timed"] = metric(
        end.get("memo_misses", 0) - setup.get("memo_misses", 0), "count")
    out["serve.costs.table_hits"] = metric(
        (end.get("table_hits", 0) - setup.get("table_hits", 0)) / n,
        "count/op")
    out["serve.costs.table_entries"] = metric(
        end.get("table_entries", 0), "count")

    stats = traced["stats"]
    lookups = stats.get("prefix_lookups", 0)
    for name, key in (("serve.scheduler.preemptions", "preemptions"),
                      ("serve.prefix.evicted_blocks", "evicted_blocks"),
                      ("serve.prefix.lookups", "prefix_lookups"),
                      ("serve.events.events", "events")):
        out[name] = metric(stats.get(key, 0) / n, "count/op")
    out["serve.prefix.hit_rate"] = metric(
        stats.get("prefix_hits", 0) / lookups if lookups else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(
        ops_per_s(traced) / ops_per_s(untraced), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repro source tree (src/repro)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    WORKDIR.mkdir(parents=True, exist_ok=True)

    try:
        primed = run_child(["--prime"], PRIME_TIMEOUT_S)
        print(f"sample store: {primed['trained']} tensors trained",
              file=sys.stderr)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--parts", str(PROCESSES)]
        if args.trace:
            half = ["--seconds", str(args.seconds / 2), "--part", "0"]
            spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz"
            untraced = run_child(common + half,
                                 deadline - time.monotonic())
            traced = run_child(common + half + ["--trace", "1",
                                                "--spans-out", str(spans)],
                               deadline - time.monotonic())
            results = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            third = ["--seconds", str(args.seconds / PROCESSES)]
            results = [run_child(common + third + ["--part", str(i)],
                                 deadline - time.monotonic())
                       for i in range(PROCESSES)]
            metrics = end_to_end(results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    latencies = [x for r in results for x in r["op_ms"]]
    failures = [f for r in results for f in r["failures"]]
    problems = [p for r in results for p in r["problems"]]
    _, tail_pct = tail(latencies)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "op_unit": results[0]["op_unit"],
        "op_size": results[0]["op_size"],
        "timed_ops": len(latencies),
        "op_tail_percentile": tail_pct,
        "setup_s_each": [r["setup_s"] for r in results],
        "failures": failures[:10],
        "problems": problems[:10],
    }))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
