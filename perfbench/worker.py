"""One measuring process: set-up, untimed warm-up, closed timed loop.

Run by ``run.py``; prints one JSON object as its last stdout line.
``setup_s`` runs from the moment ``run.py`` launched this process
(``--t0-ns``, a ``CLOCK_MONOTONIC`` reading shared by both processes)
to the start of the first timed op, so it covers interpreter start,
imports, loading the sample tensors, building the inputs and the
warm-up that fills the cost tables.

``--prime`` instead loads (training if absent) every sample tensor
into the benchmark's own store, before any measured process starts.
``--record-digests`` rewrites ``digests.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def committed_digests(workload) -> list:
    """Committed pool digests of ``workload`` at the default seed, or
    ``None`` when none were recorded for its parameters."""
    try:
        entry = json.loads(DIGESTS.read_text())[workload.name]
    except (OSError, KeyError):
        return None
    return entry["digests"] if entry["params"] == workload.params else None


def run_worker(name: str, seed: int, seconds: float, trace: bool = False,
               part: int = 0, parts: int = 1, t0_ns: int = None,
               workload_kwargs: dict = None, spans_out: str = None) -> dict:
    """Set up one workload, warm it, run the timed loop; a result dict.

    This process owns pool inputs ``part``, ``part + parts``, ...
    ``workload_kwargs`` shrinks the workload (tests).  The closed loop
    issues the next op when the last returns and stops at the first op
    boundary after ``seconds`` of timed work, running at least one op.
    """
    if t0_ns is None:
        t0_ns = time.monotonic_ns()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    rec = patches = None
    if trace:
        from perfbench import tracing
        rec = tracing.SpanRecorder()
        patches = tracing.Patches(rec).install()
    try:
        workload = WORKLOADS[name](seed, **(workload_kwargs or {}))
        share = list(range(part, len(workload.keys), parts))
        workload.prepare(share)
        expected = None
        if seed == DEFAULT_SEED:
            expected = committed_digests(workload)
        problems = []
        warm = {}
        for k in share:
            out = workload.op(k)
            warm[k] = out.digest
            problems += [f"warm-up input {k}: {p}" for p in out.problems]
            if expected is not None and out.digest != expected[k]:
                problems.append(f"warm-up input {k}: digest differs from "
                                "the committed one")
        setup_counters = workload.counters()
        # Start timing from a collected heap, not mid-way through a
        # collection cycle that set-up garbage triggered.
        gc.collect()

        setup_s = (time.monotonic_ns() - t0_ns) / 1e9
        latencies, failures = [], []
        sizes, stats = 0, {}
        loop_start = time.perf_counter_ns()
        while True:
            k = share[len(latencies) % len(share)]
            if rec is not None:
                rec.op_id = len(latencies)
                with rec.span(tracing.OP_SPAN):
                    start = time.perf_counter_ns()
                    out = workload.op(k)
                    end = time.perf_counter_ns()
            else:
                start = time.perf_counter_ns()
                out = workload.op(k)
                end = time.perf_counter_ns()
            latencies.append((end - start) / 1e6)
            sizes += out.size
            for key, value in out.stats.items():
                stats[key] = stats.get(key, 0) + value
            bad = list(out.problems)
            if out.digest != warm[k]:
                bad.append("digest differs from warm-up")
            if expected is not None and out.digest != expected[k]:
                bad.append("digest differs from the committed one")
            if bad:
                failures.append(f"op {len(latencies) - 1} (input {k}): "
                                + "; ".join(bad))
            if (end - loop_start) / 1e9 >= seconds:
                break
        loop_s = (time.perf_counter_ns() - loop_start) / 1e9
    finally:
        if patches is not None:
            patches.remove()

    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "op_ms": latencies,
        "op_size": sizes / len(latencies),
        "op_unit": workload.unit,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_counters": setup_counters,
        "counters": workload.counters(),
        "stats": stats,
    }
    if rec is not None:
        result["layers"] = tracing.layer_totals(rec)
        if spans_out:
            tracing.write_spans(rec, spans_out)
    return result


def prime() -> dict:
    """Load every sample tensor through the store; count trainings."""
    from repro.vq.quantizer import VectorQuantizer

    from perfbench.workloads import load_samples

    trained = []
    quantize = VectorQuantizer.quantize

    def counting(self, tensor):
        trained.append(self.config.name)
        return quantize(self, tensor)

    VectorQuantizer.quantize = counting
    try:
        load_samples()
    finally:
        VectorQuantizer.quantize = quantize
    return {"trained": len(trained)}


def record_digests() -> dict:
    """Pool digests of every workload at the default seed."""
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.prepare(range(len(workload.keys)))
        outs = [workload.op(k) for k in range(len(workload.keys))]
        bad = [p for o in outs for p in o.problems]
        if bad:
            raise SystemExit(f"{name}: {bad}")
        out[name] = {"params": workload.params,
                     "digests": [o.digest for o in outs]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--t0-ns", type=int)
    parser.add_argument("--spans-out")
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.prime:
        print(json.dumps(prime()))
        return 0
    if args.record_digests:
        DIGESTS.write_text(json.dumps(record_digests(), indent=1,
                                      sort_keys=True) + "\n")
        return 0
    result = run_worker(args.workload, args.seed, args.seconds,
                        trace=bool(args.trace), part=args.part,
                        parts=args.parts, t0_ns=args.t0_ns,
                        spans_out=args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
