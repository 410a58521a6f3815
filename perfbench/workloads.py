"""The benchmark's workloads: inputs from a seed, one op, its checks.

Every workload draws a fixed pool of inputs from the benchmark seed;
each measuring process builds and times its own share of the pool.
Set-up runs each input of the share once, untimed, which fills the
lazily built cost tables and records the digest of that input's
simulated outputs; the timed loop then cycles through the same share,
so no timed op ever meets an input set-up has not seen.  A timed op passes when its
digest equals the set-up digest of the same input (and, for the default
seed, the digest committed in ``digests.json``) and it served every
request with none rejected.

See ``README.md`` beside this file for why each workload exists and
which layers it exercises or bypasses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.bench import serving
from repro.bench import workloads as samples
from repro.bench.cluster import replica_kv_budget
from repro.core.codegen import VQLLMCodeGenerator
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig

SPEC = RTX4090
MODEL = llama_7b()
#: Seed whose pool digests are committed in ``digests.json``.
DEFAULT_SEED = 0
#: Sample tensors every workload loads (offline artifacts at seed 0).
WEIGHT_ALGOS = ("quip#-4", "aqlm-3", "gptvq-2")
KV_ALGOS = ("cq-4", "cq-2")
#: KV-only serving mode of both serve workloads.
SERVE_MODE = "kv-cq-4"


def digest(values) -> str:
    """SHA-256 of a JSON-able value; floats keep every digit."""
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_samples() -> None:
    """Load every sample tensor the workloads use (from the store)."""
    for algo in WEIGHT_ALGOS:
        samples.weight_sample(algo)
    for algo in KV_ALGOS:
        samples.attention_sample(algo)


@dataclass
class Outcome:
    """What one op produced: output digest, size, and check failures."""

    digest: str
    size: int
    problems: list = field(default_factory=list)
    #: Simulated-output counters the traced run reports per op.
    stats: dict = field(default_factory=dict)


class CodegenGrid:
    """The full Tbl. IV level sweep over the Fig. 13 kernel grid.

    One op generates every level (GC..O4) of 3 weight algorithms x
    {GEMV, GEMM} and 2 KV algorithms x decode attention at one Llama-7B
    (batch, context) point: 8 kernels x 6 levels = 48 generate calls,
    each costed with ``latency_us()``.  No ``ComputeEngine`` memo sits
    in front, so every op does the generator's whole job.
    """

    name = "codegen-grid"
    unit = "kernels"
    #: The Fig. 13 grid's batch sizes and contexts.
    BATCHES = (1, 8, 16)
    CONTEXTS = (1024, 4096)

    def __init__(self, seed: int, pool: int = 6):
        rng = np.random.default_rng([seed, 1])
        points = [(b, c) for b in self.BATCHES for c in self.CONTEXTS]
        picks = rng.permutation(len(points))[:pool]
        self.keys = [points[int(i)] for i in picks]
        self.params = {"pool": pool}

    def prepare(self, indices) -> None:
        load_samples()
        self.generator = VQLLMCodeGenerator(SPEC)
        self.weights = {a: samples.weight_sample(a) for a in WEIGHT_ALGOS}
        self.kv = {a: samples.attention_sample(a) for a in KV_ALGOS}
        self.inputs = {k: self.keys[k] for k in indices}

    def op(self, k: int) -> Outcome:
        batch, context = self.inputs[k]
        gen = self.generator
        jobs = []
        for algo, qt in self.weights.items():
            jobs.append(("gemv", algo, gen.generate_gemv,
                         (samples.llama_gemv_shape(MODEL, batch), qt)))
            jobs.append(("gemm", algo, gen.generate_gemm,
                         (samples.llama_gemm_shape(MODEL, context), qt)))
        shape = samples.llama_attention_shape(MODEL, batch, context)
        for algo, (qt_k, qt_v) in self.kv.items():
            jobs.append(("attention", algo, gen.generate_attention,
                         (shape, qt_k, qt_v)))
        rows = []
        for kind, algo, generate, args in jobs:
            for level, kernel in gen.sweep_levels(generate, *args).items():
                rows.append([kind, algo, level, kernel.latency_us()])
        problems = [f"{kind}/{algo}/{level}: latency {us!r}"
                    for kind, algo, level, us in rows
                    if not (math.isfinite(us) and us > 0)]
        return Outcome(digest(rows), len(rows), problems)

    def counters(self) -> dict:
        return {}


class _ServeWorkload:
    """Shared parts of the two serve workloads: one ``kv-cq-4`` cost
    model and engine for the whole process, and a pool of traces."""

    unit = "requests"

    def __init__(self, seed: int, index: int, pool: int, n_requests: int):
        rng = np.random.default_rng([seed, index])
        #: One trace seed per pool input.
        self.keys = [int(s) for s in rng.integers(0, 2**31 - 1, size=pool)]
        self.params = {"pool": pool, "n_requests": n_requests}
        self.n_requests = n_requests

    def prepare(self, indices) -> None:
        load_samples()
        self.engine = ComputeEngine(SPEC)
        self.cost = serving.make_cost_model(self.engine, MODEL, SERVE_MODE)
        self.inputs = {k: self.make_trace(self.keys[k]) for k in indices}

    def check(self, trace, report) -> list:
        problems = []
        if len(report.records) != len(trace):
            problems.append(f"{len(report.records)} of {len(trace)} "
                            "requests served")
        if report.n_rejected:
            problems.append(f"{report.n_rejected} requests rejected")
        return problems

    def counters(self) -> dict:
        """Process-wide cost-model and engine counters."""
        info = self.cost.table_info()
        return {
            "memo_misses": self.engine.memo_info()["misses"],
            "table_hits": info["hits"],
            "table_entries": (info["decode_entries"]
                              + info["prefill_entries"]
                              + info["first_token_entries"]),
        }


class ChatPrefix(_ServeWorkload):
    """Multi-turn chat through one paged replica with prefix caching.

    One op simulates one ~120-request, 4-turn chat trace with
    ``SimConfig(...).build(...).run()`` and reads ``report.metrics()``.
    2 GB of ``kv-cq-4`` cache at 2 req/s keeps the replica below
    saturation (no preemptions) while the radix tree both hits
    (~0.98) and evicts (~2.5k blocks per op).
    """

    name = "chat-prefix"
    RATE_RPS = 2.0
    PROMPT_MEAN = 256
    OUTPUT_MEAN = 96
    KV_BYTES = 2e9

    def __init__(self, seed: int, pool: int = 18, n_requests: int = 120):
        super().__init__(seed, 2, pool, n_requests)

    def prepare(self, indices) -> None:
        super().prepare(indices)
        self.budget = serving.make_kv_budget(MODEL, SERVE_MODE,
                                             capacity_bytes=self.KV_BYTES)
        self.config = SimConfig(
            scheduler=SchedulerConfig(token_budget=2048, max_seqs=64,
                                      admission="paged",
                                      prefix_caching=True),
            name=self.name)

    def make_trace(self, seed: int):
        return serving.make_trace("chat", self.RATE_RPS, self.n_requests,
                                  self.PROMPT_MEAN, self.OUTPUT_MEAN,
                                  seed=seed)

    def op(self, k: int) -> Outcome:
        trace = self.inputs[k]
        sim = self.config.build(self.budget, self.cost)
        report = sim.run(trace)
        metrics = report.metrics()
        prefix = sim.scheduler.prefix_stats()
        return Outcome(digest(metrics), len(trace),
                       self.check(trace, report), {
                           "preemptions": report.n_preempted,
                           "evicted_blocks": report.n_evicted_blocks,
                           "prefix_lookups": prefix.n_lookups,
                           "prefix_hits": prefix.n_lookup_hits,
                           "events": report.event_stats.n_events,
                       })


class FleetPoisson(_ServeWorkload):
    """Poisson traffic on a 4-replica fleet with reserve admission.

    One op routes one ~400-request Poisson trace (1024-token mean
    prompts, 96-token mean outputs) over four fresh ``kv-cq-4``
    replicas with ``least-kv`` routing, reserve admission and no
    prefix caching, then reads ``report.metrics()``.  The paging and
    prefix layers are never entered.  12 req/s keeps the fleet below
    saturation: at 24 req/s its makespan ran to 30 s for 17 s of
    arrivals.
    """

    name = "fleet-poisson"
    RATE_RPS = 12.0
    PROMPT_MEAN = 1024
    OUTPUT_MEAN = 96
    REPLICAS = 4

    def __init__(self, seed: int, pool: int = 24, n_requests: int = 400):
        super().__init__(seed, 3, pool, n_requests)

    def prepare(self, indices) -> None:
        super().prepare(indices)
        self.budget = replica_kv_budget(MODEL, SERVE_MODE, SPEC)
        self.config = FleetConfig(
            scheduler=SchedulerConfig(max_seqs=128, admission="reserve"),
            policy="least-kv", name=self.name)

    def make_trace(self, seed: int):
        return serving.make_trace("poisson", self.RATE_RPS,
                                  self.n_requests, self.PROMPT_MEAN,
                                  self.OUTPUT_MEAN, seed=seed)

    def op(self, k: int) -> Outcome:
        trace = self.inputs[k]
        fleet = self.config.build(self.REPLICAS, self.budget, self.cost)
        report = fleet.run(trace)
        metrics = report.metrics()
        return Outcome(digest(metrics), len(trace),
                       self.check(trace, report), {
                           "preemptions": report.n_preempted,
                           "evicted_blocks": report.n_evicted_blocks,
                           "prefix_lookups": report.prefix_lookups,
                           "prefix_hits": report.prefix_lookup_hits,
                           "events": report.event_stats.n_events,
                       })


WORKLOADS = {cls.name: cls for cls in (CodegenGrid, ChatPrefix,
                                       FleetPoisson)}
