"""Discrete-event continuous-batching serving simulator.

:class:`ServingSimulator` replays a request trace
(:mod:`repro.serve.requests`) through one :class:`Replica` — a
:class:`~repro.serve.scheduler.ContinuousBatchScheduler` whose
iterations are priced by a :class:`~repro.serve.costs.StepCostModel`.
Time is owned by the shared event core
(:class:`~repro.serve.events.EventLoop` — arrivals are heap events, the
engine's iteration boundary advances the replica's clock), and each
boundary runs the standard serving-engine loop:

1. admit every request that has arrived by ``now``;
2. if nothing is runnable, fast-forward the clock to the next arrival;
3. otherwise run one :meth:`Replica.step`: schedule an iteration plan
   (decodes + prefill chunks), advance the clock by its modelled
   latency and commit token progress.

:class:`Replica` is also the unit the multi-replica
:class:`~repro.cluster.fleet.FleetSimulator` routes across, and
:func:`finish_run` is the end of a run for both simulators, so the step
body and the report assembly exist once.  The output is a
:class:`Report` — here a :class:`ServingReport` — with the
request-level metrics serving papers report: sustained request/token
throughput, time to first token (TTFT), time per output token (TPOT),
and p50/p95/p99 end-to-end latency.

See ``docs/architecture.md`` for how this sits on top of the analytic
kernel stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EVT_EVICTED, EVT_REJECTED, NULL_TRACER, Tracer
from repro.serve.api import SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import ARRIVAL, SAMPLE, EventLoop
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler


def observe_request_metrics(registry: MetricsRegistry, records,
                            n_rejected: int = 0) -> None:
    """Emit request-outcome counters and latency histograms.

    Runs once at end of run (:func:`finish_run`) over the completed
    :class:`RequestRecord` list (never in the hot loop), so registry
    contents are identical with tracing on or off.
    """
    registry.counter(
        "requests_completed_total",
        "Requests that finished decoding").inc(len(records))
    registry.counter(
        "requests_rejected_total",
        "Requests rejected at arrival (KV footprint over budget)",
    ).inc(n_rejected)
    ttft = registry.histogram(
        "ttft_ms", "Time to first token (ms)",
        start=1.0, factor=2.0, n_buckets=24)
    tpot = registry.histogram(
        "tpot_ms", "Time per output token after the first (ms)",
        start=0.25, factor=2.0, n_buckets=20)
    latency = registry.histogram(
        "latency_s", "End-to-end request latency (s)",
        start=0.001, factor=2.0, n_buckets=24)
    for r in records:
        ttft.observe(r.ttft_s * 1e3)
        if r.output_tokens > 1:
            tpot.observe(r.tpot_s * 1e3)
        latency.observe(r.latency_s)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a sequence."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sequence")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class RequestRecord:
    """Timing record of one completed request."""

    req_id: int
    arrival_s: float
    first_token_s: float
    finished_s: float
    prompt_tokens: int
    output_tokens: int
    queued_s: float
    #: Prompt tokens served from the prefix cache at the last
    #: admission (0 without prefix caching).
    cached_tokens: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to first output token."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to last token."""
        return self.finished_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token outputs)."""
        if self.output_tokens <= 1:
            return 0.0
        return ((self.finished_s - self.first_token_s)
                / (self.output_tokens - 1))


class Replica:
    """One serving engine instance with a private simulation clock."""

    def __init__(self, replica_id: int,
                 scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel):
        self.replica_id = replica_id
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.now_s = 0.0
        self.iterations = 0
        self.n_submitted = 0
        self.peak_kv = 0.0
        self.finished: list = []
        #: Eviction count already traced, for delta instants.
        self._last_evicted = 0

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    @property
    def queue_depth(self) -> int:
        """Sequences on this replica: queued plus running.

        Preempted sequences awaiting re-admission count as queued —
        each carries re-prefill work, so a paged replica mid-thrash
        must not look idle to the ``jsq`` router.
        """
        s = self.scheduler
        return len(s.waiting) + len(s.preempted) + len(s.running)

    @property
    def kv_pressure(self) -> float:
        """Near-term KV demand over budget, counting the queue.

        Delegates to
        :attr:`~repro.serve.scheduler.ContinuousBatchScheduler.kv_pressure`:
        worst-case reservations-to-be under reserve admission, but
        *observed block usage* plus queued prompts' blocks under paged
        admission — a paged replica that has packed many short-context
        sequences reports the blocks it actually holds, not the
        worst-case footprint it never allocated.
        """
        return self.scheduler.kv_pressure

    def submit(self, request: Request) -> None:
        """Route one request here (arrival may be later than the clock)."""
        self.now_s = max(self.now_s, request.arrival_s)
        self.scheduler.submit(request)
        self.n_submitted += 1

    def step(self) -> list:
        """Run one scheduler iteration and advance the clock.

        Returns the sequences that completed this iteration (also
        appended to :attr:`finished`), so the driver can feed
        per-window telemetry without diffing the list.
        """
        plan = self.scheduler.schedule(self.now_s)
        if plan.empty:  # pragma: no cover - has_work implies a plan
            # Fail loudly: a stall must never silently drop in-flight
            # requests (or spin the driver forever).
            raise RuntimeError(f"replica {self.replica_id} made no "
                               "progress with work pending")
        self.iterations += 1
        step_us = self.cost_model.step_us(plan)
        t0 = self.now_s
        self.now_s += step_us / 1e6
        self.peak_kv = max(self.peak_kv, self.scheduler.kv_utilization)
        tracer = self.scheduler.tracer
        if tracer.enabled:
            tracer.step(self.replica_id, t0, step_us, plan,
                        self.scheduler.kv_occupancy)
            evicted = getattr(getattr(self.scheduler, "allocator", None),
                              "n_evicted_blocks", 0)
            if evicted > self._last_evicted:
                tracer.event(EVT_EVICTED, t0, self.replica_id, -1,
                             evicted - self._last_evicted)
                self._last_evicted = evicted
        done = self.scheduler.complete(plan, self.now_s)
        self.finished.extend(done)
        return done


@dataclass(kw_only=True)
class Report:
    """What every simulation report shares, regardless of layer.

    :class:`ServingReport` and :class:`~repro.cluster.fleet.FleetReport`
    extend it with their own fields and metric keys only.
    :meth:`metrics` is the flat JSON-safe dict (plain ``int``/``float``
    values, losslessly serialisable) the experiment orchestrator
    persists to the perf trajectory; :meth:`summary` is the multi-line
    human-readable form.  :func:`finish_run` builds every field here.
    """

    name: str
    records: List[RequestRecord]
    makespan_s: float
    #: Requests whose KV footprint exceeded every budget outright and
    #: were rejected at arrival (never admitted, not in ``records``).
    n_rejected: int = 0
    #: Recompute preemptions fired (paged admission only).
    n_preempted: int = 0
    #: Whether any scheduler shared KV blocks across common prefixes.
    prefix_caching: bool = False
    #: Prefix-cache counters (summed across replicas).
    prefix_lookups: int = 0
    prefix_lookup_hits: int = 0
    prefix_hit_tokens: int = 0
    prefix_miss_tokens: int = 0
    #: Cached blocks reclaimed by LRU eviction over the run.
    n_evicted_blocks: int = 0
    #: Copy-on-write block copies: the prompt's next block was cached
    #: but had to be recomputed privately because the prompt ends
    #: inside it (e.g. a fully cached prompt recomputing its last
    #: block for logits).  Only :meth:`ServingReport.metrics` reports
    #: it.
    n_cow_copies: int = 0
    #: Event-loop statistics of the run (:class:`~repro.serve.events.
    #: EventStats`), surfaced into :meth:`metrics`.
    event_stats: Optional[object] = None
    #: The run's :class:`~repro.obs.metrics.MetricsRegistry`; its flat
    #: dict is merged into :meth:`metrics` and its Prometheus text is
    #: available via ``registry.to_prometheus()``.
    registry: Optional[object] = None
    #: The run's :class:`~repro.obs.trace.Tracer` when the simulation
    #: ran with ``trace=True``, else ``None``.
    tracer: Optional[object] = None
    #: The run's :class:`~repro.obs.timeline.Timeline` when it ran with
    #: ``timeline=...``, else ``None``.  Never merged into
    #: :meth:`metrics` — windowed series are an observability product,
    #: and metrics stay bit-identical with sampling on/off.
    timeline: Optional[object] = None
    #: Evaluated :class:`~repro.obs.slo.SLOReport` when the timeline
    #: config carried SLO limits, else ``None``.
    slo: Optional[object] = None

    # -- prefix cache --------------------------------------------------
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of admissions that matched at least one cached block."""
        return self.prefix_lookup_hits / max(1, self.prefix_lookups)

    @property
    def cached_token_fraction(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        total = self.prefix_hit_tokens + self.prefix_miss_tokens
        return self.prefix_hit_tokens / max(1, total)

    # -- throughput ----------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def throughput_rps(self) -> float:
        """Sustained request throughput over the makespan."""
        return self.n_requests / self.makespan_s if self.makespan_s else 0.0

    @property
    def output_tokens_per_s(self) -> float:
        total = sum(r.output_tokens for r in self.records)
        return total / self.makespan_s if self.makespan_s else 0.0

    # -- latency -------------------------------------------------------
    def ttft_s(self, q: float = 50.0) -> float:
        """TTFT percentile (0.0 when nothing completed)."""
        return _quantile([r.ttft_s for r in self.records], q)

    def tpot_s(self, q: float = 50.0) -> float:
        """TPOT percentile over multi-token requests (0.0 if none)."""
        return _quantile(
            [r.tpot_s for r in self.records if r.output_tokens > 1], q)

    def latency_s(self, q: float = 50.0) -> float:
        """End-to-end latency percentile (0.0 when nothing completed)."""
        return _quantile([r.latency_s for r in self.records], q)

    def metrics(self) -> dict:
        """Flat JSON-safe metric dict (plain ``int``/``float`` values).

        Subclasses add their own keys on top.  Derived quantities are
        stored exactly as computed (no rounding): JSON round-trips
        Python floats losslessly, which is what lets golden tests pin
        persisted metrics bit-identical.
        """
        out = {
            "n_requests": self.n_requests,
            "n_rejected": self.n_rejected,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "output_tokens_per_s": self.output_tokens_per_s,
            "ttft_p50_ms": self.ttft_s(50) * 1e3,
            "ttft_p95_ms": self.ttft_s(95) * 1e3,
            "tpot_p50_ms": self.tpot_s(50) * 1e3,
            "latency_p50_s": self.latency_s(50),
            "latency_p99_s": self.latency_s(99),
            "n_preempted": self.n_preempted,
            "prefix_hit_rate": self.prefix_hit_rate,
            "cached_token_fraction": self.cached_token_fraction,
            "n_evicted_blocks": self.n_evicted_blocks,
        }
        if self.event_stats is not None:
            out["n_events"] = self.event_stats.n_events
            out["n_arrivals"] = self.event_stats.n_arrivals
            out["n_step_events"] = self.event_stats.n_step_events
            out["n_idle_polls"] = self.event_stats.n_idle_polls
        if self.registry is not None:
            # Registry metrics never shadow the canonical keys.
            for key, value in self.registry.to_flat_dict().items():
                out.setdefault(key, value)
        return out

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            self._headline(),
            f"  throughput : {self.throughput_rps:6.2f} req/s, "
            f"{self.output_tokens_per_s:8.1f} output tok/s",
            f"  TTFT       : p50 {self.ttft_s(50) * 1e3:8.1f} ms, "
            f"p95 {self.ttft_s(95) * 1e3:8.1f} ms",
            f"  TPOT       : p50 {self.tpot_s(50) * 1e3:8.2f} ms/token",
            f"  latency    : p50 {self.latency_s(50):6.2f} s, "
            f"p95 {self.latency_s(95):6.2f} s, "
            f"p99 {self.latency_s(99):6.2f} s",
            *self._detail_lines(),
        ]
        if self.prefix_caching:
            lines.append(
                f"  prefix     : {self.prefix_hit_rate:.0%} admissions "
                f"hit, {self.cached_token_fraction:.0%} of prompt tokens "
                f"cached, {self.n_evicted_blocks} blocks evicted")
        if self.n_preempted:
            lines.append(f"  preempted  : {self.n_preempted} recompute "
                         "preemptions")
        if self.n_rejected:
            lines.append(f"  rejected   : {self.n_rejected} requests "
                         "exceeded the KV budget")
        if self.slo is not None:
            lines.extend("  " + ln for ln in
                         self.slo.summary().splitlines())
        return "\n".join(lines)

    def _headline(self) -> str:
        return (f"{self.name}: {self.n_requests} requests in "
                f"{self.makespan_s:.2f} s")

    def _detail_lines(self) -> List[str]:
        return []


def _quantile(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


@dataclass(kw_only=True)
class ServingReport(Report):
    """Aggregate metrics of one simulated single-engine serving run."""

    n_iterations: int
    peak_seqs: int
    peak_kv_utilization: float
    #: Admission policy of the scheduler that produced this report.
    admission: str = "reserve"
    #: Peak fraction of the KV budget actually resident in HBM (live
    #: tokens for reserve admission, allocated blocks for paged).
    peak_kv_occupancy: float = 0.0

    def metrics(self) -> dict:
        """:meth:`Report.metrics` plus the single-engine keys."""
        out = super().metrics()
        out.update(
            n_iterations=self.n_iterations,
            peak_seqs=self.peak_seqs,
            peak_kv_utilization=self.peak_kv_utilization,
            peak_kv_occupancy=self.peak_kv_occupancy,
            n_cow_copies=self.n_cow_copies,
        )
        return out

    def _headline(self) -> str:
        return f"{super()._headline()} ({self.n_iterations} iterations)"

    def _detail_lines(self) -> List[str]:
        return [f"  concurrency: peak {self.peak_seqs} seqs, "
                f"peak KV use {self.peak_kv_utilization:.0%} "
                f"({self.admission}), "
                f"occupancy {self.peak_kv_occupancy:.0%}"]


def finish_run(replicas: Sequence[Replica], loop: EventLoop,
               n_rejected: int, *, name: str, tracer, timeline,
               replica_labels: bool) -> dict:
    """The end of a run, shared by both simulators.

    Audits sanitized allocators at drain, builds the sorted
    :class:`RequestRecord` list, records sequence lifecycles into the
    tracer, fills a fresh :class:`~repro.obs.metrics.MetricsRegistry`
    (scheduler metrics labelled ``replica=`` when ``replica_labels``),
    sums prefix-cache counters, and finalizes the timeline and its SLO
    evaluation.  Returns the :class:`Report` constructor kwargs.
    """
    for rep in replicas:
        alloc = getattr(rep.scheduler, "allocator", None)
        if alloc is not None and alloc.sanitize:
            # Full-heap audit at drain: every sequence finished, so the
            # pool must be back to empty (only reads state; raises
            # SanitizeError on any broken invariant).
            alloc.audit_drained()

    records = [
        RequestRecord(
            req_id=s.request.req_id,
            arrival_s=s.request.arrival_s,
            first_token_s=s.first_token_s,
            finished_s=s.finished_s,
            prompt_tokens=s.request.prompt_tokens,
            output_tokens=s.request.output_tokens,
            queued_s=s.admitted_s - s.request.arrival_s,
            cached_tokens=s.cached_tokens,
        )
        for rep in replicas for s in rep.finished
    ]
    records.sort(key=lambda r: r.req_id)
    if tracer.enabled:
        for rep in replicas:
            tracer.record_sequences(rep.replica_id, rep.finished)
    registry = MetricsRegistry()
    for rep in replicas:
        # Duck-typed schedulers (equivalence-test stand-ins) may not
        # emit; the run still gets event-loop and request metrics.
        emit = getattr(rep.scheduler, "emit_metrics", None)
        if emit is not None:
            labels = ({"replica": str(rep.replica_id)}
                      if replica_labels else {})
            emit(registry, **labels)
    loop.stats.emit_metrics(registry)
    observe_request_metrics(registry, records, n_rejected=n_rejected)
    prefix = [
        stats for rep in replicas
        if getattr(rep.scheduler, "prefix_caching", False)
        and (stats := rep.scheduler.prefix_stats()) is not None
    ]
    makespan_s = max(rep.now_s for rep in replicas)
    timeline_obj = slo_report = None
    if timeline is not None:
        timeline_obj = timeline.finalize(
            makespan_s, tuple(rep.scheduler for rep in replicas))
        if timeline.config.tracks_slo:
            slo_report = SLOMonitor(
                target=timeline.config.slo_target,
            ).evaluate(timeline_obj)
    return dict(
        name=name,
        records=records,
        makespan_s=makespan_s,
        n_rejected=n_rejected,
        n_preempted=sum(getattr(rep.scheduler, "n_preemptions", 0)
                        for rep in replicas),
        prefix_caching=bool(prefix),
        prefix_lookups=sum(p.n_lookups for p in prefix),
        prefix_lookup_hits=sum(p.n_lookup_hits for p in prefix),
        prefix_hit_tokens=sum(p.hit_tokens for p in prefix),
        prefix_miss_tokens=sum(p.miss_tokens for p in prefix),
        n_evicted_blocks=sum(p.n_evicted_blocks for p in prefix),
        n_cow_copies=sum(p.n_cow_copies for p in prefix),
        event_stats=loop.stats,
        registry=registry,
        tracer=tracer if tracer.enabled else None,
        timeline=timeline_obj,
        slo=slo_report,
    )


class ServingSimulator:
    """Drives a trace through one :class:`Replica` to a report."""

    def __init__(self, scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel,
                 config: Optional[SimConfig] = None):
        self.config = config if config is not None else SimConfig()
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.name = self.config.name

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> ServingReport:
        """Simulate the full trace; returns the metric report.

        ``max_iterations`` defaults to the config's cap.
        """
        if max_iterations is None:
            max_iterations = self.config.max_iterations
        pending = sorted(trace, key=lambda r: r.arrival_s)
        if not pending:
            raise ValueError("empty trace")
        loop = EventLoop()
        for req in pending:
            loop.push(req.arrival_s, ARRIVAL, req)
        sched = self.scheduler
        rep = Replica(0, sched, self.cost_model)
        tracer = Tracer(name=self.name) if self.config.trace else NULL_TRACER
        self.tracer = tracer
        if tracer.enabled:
            sched.tracer = tracer
        timeline = (TimelineCollector(self.config.timeline,
                                      n_replicas=1, name=self.name)
                    if self.config.timeline is not None else None)
        arrivals_left = len(pending)
        if timeline is not None:
            loop.push(timeline.next_sample_s, SAMPLE, None)
        n_rejected = 0
        #: Events at or before this instant have been ingested: the
        #: replica's clock while it works, the next arrival while idle.
        horizon_s = 0.0

        while True:
            while True:
                nxt = loop.peek()
                if nxt is None or nxt[0] > horizon_s:
                    break
                t_evt, kind, req = loop.pop()
                if kind == SAMPLE:
                    # Telemetry boundary: close the window, keep
                    # sampling while the run can still produce events.
                    timeline.sample(t_evt, (sched,))
                    if arrivals_left or rep.has_work:
                        loop.push(timeline.next_sample_s, SAMPLE, None)
                    continue
                arrivals_left -= 1
                if not sched.fits(req):
                    # Could never be admitted: reject up front (a real
                    # server returns 4xx) instead of wedging the queue.
                    n_rejected += 1
                    if tracer.enabled:
                        tracer.event(EVT_REJECTED, req.arrival_s, 0,
                                     req.req_id)
                    if timeline is not None:
                        timeline.on_reject(0)
                    continue
                rep.submit(req)
                if timeline is not None:
                    timeline.on_arrival(0)

            if not rep.has_work:
                nxt = loop.peek()
                while nxt is not None and nxt[1] == SAMPLE:
                    # Idle telemetry boundary: close the window without
                    # advancing the clock — it only follows simulation
                    # events, so makespan (and every other metric)
                    # stays bit-identical with sampling on.
                    t_evt, _, _ = loop.pop()
                    timeline.sample(t_evt, (sched,))
                    if arrivals_left:
                        loop.push(timeline.next_sample_s, SAMPLE, None)
                    nxt = loop.peek()
                if nxt is None:
                    break  # drained
                # Idle: fast-forward to the next arrival.  The clock
                # itself moves only if it is admitted (Replica.submit),
                # as on a fleet replica, so trailing rejections do not
                # stretch the makespan.
                horizon_s = nxt[0]
                continue

            if rep.iterations >= max_iterations:
                raise RuntimeError(
                    f"simulation exceeded {max_iterations} iterations; "
                    "the offered load likely diverges")
            done = rep.step()
            horizon_s = rep.now_s
            if timeline is not None and done:
                timeline.on_complete(0, done, rep.now_s)

        self.last_event_stats = loop.stats
        shared = finish_run((rep,), loop, n_rejected, name=self.name,
                            tracer=tracer, timeline=timeline,
                            replica_labels=False)
        return ServingReport(
            **shared,
            n_iterations=rep.iterations,
            peak_seqs=sched.peak_seqs,
            peak_kv_utilization=rep.peak_kv,
            admission=getattr(sched, "admission", "reserve"),
            peak_kv_occupancy=getattr(sched, "peak_kv_occupancy", 0.0),
        )
