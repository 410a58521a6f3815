"""Multi-replica fleet simulator with pluggable request routing.

A *replica* (:class:`~repro.serve.simulator.Replica`) is one serving
engine — a single GPU or a whole tensor-parallel group — wrapping its
own :class:`~repro.serve.scheduler.ContinuousBatchScheduler` and
iteration cost model behind a private clock.  The
:class:`FleetSimulator` drives ``N`` replicas behind a front-end
router: requests arrive on one shared trace, the router inspects
replica state *as of the arrival instant* and picks a target, and each
replica then steps exactly as the one replica of the single-engine
:class:`~repro.serve.simulator.ServingSimulator` does.  Replicas never
interact except through routing, so the event loop only has to keep
replica clocks consistent with arrival order.
The driver is the shared global event heap
(:class:`~repro.serve.events.EventLoop`): arrivals and per-replica
iteration boundaries pop in simulated-time order, so by the time an
arrival pops every busy replica has already stepped past (or exactly
to) the arrival instant — the state the router inspects is identical
to the old advance-everyone lockstep, but idle replicas are simply not
in the heap and are never polled (an iteration already in flight may
overshoot the arrival — the request then waits for the iteration
boundary, as on a real engine).

Routing policies:

- ``round-robin`` — cycle through replicas regardless of state;
- ``jsq`` — join the shortest queue (waiting + running sequences);
- ``least-kv`` — join the replica with the lowest KV-cache *pressure*
  (reserved plus queued worst-case tokens over budget), which is the
  policy that understands what compression changes: a VQ replica under
  the same byte budget reports a fraction of the FP16 pressure;
- ``prefix-affinity`` — consistent-hash each request's session to a
  replica, so every turn of a chat session lands where its prefix tree
  is already warm.  Load-oblivious routing costs some balance; the
  payoff is the fleet-wide prefix hit rate, which load-based policies
  destroy by scattering a session's turns across replicas.

The fleet-level deliverable is :class:`FleetReport` and its
SLO-conditioned metrics (:meth:`FleetReport.goodput_rps`,
:meth:`FleetReport.meets`), plus :func:`size_fleet` — the smallest
replica count whose fleet meets a TTFT/TPOT SLO at a given offered
load, which is the unit the headline CQ-vs-FP16 comparison is priced
in (GPUs, not microseconds).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EVT_REJECTED, NULL_TRACER, Tracer
from repro.serve.api import FleetConfig
from repro.serve.events import ARRIVAL, SAMPLE, STEP, EventLoop, EventStats
from repro.serve.requests import Request
from repro.serve.simulator import Replica, Report, RequestRecord, finish_run


@dataclass(frozen=True)
class SLO:
    """A per-request service-level objective.

    ``ttft_s`` / ``tpot_s`` are the limits an individual request must
    meet; fleet-level compliance (:meth:`FleetReport.meets`) requires
    the ``quantile``-th percentile of completed requests within the
    limits and no rejections.
    """

    ttft_s: float
    tpot_s: Optional[float] = None
    quantile: float = 95.0

    def __post_init__(self):
        if self.ttft_s <= 0:
            raise ValueError("ttft_s must be positive")
        if self.tpot_s is not None and self.tpot_s <= 0:
            raise ValueError("tpot_s must be positive")
        if not 0 < self.quantile <= 100:
            raise ValueError("quantile must be in (0, 100]")

    def met_by(self, record: RequestRecord) -> bool:
        """Whether one completed request met the objective."""
        if record.ttft_s > self.ttft_s:
            return False
        if self.tpot_s is not None and record.tpot_s > self.tpot_s:
            return False
        return True


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class RouterPolicy:
    """Chooses a replica index for each arriving request.

    ``candidates`` is the non-empty subset of replica indices whose KV
    budget can hold the request at all; the policy must return one of
    them.  Policies may keep state (round-robin does), so build a fresh
    instance per simulation run.
    """

    name = "abstract"

    def choose(self, request: Request, replicas: Sequence[Replica],
               candidates: Sequence[int]) -> int:
        raise NotImplementedError


class RoundRobinPolicy(RouterPolicy):
    """Cycle through replicas, skipping ones that cannot fit the request."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def choose(self, request, replicas, candidates):
        allowed = set(candidates)
        for _ in range(len(replicas)):
            idx = self._next % len(replicas)
            self._next += 1
            if idx in allowed:
                return idx
        return candidates[0]  # pragma: no cover - candidates is non-empty


class JoinShortestQueuePolicy(RouterPolicy):
    """Join the replica with the fewest queued + running sequences."""

    name = "jsq"

    def choose(self, request, replicas, candidates):
        return min(candidates, key=lambda i: (replicas[i].queue_depth, i))


class LeastKVPressurePolicy(RouterPolicy):
    """Join the replica with the lowest worst-case KV demand fraction."""

    name = "least-kv"

    def choose(self, request, replicas, candidates):
        return min(candidates, key=lambda i: (replicas[i].kv_pressure, i))


class PrefixAffinityPolicy(RouterPolicy):
    """Consistent-hash sessions to replicas to keep prefix trees warm.

    Each replica owns ``vnodes`` points on a hash ring; a request's
    session key (``session_id``, falling back to ``req_id`` for
    sessionless requests) routes to the owner of the first point at or
    after its hash.  Consistent hashing — rather than
    ``hash % n_replicas`` — keeps most sessions in place when the
    candidate set shrinks (a replica whose budget cannot fit the
    request drops out of the ring for that request only, and only its
    sessions move).
    """

    name = "prefix-affinity"

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._ring: List[tuple] = []
        self._ring_size = 0

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode()).digest()[:8], "big")

    def _build_ring(self, n_replicas: int) -> None:
        points = [(self._hash(f"replica-{r}:vnode-{v}"), r)
                  for r in range(n_replicas) for v in range(self.vnodes)]
        self._ring = sorted(points)
        self._ring_size = n_replicas

    def choose(self, request, replicas, candidates):
        if self._ring_size != len(replicas):
            self._build_ring(len(replicas))
        key = (request.session_id if request.session_id is not None
               else request.req_id)
        h = self._hash(f"session-{key}")
        allowed = set(candidates)
        start = bisect.bisect_left(self._ring, (h, -1))
        for off in range(len(self._ring)):
            _, replica = self._ring[(start + off) % len(self._ring)]
            if replica in allowed:
                return replica
        return candidates[0]  # pragma: no cover - candidates non-empty


#: Policy constructors by name (fresh instance per call).
POLICIES = {
    "round-robin": RoundRobinPolicy,
    "jsq": JoinShortestQueuePolicy,
    "least-kv": LeastKVPressurePolicy,
    "prefix-affinity": PrefixAffinityPolicy,
}


def make_policy(policy: Union[str, RouterPolicy]) -> RouterPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, RouterPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise KeyError(f"unknown routing policy {policy!r}; "
                       f"known: {sorted(POLICIES)}") from None


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica accounting of one fleet run."""

    n_requests: int
    n_iterations: int
    peak_kv_utilization: float
    n_preemptions: int = 0


@dataclass(kw_only=True)
class FleetReport(Report):
    """Aggregate metrics of one simulated fleet run."""

    policy: str
    n_replicas: int
    #: req_id -> replica index, for every routed request.
    assignments: Dict[int, int]
    #: Per-replica accounting (:class:`ReplicaStats`).
    replica_stats: List[ReplicaStats] = field(default_factory=list)

    # -- SLO-conditioned metrics ---------------------------------------
    def slo_attainment(self, slo: SLO) -> float:
        """Fraction of *offered* requests that met the SLO.

        Rejected requests count as misses: a fleet that sheds load does
        not get credit for the latency of what it kept.
        """
        offered = self.n_requests + self.n_rejected
        if offered == 0:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r))
        return met / offered

    def goodput_rps(self, slo: SLO) -> float:
        """SLO-meeting requests completed per second."""
        if not self.makespan_s:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r))
        return met / self.makespan_s

    def meets(self, slo: SLO) -> bool:
        """Percentile-level compliance: the SLO's quantile of completed
        requests is within limits and nothing was rejected."""
        if self.n_rejected or not self.records:
            return False
        if self.ttft_s(slo.quantile) > slo.ttft_s:
            return False
        if slo.tpot_s is not None and self.tpot_s(slo.quantile) > slo.tpot_s:
            return False
        return True

    def metrics(self, slo: Optional[SLO] = None) -> dict:
        """:meth:`~repro.serve.simulator.Report.metrics` plus the fleet
        keys.  Passing an :class:`SLO` adds the SLO-conditioned metrics
        (``goodput_rps``, ``slo_attainment``)."""
        out = super().metrics()
        out["n_replicas"] = self.n_replicas
        if slo is not None:
            out["goodput_rps"] = self.goodput_rps(slo)
            out["slo_attainment"] = self.slo_attainment(slo)
        return out

    def _headline(self) -> str:
        return (f"{self.name}: {self.n_replicas} replicas ({self.policy}), "
                f"{self.n_requests} requests in {self.makespan_s:.2f} s")

    def _detail_lines(self) -> List[str]:
        lines = []
        for rid, stats in enumerate(self.replica_stats):
            line = (f"  replica {rid}  : {stats.n_requests:4d} requests, "
                    f"{stats.n_iterations:6d} iterations, "
                    f"peak KV {stats.peak_kv_utilization:.0%}")
            if stats.n_preemptions:
                line += f", {stats.n_preemptions} preemptions"
            lines.append(line)
        return lines


# ----------------------------------------------------------------------
# Fleet simulator
# ----------------------------------------------------------------------
class FleetSimulator:
    """Routes a trace across replicas and drains them to a report.

    The driver is the shared event heap: per-replica iteration
    boundaries and request arrivals pop in global simulated-time order
    (ties break arrivals-first, matching the old strict
    ``now_s < arrival`` lockstep), so the router always inspects every
    replica advanced to the arrival instant while idle replicas stay
    out of the heap entirely.  ``last_event_stats`` exposes the event
    counters of the most recent :meth:`run`.
    """

    def __init__(self, replicas: Sequence[Replica],
                 config: Optional[FleetConfig] = None):
        if not replicas:
            raise ValueError("need at least one replica")
        self.config = config if config is not None else FleetConfig()
        self.replicas = list(replicas)
        self.policy = make_policy(self.config.policy)
        self.name = self.config.name
        self.last_event_stats: Optional[EventStats] = None

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> FleetReport:
        """Simulate the full trace; returns the fleet-level report.

        ``max_iterations`` (per replica) defaults to the config's cap.
        """
        if max_iterations is None:
            max_iterations = self.config.max_iterations
        pending = sorted(trace, key=lambda r: r.arrival_s)
        if not pending:
            raise ValueError("empty trace")
        replicas = self.replicas
        assignments: Dict[int, int] = {}
        n_rejected = 0
        tracer = Tracer(name=self.name) if self.config.trace else NULL_TRACER
        self.tracer = tracer
        if tracer.enabled:
            for rep in replicas:
                rep.scheduler.tracer = tracer
                rep.scheduler.trace_replica = rep.replica_id

        loop = EventLoop()
        for req in pending:
            loop.push(req.arrival_s, ARRIVAL, req)
        timeline = (TimelineCollector(self.config.timeline,
                                      n_replicas=len(replicas),
                                      name=self.name)
                    if self.config.timeline is not None else None)
        schedulers = tuple(rep.scheduler for rep in replicas)
        arrivals_left = len(pending)
        if timeline is not None:
            loop.push(timeline.next_sample_s, SAMPLE, None)
        #: Whether replica i currently owns a STEP event in the heap
        #: (exactly one while it has work; entries never go stale
        #: because only step() moves a busy replica's clock).
        in_heap = [rep.has_work for rep in replicas]
        for i, rep in enumerate(replicas):
            if in_heap[i]:
                loop.push(rep.now_s, STEP, i)

        while not loop.empty:
            t_s, kind, payload = loop.pop()
            if kind == SAMPLE:
                # Telemetry boundary: read every replica's state, keep
                # sampling while the run can still produce events (the
                # heap would otherwise never drain).
                timeline.sample(t_s, schedulers)
                if arrivals_left or any(in_heap):
                    loop.push(timeline.next_sample_s, SAMPLE, None)
                continue
            if kind == STEP:
                idx = payload
                rep = replicas[idx]
                if rep.iterations >= max_iterations:
                    raise RuntimeError(
                        f"replica {rep.replica_id} exceeded "
                        f"{max_iterations} iterations; the offered load "
                        "likely diverges")
                done = rep.step()
                if timeline is not None and done:
                    timeline.on_complete(idx, done, rep.now_s)
                if rep.has_work:
                    loop.push(rep.now_s, STEP, idx)
                else:
                    in_heap[idx] = False
                continue
            req = payload
            arrivals_left -= 1
            candidates = [i for i, rep in enumerate(replicas)
                          if rep.scheduler.fits(req)]
            if not candidates:
                n_rejected += 1
                if tracer.enabled:
                    # No replica could ever hold it; pin to track 0.
                    tracer.event(EVT_REJECTED, req.arrival_s, 0,
                                 req.req_id)
                if timeline is not None:
                    # Rejections happen at the front end, before
                    # routing; pin to replica 0 like the trace does.
                    timeline.on_reject(0)
                continue
            idx = self.policy.choose(req, replicas, candidates)
            if idx not in candidates:
                raise ValueError(
                    f"policy {self.policy.name!r} chose replica {idx}, "
                    f"not one of the feasible {candidates}")
            replicas[idx].submit(req)
            assignments[req.req_id] = idx
            if timeline is not None:
                timeline.on_arrival(idx)
            if not in_heap[idx]:
                loop.push(replicas[idx].now_s, STEP, idx)
                in_heap[idx] = True
        self.last_event_stats = loop.stats
        shared = finish_run(replicas, loop, n_rejected, name=self.name,
                            tracer=tracer, timeline=timeline,
                            replica_labels=True)
        return FleetReport(
            **shared,
            policy=self.policy.name,
            n_replicas=len(replicas),
            assignments=assignments,
            replica_stats=[ReplicaStats(rep.n_submitted, rep.iterations,
                                        rep.peak_kv,
                                        rep.scheduler.n_preemptions)
                           for rep in replicas],
        )


def size_fleet(
    make_replicas: Callable[[int], Sequence[Replica]],
    trace: Sequence[Request],
    slo: SLO,
    policy: Union[str, RouterPolicy] = "jsq",
    max_replicas: int = 8,
    record_trace: bool = False,
    timeline=None,
) -> tuple:
    """Smallest fleet meeting an SLO at the trace's offered load.

    ``make_replicas(n)`` must return ``n`` *fresh* replicas (schedulers
    hold state across runs).  Returns ``(n, report)`` for the first
    compliant size, or ``(None, report)`` with the largest fleet's
    report if even ``max_replicas`` misses the SLO.  String policies
    are re-instantiated per size so stateful routers start clean.
    ``record_trace=True`` records a :mod:`repro.obs` timeline per tried
    size (each report carries its own tracer); ``timeline=`` passes a
    :class:`~repro.obs.timeline.TimelineConfig` through to each run.
    """
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    report = None
    for n in range(1, max_replicas + 1):
        sim = FleetSimulator(
            make_replicas(n),
            config=FleetConfig(policy=make_policy(policy)
                               if isinstance(policy, str) else policy,
                               name=f"fleet-{n}", trace=record_trace,
                               timeline=timeline))
        report = sim.run(trace)
        if report.meets(slo):
            return n, report
    return None, report
