"""Event-heap core tests: ordering, lockstep equivalence, wakeups.

The heap driver (:class:`repro.serve.events.EventLoop` under
:class:`repro.cluster.fleet.FleetSimulator`) claims two things:

1. it is *bit-identical* to the legacy poll-everyone lockstep driver
   (advance every replica to each arrival before routing) — checked
   here against :func:`_lockstep_run`, the old loop kept as a
   test-local oracle, property-tested over randomized traces, policies
   and admission modes;
2. it activates replicas strictly less often — idle replicas are never
   polled — checked by the sparse-trace wakeup regression.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import FleetSimulator, Replica, make_policy
from repro.serve.api import FleetConfig, SchedulerConfig
from repro.serve.events import ARRIVAL, STEP, TRANSFER, EventLoop
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us


def _replicas(n, max_tokens=120, step_us=1000.0, token_budget=64,
              max_seqs=16, admission="reserve", block_tokens=8):
    cost = ConstantCostModel(step_us)
    config = SchedulerConfig(token_budget=token_budget, max_seqs=max_seqs,
                             admission=admission, block_tokens=block_tokens)
    return [
        Replica(i, ContinuousBatchScheduler(
            KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0),
            config=config), cost)
        for i in range(n)
    ]


def _lockstep_run(replicas, policy, trace, max_iterations=100_000):
    """The pre-heap fleet driver, verbatim: advance every replica to
    each arrival, route, then drain replicas one by one.

    Returns ``(assignments, rejected, wakeups)`` — ``wakeups`` counts
    every replica activation, one per replica per arrival, whether or
    not the replica had work (the poll-everyone tax the heap removes).
    """
    pending = sorted(trace, key=lambda r: r.arrival_s)
    assignments, rejected, wakeups = {}, [], 0
    for req in pending:
        for rep in replicas:
            # Step until the clock reaches the arrival or work runs out.
            wakeups += 1
            while rep.has_work and rep.now_s < req.arrival_s:
                assert rep.iterations < max_iterations, "diverging reference"
                rep.step()
        candidates = [i for i, rep in enumerate(replicas)
                      if rep.scheduler.fits(req)]
        if not candidates:
            rejected.append(req.req_id)
            continue
        idx = policy.choose(req, replicas, candidates)
        replicas[idx].submit(req)
        assignments[req.req_id] = idx
    for rep in replicas:
        while rep.has_work:
            assert rep.iterations < max_iterations, "diverging reference"
            rep.step()
    return assignments, rejected, wakeups


def _snapshot(replicas):
    """Everything observable about a drained fleet, exact floats."""
    return [
        {
            "iterations": rep.iterations,
            "now_s": rep.now_s,
            "n_submitted": rep.n_submitted,
            "peak_kv": rep.peak_kv,
            "finished": [(s.request.req_id, s.admitted_s, s.first_token_s,
                          s.finished_s, s.preemptions)
                         for s in rep.finished],
        }
        for rep in replicas
    ]


class TestEventLoop:
    def test_orders_by_time(self):
        loop = EventLoop()
        loop.push(3.0, STEP, "c")
        loop.push(1.0, STEP, "a")
        loop.push(2.0, STEP, "b")
        assert [loop.pop()[2] for _ in range(3)] == ["a", "b", "c"]
        assert loop.empty

    def test_arrival_beats_step_at_equal_time(self):
        loop = EventLoop()
        loop.push(1.0, STEP, "step")
        loop.push(1.0, ARRIVAL, "arrival")
        loop.push(1.0, TRANSFER, "transfer")
        kinds = [loop.pop()[1] for _ in range(3)]
        assert kinds == [ARRIVAL, STEP, TRANSFER]

    def test_fifo_among_exact_ties(self):
        loop = EventLoop()
        for i in range(5):
            loop.push(1.0, ARRIVAL, i)
        assert [loop.pop()[2] for _ in range(5)] == list(range(5))

    def test_peek_does_not_pop(self):
        loop = EventLoop()
        assert loop.peek() is None
        loop.push(1.0, ARRIVAL, "x")
        assert loop.peek() == (1.0, ARRIVAL, "x")
        assert len(loop) == 1
        assert loop.pop() == (1.0, ARRIVAL, "x")

    def test_stats_count_by_kind(self):
        loop = EventLoop()
        loop.push(1.0, ARRIVAL)
        loop.push(2.0, STEP)
        loop.push(3.0, STEP)
        loop.push(4.0, TRANSFER)
        while not loop.empty:
            loop.pop()
        st = loop.stats
        assert (st.n_events, st.n_arrivals, st.n_step_events,
                st.n_transfers, st.n_idle_polls) == (4, 1, 2, 1, 0)


@st.composite
def _fleet_case(draw):
    n_replicas = draw(st.integers(1, 4))
    n_requests = draw(st.integers(1, 20))
    admission = draw(st.sampled_from(["reserve", "paged"]))
    policy = draw(st.sampled_from(["round-robin", "jsq", "least-kv"]))
    # Gaps include 0.0 (same-instant arrivals) and values around the
    # 1 ms step cost so iteration boundaries land on, before and after
    # arrivals.
    gaps = draw(st.lists(
        st.sampled_from([0.0, 0.0003, 0.001, 0.004, 0.02]),
        min_size=n_requests, max_size=n_requests))
    sizes = draw(st.lists(
        st.tuples(st.integers(1, 64), st.integers(1, 10)),
        min_size=n_requests, max_size=n_requests))
    t, trace = 0.0, []
    for i, (gap, (prompt, output)) in enumerate(zip(gaps, sizes)):
        t += gap
        # An occasional oversized request exercises rejection.
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            prompt = 500
        trace.append(Request(req_id=i, arrival_s=t, prompt_tokens=prompt,
                             output_tokens=output))
    return n_replicas, admission, policy, trace


class TestHeapLockstepEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_fleet_case())
    def test_heap_matches_lockstep(self, case):
        n_replicas, admission, policy, trace = case

        heap_reps = _replicas(n_replicas, admission=admission)
        sim = FleetSimulator(heap_reps,
                             config=FleetConfig(policy=policy, name="heap"))
        report = sim.run(trace)

        lock_reps = _replicas(n_replicas, admission=admission)
        assignments, rejected, _ = _lockstep_run(lock_reps,
                                                 make_policy(policy), trace)

        # Same routing decisions, same rejections, and per replica the
        # same iteration chain with exactly equal clocks and records —
        # including completion order (`finished` is append-ordered).
        assert report.assignments == assignments
        assert report.n_rejected == len(rejected)
        assert _snapshot(heap_reps) == _snapshot(lock_reps)
        assert report.makespan_s == max(r.now_s for r in lock_reps)


class TestWakeupRegression:
    def test_sparse_trace_wakeups_drop(self):
        """The lockstep driver pays replicas x arrivals activations on a
        sparse trace; the heap only wakes a replica per iteration it
        actually runs, and never polls an idle one."""
        n_replicas, n_requests = 4, 60
        # One-iteration requests, far apart: the fleet is almost always
        # fully idle when the next request lands.
        trace = [Request(req_id=i, arrival_s=0.05 * i, prompt_tokens=8,
                         output_tokens=1) for i in range(n_requests)]

        heap_reps = _replicas(n_replicas)
        sim = FleetSimulator(heap_reps,
                             config=FleetConfig(policy="jsq", name="heap"))
        sim.run(trace)
        stats = sim.last_event_stats
        heap_iterations = sum(r.iterations for r in heap_reps)
        # One wakeup per executed iteration, nothing else.
        assert stats.n_step_events == heap_iterations
        assert stats.n_idle_polls == 0

        lock_reps = _replicas(n_replicas)
        _, _, lock_wakeups = _lockstep_run(lock_reps, make_policy("jsq"),
                                           trace)
        # The lockstep loop touched every replica at every arrival...
        assert lock_wakeups == n_replicas * n_requests
        # ...which the heap driver undercuts by the poll-everyone tax:
        # total iterations here (= heap wakeups) is n_requests, a 4x drop.
        assert stats.n_step_events < lock_wakeups
        # Work itself is identical — only the driver overhead differs.
        assert heap_iterations == sum(r.iterations for r in lock_reps)


class TestSingleSimEventCore:
    def test_serving_simulator_uses_heap_arrivals(self):
        """The single-engine loop ingests arrivals from the heap in
        non-strict (<= now) order and fast-forwards over idle gaps."""
        from repro.serve.api import SimConfig
        from repro.serve.simulator import ServingSimulator

        config = SchedulerConfig(token_budget=64, max_seqs=8)
        sched = ContinuousBatchScheduler(
            KVBudget(capacity_bytes=1e4, bytes_per_token=1.0),
            config=config)
        sim = ServingSimulator(sched, ConstantCostModel(),
                               config=SimConfig(name="unit"))
        trace = [Request(req_id=i, arrival_s=1.0 * i, prompt_tokens=8,
                         output_tokens=2) for i in range(3)]
        report = sim.run(trace)
        assert report.n_requests == 3
        # Idle gaps are skipped, not iterated over: two iterations per
        # request (prefill+first token, then one decode).
        assert report.n_iterations == 6
        # Arrivals at t=1 and t=2 were waited for exactly.
        assert report.makespan_s == pytest.approx(2.0 + 2 * 0.001)
