"""Paged KV allocation, preemption and admission-policy tests.

Covers the paging invariants the subsystem promises — block
conservation (allocated + free == pool) across admit/advance/preempt/
finish, no block leak after preemption — plus the equivalence guarantee
that ``admission="reserve"`` exactly reproduces the legacy (PR-1)
scheduler's ``ServingReport``, verified against a verbatim copy of the
legacy implementation on the PR-1 seed scenario.
"""

import random
from collections import deque

import pytest

from repro.llm.config import llama_7b
from repro.obs.trace import NULL_TRACER
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.paging import PagedKVAllocator
from repro.serve.requests import Request
from repro.serve.sanitize import SanitizeError
from repro.serve.scheduler import (
    BatchPlan,
    ContinuousBatchScheduler,
    KVBudget,
    SequenceState,
)
from repro.serve.simulator import ServingSimulator


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us


def _req(i, prompt=64, output=16, arrival=0.0):
    return Request(req_id=i, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _paged(max_tokens=200, token_budget=256, max_seqs=16, block_tokens=8,
           watermark_frac=0.0):
    budget = KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0)
    return ContinuousBatchScheduler(
        budget,
        config=SchedulerConfig(token_budget=token_budget, max_seqs=max_seqs,
                               admission="paged", block_tokens=block_tokens,
                               watermark_frac=watermark_frac))


class TestPagedKVAllocator:
    def test_from_budget_block_math(self):
        cfg = llama_7b()
        budget = KVBudget.for_model(cfg, 4e9)  # 512 KiB/token FP16
        alloc = PagedKVAllocator.from_budget(budget, block_tokens=16)
        assert alloc.bytes_per_block == 16 * budget.bytes_per_token
        assert alloc.total_blocks == int(4e9 // alloc.bytes_per_block)
        # Whole blocks only: the pool never exceeds the byte budget.
        assert alloc.total_blocks * alloc.bytes_per_block <= 4e9

    def test_from_budget_subtracts_codebook_overhead(self):
        budget = KVBudget(capacity_bytes=1000.0, bytes_per_token=1.0,
                          overhead_bytes=100.0)
        alloc = PagedKVAllocator.from_budget(budget, block_tokens=10)
        assert alloc.total_blocks == 90

    def test_from_budget_rejects_block_larger_than_pool(self):
        budget = KVBudget(capacity_bytes=10.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            PagedKVAllocator.from_budget(budget, block_tokens=16)

    def test_blocks_for_tokens_ceil(self):
        alloc = PagedKVAllocator(total_blocks=10, block_tokens=16)
        assert alloc.blocks_for_tokens(0) == 0
        assert alloc.blocks_for_tokens(1) == 1
        assert alloc.blocks_for_tokens(16) == 1
        assert alloc.blocks_for_tokens(17) == 2

    def test_ensure_release_conserves_blocks(self):
        alloc = PagedKVAllocator(total_blocks=10, block_tokens=4)
        assert alloc.ensure(0, 9)   # 3 blocks
        assert alloc.ensure(1, 20)  # 5 blocks
        assert alloc.used_blocks == 8 and alloc.free_blocks == 2
        assert alloc.used_blocks + alloc.free_blocks == alloc.total_blocks
        # Growing within the held blocks allocates nothing new.
        assert alloc.ensure(0, 12)
        assert alloc.holds(0) == 3
        assert alloc.release(1) == 5
        assert alloc.used_blocks == 3 and alloc.free_blocks == 7
        assert alloc.holds(1) == 0
        if alloc.sanitize:
            # Sanitize mode promotes the lenient no-op into the
            # double-free it usually is.
            with pytest.raises(SanitizeError):
                alloc.release(1)
        else:
            assert alloc.release(1) == 0

    def test_failed_ensure_allocates_nothing(self):
        alloc = PagedKVAllocator(total_blocks=4, block_tokens=4)
        assert alloc.ensure(0, 12)  # 3 blocks
        assert not alloc.ensure(1, 8)  # needs 2, only 1 free
        assert alloc.holds(1) == 0
        assert alloc.free_blocks == 1
        # The holder can still use its own slack and the last free block.
        assert alloc.ensure(0, 16)
        assert alloc.free_blocks == 0

    def test_stats_and_fragmentation(self):
        alloc = PagedKVAllocator(total_blocks=8, block_tokens=16)
        alloc.ensure(0, 17)  # 2 blocks, 32 slots, 17 live
        stats = alloc.stats()
        assert stats.used_blocks == 2 and stats.free_blocks == 6
        assert stats.used_fraction == pytest.approx(0.25)
        assert stats.fragmentation == pytest.approx(1 - 17 / 32)
        assert stats.peak_used_blocks == 2
        alloc.release(0)
        empty = alloc.stats()
        assert empty.fragmentation == 0.0
        assert empty.peak_used_blocks == 2  # high-water mark survives

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVAllocator(total_blocks=0, block_tokens=8)
        with pytest.raises(ValueError):
            PagedKVAllocator(total_blocks=8, block_tokens=0)


class TestPagedScheduling:
    def test_admits_beyond_worst_case(self):
        """Paged admission needs prompt blocks only, so it runs more
        concurrent sequences than worst-case reservations allow."""
        budget = KVBudget(capacity_bytes=200.0, bytes_per_token=1.0)
        reserve = ContinuousBatchScheduler(
            budget,
            config=SchedulerConfig(token_budget=1024, max_seqs=16))
        paged = ContinuousBatchScheduler(
            budget,
            config=SchedulerConfig(token_budget=1024, max_seqs=16,
                                   admission="paged", block_tokens=8,
                                   watermark_frac=0.0))
        for sched in (reserve, paged):
            for i in range(8):
                sched.submit(_req(i, prompt=16, output=84))  # 100 worst-case
            sched.schedule()
        assert len(reserve.running) == 2   # 2 x 100-token reservations
        assert len(paged.running) > 2 * len(reserve.running)

    def test_block_conservation_through_lifecycle(self):
        """allocated + free == pool after every admit/advance/preempt/
        finish, and preempted sequences hold zero blocks."""
        sched = _paged(max_tokens=200, token_budget=64, max_seqs=16)
        for i in range(10):
            sched.submit(_req(i, prompt=16, output=24))
        alloc = sched.allocator
        iters = 0
        while sched.has_work:
            plan = sched.schedule(float(iters))
            assert not plan.empty
            sched.complete(plan, float(iters))
            assert (alloc.used_blocks + alloc.free_blocks
                    == alloc.total_blocks)
            held = sum(alloc.holds(s.request.req_id)
                       for s in sched.running)
            assert alloc.used_blocks == held
            for seq in sched.preempted:
                assert alloc.holds(seq.request.req_id) == 0
            iters += 1
            assert iters < 2000
        assert sched.n_preemptions >= 1
        assert alloc.used_blocks == 0
        assert alloc.free_blocks == alloc.total_blocks

    def test_preemption_recompute_semantics(self):
        """The victim frees its blocks, folds generated tokens into
        prefill work, and still completes with the full output."""
        sched = _paged(max_tokens=64, token_budget=64, max_seqs=4)
        sched.submit(_req(0, prompt=24, output=30))
        sched.submit(_req(1, prompt=24, output=30))
        seen_preempted = None
        finished = []
        for it in range(500):
            if not sched.has_work:
                break
            plan = sched.schedule(float(it))
            finished.extend(sched.complete(plan, float(it)))
            if sched.preempted and seen_preempted is None:
                seen_preempted = sched.preempted[0]
                assert seen_preempted.prefilled == 0
                assert (seen_preempted.restart_tokens
                        == seen_preempted.generated > 0)
                assert (seen_preempted.prefill_remaining
                        == 24 + seen_preempted.restart_tokens)
                assert seen_preempted.context_tokens == 0
                assert sched.allocator.holds(
                    seen_preempted.request.req_id) == 0
        assert seen_preempted is not None
        assert seen_preempted.preemptions >= 1
        assert len(finished) == 2
        assert all(s.generated == 30 for s in finished)
        # Recompute preserves the first-token timestamp (TTFT does not
        # reset when a sequence is evicted after sampling began).
        assert all(s.first_token_s is not None for s in finished)

    def test_decode_preempts_youngest_first(self):
        """When the pool runs dry the most recently admitted sequence
        is evicted, not the oldest."""
        sched = _paged(max_tokens=64, token_budget=64, max_seqs=4)
        sched.submit(_req(0, prompt=16, output=40))
        sched.submit(_req(1, prompt=16, output=40))
        it = 0
        while not sched.preempted:
            plan = sched.schedule(float(it))
            sched.complete(plan, float(it))
            it += 1
            assert it < 200
        assert sched.preempted[0].request.req_id == 1
        assert [s.request.req_id for s in sched.running] == [0]

    def test_preempted_requeue_stays_fcfs_across_iterations(self):
        """Victims falling in different iterations (any age order)
        still re-admit oldest-first."""
        sched = _paged(max_tokens=400, token_budget=1024, max_seqs=8)
        for i in range(3):
            sched.submit(_req(i, prompt=16, output=16))
        sched.complete(sched.schedule(), 0.0)
        a, b, c = sched.running  # admission (FCFS) order
        sched._preempt(b, set())  # middle first, as if iteration 1
        sched._preempt(a, set())  # then the oldest, iteration 2
        sched._preempt(c, set())
        assert [s.request.req_id for s in sched.preempted] == [0, 1, 2]
        assert [s.admission_no for s in sched.preempted] == [1, 2, 3]

    def test_victim_is_youngest_by_admission_not_tail_position(self):
        """A re-admitted older sequence sits at the tail of ``running``
        but must not be re-evicted ahead of a truly younger one."""
        sched = _paged(max_tokens=400, token_budget=1024, max_seqs=8)
        for i in range(2):
            sched.submit(_req(i, prompt=16, output=16))
        sched.complete(sched.schedule(), 0.0)
        older, younger = sched.running
        sched._preempt(older, set())
        sched.running.append(sched.preempted.popleft())  # re-admitted
        assert [s.admission_no for s in sched.running] == [2, 1]
        assert sched._pick_victim(BatchPlan()) is younger

    def test_oversized_request_rejected(self):
        sched = _paged(max_tokens=40, block_tokens=8)
        assert not sched.fits(_req(0, prompt=48, output=16))
        with pytest.raises(ValueError):
            sched.submit(_req(0, prompt=48, output=16))
        # Block granularity: 41 tokens need 6 blocks but only 5 exist.
        assert sched.fits(_req(1, prompt=32, output=8))
        assert not sched.fits(_req(2, prompt=33, output=8))

    def test_simulator_run_drains_and_reports(self):
        budget = KVBudget(capacity_bytes=300.0, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(
            budget,
            config=SchedulerConfig(token_budget=256, max_seqs=32,
                                   admission="paged", block_tokens=8))
        sim = ServingSimulator(sched, ConstantCostModel(),
                               config=SimConfig(name="paged"))
        trace = [_req(i, prompt=32, output=24) for i in range(12)]
        report = sim.run(trace)
        assert report.n_requests == 12
        assert report.admission == "paged"
        assert report.n_preempted == sched.n_preemptions >= 1
        assert report.peak_kv_occupancy > 0
        assert "preempt" in report.summary()
        assert not sched.has_work and sched.allocator.used_blocks == 0

    def test_paged_outpacks_reserve_at_equal_memory(self):
        """The tentpole claim at stub-cost scale: equal pool, paged
        admission reaches strictly higher peak occupancy and no worse
        completion time."""
        budget = KVBudget(capacity_bytes=300.0, bytes_per_token=1.0)
        trace = [_req(i, prompt=32, output=24) for i in range(12)]
        reports = {}
        for adm in ("reserve", "paged"):
            sched = ContinuousBatchScheduler(
                budget,
                config=SchedulerConfig(token_budget=256, max_seqs=32,
                                       admission=adm, block_tokens=8))
            reports[adm] = ServingSimulator(
                sched, ConstantCostModel(),
                config=SimConfig(name=adm)).run(trace)
        assert (reports["paged"].peak_kv_occupancy
                > reports["reserve"].peak_kv_occupancy)
        assert (reports["paged"].makespan_s
                <= reports["reserve"].makespan_s)

    def test_kv_pressure_uses_observed_blocks(self):
        """Paged pressure counts blocks actually held plus queued
        prompts' blocks — not worst-case footprints."""
        sched = _paged(max_tokens=80, token_budget=4, max_seqs=1,
                       block_tokens=8)
        sched.submit(_req(0, prompt=8, output=64))   # 72 worst-case
        sched.submit(_req(1, prompt=8, output=64))   # queued
        sched.complete(sched.schedule(), 0.0)
        alloc = sched.allocator
        expected = (alloc.used_blocks
                    + alloc.blocks_for_tokens(8 + 1)) / alloc.total_blocks
        assert sched.kv_pressure == pytest.approx(expected)
        # Worst-case pressure would already be (72 + 72) / 80 = 1.8.
        assert sched.kv_pressure < 1.0

    def test_fragmentation_visible(self):
        sched = _paged(max_tokens=160, token_budget=64, max_seqs=8,
                       block_tokens=16)
        sched.submit(_req(0, prompt=17, output=8))  # 2 blocks, 15 slack
        sched.complete(sched.schedule(), 0.0)
        assert 0.0 < sched.kv_fragmentation < 1.0

    def test_validation(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget,
                                     config=SchedulerConfig(admission="evict"))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget,
                                     config=SchedulerConfig(admission="paged",
                                                            block_tokens=0))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(
                budget,
                config=SchedulerConfig(admission="paged", watermark_frac=1.0))


# ----------------------------------------------------------------------
# Invariant fuzzing: randomized ensure/release/preempt interleavings
# ----------------------------------------------------------------------
class TestAllocatorFuzz:
    """Hypothesis-style randomized interleavings (seeded ``random``):
    whatever order ``ensure``/``release``/preemption happen in, the
    pool conserves blocks and never leaks an owner entry."""

    def _check(self, alloc, live_owners):
        assert alloc.used_blocks + alloc.free_blocks == alloc.total_blocks
        assert alloc.used_blocks == sum(alloc.holds(o) for o in live_owners)
        assert set(alloc._held) <= live_owners
        assert set(alloc._used_tokens) <= live_owners
        for owner in live_owners:
            assert alloc.holds(owner) >= 0

    def test_ensure_release_interleavings_conserve_blocks(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(25):
            total = rng.randint(4, 64)
            bt = rng.choice([1, 2, 4, 8, 16])
            alloc = PagedKVAllocator(total_blocks=total, block_tokens=bt)
            tokens = {}
            for _ in range(200):
                op = rng.random()
                if op < 0.55 or not tokens:
                    owner = rng.randint(0, 7)
                    want = tokens.get(owner, 0) + rng.randint(1, 3 * bt)
                    before = (alloc.holds(owner), alloc.free_blocks)
                    if alloc.ensure(owner, want):
                        tokens[owner] = max(tokens.get(owner, 0), want)
                    else:
                        # A failed ensure must change nothing.
                        assert (alloc.holds(owner),
                                alloc.free_blocks) == before
                else:
                    owner = rng.choice(sorted(tokens))
                    freed = alloc.release(owner)
                    assert freed == -(-tokens.pop(owner) // bt)
                self._check(alloc, set(tokens))
            for owner in sorted(tokens):
                alloc.release(owner)
            assert alloc.used_blocks == 0
            assert alloc.free_blocks == alloc.total_blocks
            assert not alloc._held and not alloc._used_tokens

    def test_scheduler_lifecycle_fuzz_with_preemptions(self):
        """Random traces through the paged scheduler — including forced
        out-of-band preemptions — conserve blocks at every iteration
        and drain to an empty pool."""
        rng = random.Random(1234)
        for trial in range(10):
            bt = rng.choice([4, 8, 16])
            sched = _paged(max_tokens=rng.randint(10, 30) * bt,
                           token_budget=rng.randint(16, 128),
                           max_seqs=rng.randint(2, 8), block_tokens=bt)
            alloc = sched.allocator
            n_reqs = rng.randint(4, 12)
            cap = alloc.total_blocks * bt
            for i in range(n_reqs):
                prompt = rng.randint(1, max(1, cap // 2 - 2))
                output = rng.randint(1, max(1, cap - prompt - bt))
                if sched.fits(_req(i, prompt=prompt, output=output)):
                    sched.submit(_req(i, prompt=prompt, output=output))
            it = 0
            while sched.has_work:
                plan = sched.schedule(float(it))
                assert not plan.empty
                sched.complete(plan, float(it))
                if sched.running and rng.random() < 0.15:
                    sched._preempt(rng.choice(sched.running), set())
                assert (alloc.used_blocks + alloc.free_blocks
                        == alloc.total_blocks)
                assert alloc.used_blocks == sum(
                    alloc.holds(s.request.req_id) for s in sched.running)
                for seq in sched.preempted:
                    assert alloc.holds(seq.request.req_id) == 0
                it += 1
                assert it < 5000, "fuzz trace failed to drain"
            assert alloc.used_blocks == 0
            assert not alloc._held and not alloc._used_tokens


# ----------------------------------------------------------------------
# Reserve-mode equivalence against the legacy (PR-1) scheduler
# ----------------------------------------------------------------------
class LegacyReserveScheduler:
    """Verbatim copy of the PR-1 scheduler loop (worst-case
    reservations, head-first decode order), as the equivalence oracle.
    """

    #: Inert: the shared engine step (``Replica.step``) reads the
    #: scheduler's tracer; the original loop predates tracing.
    tracer = NULL_TRACER

    def __init__(self, budget, token_budget=2048, max_seqs=64):
        self.budget = budget
        self.token_budget = token_budget
        self.max_seqs = max_seqs
        self.waiting = deque()
        self.running = []
        self.reserved_tokens = 0
        self.peak_seqs = 0
        self.peak_reserved_tokens = 0

    def fits(self, request):
        return request.total_tokens <= self.budget.max_tokens

    def submit(self, request):
        self.waiting.append(request)

    @property
    def has_work(self):
        return bool(self.waiting or self.running)

    @property
    def kv_utilization(self):
        return self.reserved_tokens / max(1, self.budget.max_tokens)

    def schedule(self, now_s=0.0):
        while self.waiting and len(self.running) < self.max_seqs:
            nxt = self.waiting[0]
            if (self.reserved_tokens + nxt.total_tokens
                    > self.budget.max_tokens):
                break
            self.waiting.popleft()
            self.running.append(SequenceState(request=nxt, admitted_s=now_s))
            self.reserved_tokens += nxt.total_tokens
        self.peak_seqs = max(self.peak_seqs, len(self.running))
        plan = BatchPlan()
        budget = self.token_budget
        for seq in self.running:
            if seq.in_decode and budget > 0:
                plan.decode.append(seq)
                budget -= 1
        for seq in self.running:
            if budget <= 0:
                break
            if seq.prefill_remaining > 0:
                chunk = min(seq.prefill_remaining, budget)
                plan.prefill.append((seq, chunk))
                budget -= chunk
        return plan

    def complete(self, plan, now_s):
        finished = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                seq.first_token_s = now_s
        for seq in plan.decode:
            seq.generated += 1
            if seq.first_token_s is None:
                seq.first_token_s = now_s
        for seq in list(self.running):
            if seq.finished:
                seq.finished_s = now_s
                self.running.remove(seq)
                self.reserved_tokens -= seq.reserved_tokens
                finished.append(seq)
        return finished


class TestReserveEquivalence:
    """``admission="reserve"`` must exactly reproduce the legacy
    scheduler's ``ServingReport`` on the PR-1 seed scenario."""

    def _pr1_trace(self):
        from repro.bench.serving import make_trace
        return make_trace("poisson", 16.0, 64, 384, 96, seed=0)

    @pytest.mark.parametrize("bytes_per_token", [524288.0, 131072.0],
                             ids=["fp16", "kv-cq-4"])
    def test_reports_match_legacy(self, bytes_per_token):
        trace = self._pr1_trace()
        reports = []
        for make in (
            lambda b: LegacyReserveScheduler(b, token_budget=2048,
                                             max_seqs=64),
            lambda b: ContinuousBatchScheduler(
                b,
                config=SchedulerConfig(token_budget=2048, max_seqs=64,
                                       admission="reserve")),
        ):
            budget = KVBudget(capacity_bytes=4e9,
                              bytes_per_token=bytes_per_token)
            sched = make(budget)
            reports.append(ServingSimulator(
                sched, ConstantCostModel(),
                config=SimConfig(name="eq")).run(trace))
        legacy, current = reports
        assert current.records == legacy.records
        assert current.makespan_s == legacy.makespan_s
        assert current.n_iterations == legacy.n_iterations
        assert current.peak_seqs == legacy.peak_seqs
        assert current.peak_kv_utilization == legacy.peak_kv_utilization
        assert current.n_preempted == 0

    def test_default_admission_is_reserve(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(budget)
        assert sched.admission == "reserve"
        assert sched.allocator is None
