"""Prefix-cache tests: radix tree, ref counting, COW, LRU eviction,
scheduler integration, and the default-path equivalence guarantee.

The golden numbers in ``TestDefaultPathUnchanged`` were recorded on
main immediately before the prefix subsystem landed; with
``prefix_caching=False`` (the default) every one of them must stay
bit-identical, so PR 1-4 results do not shift.
"""

import pytest

from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.prefix import (
    PrefixCache,
    PrefixCachingAllocator,
    rolling_hash,
)
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.simulator import ServingSimulator


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us


def _ids(*ranges):
    out = []
    for r in ranges:
        out.extend(r)
    return tuple(out)


def _req(i, prompt_ids, output_ids=None, output=8, arrival=0.0,
         session=None, turn=0):
    out_ids = tuple(output_ids) if output_ids is not None else None
    return Request(req_id=i, arrival_s=arrival,
                   prompt_tokens=len(prompt_ids),
                   output_tokens=len(out_ids) if out_ids else output,
                   prompt_ids=tuple(prompt_ids), output_ids=out_ids,
                   session_id=session, turn=turn)


def _prefix_sched(total_tokens=256, block_tokens=8, token_budget=256,
                  max_seqs=16, watermark_frac=0.0):
    budget = KVBudget(capacity_bytes=float(total_tokens),
                      bytes_per_token=1.0)
    return ContinuousBatchScheduler(
        budget,
        config=SchedulerConfig(token_budget=token_budget, max_seqs=max_seqs,
                               admission="paged", block_tokens=block_tokens,
                               watermark_frac=watermark_frac,
                               prefix_caching=True))


class TestRollingHash:
    def test_deterministic_and_chained(self):
        h1 = rolling_hash(0, (1, 2, 3))
        assert h1 == rolling_hash(0, (1, 2, 3))
        assert h1 != rolling_hash(0, (1, 2, 4))
        # Chaining: the same block under a different parent hashes
        # differently — identity is the full prefix.
        assert rolling_hash(h1, (5, 6)) != rolling_hash(0, (5, 6))

    def test_order_sensitive(self):
        assert rolling_hash(0, (1, 2)) != rolling_hash(0, (2, 1))


class TestPrefixCache:
    def test_insert_then_match(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(12))
        created, dups = cache.insert(ids, 3)
        assert (created, dups) == (3, 0)
        assert cache.n_blocks == 3
        assert len(cache.match(ids, 3)) == 3
        assert len(cache.match(ids, 2)) == 2          # cap respected
        assert len(cache.match(_ids(range(8), [99, 98, 97, 96]), 3)) == 2
        assert cache.match(tuple(range(100, 112)), 3) == []

    def test_insert_is_idempotent(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(8))
        assert cache.insert(ids, 2) == (2, 0)
        assert cache.insert(ids, 2) == (0, 2)
        assert cache.n_blocks == 2

    def test_branching_prefixes_share_the_stem(self):
        cache = PrefixCache(block_tokens=4)
        a = _ids(range(4), [10, 11, 12, 13])
        b = _ids(range(4), [20, 21, 22, 23])
        cache.insert(a, 2)
        created, dups = cache.insert(b, 2)
        assert (created, dups) == (1, 1)               # stem shared
        assert cache.n_blocks == 3

    def test_lock_pins_against_eviction(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(8))
        cache.insert(ids, 2)
        path = cache.match(ids, 2)
        cache.lock(path)
        assert cache.n_referenced == 2
        assert cache.evict_lru(10) == 0                # all pinned
        cache.unlock(path)
        assert cache.n_referenced == 0
        assert cache.evict_lru(10) == 2
        assert cache.n_blocks == 0

    def test_evicts_leaves_lru_first(self):
        cache = PrefixCache(block_tokens=2)
        old = _ids([0, 1], [2, 3])
        new = _ids([0, 1], [4, 5])
        cache.insert(old, 2)
        cache.insert(new, 2)
        cache.match(new, 2)                            # touch `new`
        assert cache.evict_lru(1) == 1
        assert len(cache.match(new, 2)) == 2           # survivor
        assert len(cache.match(old, 2)) == 1           # leaf gone
        # The shared stem only falls once its children are gone.
        assert cache.evict_lru(10) == 2
        assert cache.n_blocks == 0

    def test_partial_lock_leaves_tail_evictable(self):
        cache = PrefixCache(block_tokens=2)
        ids = _ids(range(6))
        cache.insert(ids, 3)
        stem = cache.match(ids, 1)
        cache.lock(stem)
        assert cache.n_evictable == 2
        assert cache.evict_lru(10) == 2                # tail falls
        assert cache.n_blocks == 1 and cache.n_referenced == 1


class TestPrefixCachingAllocator:
    def _alloc(self, total=32, bt=4):
        return PrefixCachingAllocator(total_blocks=total, block_tokens=bt)

    def test_miss_then_commit_then_hit(self):
        alloc = self._alloc()
        ids = _ids(range(17))
        assert alloc.match_and_lock(1, ids) == 0       # cold
        assert alloc.ensure(1, 17)
        assert alloc.holds(1) == 5
        alloc.release(1, token_ids=ids)
        # 4 full blocks committed (resident, unreferenced), tail freed.
        assert alloc.cache.n_blocks == 4
        assert alloc.used_blocks == 0
        assert alloc.free_blocks == alloc.total_blocks
        assert alloc.raw_free_blocks == alloc.total_blocks - 4
        # Second request with the same prompt hits all matchable blocks.
        cached = alloc.match_and_lock(2, ids)
        assert cached == 16
        assert alloc.holds(2) == 4 and alloc.shared_blocks(2) == 4
        assert alloc.used_blocks == 4                  # shared, counted once
        alloc.check_conservation()

    def test_sharing_counts_blocks_once(self):
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        a = alloc.match_and_lock(2, _ids(range(16), [90]))
        b = alloc.match_and_lock(3, _ids(range(16), [91]))
        assert a == b == 16
        assert alloc.used_blocks == 4                  # not 8
        alloc.release(2)
        assert alloc.used_blocks == 4                  # still locked by 3
        alloc.release(3)
        assert alloc.used_blocks == 0
        assert alloc.cache.n_blocks == 4               # cached, evictable
        alloc.check_conservation()

    def test_peek_does_not_lock_or_count(self):
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        stats0 = alloc.prefix_stats()
        assert alloc.peek(ids) == 12                   # last block COW-capped
        assert alloc.peek(_ids(range(16), [7])) == 16
        assert alloc.prefix_stats() == stats0          # no stats change
        assert alloc.cache.n_referenced == 0           # no locks

    def test_full_prompt_hit_is_cow_capped(self):
        """A prompt entirely in cache still recomputes its last block
        (the final token's logits are needed) from a private copy."""
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        cached = alloc.match_and_lock(2, ids)
        assert cached == 12                            # 3 of 4 blocks
        assert alloc.prefix_stats().n_cow_copies == 1
        assert alloc.ensure(2, 16)                     # private copy
        assert alloc.holds(2) == 4
        alloc.release(2, token_ids=ids)
        assert alloc.cache.n_blocks == 4               # dedup: no growth
        alloc.check_conservation()

    def test_divergence_inside_a_block_is_a_miss(self):
        alloc = self._alloc()
        alloc.match_and_lock(1, _ids(range(8)))
        alloc.ensure(1, 8)
        alloc.release(1, token_ids=_ids(range(8)))
        # Shares block 0, diverges at token 5 (inside block 1).
        cached = alloc.match_and_lock(2, _ids(range(5), [99, 98, 97]))
        assert cached == 4
        assert alloc.prefix_stats().n_cow_copies == 0  # divergent, not COW

    def test_eviction_feeds_allocation(self):
        alloc = self._alloc(total=8, bt=4)
        ids = _ids(range(24))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 24)                            # 6 blocks
        alloc.release(1, token_ids=ids)
        assert alloc.cache.n_blocks == 6
        assert alloc.raw_free_blocks == 2
        assert alloc.free_blocks == 8                  # evictable counts
        # A disjoint request needs 7 blocks: 5 cached ones must fall.
        assert alloc.match_and_lock(2, tuple(range(100, 128))) == 0
        assert alloc.ensure(2, 28)
        assert alloc.holds(2) == 7
        assert alloc.prefix_stats().n_evicted_blocks == 5
        alloc.check_conservation()

    def test_referenced_blocks_never_evicted(self):
        alloc = self._alloc(total=6, bt=4)
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        cached = alloc.match_and_lock(2, _ids(range(16), [50]))
        assert cached == 16                            # 4 blocks locked
        # Pool: 4 locked + 2 free; a 3-block demand must fail without
        # touching the locked tree.
        assert not alloc.ensure(3, 12)
        assert alloc.cache.n_blocks == 4
        assert alloc.shared_blocks(2) == 4
        alloc.check_conservation()

    def test_stats_fragmentation_stays_in_bounds(self):
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        for owner in (2, 3):
            alloc.match_and_lock(owner, _ids(range(16), [owner]))
            alloc.ensure(owner, 17)
        stats = alloc.stats()
        assert 0.0 <= stats.fragmentation <= 1.0
        assert stats.used_blocks == 4 + 2              # shared once + tails


class TestSchedulerIntegration:
    def test_shared_prompt_blocks_are_shared(self):
        """Concurrent requests with one system prompt converge on one
        resident copy of its blocks."""
        sched = _prefix_sched(total_tokens=256, block_tokens=8)
        system = tuple(range(32))
        # Warm the tree.
        sched.submit(_req(0, _ids(system, [100, 101, 102, 103]), output=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        assert sched.allocator.cache.n_blocks >= 4
        # Two followers share the cached system blocks.
        sched.submit(_req(1, _ids(system, [110, 111, 112, 113]), output=4))
        sched.submit(_req(2, _ids(system, [120, 121, 122, 123]), output=4))
        sched.schedule(float(it))
        assert all(s.cached_tokens == 32 for s in sched.running)
        assert all(s.prefill_remaining == 4 for s in sched.running)
        shared = sum(sched.allocator.shared_blocks(i) for i in (1, 2))
        assert shared == 8                             # 4 blocks, twice
        assert sched.allocator.cache.n_referenced == 4  # resident once
        sched.allocator.check_conservation()

    def test_cached_tokens_skip_prefill_but_count_as_context(self):
        sched = _prefix_sched(total_tokens=512, block_tokens=8)
        ids = _ids(range(64))
        sched.submit(_req(0, ids, output=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        sched.submit(_req(1, _ids(range(56), [1, 2, 3, 4, 5, 6, 7, 8]),
                          output=4))
        plan = sched.schedule(float(it))
        (seq, chunk), = plan.prefill
        assert seq.cached_tokens == 56
        assert chunk == 8                              # only the suffix
        assert seq.context_tokens == 56                # cached counts
        sched.complete(plan, float(it))
        assert seq.in_decode
        assert seq.context_tokens == 65

    def test_release_decrements_instead_of_freeing(self):
        sched = _prefix_sched(total_tokens=256, block_tokens=8)
        ids = _ids(range(32))
        for i in range(2):
            sched.submit(_req(i, ids[:24 + 8 * i], output=4))
        it = 0
        while sched.has_work:
            plan = sched.schedule(float(it))
            sched.complete(plan, float(it))
            sched.allocator.check_conservation()
            it += 1
        alloc = sched.allocator
        assert alloc.used_blocks == 0
        assert alloc.cache.n_referenced == 0
        assert alloc.cache.n_blocks > 0                # cache survives
        assert alloc.free_blocks == alloc.total_blocks

    def test_preempted_sequence_rehits_its_own_blocks(self):
        """Recompute preemption commits the victim's blocks; its
        re-admission matches them, so the recompute is mostly free."""
        sched = _prefix_sched(total_tokens=64, block_tokens=8,
                              token_budget=64, max_seqs=4)
        ids_a = tuple(range(1000, 1024))
        ids_b = tuple(range(2000, 2024))
        sched.submit(_req(0, ids_a, output_ids=tuple(range(30))))
        sched.submit(_req(1, ids_b, output_ids=tuple(range(30))))
        preempted_rehit = False
        finished = []
        for it in range(500):
            if not sched.has_work:
                break
            plan = sched.schedule(float(it))
            finished.extend(sched.complete(plan, float(it)))
            for seq in sched.running:
                if seq.preemptions > 0 and seq.cached_tokens > 0:
                    preempted_rehit = True
        assert sched.n_preemptions >= 1
        assert len(finished) == 2
        assert preempted_rehit, \
            "a re-admitted victim should hit its own committed blocks"
        assert all(s.generated == 30 for s in finished)

    def test_requests_without_ids_run_unchanged(self):
        sched = _prefix_sched()
        sched.submit(Request(req_id=0, arrival_s=0.0, prompt_tokens=24,
                             output_tokens=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        stats = sched.allocator.prefix_stats()
        assert stats.n_lookups == 0
        assert sched.allocator.cache.n_blocks == 0

    def test_report_carries_prefix_metrics(self):
        sched = _prefix_sched(total_tokens=512, block_tokens=8)
        system = tuple(range(48))
        # Staggered arrivals: each request lands after its predecessor
        # has finished and committed its blocks (~5 ms at 1 ms/iter).
        trace = [_req(i, _ids(system, range(100 * i, 100 * i + 8)),
                      output=4, arrival=0.05 * i) for i in range(6)]
        report = ServingSimulator(sched, ConstantCostModel(),
                                  config=SimConfig(name="px")).run(trace)
        assert report.prefix_caching
        assert report.prefix_hit_rate > 0.5
        assert report.cached_token_fraction > 0.4
        assert report.records[0].cached_tokens == 0    # cold
        assert all(r.cached_tokens == 48 for r in report.records[1:])
        assert "prefix" in report.summary()

    def test_prefix_requires_paged(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(
                budget,
                config=SchedulerConfig(prefix_caching=True))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(
                budget,
                config=SchedulerConfig(admission="reserve",
                                       prefix_caching=True))


# ----------------------------------------------------------------------
# Default-path equivalence: prefix_caching=False must not move a number
# ----------------------------------------------------------------------
class TestDefaultPathUnchanged:
    """Golden metrics of the PR-1 seed scenario, recorded on main just
    before the prefix subsystem was added.  ``prefix_caching`` defaults
    off, so these must match bit-for-bit."""

    GOLDEN = {
        ("fp16", "reserve"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.3177349587101848, n_preempted=0,
            peak_seqs=5),
        ("fp16", "paged"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.3235294117647059, n_preempted=0,
            peak_seqs=5),
        ("kv-cq-4", "reserve"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.07943113674345446, n_preempted=0,
            peak_seqs=5),
        ("kv-cq-4", "paged"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.08075511274252753, n_preempted=0,
            peak_seqs=5),
    }

    BYTES_PER_TOKEN = {"fp16": 524288.0, "kv-cq-4": 131072.0}

    @pytest.mark.parametrize("mode,admission", sorted(GOLDEN))
    def test_seed_scenario_metrics_are_bit_identical(self, mode, admission):
        from repro.bench.serving import make_trace
        trace = make_trace("poisson", 16.0, 64, 384, 96, seed=0)
        budget = KVBudget(capacity_bytes=4e9,
                          bytes_per_token=self.BYTES_PER_TOKEN[mode])
        sched = ContinuousBatchScheduler(
            budget,
            config=SchedulerConfig(token_budget=2048, max_seqs=64,
                                   admission=admission))
        rep = ServingSimulator(sched, ConstantCostModel(),
                               config=SimConfig(name="golden")).run(trace)
        want = self.GOLDEN[(mode, admission)]
        assert rep.makespan_s == want["makespan_s"]
        assert rep.n_iterations == want["n_iterations"]
        assert rep.ttft_s(50) == want["ttft_p50"]
        assert rep.latency_s(99) == want["latency_p99"]
        assert rep.peak_kv_occupancy == want["peak_kv_occupancy"]
        assert rep.n_preempted == want["n_preempted"]
        assert rep.peak_seqs == want["peak_seqs"]
        assert not rep.prefix_caching and rep.prefix_hit_rate == 0.0
