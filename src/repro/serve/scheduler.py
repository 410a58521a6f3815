"""Continuous-batching scheduler with KV-cache memory accounting.

The scheduler implements the iteration-level (Orca-style) continuous
batching loop used by modern LLM serving engines:

- every iteration, all running sequences in the *decode* phase
  contribute one token each, in round-robin priority so a tight token
  budget never starves the tail of the batch;
- leftover token budget goes to *prefill*, chunked so a long prompt
  never starves decodes (chunked prefill);
- memory is governed by one of two admission policies:

  ``admission="reserve"``
      a request is admitted only when its worst-case KV-cache footprint
      (prompt + maximum output tokens) fits in the HBM budget, so there
      is never a mid-generation eviction — simple, but occupancy is
      bounded by reservations that mostly go unused;

  ``admission="paged"``
      KV memory is a pool of fixed-size blocks
      (:class:`~repro.serve.paging.PagedKVAllocator`, vLLM-style)
      allocated on demand as prefill/decode advance.  Admission needs
      only the *prompt's* blocks, so far more sequences run
      concurrently; when the pool runs dry the scheduler preempts the
      most recently admitted sequence via *recompute* — its blocks are
      freed and its prompt (plus tokens generated so far) is
      re-prefilled when it is re-admitted, FCFS ahead of the waiting
      queue.

KV memory is where VQ earns its keep at the serving level: the budget's
bytes-per-token comes from :func:`kv_bytes_per_token`, which scales the
FP16 footprint of :attr:`repro.llm.config.LlamaConfig.kv_bytes_per_token`
by a :class:`~repro.vq.config.VQConfig` compression ratio (e.g. CQ-2
stores 12.5% of FP16), minus a one-off resident-codebook overhead
(:func:`kv_codebook_bytes`).  At an equal HBM budget a VQ cache
therefore admits ~4-8x more concurrent sequences — and under paged
admission it also packs ~4-8x more *blocks*, which is what the
simulator turns into sustained-throughput numbers.

See ``docs/architecture.md`` for how the scheduler plugs into the
simulator and cost model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.llm.config import LlamaConfig
from repro.vq.config import VQConfig

from repro.obs.trace import EVT_ADMITTED, EVT_PREEMPTED, NULL_TRACER
from repro.serve.api import SchedulerConfig
from repro.serve.paging import PagedKVAllocator
from repro.serve.prefix import PrefixCachingAllocator, PrefixStats
from repro.serve.requests import Request

#: Admission policies :class:`ContinuousBatchScheduler` understands.
ADMISSION_POLICIES = ("reserve", "paged")

def kv_bytes_per_token(config: LlamaConfig,
                       vq: Optional[VQConfig] = None,
                       bits: Optional[int] = None) -> float:
    """KV-cache bytes one token occupies across all layers.

    ``vq`` scales the FP16 footprint by the codes-only compression ratio
    (codebooks are accounted separately — they are shared across tokens,
    see :func:`kv_codebook_bytes`).  ``bits`` models an element-wise
    quantized cache (e.g. qServe's INT4) at ``bits/16`` of FP16.
    """
    if vq is not None and bits is not None:
        raise ValueError("vq and bits are mutually exclusive")
    fp16 = float(config.kv_bytes_per_token)
    if vq is not None:
        return fp16 * vq.compression_ratio
    if bits is not None:
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        return fp16 * bits / 16.0
    return fp16


def kv_codebook_bytes(config: LlamaConfig, vq: VQConfig) -> float:
    """Resident codebook storage for a VQ KV cache (both K and V).

    CQ trains one codebook per channel group (``hidden / vector_size``
    groups) per residual level, independently for keys and values in
    every layer.  This is a fixed overhead, shared by all sequences.
    """
    groups = config.hidden // vq.vector_size
    per_side = groups * vq.residuals * vq.codebook_bytes
    return float(2 * per_side * config.n_layers)


@dataclass
class KVBudget:
    """An HBM allowance for KV-cache storage.

    ``capacity_bytes`` is the pool available to the cache (model
    weights, activations and fragmentation margin already subtracted);
    ``overhead_bytes`` (resident codebooks) is taken off the top.
    """

    capacity_bytes: float
    bytes_per_token: float
    overhead_bytes: float = 0.0

    def __post_init__(self):
        if self.bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        if self.capacity_bytes <= self.overhead_bytes:
            raise ValueError("capacity does not even fit the overhead")

    @classmethod
    def for_model(cls, config: LlamaConfig, capacity_bytes: float,
                  vq: Optional[VQConfig] = None,
                  bits: Optional[int] = None) -> "KVBudget":
        """Budget for one model under FP16, VQ or element-wise caching."""
        overhead = kv_codebook_bytes(config, vq) if vq is not None else 0.0
        return cls(capacity_bytes=capacity_bytes,
                   bytes_per_token=kv_bytes_per_token(config, vq, bits),
                   overhead_bytes=overhead)

    @staticmethod
    def gpu_kv_capacity(spec, weight_bytes: float,
                        reserve_fraction: float = 0.1) -> float:
        """KV pool left on one GPU: DRAM minus margin minus weights.

        Shared by :meth:`for_gpu` and the cluster layer's per-shard
        budgets (:func:`repro.bench.cluster.replica_kv_budget`), so the
        reserve semantics cannot drift between them.
        """
        if getattr(spec, "dram_bytes", 0.0) <= 0:
            raise ValueError(
                f"{getattr(spec, 'name', spec)!r} has no dram_bytes set; "
                "pass an explicit capacity via for_model instead")
        if not 0 <= reserve_fraction < 1:
            raise ValueError("reserve_fraction must be in [0, 1)")
        capacity = spec.dram_bytes * (1 - reserve_fraction) - weight_bytes
        if capacity <= 0:
            raise ValueError(
                f"resident weights ({weight_bytes / 1e9:.1f} GB) do not "
                f"leave KV room on {spec.name} ({spec.dram_gb:.0f} GB)")
        return capacity

    @classmethod
    def for_gpu(cls, config: LlamaConfig, spec,
                vq: Optional[VQConfig] = None,
                bits: Optional[int] = None,
                weight_bytes: Optional[float] = None,
                reserve_fraction: float = 0.1) -> "KVBudget":
        """Budget derived from a :class:`~repro.gpu.spec.GPUSpec`.

        The KV pool is what remains of the chip's ``dram_bytes`` after
        a ``reserve_fraction`` margin (activations, CUDA context,
        fragmentation) and the resident model weights — FP16 weights
        (``2 * param_count``) unless ``weight_bytes`` overrides, e.g.
        for quantized weights or a tensor-parallel shard.
        """
        if weight_bytes is None:
            weight_bytes = 2.0 * config.param_count
        capacity = cls.gpu_kv_capacity(spec, weight_bytes, reserve_fraction)
        return cls.for_model(config, capacity, vq=vq, bits=bits)

    @property
    def max_tokens(self) -> int:
        """Maximum tokens resident at once under this budget."""
        return int((self.capacity_bytes - self.overhead_bytes)
                   // self.bytes_per_token)


@dataclass
class SequenceState:
    """Scheduler-side state of one admitted request."""

    request: Request
    #: Monotonic first-admission rank (scheduler bookkeeping: preempted
    #: sequences re-admit in this order, keeping re-admission FCFS).
    admission_no: int = 0
    #: Prompt (plus recompute) tokens already prefilled.
    prefilled: int = 0
    #: Output tokens generated so far.
    generated: int = 0
    #: Generated tokens converted back into prefill work by recompute
    #: preemptions (their KV was freed; they re-prefill with the prompt).
    restart_tokens: int = 0
    #: Prompt tokens served from the prefix cache at the most recent
    #: admission (they count as prefilled without prefill work).
    cached_tokens: int = 0
    #: Times this sequence was preempted.
    preemptions: int = 0
    #: Simulation time of admission, first output token, completion.
    admitted_s: float = 0.0
    first_token_s: Optional[float] = None
    finished_s: Optional[float] = None

    @property
    def prefill_target(self) -> int:
        """Tokens this sequence must prefill before (re-)entering decode."""
        return self.request.prompt_tokens + self.restart_tokens

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_target - self.prefilled

    @property
    def in_decode(self) -> bool:
        """Prefill complete and still generating."""
        return self.prefill_remaining == 0 and not self.finished

    @property
    def finished(self) -> bool:
        return self.generated >= self.request.output_tokens

    @property
    def context_tokens(self) -> int:
        """Tokens currently in this sequence's KV cache.

        ``generated`` tokens whose KV was dropped by a preemption count
        only once they are re-prefilled (they are inside ``prefilled``
        via :attr:`prefill_target`), hence the ``restart_tokens``
        correction.
        """
        return self.prefilled + self.generated - self.restart_tokens

    @property
    def reserved_tokens(self) -> int:
        """Worst-case KV tokens reserved for this sequence."""
        return self.request.total_tokens


@dataclass
class BatchPlan:
    """One iteration's work: prefill chunks plus decode sequences."""

    prefill: List[Tuple[SequenceState, int]] = field(default_factory=list)
    decode: List[SequenceState] = field(default_factory=list)
    #: Scheduler-stamped value of :meth:`mean_context` (set on the
    #: reserve fast path from an incrementally maintained context sum;
    #: ``None`` means "derive from ``decode``").  The sum is exact
    #: integer arithmetic either way, so the cached value is
    #: bit-identical to the derived one.
    cached_mean_context: Optional[float] = None
    #: True when ``decode`` is exactly the scheduler's decoding set (one
    #: round-robin rotation of it) — lets ``complete`` detect finished
    #: sequences with one vectorized counter update instead of a
    #: per-sequence property scan.
    full_decode: bool = False

    @property
    def prefill_tokens(self) -> int:
        return sum(chunk for _, chunk in self.prefill)

    @property
    def decode_batch(self) -> int:
        return len(self.decode)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_batch

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode

    @property
    def prompt_completions(self) -> int:
        """Prefill entries whose chunk completes the prompt this
        iteration — each samples a first token through the LM head.
        Evaluate *before* :meth:`ContinuousBatchScheduler.complete`
        applies the plan (the cost model prices the plan first)."""
        return sum(1 for seq, chunk in self.prefill
                   if chunk == seq.prefill_remaining)

    def mean_context(self) -> float:
        """Mean decode context length (tokens already in cache)."""
        if self.cached_mean_context is not None:
            return self.cached_mean_context
        if not self.decode:
            return 0.0
        return sum(s.context_tokens for s in self.decode) / len(self.decode)


class ContinuousBatchScheduler:
    """Iteration-level scheduler over a KV budget and a token budget.

    Parameters
    ----------
    budget:
        The KV-cache memory allowance.
    config:
        A :class:`~repro.serve.api.SchedulerConfig` carrying every
        option below (defaults when ``None``):
    token_budget:
        Maximum tokens processed per iteration (decode tokens + prefill
        chunk), the knob vLLM calls ``max_num_batched_tokens``.
    max_seqs:
        Maximum concurrently admitted sequences (attention batch cap).
    admission:
        ``"reserve"`` (default) reserves each request's worst-case
        footprint at admission; ``"paged"`` allocates fixed-size blocks
        on demand and preempts-by-recompute on exhaustion.
    block_tokens:
        Token slots per KV block under paged admission (vLLM's
        ``block_size``); ignored for ``"reserve"``.
    watermark_frac:
        Fraction of the block pool paged admission keeps free as a
        hedge against immediate preemption of a just-admitted sequence
        (vLLM's ``watermark``); ignored for ``"reserve"``.
    prefix_caching:
        Share KV blocks across requests with a common prompt prefix
        (requires ``admission="paged"`` and requests that carry
        ``prompt_ids``).  Admission matches the prompt against a radix
        tree of cached blocks
        (:class:`~repro.serve.prefix.PrefixCachingAllocator`): cached
        tokens are credited as already prefilled — they skip the
        prefill GEMM/attention work but still count toward context
        length for decode attention — and finished/preempted sequences
        commit their full blocks back into the tree instead of freeing
        them, where they stay resident until LRU eviction reclaims
        them for live sequences.
    """

    def __init__(self, budget: KVBudget,
                 config: Optional[SchedulerConfig] = None):
        if config is None:
            config = SchedulerConfig()
        token_budget = config.token_budget
        max_seqs = config.max_seqs
        admission = config.admission
        block_tokens = config.block_tokens
        watermark_frac = config.watermark_frac
        prefix_caching = config.prefix_caching
        if token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if max_seqs < 1:
            raise ValueError("max_seqs must be >= 1")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {admission!r}; "
                             f"expected one of {ADMISSION_POLICIES}")
        if not 0 <= watermark_frac < 1:
            raise ValueError("watermark_frac must be in [0, 1)")
        if prefix_caching and admission != "paged":
            raise ValueError("prefix_caching requires admission='paged'")
        self.config = config
        self.budget = budget
        self.token_budget = token_budget
        self.max_seqs = max_seqs
        self.admission = admission
        self.prefix_caching = prefix_caching
        self.allocator: Optional[PagedKVAllocator] = None
        self._watermark_blocks = 0
        if admission == "paged":
            alloc_cls = (PrefixCachingAllocator if prefix_caching
                         else PagedKVAllocator)
            self.allocator = alloc_cls.from_budget(
                budget, block_tokens, sanitize=config.sanitize)
            self._watermark_blocks = int(self.allocator.total_blocks
                                         * watermark_frac)
        self.waiting: Deque[Request] = deque()
        #: Preempted sequences awaiting re-admission (ahead of
        #: ``waiting`` — they are older than anything still queued).
        self.preempted: Deque[SequenceState] = deque()
        self.running: List[SequenceState] = []
        self.reserved_tokens = 0
        #: Reserve-mode fast-path state.  ``running`` is partitioned
        #: (in running order) into ``_prefilling`` and ``_decoding`` so
        #: :meth:`schedule` never scans the whole batch; the two
        #: integer context sums back :attr:`kv_occupancy` and
        #: :meth:`BatchPlan.mean_context` without per-sequence property
        #: walks; ``_dec_remaining`` holds output-tokens-left per
        #: decoding sequence (aligned with ``_decoding``) so full-batch
        #: iterations detect completions with one vectorized compare.
        #: All of it is redundant bookkeeping over the same integers
        #: the object attributes hold — results stay bit-identical.
        #: Paged admission (preemption, block clipping) keeps the
        #: original object path untouched.
        self._decoding: List[SequenceState] = []
        self._prefilling: List[SequenceState] = []
        self._decode_ctx_sum = 0
        self._running_ctx_sum = 0
        self._dec_remaining = np.zeros(0, dtype=np.int64)
        self._dec_dirty = False
        #: Lazy-decrement offset for ``_dec_remaining``: true remaining
        #: is ``stored - _dec_base``, so a full-rotation iteration
        #: "decrements every element" by bumping the scalar.
        self._dec_base = 0
        #: Smallest *true* remaining (meaningful only while
        #: ``_dec_remaining`` is non-empty) — completions are
        #: impossible while > 0, so full-rotation iterations skip the
        #: finished scan entirely.
        self._dec_min = 0
        #: ``budget.max_tokens`` is a derived property; hot paths read
        #: it every iteration, so cache it (budgets are never mutated
        #: after scheduler construction).
        self._max_tokens = budget.max_tokens
        self._admission_counter = 0
        #: Round-robin start offset for decode-slot priority.
        self._decode_offset = 0
        #: High-water marks and counters, for reporting.
        self.peak_seqs = 0
        self.peak_reserved_tokens = 0
        self.peak_kv_occupancy = 0.0
        self.n_preemptions = 0
        #: Observability hooks (:mod:`repro.obs`): the default
        #: :data:`~repro.obs.trace.NULL_TRACER` makes every
        #: ``if tracer.enabled:`` recording guard near-free.  The
        #: simulator that owns this scheduler swaps in a live tracer
        #: (and its replica id) when tracing is on.
        self.tracer = NULL_TRACER
        self.trace_replica = 0
        #: Simulated time of the in-flight :meth:`schedule` call —
        #: preemption fires deep inside plan building where ``now_s``
        #: is not threaded, so it is stashed here (traced runs only).
        self._trace_now_s = 0.0

    # -- queue management ----------------------------------------------
    def fits(self, request: Request) -> bool:
        """Whether this request could ever complete under the budget."""
        if self.allocator is not None:
            return (self.allocator.blocks_for_tokens(request.total_tokens)
                    <= self.allocator.total_blocks)
        return request.total_tokens <= self._max_tokens

    def submit(self, request: Request) -> None:
        """Enqueue an arrived request (FCFS)."""
        if not self.fits(request):
            if self.allocator is not None:
                raise ValueError(
                    f"request {request.req_id} needs "
                    f"{self.allocator.blocks_for_tokens(request.total_tokens)}"
                    f" KV blocks but the pool holds "
                    f"{self.allocator.total_blocks}")
            raise ValueError(
                f"request {request.req_id} needs {request.total_tokens} "
                f"KV tokens but the budget holds {self.budget.max_tokens}")
        self.waiting.append(request)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.preempted or self.running)

    @property
    def kv_utilization(self) -> float:
        """Fraction of the KV budget currently held against admission.

        Reserve mode: worst-case reservations over capacity.  Paged
        mode: allocated blocks over the pool (what actually gates
        allocation).
        """
        if self.allocator is not None:
            return self.allocator.used_fraction
        return self.reserved_tokens / max(1, self._max_tokens)

    @property
    def kv_occupancy(self) -> float:
        """Fraction of the KV budget *actually resident* in HBM.

        Reserve mode: live context tokens over capacity — typically far
        below :attr:`kv_utilization`, because worst-case reservations
        sit idle until the tokens materialise.  Paged mode: allocated
        blocks over the pool (blocks are resident bytes; the gap to
        live tokens is the internal fragmentation the allocator's
        :meth:`~repro.serve.paging.PagedKVAllocator.stats` reports).
        Prefix caching adds the cached-but-unreferenced tree blocks —
        they hold bytes until evicted.
        """
        if self.allocator is not None:
            frac = getattr(self.allocator, "resident_fraction", None)
            return self.allocator.used_fraction if frac is None else frac
        # Incrementally maintained integer sum — exactly equal to
        # ``sum(s.context_tokens for s in self.running)``.
        return self._running_ctx_sum / max(1, self._max_tokens)

    def prefix_stats(self) -> Optional[PrefixStats]:
        """Hit/miss/evict counters (``None`` unless prefix caching)."""
        if not self.prefix_caching:
            return None
        return self.allocator.prefix_stats()

    def emit_metrics(self, registry, **labels) -> None:
        """Emit scheduler counters and high-water marks into a
        :class:`~repro.obs.metrics.MetricsRegistry` (end-of-run only,
        so the same run yields the same registry with tracing on or
        off).  Delegates to the allocator for pool-level metrics."""
        registry.counter(
            "sched_admissions_total", "First-time sequence admissions",
            **labels).inc(self._admission_counter)
        registry.counter(
            "sched_preemptions_total", "Recompute preemptions fired",
            **labels).inc(self.n_preemptions)
        registry.gauge(
            "sched_peak_seqs", "Peak concurrently running sequences",
            **labels).set(self.peak_seqs)
        registry.gauge(
            "sched_peak_reserved_tokens",
            "Peak worst-case KV token reservation (reserve admission)",
            **labels).set(self.peak_reserved_tokens)
        registry.gauge(
            "kv_peak_occupancy",
            "Peak fraction of the KV budget resident in HBM",
            **labels).set(self.peak_kv_occupancy)
        if self.allocator is not None:
            self.allocator.emit_metrics(registry, **labels)

    @property
    def kv_pressure(self) -> float:
        """Near-term KV demand over capacity, counting the queue.

        Unlike :attr:`kv_utilization` this includes what *queued* work
        will need — worst-case reservations in reserve mode, observed
        block usage plus queued prompts' blocks in paged mode — so a
        router sees pressure build before admission does.
        """
        if self.allocator is not None:
            alloc = self.allocator
            queued = sum(alloc.blocks_for_tokens(s.prefill_target + 1)
                         for s in self.preempted)
            queued += sum(alloc.blocks_for_tokens(r.prompt_tokens + 1)
                          for r in self.waiting)
            return (alloc.used_blocks + queued) / alloc.total_blocks
        demand = (self.reserved_tokens
                  + sum(r.total_tokens for r in self.waiting))
        return demand / max(1, self._max_tokens)

    @property
    def kv_fragmentation(self) -> float:
        """Internal fragmentation of the paged pool (0.0 for reserve).

        Single source of truth is the allocator's own stats — the
        scheduler does not keep a second, subtly different tally.
        """
        if self.allocator is None:
            return 0.0
        return self.allocator.stats().fragmentation

    # -- admission -----------------------------------------------------
    def _admit(self, now_s: float) -> None:
        """Move queued work to running while memory and seats last.

        Admission is FCFS without holes: skipping ahead of a large
        request would starve it.  Preempted sequences re-enter first —
        they predate everything still waiting.
        """
        if self.allocator is not None:
            self._admit_paged(now_s)
        else:
            while self.waiting and len(self.running) < self.max_seqs:
                nxt = self.waiting[0]
                if (self.reserved_tokens + nxt.total_tokens
                        > self._max_tokens):
                    break
                self.waiting.popleft()
                seq = self._new_sequence(nxt, now_s)
                self.running.append(seq)
                self.reserved_tokens += nxt.total_tokens
                # prompt_tokens >= 1 (Request validation), so a fresh
                # sequence always starts in the prefill partition.
                self._prefilling.append(seq)
                self._running_ctx_sum += seq.context_tokens
        self.peak_seqs = max(self.peak_seqs, len(self.running))
        self.peak_reserved_tokens = max(self.peak_reserved_tokens,
                                        self.reserved_tokens)

    def _admit_paged(self, now_s: float) -> None:
        """Admit while the free list covers each candidate's prefill.

        Only the prompt (plus the first sampled token's slot) is
        required up front — that is the whole point of paging — but the
        check also counts the *outstanding* prefill demand of already
        running sequences, so a burst of admissions cannot promise the
        same free blocks twice.  Under prefix caching, blocks the
        radix tree already holds for the candidate's prompt are not
        demanded (a feasibility ``peek``; the blocks are matched and
        locked only when the candidate is actually admitted).
        """
        alloc = self.allocator
        committed = sum(
            max(0, alloc.blocks_for_tokens(s.prefill_target + 1)
                - alloc.holds(s.request.req_id))
            for s in self.running)
        while (len(self.running) < self.max_seqs
               and (self.preempted or self.waiting)):
            known = None
            if self.preempted:
                cand = self.preempted[0]
                req = cand.request
                target = cand.prefill_target
                if self.prefix_caching:
                    known = self._known_ids(req, cand.restart_tokens)
            else:
                req = self.waiting[0]
                target = req.prompt_tokens
                if self.prefix_caching:
                    known = self._known_ids(req, 0)
            cached_blocks = 0
            if known is not None:
                cached_blocks = alloc.peek(known) // alloc.block_tokens
            need = max(0, alloc.blocks_for_tokens(target + 1)
                       - cached_blocks)
            watermark = self._watermark_blocks if self.running else 0
            if committed + need + watermark > alloc.free_blocks:
                break
            if self.preempted:
                seq = self.preempted.popleft()
                if self.tracer.enabled:
                    # Re-admission after preemption (value=1 marks it).
                    self.tracer.event(EVT_ADMITTED, now_s,
                                      self.trace_replica,
                                      seq.request.req_id, 1)
            else:
                seq = self._new_sequence(self.waiting.popleft(), now_s)
            if alloc.sanitize:
                # Declare the owner live before any allocation so a
                # release with zero blocks still counts for the
                # double-free check.
                alloc.notify_admitted(req.req_id)
            if known is not None:
                cached = alloc.match_and_lock(req.req_id, known)
                seq.prefilled = cached
                seq.cached_tokens = cached
            self.running.append(seq)
            committed += need

    @staticmethod
    def _known_ids(request: Request, generated: int):
        """Token ids resident after (re-)prefilling ``request`` with
        ``generated`` recompute tokens — ``None`` when the request
        carries no ids (prefix caching is then a per-request no-op)."""
        if request.prompt_ids is None:
            return None
        ids = request.prompt_ids
        if generated > 0 and request.output_ids is not None:
            ids = ids + request.output_ids[:generated]
        return ids

    def _resident_ids(self, seq: SequenceState):
        """Ids of the tokens currently in ``seq``'s KV cache (prompt
        first), for committing full blocks into the prefix tree."""
        ids = self._known_ids(seq.request, seq.generated)
        if ids is None:
            return None
        return ids[:seq.context_tokens]

    def _release_blocks(self, seq: SequenceState) -> None:
        """Free ``seq``'s blocks — committing them to the prefix tree
        first when prefix caching is on and the ids are known."""
        if self.prefix_caching:
            self.allocator.release(seq.request.req_id,
                                   token_ids=self._resident_ids(seq))
        else:
            self.allocator.release(seq.request.req_id)

    def _new_sequence(self, request: Request,
                      now_s: float) -> SequenceState:
        """First admission of a request (stamps its FCFS rank)."""
        self._admission_counter += 1
        if self.tracer.enabled:
            self.tracer.event(EVT_ADMITTED, now_s, self.trace_replica,
                              request.req_id)
        return SequenceState(request=request, admitted_s=now_s,
                             admission_no=self._admission_counter)

    # -- preemption ----------------------------------------------------
    def _preempt(self, victim: SequenceState,
                 evicted_ids: set) -> None:
        """Evict ``victim`` by recompute: free its blocks, queue it for
        re-admission with its generated tokens folded into prefill.

        Under prefix caching the victim's full blocks are committed to
        the tree rather than freed — if they survive until re-admission
        the recompute is (mostly) a cache hit.
        """
        self._release_blocks(victim)
        self.running.remove(victim)
        evicted_ids.add(id(victim))
        victim.prefilled = 0
        victim.restart_tokens = victim.generated
        victim.preemptions += 1
        # Insert by first-admission rank: victims of one iteration fall
        # youngest-first, and a victim of a *later* iteration may be
        # older or younger than what is already queued — either way
        # re-admission must stay FCFS.
        pos = 0
        while (pos < len(self.preempted)
               and self.preempted[pos].admission_no < victim.admission_no):
            pos += 1
        self.preempted.insert(pos, victim)
        self.n_preemptions += 1
        if self.tracer.enabled:
            # value = tokens that will be recomputed at re-admission.
            self.tracer.event(EVT_PREEMPTED, self._trace_now_s,
                              self.trace_replica, victim.request.req_id,
                              victim.restart_tokens)

    def _pick_victim(self, plan: BatchPlan) -> Optional[SequenceState]:
        """Youngest-admitted running sequence not already granted work
        in this plan (it may be the sequence asking for blocks).

        Youngest means highest :attr:`SequenceState.admission_no`, not
        tail position — re-admitted preempted sequences append to the
        tail of ``running`` but keep their original (older) rank, and
        re-evicting one would throw away its just-paid re-prefill.
        """
        planned = {id(s) for s in plan.decode}
        planned.update(id(s) for s, _ in plan.prefill)
        victim: Optional[SequenceState] = None
        for cand in self.running:
            if id(cand) in planned:
                continue
            if victim is None or cand.admission_no > victim.admission_no:
                victim = cand
        return victim

    def _grow_for_decode(self, seq: SequenceState, plan: BatchPlan,
                         evicted_ids: set) -> bool:
        """Allocate ``seq``'s next token slot, preempting as needed.

        Returns ``False`` when ``seq`` cannot decode this iteration —
        either it was itself the preemption victim, or every other
        running sequence is already committed to the plan.
        """
        alloc = self.allocator
        rid = seq.request.req_id
        while not alloc.ensure(rid, seq.context_tokens + 1):
            victim = self._pick_victim(plan)
            if victim is None:
                return False
            self._preempt(victim, evicted_ids)
            if victim is seq:
                return False
        return True

    def _clip_prefill_chunk(self, seq: SequenceState, chunk: int) -> int:
        """Shrink a prefill chunk to what the free list can back now.

        Prefill never preempts — decodes hold that privilege — it just
        takes fewer tokens and resumes next iteration.  A chunk that
        completes the prompt takes the sampled token's slot too when it
        fits; otherwise that slot is deferred to the sequence's first
        decode (whose ``ensure`` may preempt), so a full pool can never
        wedge a one-token-from-done prefill at zero progress.
        """
        alloc = self.allocator
        rid = seq.request.req_id
        kv = seq.context_tokens
        capacity = (alloc.holds(rid) + alloc.free_blocks) * alloc.block_tokens
        avail = capacity - kv
        chunk = min(chunk, avail)
        if chunk < 1:
            return 0
        target = kv + chunk
        if chunk == seq.prefill_remaining and chunk + 1 <= avail:
            target += 1
        if not alloc.ensure(rid, target):  # pragma: no cover - avail bounds
            return 0
        return chunk

    # -- iteration planning --------------------------------------------
    def schedule(self, now_s: float = 0.0) -> BatchPlan:
        """Plan one iteration: decodes first, then chunked prefill.

        Decode slots are granted in round-robin order (a rotating start
        offset over the decoding sequences), so when ``token_budget``
        is smaller than the decoding batch every sequence still makes
        progress within a bounded number of iterations instead of the
        head of ``running`` draining first while the tail starves.
        """
        if self.tracer.enabled:
            self._trace_now_s = now_s
        self._admit(now_s)
        plan = BatchPlan()
        budget = self.token_budget
        #: Sequences preempted while building *this* plan (paged only) —
        #: an id set, so skipping them costs O(1) per candidate instead
        #: of an equality scan of ``running``.
        evicted_ids: set = set()
        if self.allocator is None:
            # Reserve mode maintains the decode partition incrementally
            # (running order, same as the ``in_decode`` scan would
            # yield): prefill completes strictly in running order —
            # earlier sequences drain the chunk budget first — so
            # appending on entry preserves it.
            candidates = self._decoding
        else:
            candidates = [s for s in self.running if s.in_decode]
        if candidates and budget > 0:
            start = self._decode_offset % len(candidates)
            if self.allocator is None and budget >= len(candidates):
                # Fast path: the whole rotation is granted — emit it as
                # one slice concatenation.  ``(start + granted) % len``
                # is ``start`` again when every candidate is granted.
                plan.decode = candidates[start:] + candidates[:start]
                plan.full_decode = True
                plan.cached_mean_context = (self._decode_ctx_sum
                                            / len(candidates))
                budget -= len(candidates)
                self._decode_offset = start
            else:
                granted = 0
                for seq in candidates[start:] + candidates[:start]:
                    if budget <= 0:
                        break
                    if id(seq) in evicted_ids:
                        continue  # preempted as a victim earlier this plan
                    if (self.allocator is not None
                            and not self._grow_for_decode(seq, plan,
                                                          evicted_ids)):
                        continue
                    plan.decode.append(seq)
                    budget -= 1
                    granted += 1
                self._decode_offset = (start + granted) % len(candidates)
        prefill_src = (self._prefilling if self.allocator is None
                       else self.running)
        for seq in list(prefill_src):
            if budget <= 0:
                break
            if seq.prefill_remaining > 0:
                chunk = min(seq.prefill_remaining, budget)
                if self.allocator is not None:
                    chunk = self._clip_prefill_chunk(seq, chunk)
                    if chunk < 1:
                        continue
                plan.prefill.append((seq, chunk))
                budget -= chunk
        return plan

    def complete(self, plan: BatchPlan, now_s: float) -> List[SequenceState]:
        """Apply one executed iteration; return sequences that finished.

        A sequence whose prefill completes emits its first output token
        in the same iteration (the last prefill chunk's logits feed the
        sampler), which is when TTFT stops ticking.  After a recompute
        preemption the same rule re-applies: the iteration completing
        the re-prefill samples the *next* token.
        """
        if self.allocator is None:
            return self._complete_reserve(plan, now_s)
        finished: List[SequenceState] = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                if seq.first_token_s is None:
                    seq.first_token_s = now_s
        for seq in plan.decode:
            seq.generated += 1
            if seq.first_token_s is None:
                seq.first_token_s = now_s
        # High-water mark of resident KV, before finished sequences free.
        self.peak_kv_occupancy = max(self.peak_kv_occupancy,
                                     self.kv_occupancy)
        for seq in list(self.running):
            if seq.finished:
                seq.finished_s = now_s
                self.running.remove(seq)
                self._release_blocks(seq)
                finished.append(seq)
        return finished

    def _complete_reserve(self, plan: BatchPlan,
                          now_s: float) -> List[SequenceState]:
        """Reserve-mode :meth:`complete`: same transitions, maintained
        incrementally over the fast-path partitions.

        Only sequences granted a token this iteration can newly finish,
        so the finished scan never walks ``running``: a full-rotation
        decode grant is checked with one vectorized decrement of
        ``_dec_remaining`` (``full_decode`` plans), anything else falls
        back to scanning just the decode partition.  The vectorized
        decrement itself is lazy — a scalar ``_dec_base`` offset stands
        in for subtracting 1 from every element, and ``_dec_min``
        (smallest true remaining) proves most iterations cannot finish
        anyone, so the steady-state cost per iteration is two integer
        ops, not an array pass.  All sums are integer arithmetic —
        metrics stay bit-identical to the original whole-batch scans.
        """
        entrants: List[SequenceState] = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            self._running_ctx_sum += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                self._running_ctx_sum += 1
                if seq.first_token_s is None:
                    seq.first_token_s = now_s
                # Completions are a prefix of the prefill partition
                # (earlier sequences drain the budget first), so this
                # removal hits index 0 and is O(1).
                self._prefilling.remove(seq)
                entrants.append(seq)
        for seq in plan.decode:
            seq.generated += 1
            if seq.first_token_s is None:
                seq.first_token_s = now_s
        n_decode = len(plan.decode)
        self._running_ctx_sum += n_decode
        self._decode_ctx_sum += n_decode
        # High-water mark of resident KV, before finished sequences free.
        self.peak_kv_occupancy = max(self.peak_kv_occupancy,
                                     self.kv_occupancy)
        decode_done: List[SequenceState] = []
        if plan.full_decode and n_decode == len(self._decoding):
            if self._dec_dirty:
                # Rebuild post-increment: values already reflect this
                # iteration's token, so no decrement on this branch.
                self._dec_remaining = np.fromiter(
                    (s.request.output_tokens - s.generated
                     for s in self._decoding),
                    dtype=np.int64, count=n_decode)
                self._dec_base = 0
                self._dec_dirty = False
                self._dec_min = int(self._dec_remaining.min())
            else:
                # Lazy decrement of the whole array: true remaining is
                # ``stored - _dec_base``.
                self._dec_base += 1
                self._dec_min -= 1
            if n_decode and self._dec_min <= 0:
                done = self._dec_remaining <= self._dec_base
                decode_done = [self._decoding[i]
                               for i in np.nonzero(done)[0]]
                self._dec_remaining = self._dec_remaining[~done]
                self._dec_min = (int(self._dec_remaining.min())
                                 - self._dec_base
                                 if self._dec_remaining.size else 0)
        elif n_decode:
            self._dec_dirty = True
            decode_done = [s for s in self._decoding if s.finished]
        # Decode finishers precede entrant finishers in running order:
        # decode entry follows running order, and entrants are the
        # youngest decoders-to-be.
        finished = decode_done + [s for s in entrants if s.finished]
        if finished:
            for seq in finished:
                seq.finished_s = now_s
                self.reserved_tokens -= seq.reserved_tokens
                self._running_ctx_sum -= seq.context_tokens
            dead = {id(s) for s in finished}
            self.running[:] = [s for s in self.running if id(s) not in dead]
            if decode_done:
                for seq in decode_done:
                    self._decode_ctx_sum -= seq.context_tokens
                self._decoding[:] = [s for s in self._decoding
                                     if id(s) not in dead]
        live = [s for s in entrants if not s.finished]
        if live:
            for seq in live:
                self._decoding.append(seq)
                self._decode_ctx_sum += seq.context_tokens
            if not self._dec_dirty:
                vals = [s.request.output_tokens - s.generated
                        for s in live]
                vmin = min(vals)
                self._dec_min = (vmin if self._dec_remaining.size == 0
                                 else min(self._dec_min, vmin))
                self._dec_remaining = np.concatenate(
                    [self._dec_remaining,
                     np.array(vals, dtype=np.int64) + self._dec_base])
        return finished
