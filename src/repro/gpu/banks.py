"""Shared-memory bank-conflict model.

The paper observes (Sec. III) that codebook dequantization produces
random accesses into a table whose entry count (e.g. 256) far exceeds the
32 shared-memory banks, and whose entries each span several banks, so a
warp's 32 simultaneous lookups collide heavily and serialize.

We model this mechanically: a warp issues one lookup per lane; the entry
with index ``i`` occupies ``ceil(entry_bytes / 4)`` consecutive 4-byte
words starting at word ``i * words_per_entry``; a bank services one
distinct word per cycle, with same-word accesses broadcast for free.  The
number of *replays* for the warp is ``max over banks of distinct words
requested in that bank`` minus one.

Because the index stream comes from real quantized data (k-means cluster
assignments, which are naturally skewed), the model reproduces the
observation that register-caching the few hottest entries removes most of
the conflicts (optimization O2).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.gpu.spec import GPUSpec


def warp_conflict_degree(
    lane_indices: Sequence[int],
    entry_bytes: int,
    banks: int = 32,
    bank_bytes: int = 4,
) -> int:
    """Transactions needed to service one warp's codebook lookups.

    Parameters
    ----------
    lane_indices:
        Entry index requested by each lane of the warp (length <= 32).
    entry_bytes:
        Size of one codebook entry in bytes.
    banks, bank_bytes:
        Bank geometry (32 x 4 B on all modelled chips).

    Returns
    -------
    int
        Number of shared-memory transactions the warp's access is split
        into (1 = conflict-free).  Lanes requesting the same word are
        broadcast and do not conflict.
    """
    if entry_bytes <= 0:
        raise ValueError("entry_bytes must be positive")
    words_per_entry = max(1, math.ceil(entry_bytes / bank_bytes))
    words_per_bank: dict = {}
    for index in lane_indices:
        base = int(index) * words_per_entry
        for w in range(words_per_entry):
            word = base + w
            bank = word % banks
            words_per_bank.setdefault(bank, set()).add(word)
    if not words_per_bank:
        return 0
    return max(len(words) for words in words_per_bank.values())


class BankConflictModel:
    """Estimates average conflict degree for a stream of entry indices.

    The estimate samples warps from the index stream exactly as the
    dequantization loop would group them: 32 consecutive lookups form one
    warp access.  ``None`` entries mark lanes whose lookup was served from
    the register cache (optimization O2) and therefore do not touch
    shared memory.
    """

    def __init__(self, spec: GPUSpec, entry_bytes: int):
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        self.spec = spec
        self.entry_bytes = entry_bytes

    def average_degree(
        self,
        index_stream: np.ndarray,
        register_resident: int = 0,
        shared_resident: Optional[int] = None,
        max_warps: int = 1024,
        seed: int = 0,
    ) -> float:
        """Average transactions per warp-access over the stream.

        Parameters
        ----------
        index_stream:
            1-D array of codebook entry indices in dequantization order.
            Indices are assumed *frequency-reordered* (hottest = 0), as
            produced by :class:`repro.core.cache.CodebookCache`.
        register_resident:
            Entries with index below this bound live in registers and do
            not generate shared-memory traffic.
        shared_resident:
            Entries with index at or above this bound live in global
            memory and likewise bypass shared memory.  ``None`` means all
            remaining entries are shared-resident.
        max_warps:
            Cap on sampled warps, for speed; sampling is deterministic.

        Returns
        -------
        float
            Mean transactions per warp among warps that touched shared
            memory at all; 0.0 if none did.
        """
        stream = np.asarray(index_stream).ravel()
        if stream.size == 0:
            return 0.0
        # A warp is a row of ``warp_size`` consecutive lookups; a stream
        # shorter than one warp is a single partial row.
        width = min(stream.size, self.spec.warp_size)
        n_warps = stream.size // width
        if n_warps > max_warps:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(n_warps, size=max_warps, replace=False)
        else:
            chosen = np.arange(n_warps)
        rows = stream[:n_warps * width].reshape(n_warps, width)
        lanes = rows[chosen].astype(np.int64, copy=False)

        # Exact integer replica of :func:`warp_conflict_degree` per row,
        # so the mean is bit-identical (checked against it by
        # tests/test_gpu_banks.py::TestAverageDegreeDifferential).
        # Distinct entries own disjoint words, and entry ``e`` covers
        # ``wpe`` consecutive banks from its start bank
        # ``(e * wpe) % banks``.  So a bank's distinct-word count is
        # ``wpe // banks`` per distinct entry, plus one per distinct
        # entry whose start bank lies in the ``wpe % banks`` banks
        # ending at it (circularly).  All work is in place on ``lanes``
        # to keep per-call allocations small.
        banks = self.spec.smem_banks
        wpe = max(1, math.ceil(self.entry_bytes
                               / self.spec.smem_bank_bytes))
        lanes.sort(axis=1)
        drop = lanes < register_resident
        if shared_resident is not None:
            drop |= lanes >= shared_resident
        drop[:, 1:] |= lanes[:, 1:] == lanes[:, :-1]
        # Bank-major histogram: slot ``start_bank * n + row``; dropped
        # lanes go to the spill bank ``banks``, cut off below.
        n = len(lanes)
        lanes *= wpe
        lanes %= banks
        np.copyto(lanes, banks, where=drop)
        lanes *= n
        lanes += np.arange(n)[:, None]
        hist = np.bincount(lanes.ravel(), minlength=(banks + 1) * n)
        hist = hist[:banks * n].reshape(banks, n)
        n_distinct = hist.sum(axis=0)
        touched = n_distinct > 0
        if not touched.any():
            return 0.0
        span = wpe % banks
        window = np.zeros_like(hist)
        for k in range(span):
            window[k:] += hist[:banks - k]
            window[:k] += hist[banks - k:]
        degree = (wpe // banks) * n_distinct + window.max(axis=0)
        return float(np.mean(degree[touched]))
