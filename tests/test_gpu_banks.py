"""Bank-conflict model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.banks import BankConflictModel, warp_conflict_degree
from repro.gpu.spec import RTX4090


class TestWarpConflictDegree:
    def test_broadcast_is_free(self):
        # All lanes read the same entry: one transaction.
        assert warp_conflict_degree([5] * 32, entry_bytes=4) == 1

    def test_perfectly_strided_single_word(self):
        # 32 lanes reading entries 0..31 of 4-byte entries: one word per
        # bank, conflict-free.
        assert warp_conflict_degree(list(range(32)), entry_bytes=4) == 1

    def test_stride_collision(self):
        # Entries 0, 32, 64, ... of 4-byte entries all map to bank 0.
        indices = [i * 32 for i in range(32)]
        assert warp_conflict_degree(indices, entry_bytes=4) == 32

    def test_multiword_entries_raise_degree(self):
        # 8-byte entries: each access touches 2 banks; 32 lanes reading
        # 32 distinct consecutive entries need 2 words per bank.
        assert warp_conflict_degree(list(range(32)), entry_bytes=8) == 2

    def test_sixteen_byte_entries(self):
        assert warp_conflict_degree(list(range(32)), entry_bytes=16) == 4

    def test_empty_warp(self):
        assert warp_conflict_degree([], entry_bytes=8) == 0

    def test_rejects_nonpositive_entry_bytes(self):
        with pytest.raises(ValueError):
            warp_conflict_degree([0], entry_bytes=0)

    def test_worst_case_exceeds_ideal(self):
        # Random skewed indices over many entries conflict more than
        # the ideal multi-word floor.
        rng = np.random.default_rng(0)
        indices = (rng.integers(0, 256, size=32) * 8) % 256
        degree = warp_conflict_degree(indices.tolist(), entry_bytes=16)
        assert degree >= 4


class TestBankConflictModel:
    def test_register_resident_entries_bypass_shared(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        stream = np.zeros(32 * 64, dtype=np.int64)  # all index 0
        # With index 0 register-resident, no shared access remains.
        assert model.average_degree(stream, register_resident=1) == 0.0

    def test_global_resident_entries_bypass_shared(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        stream = np.full(32 * 16, 100, dtype=np.int64)
        assert model.average_degree(stream, shared_resident=50) == 0.0

    def test_degree_at_least_one_for_shared_accesses(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 256, size=32 * 128)
        assert model.average_degree(stream) >= 1.0

    def test_register_caching_hot_entries_reduces_degree(self):
        # A Zipf-like stream: entry 0 is extremely hot and collides.
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(2)
        zipf = np.minimum(rng.zipf(1.3, size=32 * 256) - 1, 255)
        base = model.average_degree(zipf, register_resident=0)
        cached = model.average_degree(zipf, register_resident=8)
        assert cached <= base

    def test_sampling_is_deterministic(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 256, size=32 * 5000)
        a = model.average_degree(stream, max_warps=128)
        b = model.average_degree(stream, max_warps=128)
        assert a == b

    def test_short_stream_single_partial_warp(self):
        model = BankConflictModel(RTX4090, entry_bytes=4)
        assert model.average_degree(np.array([1, 2, 3])) == 1.0

    def test_empty_stream(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        assert model.average_degree(np.array([], dtype=np.int64)) == 0.0

    def test_rejects_bad_entry_bytes(self):
        with pytest.raises(ValueError):
            BankConflictModel(RTX4090, entry_bytes=-2)


def _reference_degree(stream, entry_bytes, register_resident,
                      shared_resident, max_warps, seed):
    """Scalar restatement of ``average_degree``: the same sampled warps,
    each priced by :func:`warp_conflict_degree` on its shared lanes."""
    warp = RTX4090.warp_size
    values = [int(v) for v in stream]
    if not values:
        return 0.0
    if len(values) < warp:
        warps = [values]
    else:
        n_warps = len(values) // warp
        chosen = (np.random.default_rng(seed).choice(
            n_warps, size=max_warps, replace=False)
            if n_warps > max_warps else range(n_warps))
        warps = [values[w * warp:(w + 1) * warp] for w in chosen]
    degrees = []
    for lanes in warps:
        shared = [i for i in lanes if i >= register_resident and (
            shared_resident is None or i < shared_resident)]
        if shared:
            degrees.append(warp_conflict_degree(shared, entry_bytes))
    return sum(degrees) / len(degrees) if degrees else 0.0


@st.composite
def _bank_cases(draw):
    dtype = draw(st.sampled_from([np.uint8, np.int32, np.int64]))
    top = draw(st.integers(0, 255 if dtype is np.uint8 else 600))
    # Up to 20 warps, so small ``max_warps`` values exercise sampling;
    # lengths below 32 exercise the single partial warp.
    size = draw(st.integers(0, 20)) * 32 + draw(st.integers(0, 31))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) \
        .integers(0, top + 1, size=size)
    return (values.astype(dtype),
            draw(st.integers(1, 260)),
            draw(st.integers(0, 64)),
            draw(st.none() | st.integers(0, 640)),
            draw(st.integers(1, 24)),
            draw(st.integers(0, 2**32 - 1)))


class TestAverageDegreeDifferential:
    """The vectorised ``average_degree`` equals the scalar reference
    exactly: entry sizes 1-260 B (one to 65 words, so windows wrap the
    banks more than once), narrow and wide index dtypes, empty and
    ``None`` residency windows, sub-warp streams and sampled streams."""

    @settings(max_examples=300, deadline=None)
    @given(_bank_cases())
    def test_matches_scalar_reference(self, case):
        stream, entry_bytes, r, s, max_warps, seed = case
        model = BankConflictModel(RTX4090, entry_bytes=entry_bytes)
        got = model.average_degree(stream, r, s, max_warps, seed)
        assert got == _reference_degree(stream, entry_bytes, r, s,
                                        max_warps, seed)
