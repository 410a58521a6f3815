"""Per-layer spans for the traced run, recorded from outside ``src/``.

The traced run patches the public functions of each layer (class
attributes and module-level functions) with a wrapper that records one
span per call: name, start, end, parent span and the id of the timed
op it belongs to (-1 for set-up).  Spans stay in flat in-memory arrays
and are written once, at the end of the run.  The untraced run never
imports this module, so its timings carry no tracing cost.

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Span name -> ``(module, attribute path)`` targets.  A dotted path
#: ``Class.method`` patches a method defined on that class; a plain
#: name patches a module-level function everywhere it was imported.
TARGETS = {
    "gpu.banks.average_degree": [
        ("repro.gpu.banks", "BankConflictModel.average_degree")],
    "core.hotness.profile_hotness": [
        ("repro.core.hotness", "profile_hotness")],
    "core.codegen.generate": [
        ("repro.core.codegen", "VQLLMCodeGenerator.generate_gemm"),
        ("repro.core.codegen", "VQLLMCodeGenerator.generate_gemv"),
        ("repro.core.codegen", "VQLLMCodeGenerator.generate_attention")],
    "bench.workloads.samples": [
        ("repro.bench.workloads", "weight_sample"),
        ("repro.bench.workloads", "attention_sample")],
    "vq.quantize": [
        ("repro.vq.quantizer", "VectorQuantizer.quantize")],
    "serve.requests.make_trace": [
        ("repro.serve.requests", "poisson_trace"),
        ("repro.serve.requests", "multi_turn_chat_trace")],
    "serve.costs.step_us": [
        ("repro.serve.costs", "StepCostModel.step_us")],
    "serve.scheduler.schedule": [
        ("repro.serve.scheduler", "ContinuousBatchScheduler.schedule")],
    "serve.scheduler.complete": [
        ("repro.serve.scheduler", "ContinuousBatchScheduler.complete")],
    "serve.paging.ensure": [
        ("repro.serve.paging", "PagedKVAllocator.ensure"),
        ("repro.serve.prefix", "PrefixCachingAllocator.ensure")],
    "serve.paging.release": [
        ("repro.serve.paging", "PagedKVAllocator.release"),
        ("repro.serve.prefix", "PrefixCachingAllocator.release")],
    "serve.prefix.match": [("repro.serve.prefix", "PrefixCache.match")],
    "serve.prefix.insert": [("repro.serve.prefix", "PrefixCache.insert")],
    "serve.prefix.evict_lru": [
        ("repro.serve.prefix", "PrefixCache.evict_lru")],
    "serve.simulator.run": [
        ("repro.serve.simulator", "ServingSimulator.run")],
    "cluster.fleet.run": [("repro.cluster.fleet", "FleetSimulator.run")],
    "cluster.fleet.route": [
        ("repro.cluster.fleet", f"{cls}.choose")
        for cls in ("RoundRobinPolicy", "JoinShortestQueuePolicy",
                    "LeastKVPressurePolicy", "PrefixAffinityPolicy")],
    "cluster.fleet.replica_step": [("repro.cluster.fleet", "Replica.step")],
    "obs.report.metrics": [
        ("repro.serve.simulator", "ServingReport.metrics"),
        ("repro.cluster.fleet", "FleetReport.metrics")],
}

#: Modules whose classes' own ``counters`` methods form the
#: ``kernels.counters`` layer.
KERNEL_MODULES = ("repro.kernels.attention", "repro.kernels.elementwise",
                  "repro.kernels.gemm", "repro.kernels.vq_fused")

#: Name of the span the benchmark opens around each op.
OP_SPAN = "bench.op"


class SpanRecorder:
    """Flat, append-only span store with a parent stack."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        #: Timed-op id stamped on new spans; -1 during set-up.
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded around every call."""
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()


def _resolve(module: str, path: str):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(mod, cls_name), attr
    return mod, path


def _kernel_targets():
    for module in KERNEL_MODULES:
        mod = importlib.import_module(module)
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == module
                    and "counters" in vars(obj)):
                yield obj, "counters"


class Patches:
    """Installs the span wrappers; :meth:`remove` restores everything."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        rec = self.recorder
        for name, targets in TARGETS.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                wrapped = rec.wrap(name, original)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                # A module-level function: rebind it in every module
                # that imported it by name.
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "") or ""
                    if not mod_name.startswith(("repro", "perfbench")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for cls, attr in _kernel_targets():
            self._set(cls, attr, rec.wrap("kernels.counters",
                                          vars(cls)[attr]))
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def span_table(rec: SpanRecorder) -> dict:
    """Spans as numpy arrays, with per-span duration and self time."""
    parent = np.frombuffer(rec.parent, dtype=np.int32).astype(np.int64)
    start = np.frombuffer(rec.start, dtype=np.int64)
    end = np.frombuffer(rec.end, dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return {
        "name_id": np.frombuffer(rec.name_id, dtype=np.int32).copy(),
        "parent": parent,
        "op": np.frombuffer(rec.op, dtype=np.int32).copy(),
        "start_ns": start.copy(),
        "end_ns": end.copy(),
        "dur_ns": dur,
        "self_ns": dur - child,
    }


def layer_totals(rec: SpanRecorder) -> dict:
    """``{name: {"timed": (calls, s, self_s), "setup": (...)}}``.

    ``timed`` sums the spans inside timed ops, ``setup`` the rest.
    """
    t = span_table(rec)
    timed = t["op"] >= 0
    out = {}
    for nid, name in enumerate(rec.names):
        mine = t["name_id"] == nid
        out[name] = {
            phase: (int(m.sum()), float(t["dur_ns"][m].sum()) / 1e9,
                    float(t["self_ns"][m].sum()) / 1e9)
            for phase, m in (("timed", mine & timed),
                             ("setup", mine & ~timed))
        }
    return out


def write_spans(rec: SpanRecorder, path) -> None:
    """Write every span once, as one compressed ``.npz``."""
    table = span_table(rec)
    np.savez_compressed(path, names=np.array(rec.names), **table)
