"""The benchmark's own tests: tiny runs of every workload, in-process.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

from perfbench import run, worker
from perfbench.workloads import DEFAULT_SEED
from repro.gpu.banks import BankConflictModel
from repro.serve.simulator import ServingReport

#: Workload sizes small enough for a unit test (one op well under 1 s,
#: codegen-grid aside: its op is the fixed 48-kernel sweep).
TINY = {
    "codegen-grid": {"pool": 1},
    "chat-prefix": {"pool": 2, "n_requests": 16},
    "fleet-poisson": {"pool": 2, "n_requests": 24},
}


def tiny_run(name, trace=False, seed=1):
    return worker.run_worker(name, seed, seconds=0.0, trace=trace,
                             workload_kwargs=TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_checks_every_op(name):
    result = tiny_run(name)
    assert len(result["op_ms"]) == 1
    assert result["failures"] == [] and result["problems"] == []
    assert result["setup_s"] > 0 and result["op_ms"][0] > 0
    assert result["op_size"] == (48 if name == "codegen-grid"
                                 else TINY[name]["n_requests"])


@pytest.fixture(scope="module")
def traced():
    original = BankConflictModel.average_degree
    results = {name: tiny_run(name, trace=True)
               for name in ("chat-prefix", "fleet-poisson")}
    assert BankConflictModel.average_degree is original, "patch leaked"
    return results


def calls(result, layer):
    entry = result["layers"].get(layer)
    return 0 if entry is None else entry["timed"][0] + entry["setup"][0]


def test_fleet_bypasses_paging_and_prefix(traced):
    fleet, chat = traced["fleet-poisson"], traced["chat-prefix"]
    for layer in ("serve.paging.ensure", "serve.paging.release",
                  "serve.prefix.match", "serve.prefix.insert",
                  "serve.prefix.evict_lru"):
        assert calls(fleet, layer) == 0, layer
    assert calls(chat, "serve.prefix.match") > 0
    assert calls(fleet, "cluster.fleet.route") > 0


@pytest.mark.parametrize("name", ["chat-prefix", "fleet-poisson"])
def test_timed_ops_never_miss_the_engine_memo(traced, name):
    result = traced[name]
    metrics = run.per_layer(result, result)
    assert metrics["core.engine.memo_misses_timed"]["value"] == 0
    assert metrics["core.engine.memo_misses_setup"]["value"] > 0
    assert metrics["vq.samples_trained"]["value"] == 0


def test_metrics_match_benchmark_json(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = traced["chat-prefix"]
    for key, printed in (("per_layer", run.per_layer(result, result)),
                         ("end_to_end", run.end_to_end([result]))):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in printed.items()} == declared
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_perturbed_report_value_fails_the_op(monkeypatch):
    metrics = ServingReport.metrics
    seen = []

    def perturbed(self):
        out = metrics(self)
        seen.append(1)
        if len(seen) > TINY["chat-prefix"]["pool"]:  # timed ops only
            out["ttft_p50_ms"] += 1e-9
        return out

    monkeypatch.setattr(ServingReport, "metrics", perturbed)
    result = tiny_run("chat-prefix")
    assert result["problems"] == []
    assert len(result["op_ms"]) == 1
    assert len(result["failures"]) == 1
    assert "digest differs from warm-up" in result["failures"][0]


def test_default_seed_checks_committed_digests(monkeypatch):
    monkeypatch.setattr(worker, "committed_digests",
                        lambda workload: ["0" * 64] * len(workload.keys))
    result = tiny_run("fleet-poisson", seed=DEFAULT_SEED)
    assert len(result["problems"]) == TINY["fleet-poisson"]["pool"]
    assert len(result["failures"]) == 1
    assert "committed" in result["failures"][0]


def test_tail_keeps_ten_ops_beyond():
    value, pct = run.tail(list(range(1, 31)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
