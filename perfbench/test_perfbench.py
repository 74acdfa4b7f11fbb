"""Tests of the benchmark itself, on tiny inputs."""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
from tracing import Tracer

from smoothdyn import harness, rng
from smoothdyn.adversaries import EmbeddingTask, run_adaptive_embed
from smoothdyn.counters import STPath3Counter
from smoothdyn.graph import all_pairs, random_graph
from smoothdyn.reduction import random_oumv_instance, sol_solve, st3_counter_factory

TINY = {
    "simulate-small": dict(n=10, T=40, query_every=10),
    "stream-hub": dict(n=40, steps=4, checkpoint_every=30),
    "embed-adaptive": dict(n=40, region=40, flips=5, budget=60),
    "reduce-oumv": dict(n=4),
}
SECONDS = 0.05

# Metrics the benchmark promises under each workload's own names.
NAMED_E2E = {
    "simulate-small": ["steps_per_s", "interval_ms_p50", "interval_ms_p90"],
    "stream-hub": ["steps_per_s", "interval_ms_p50", "interval_ms_p90"],
    "embed-adaptive": ["trials_per_s", "trial_ms_p50", "trial_ms_p90"],
    "reduce-oumv": ["rounds_per_s", "round_ms_p50", "round_ms_p90"],
}
COMMON_E2E = ["item_time_ref", "reference_ms", "reference_samples", "setup_s", "peak_rss_mb", "failed_frac"]
EVERY_LAYER = [
    "smoothing.adversarial_frac", "smoothing.effective_frac", "graph.flip_ns",
    "graph.random_graph_share", "counters.expensive_frac",
    "harness.expensive_frac_prediction", "counters.ops_per_step", "oracles.checks",
    "adversaries.steps_used_mean", "adversaries.success_frac",
    "adversaries.region_hits_mean", "reduction.parity_accept_frac",
    "reduction.updates_per_round", "tracing_overhead_frac",
]
NAMED_LAYER = {
    "simulate-small": ["smoothing.next_change_ns", "graph.classify_ns", "graph.random_graph_ms",
                       "counters.build_ms", "counters.query_ns", "oracles.check_ms"]
    + [f"counters.{k}.update_ns_{s}" for k in ("st2", "st3", "st4", "s-triangle", "s-4-cycle")
       for s in ("mean", "p99")],
    "stream-hub": ["smoothing.next_change_ns", "graph.classify_ns", "graph.random_graph_ms",
                   "counters.build_ms", "counters.query_ns"]
    + [f"counters.{k}.update_ns_{s}" for k in ("st3", "st4", "s-triangle", "s-4-cycle")
       for s in ("mean", "p99")],
    "embed-adaptive": ["smoothing.next_change_ns", "graph.random_graph_ms", "adversaries.embed_ms"],
    "reduce-oumv": ["counters.st3.update_ns_mean", "counters.st3.update_ns_p99", "counters.build_ms",
                    "reduction.sample_ms_per_round", "reduction.counter_update_ms_per_round",
                    "reduction.self_ms_per_round"],
}


def measure(name, seed=1, trace=0):
    return bench.measure(name, seed, SECONDS, trace, params=TINY[name])


def declared():
    with open(bench.ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declared_workloads_are_the_implemented_ones():
    assert sorted(declared()[2]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    report, result = measure(name)
    e2e, _, _ = declared()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    for key in NAMED_E2E[name] + COMMON_E2E:
        assert report["metrics"][key]["unit"]
    for key in ("seed", "git_describe", "python", "numpy", "scipy", "nproc", "digest"):
        assert key in report


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_replays_and_emits_every_layer_metric(name):
    report, result = measure(name, trace=1)
    _, layers, _ = declared()
    assert report["replay_digest_match"] and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    for key in EVERY_LAYER + NAMED_LAYER[name]:
        assert report["metrics"][key]["unit"], key
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_fixes_the_inputs(name):
    first, _ = measure(name, seed=3)
    again, _ = measure(name, seed=3)
    other, _ = measure(name, seed=4)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


@pytest.fixture
def lossy_st3(monkeypatch):
    """An s-t 3-path counter that drops every third update."""
    original = STPath3Counter.update
    calls = itertools.count()

    def update(self, e, now_present):
        if next(calls) % 3:
            original(self, e, now_present)

    monkeypatch.setattr(STPath3Counter, "update", update)


@pytest.mark.parametrize("name", ["simulate-small", "stream-hub", "reduce-oumv"])
def test_wrong_counter_is_caught(name, lossy_st3):
    report, result = measure(name, seed=5)
    assert not result["correct"]
    assert result["failed"] > 0 and report["failed_frac"] > 0
    assert report["first_failure"]["seed"] == 5
    assert report["first_failure"]["item"] >= 0


def test_simulate_loop_matches_harness_trial():
    params = TINY["simulate-small"]
    items = params["T"] // params["query_every"]
    run = bench.run_pass("simulate-small", 7, tracer=Tracer(), params=params, limit=items)
    (row,) = [r for r in harness.simulate_trial(harness.ExperimentConfig(
        problem="st2", model="oblivious-flip", n=params["n"], p=0.3, T=params["T"],
        seed=7, query_every=params["query_every"]), 0) if r.metric == "mean_ops"]
    # the harness's mean also counts the ops of building the counter
    built = harness._COUNTER_SPECS["st2"][0](random_graph(params["n"], rng.trial_stream(7, 0, 1)))
    assert (run.counts["ops"] + built.ops) / params["T"] == row.value


def test_embed_loop_matches_run_adaptive_embed():
    run = bench.run_pass("embed-adaptive", 7, tracer=Tracer(), params=TINY["embed-adaptive"], limit=1)
    stream = rng.trial_stream(7, 0)
    n = TINY["embed-adaptive"]["n"]
    g = random_graph(n, stream)
    area = frozenset(itertools.islice(all_pairs(n), 40))
    res = run_adaptive_embed(g, EmbeddingTask(n, area, tuple(sorted(area)[:5]), 0.5, 60), stream)
    assert run.answers[0] == (res.success, res.steps_used, res.random_hits_on_region)


def test_reduce_loop_matches_sol_solve():
    n = TINY["reduce-oumv"]["n"]
    run = bench.run_pass("reduce-oumv", 7, tracer=Tracer(), params=TINY["reduce-oumv"], limit=n)
    stream = rng.trial_stream(7, 0)
    outcome = sol_solve(random_oumv_instance(n, stream), 0.5, st3_counter_factory, stream)
    assert [a[2] for a in run.answers] == outcome.answers[1:]


def test_fails_without_the_library(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-oumv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
