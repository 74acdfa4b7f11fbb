"""Acceptance gate: the ten release criteria, one test and one line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the observed
statistic and the tolerance it was held to, then asserts.  Criteria are
desk-scale statistical checks with pinned seeds.
"""

import math
import time

import numpy as np
import pytest

from smoothdyn.adversaries import (
    EmbeddingTask,
    oblivious_ar_failure_bound,
    run_adaptive_embed,
    run_oblivious_ar_embed,
)
from smoothdyn.counters import STPath3Counter
from smoothdyn.graph import DynamicGraph, all_pairs, pair_count, random_graph
from smoothdyn.harness import (
    ExperimentConfig,
    bench_point,
    cmd_simulate,
    expensive_frac_prediction,
)
from smoothdyn.oracles import bf_st_paths
from smoothdyn.reduction import (
    ChangeDistribution,
    ExactST3Counter,
    _two_sample_chi2_pvalue,
    dadvp_verify_histogram,
    f2_oumv_oracle,
    int_oumv_oracle,
    omv_parity_reduction,
    poisson_even_mass,
    poisson_sample,
    random_oumv_instance,
    run_p3_to_general,
    sol_solve,
    worstcase_to_average_split,
)
from smoothdyn.rng import stream, trial_stream


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_c01_counter_oracle_exactness():
    start = time.perf_counter()
    total_error = 0.0
    runs = 0
    for problem in ("st2", "st3", "st4", "s-triangle", "s-4-cycle"):
        for n in (8, 16, 30):
            for model in ("oblivious-flip", "oblivious-ar", "adaptive"):
                for p in (0.0, 0.3, 1.0):
                    cfg = ExperimentConfig(
                        problem=problem, model=model, n=n, p=p, T=2000,
                        trials=10, seed=101, query_every=250,
                    )
                    for row in cmd_simulate(cfg):
                        if row.metric == "error_rate":
                            total_error += row.value
                            runs += 1
    elapsed = time.perf_counter() - start
    report(
        "counter-oracle-exactness",
        total_error == 0.0 and elapsed < 120.0,
        f"{runs} runs, summed error rate {total_error} (need 0), {elapsed:.1f}s (< 120s)",
    )


def test_c02_cost_profile():
    start = time.perf_counter()
    n, seed = 2000, 102
    steps = {0.01: 40000, 0.1: 20000, 0.5: 4000, 1.0: 2000}
    worst_rel = 0.0
    for p, T in steps.items():
        frac, _ = bench_point(n, p, T, seed)
        predicted = expensive_frac_prediction(p, n)
        worst_rel = max(worst_rel, abs(frac - predicted) / predicted)
    _, ops_p1 = bench_point(n, 1.0, 2000, seed)
    _, ops_p0 = bench_point(n, 0.0, 2000, seed)
    ratio = ops_p1 / ops_p0
    elapsed = time.perf_counter() - start
    report(
        "cost-profile",
        worst_rel <= 0.20 and ratio >= 50.0 and elapsed < 60.0,
        f"worst relative deviation {worst_rel:.3f} (<= 0.20), "
        f"ops ratio p=1/p=0 {ratio:.1f} (>= 50), {elapsed:.1f}s (< 60s)",
    )


def test_c03_trivial_deciders():
    start = time.perf_counter()
    n, p, T, seeds = 200, 0.5, 10_000, 100
    worst = 0.0
    for problem in ("connectivity-trivial", "perfect-matching-trivial"):
        cfg = ExperimentConfig(
            problem=problem, model="oblivious-flip", n=n, p=p, T=T,
            trials=seeds, seed=103, query_every=1000,
        )
        rates = [r.value for r in cmd_simulate(cfg) if r.metric == "error_rate"]
        worst = max(worst, float(np.mean(rates)))
    elapsed = time.perf_counter() - start
    report(
        "trivial-deciders",
        worst <= 1.0 / n and elapsed < 120.0,
        f"worst mean error rate {worst:.4f} (<= {1.0 / n}), {elapsed:.1f}s (< 120s)",
    )


def test_c04_adaptive_embedding():
    start = time.perf_counter()
    n, p, r_prime, r, budget, trials = 100, 0.5, 10, 250, 200, 2000
    region = frozenset(list(all_pairs(n))[:r])
    flips = tuple(sorted(region)[:r_prime])
    bound = 2.0 * math.exp(-p * budget / 40.0)
    rng = trial_stream(104, 0)
    failures = 0
    for _ in range(trials):
        g = random_graph(n, rng)
        task = EmbeddingTask(n, region, flips, p, budget)
        failures += not run_adaptive_embed(g, task, rng).success
    rate = failures / trials
    exact_ok = True
    for _ in range(trials):
        g = random_graph(n, rng)
        task = EmbeddingTask(n, region, flips, 1.0, budget)
        res = run_adaptive_embed(g, task, rng)
        exact_ok = exact_ok and res.success and res.steps_used == r_prime
    elapsed = time.perf_counter() - start
    report(
        "adaptive-embedding",
        rate <= bound and exact_ok and elapsed < 60.0,
        f"failure rate {rate:.4f} (<= evaluated bound {bound:.4f}), "
        f"p=1 steps == r' in all trials: {exact_ok}, {elapsed:.1f}s (< 60s)",
    )


def test_c05_oblivious_ar_embedding():
    start = time.perf_counter()
    n, p, r_prime, r, trials = 400, 0.95, 8, 3200, 2000
    q = 1.0 - p
    budget = math.ceil(3 * r_prime * math.log(n))
    region = list(all_pairs(n))[:r]
    flips = region[:r_prime]
    bound = oblivious_ar_failure_bound(r_prime, r, n, q, budget)
    # P(>= 1 region hit): uniform replacements draw from C(n,2) pairs, not n^2
    hit_prediction = 1.0 - math.exp(-q * budget * r / math.comb(n, 2))
    rng = trial_stream(105, 0)
    failures = sum(
        not run_oblivious_ar_embed(n, region, flips, p, budget, rng).success
        for _ in range(trials)
    )
    rate = failures / trials
    elapsed = time.perf_counter() - start
    report(
        "oblivious-ar-embedding",
        rate <= bound and elapsed < 60.0,
        f"failure rate {rate:.4f} vs evaluated bound {bound:.4f} "
        f"(l={budget}; C(n,2) region-hit prediction {hit_prediction:.4f}), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_c06_sol_correctness():
    start = time.perf_counter()
    n, instances = 8, 50
    exact_errors = 0
    for p_idx, p in enumerate((0.25, 0.5, 1.0)):
        rng = trial_stream(106, p_idx)
        for _ in range(instances):
            inst = random_oumv_instance(n, rng)
            exact_errors += sol_solve(inst, p, ExactST3Counter, rng).errors
    rng = trial_stream(106, 10)
    bad_instances = 0
    for _ in range(instances):
        inst = random_oumv_instance(n, rng)
        out = sol_solve(inst, 0.5, STPath3Counter, rng)
        if out.errors / len(out.answers) > 0.05:
            bad_instances += 1
    elapsed = time.perf_counter() - start
    report(
        "sol-correctness",
        exact_errors == 0 and bad_instances == 0 and elapsed < 180.0,
        f"exact-counter disagreements {exact_errors} (need 0); "
        f"real-counter instances over 0.05 error: {bad_instances}/{instances}, "
        f"{elapsed:.1f}s (< 180s)",
    )


def test_c07_sequence_authenticity():
    fit = dadvp_verify_histogram(0.5, 8, 10_000, trial_stream(107, 0))
    ok = fit.type_pvalue > 1e-3 and fit.length_pvalue > 1e-3
    report(
        "sequence-authenticity",
        ok,
        f"edge-type chi2 p={fit.type_pvalue:.4f}, length chi2 p="
        f"{fit.length_pvalue:.4f} (both > 1e-3)",
    )


def test_c08_p3_to_general_recombination():
    start = time.perf_counter()
    mismatches = 0
    queries = 0
    for seed_idx in range(20):
        run = run_p3_to_general(
            6, 0.5, 500, 25, trial_stream(108, seed_idx), check_every_step=True
        )
        queries += len(run.queries)
        mismatches += sum(1 for _, rec, orc in run.queries if rec != orc)
    elapsed = time.perf_counter() - start
    report(
        "p3-to-general-recombination",
        mismatches == 0 and queries == 20 * 20,
        f"{mismatches} mismatches over {queries} queries (mod-16 residue and "
        f"proper partition asserted every step), {elapsed:.1f}s",
    )


def test_c09_omv_chain():
    n, triples, reps = 6, 1000, 20
    rng = trial_stream(109, 0)
    zero_errors = 0
    for _ in range(triples):
        M = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        u = rng.integers(0, 2, size=n, dtype=np.uint8)
        v = rng.integers(0, 2, size=n, dtype=np.uint8)
        want = int(int_oumv_oracle(M, u, v) > 0)
        got = omv_parity_reduction(M, u, v, f2_oumv_oracle, reps, rng)
        zero_errors += got != want
    split_errors = 0
    for _ in range(triples):
        M = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        u = rng.integers(0, 2, size=n, dtype=np.uint8)
        v = rng.integers(0, 2, size=n, dtype=np.uint8)
        split_errors += (
            worstcase_to_average_split(M, u, v, f2_oumv_oracle, rng)
            != f2_oumv_oracle(M, u, v)
        )
    report(
        "omv-chain",
        zero_errors == 0 and split_errors == 0,
        f"random-zeroing existence errors {zero_errors}/{triples}, "
        f"8-way-split errors {split_errors}/{triples} (need 0 and 0)",
    )


def test_c10_poisson_machinery():
    rng = trial_stream(110, 0)
    draws = 100_000
    even = sum(poisson_sample(1.0, rng) % 2 == 0 for _ in range(draws))
    mass_dev = abs(even / draws - poisson_even_mass(1.0))
    # Poissonization identity: per-edge counts of a Poisson(t)-length
    # adversarial-distribution sample are independent Poisson(D(e) t)
    n, p, t, samples = 4, 0.5, 50, 3000
    dist = ChangeDistribution(p, n)
    m_side, m_mid = 2 * n, n * n
    probs = [dist.q_side] * m_side + [dist.q_mid] * m_mid
    counts = np.empty((samples, m_side + m_mid), dtype=np.int64)
    for i in range(samples):
        length = poisson_sample(float(t), rng)
        counts[i] = rng.multinomial(length, probs)
    worst_p = 1.0
    for e, q_e in ((0, dist.q_side), (m_side - 1, dist.q_side), (m_side, dist.q_mid)):
        independent = np.array(
            [poisson_sample(q_e * t, rng) for _ in range(samples)]
        )
        worst_p = min(worst_p, _two_sample_chi2_pvalue(counts[:, e], independent))
    report(
        "poisson-machinery",
        mass_dev <= 0.01 and worst_p > 1e-3,
        f"even-parity mass deviation {mass_dev:.4f} (<= 0.01), worst marginal "
        f"chi2 p={worst_p:.4f} (> 1e-3)",
    )
