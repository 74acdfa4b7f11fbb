"""smoothdyn's benchmark: one command, four workloads, two passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and from nowhere else.

``--trace 0`` measures the end-to-end metrics: set-up (imports plus the
workload's set-up, built three times, median), then items for ``S``
seconds, untraced.  ``--trace 1`` runs the same items untraced for
``S/4`` seconds, replays exactly those items with every layer boundary
timed, checks that both passes gave the same answers, and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a report with provenance, the answer digest and every
metric under its workload-specific name.  The exit code is nonzero when
any correctness check fails.  See README.md in this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import smoothdyn
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import smoothdyn from {SRC}: {exc}")
if not Path(smoothdyn.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: smoothdyn resolved to {smoothdyn.__file__}, not under {SRC}")

import numpy as np
import scipy

from tracing import ROOTS, NullTracer, Tracer
from workloads import DIGEST_ITEMS, WORKLOADS

IMPORT_S = time.perf_counter() - _T0

SETUP_REPS = 3
# The host's CPU speed drifts by up to half within a run (see README.md).
# Between items, every REFERENCE_EVERY_NS, the loop times reference_work();
# item time over reference time cancels the drift from the gated metric.
REFERENCE_EVERY_NS = 10_000_000
# The library's modules, plus "bench" for the benchmark's own loop.
LAYERS = ("smoothing", "graph", "counters", "oracles", "adversaries", "reduction", "bench")
# What one item is, per workload: the name its end-to-end metrics carry.
ITEM_NAMES = {
    "simulate-small": ("steps", "interval"),
    "stream-hub": ("steps", "interval"),
    "embed-adaptive": ("trials", "trial"),
    "reduce-oumv": ("rounds", "round"),
}


def reference_work() -> int:
    """Fixed pure-Python work shaped like the library's inner loops.

    Edge flips on a 64-node adjacency-set graph, each followed by a
    common-neighbour count.  It calls nothing in ``smoothdyn``, so a
    change to the library cannot move its time; only the host's speed can.
    """
    adj = [set() for _ in range(64)]
    total = 0
    for i in range(1500):
        u, v = i * 7 % 64, (i * 13 + 1) % 64
        if u == v:
            continue
        if v in adj[u]:
            adj[u].discard(v)
            adj[v].discard(u)
        else:
            adj[u].add(v)
            adj[v].add(u)
        total += len(adj[u] & adj[v])
    return total


class Run:
    """One pass over a workload: the clock, the answers and the checks."""

    def __init__(self, seed, tracer, seconds=None, limit=None, min_items=0, setup_reps=1):
        self.seed = seed
        self.tracer = tracer
        self.counts = tracer.counts
        self.info = {}
        self.seconds_ns = None if seconds is None else int(seconds * 1e9)
        self.limit = limit
        self.min_items = min_items
        self.setup_reps = setup_reps
        self.setup_ns = []
        self.item_ns = []
        self.answers = []
        self.checks = self.failed = 0
        self.first_failure = None
        self.validating_ns = 0
        self.reference_ns = []
        self._reference_end = 0
        self.loop_start = self.loop_end = 0
        self._stopped = False

    def setup(self, build):
        result = None
        for _ in range(self.setup_reps):
            result = None  # release the previous build before timing the next
            start = perf_counter_ns()
            result = build()
            self.setup_ns.append(perf_counter_ns() - start)
        self.loop_start = perf_counter_ns()
        return result

    def more(self) -> bool:
        done = len(self.item_ns)
        if self.limit is not None:
            return done < self.limit
        start = perf_counter_ns()
        if start - self._reference_end >= REFERENCE_EVERY_NS:
            reference_work()
            self._reference_end = perf_counter_ns()
            self.reference_ns.append(self._reference_end - start)
        if done < self.min_items:
            return True
        if not self._stopped:
            self._stopped = perf_counter_ns() - self.loop_start >= self.seconds_ns
        return not self._stopped

    @contextmanager
    def _timed(self, root: str, durations):
        tr = self.tracer
        tr.item_id = len(self.item_ns)
        idx = tr.begin(tr.name_id(root)) if tr.active else None
        start = perf_counter_ns()
        yield
        elapsed = perf_counter_ns() - start
        if idx is not None:
            tr.finish(idx)
        tr.item_id = -1
        if durations is not None:
            durations.append(elapsed)

    def item(self):
        return self._timed("item", self.item_ns)

    def prepare(self):
        return self._timed("prepare", None)

    @contextmanager
    def validating(self):
        start = perf_counter_ns()
        yield
        self.validating_ns += perf_counter_ns() - start

    def count(self, **amounts) -> None:
        for key, value in amounts.items():
            self.counts[key] += value

    def record(self, answer, ok=None) -> None:
        self.answers.append(answer)
        if ok is not None:
            self.check(ok, len(self.answers) - 1)

    def check(self, ok: bool, index: int) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = {"seed": self.seed, "item": index}

    @property
    def loop_s(self) -> float:
        """Wall time of the measured loop, less the benchmark's own checks and references."""
        return (self.loop_end - self.loop_start - self.validating_ns - sum(self.reference_ns)) / 1e9


def run_pass(name, seed, tracer=None, params=None, **clock) -> Run:
    tracer = tracer or NullTracer()
    run = Run(seed, tracer, **clock)
    with tracer.patched():
        WORKLOADS[name](run, **(params or {}))
    run.loop_end = perf_counter_ns()
    return run


def digest(answers) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(name, run) -> dict:
    """The workload's metrics under its own names, and the gated subset.

    Every workload prints the gated subset under the names BENCHMARK.json
    lists.  Item times in ms and throughput are reported but not gated:
    on a host whose CPU speed drifts they spread wider than any useful
    bound.  The gated ``item_time_ref`` is the mean item time over the
    mean time of ``reference_work`` in the same run (see README.md).
    """
    ms = np.asarray(run.item_ns, dtype=np.float64) / 1e6
    p50, p90 = np.percentile(ms, [50, 90])
    rate_name, item_name = ITEM_NAMES[name]
    common = {
        "setup_s": _metric(IMPORT_S + statistics.median(run.setup_ns) / 1e9, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    time_ref = _metric(ms.mean() / (np.mean(run.reference_ns) / 1e6), "ref")
    named = {
        "item_time_ref": time_ref,
        "reference_ms": _metric(np.mean(run.reference_ns) / 1e6, "ms"),
        "reference_samples": _metric(len(run.reference_ns), "count"),
        f"{rate_name}_per_s": _metric(len(ms) / run.loop_s * run.info.get("steps_per_item", 1), "1/s"),
        f"{item_name}_ms_p50": _metric(p50, "ms"),
        f"{item_name}_ms_p90": _metric(p90, "ms"),
        "failed_frac": _metric(run.failed / max(run.checks, 1), "frac"),
    }
    return {"listed": {"item_time_ref": time_ref, **common}, "named": {**named, **common}}


def _layer_of(span_name: str) -> str:
    return "bench" if span_name in ROOTS else span_name.split(".")[0]


def per_layer(name, traced: Run, untraced: Run) -> dict:
    """Layer shares and counts from the traced pass, plus timings under their own names."""
    s = traced.tracer.summary()
    c = traced.counts
    items = len(traced.item_ns)
    total = s.loop_ns or 1.0

    def share(names):
        return s.self_total_ns(*names) / total

    def frac(num, den):
        return num / den if den else 0.0

    def counter_spans(call):
        return s.matching(lambda n: n.startswith("counters.") and n.endswith(call))

    updates, queries, builds = counter_spans(".update"), counter_spans(".query"), counter_spans(".build")
    poisson = ["reduction.poisson_sample", "reduction.poisson_parity"]
    is_reduce = name == "reduce-oumv"

    listed = {
        f"{layer}.self_share": _metric(share(s.matching(lambda n: _layer_of(n) == layer)), "frac")
        for layer in LAYERS
    }
    listed.update({
        "smoothing.next_change_share": _metric(share(["smoothing.next_change"]), "frac"),
        "smoothing.run_sequence_share": _metric(share(["smoothing.run_sequence"]), "frac"),
        "graph.classify_share": _metric(share(["graph.apply_event"]), "frac"),
        "graph.flip_share": _metric(share(["graph.flip"]), "frac"),
        "graph.random_graph_share": _metric(share(["graph.random_graph"]), "frac"),
        "counters.update_share": _metric(share(updates), "frac"),
        "counters.query_share": _metric(share(queries), "frac"),
        "counters.build_share": _metric(share(builds), "frac"),
        "reduction.sample_share": _metric(share(poisson), "frac"),
        "graph.flip_ns": _metric(s.durations("graph.flip").mean(), "ns"),
        "smoothing.adversarial_frac": _metric(frac(c["adversarial"], c["steps"]), "frac"),
        "smoothing.effective_frac": _metric(frac(c["effective"], c["classified"]), "frac"),
        "counters.expensive_frac": _metric(frac(c["expensive"], c["updates"]), "frac"),
        "harness.expensive_frac_prediction": _metric(traced.info.get("expensive_frac_prediction", 0.0), "frac"),
        "counters.ops_per_step": _metric(frac(c["ops"], c["ops_steps"]), "count"),
        "oracles.checks": _metric(s.count("oracles.check"), "count"),
        "adversaries.steps_used_mean": _metric(frac(c["embed_steps"], items), "count"),
        "adversaries.success_frac": _metric(frac(c["successes"], items), "frac"),
        "adversaries.region_hits_mean": _metric(frac(c["region_hits"], items), "count"),
        "reduction.parity_accept_frac": _metric(
            frac(s.count("reduction.poisson_parity"),
                 s.count_under(["reduction.poisson_sample"], ["reduction.poisson_parity"])),
            "frac",
        ),
        "reduction.updates_per_round": _metric(frac(s.count(*updates), items) if is_reduce else 0, "count"),
        "tracing_overhead_frac": _metric(sum(traced.item_ns) / sum(untraced.item_ns) - 1.0, "frac"),
    })

    # Timings of the layers this workload calls, under the names later
    # changes are judged by; a layer the workload never calls is omitted.
    timings = {}

    def mean_of(key, names, scale, unit):
        d = s.durations(*names)
        if len(d):
            timings[key] = _metric(d.mean() / scale, unit)

    mean_of("smoothing.next_change_ns", ["smoothing.next_change"], 1, "ns")
    mean_of("graph.classify_ns", ["graph.apply_event"], 1, "ns")
    mean_of("graph.flip_ns", ["graph.flip"], 1, "ns")
    mean_of("counters.query_ns", queries, 1, "ns")
    mean_of("oracles.check_ms", ["oracles.check"], 1e6, "ms")
    mean_of("adversaries.embed_ms", ["adversaries.run_adaptive_embed"], 1e6, "ms")
    # construction also happens in set-up, so these two count every span
    for key, names in (("graph.random_graph_ms", ["graph.random_graph"]), ("counters.build_ms", builds)):
        d = s.all_durations(*names)
        if len(d):
            timings[key] = _metric(d.mean() / 1e6, "ms")
    for update in updates:
        kind = update[len("counters."):-len(".update")]
        d = s.durations(update)
        timings[f"counters.{kind}.update_ns_mean"] = _metric(d.mean(), "ns")
        timings[f"counters.{kind}.update_ns_p99"] = _metric(np.percentile(d, 99), "ns")
    if is_reduce:
        timings["reduction.sample_ms_per_round"] = _metric(s.self_total_ns(*poisson) / 1e6 / items, "ms")
        timings["reduction.counter_update_ms_per_round"] = _metric(s.total_ns(*updates) / 1e6 / items, "ms")
        timings["reduction.self_ms_per_round"] = _metric(s.self_total_ns("reduction.round") / 1e6 / items, "ms")
    return {"listed": listed, "named": {**timings, **listed}}


def git_describe() -> str:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(name, seed) -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": name,
        "seed": seed,
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": cpus,
    }


def measure(name, seed, seconds, trace, params=None, spans_dir=None):
    """Run one benchmark invocation; return (report, result) dictionaries."""
    first = DIGEST_ITEMS[name]
    report = provenance(name, seed)
    if trace:
        # a quarter, so that with the replay, up to twice as slow, the run fits in S
        ref = run_pass(name, seed, params=params, seconds=seconds / 4, min_items=first)
        traced = run_pass(name, seed, tracer=Tracer(), params=params, limit=len(ref.item_ns))
        metrics = per_layer(name, traced, ref)
        replayed = digest(ref.answers) == digest(traced.answers)
        report["replay_digest_match"] = replayed
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"spans-{name}-seed{seed}.npz"
            traced.tracer.save(path)
            report["spans"] = str(path.relative_to(ROOT) if path.is_relative_to(ROOT) else path)
        runs = (ref, traced)
    else:
        run = run_pass(name, seed, params=params, seconds=seconds, min_items=first, setup_reps=SETUP_REPS)
        metrics = end_to_end(name, run)
        replayed = True
        runs = (run,)
    main = runs[0]
    checks = sum(r.checks for r in runs)
    failed = sum(r.failed for r in runs)
    report.update(
        items=len(main.item_ns),
        digest_items=first,
        digest=digest(main.answers[:first]),
        checks=checks,
        failed=failed,
        failed_frac=failed / max(checks, 1),
        first_failure=next((r.first_failure for r in runs if r.first_failure), None),
        metrics=metrics["named"],
    )
    result = {
        "correct": failed == 0 and replayed,
        "attempted": checks,
        "failed": failed,
        "metrics": metrics["listed"],
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report, result = measure(
        args.workload, args.seed, args.seconds, args.trace,
        spans_dir=Path(__file__).resolve().parent / "out",
    )
    if report["first_failure"] is not None:
        print(f"perfbench: first failing item: {report['first_failure']}", file=sys.stderr)
    if not report.get("replay_digest_match", True):
        print("perfbench: traced replay gave different answers from the untraced pass", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
