"""Span recording for the benchmark's traced pass.

A span is one timed call: name, start, end, parent span and item index.
Spans live in memory as parallel arrays and are summarised, and saved,
once the pass ends.  Every wrapper here sits outside the library: it
times a call into smoothdyn and forwards the arguments and the result
unchanged.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List

import numpy as np

from smoothdyn import graph, reduction, smoothing

# Spans that start a tree of measured work; everything recorded under one
# of them is attributed to a layer, everything else (set-up, validation)
# is not.  Their names carry no module prefix: they belong to the
# benchmark's own loop.
ROOTS = ("item", "prepare")


class NullTracer:
    """The untraced pass: wrappers are the identity and spans cost nothing."""

    active = False

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.item_id = -1

    def wrap(self, name: str, fn: Callable, on_result: Callable = None) -> Callable:
        return fn

    def observer(self, kind: str, counter, st=None):
        return counter

    def patched(self):
        return nullcontext()


class Tracer(NullTracer):
    active = True

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self.item_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, on_result: Callable = None) -> Callable:
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def observer(self, kind: str, counter, st=None):
        return TracedCounter(self, kind, counter, st)

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Time the library calls the workloads cannot wrap at the call site.

        ``run_sequence``, ``run_adaptive_embed`` and ``ParityOuMvSolver``
        reach ``next_change``, ``apply_event``, ``flip`` and the Poisson
        samplers themselves, so those are swapped for timed versions for
        the duration of the traced pass and restored afterwards.
        """
        counts = self.counts

        def on_change(ev) -> None:
            counts["steps"] += 1
            counts["adversarial"] += ev.provenance is smoothing.Provenance.ADVERSARIAL

        def on_classify(result) -> None:
            counts["classified"] += 1
            counts["effective"] += result[0]

        targets = [
            (smoothing.SmoothedSource, "next_change", "smoothing.next_change", on_change),
            (smoothing, "apply_event", "graph.apply_event", on_classify),
            (graph.DynamicGraph, "flip", "graph.flip", None),
            (reduction, "poisson_sample", "reduction.poisson_sample", None),
            (reduction, "poisson_parity_conditional", "reduction.poisson_parity", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, on_result), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, original, on_result))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class TracedCounter:
    """Observer that times a counter's ``update`` and ``query``.

    It defines no ``null_step``, like the counters it wraps, so
    ``run_sequence`` treats it exactly as it treats the bare counter.
    ``st`` names the counter's s and t nodes: an update on an edge touching
    either is counted as expensive, the convention of the harness's cost
    profile.
    """

    def __init__(self, tracer: Tracer, kind: str, counter, st=None):
        self.counter = counter
        self.query = tracer.wrap(f"counters.{kind}.query", counter.query)
        nid = tracer.name_id(f"counters.{kind}.update")
        begin, finish, raw, counts = tracer.begin, tracer.finish, counter.update, tracer.counts
        s, t = st if st is not None else (counter.s, getattr(counter, "t", counter.s))

        def update(e, now_present):
            counts["updates"] += 1
            if e is not None and (s in e or t in e):
                counts["expensive"] += 1
            idx = begin(nid)
            try:
                raw(e, now_present)
            finally:
                finish(idx)

        self.update = update


class SpanSummary:
    """Per-name totals over the spans recorded under an item or prepare root."""

    def __init__(self, names: List[str], cols: Dict[str, np.ndarray]):
        self.names = names
        parent = cols["parent"].astype(np.int64)
        name = cols["name"]
        dur = cols["end"] - cols["start"]
        idx = np.arange(len(dur))
        # root of every span: parents precede children, so jumping to the
        # parent's root converges in at most the tree depth
        root = np.where(parent < 0, idx, parent)
        while True:
            up = np.where(parent[root] < 0, root, parent[root])
            if np.array_equal(up, root):
                break
            root = up
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        root_ids = [names.index(r) for r in ROOTS if r in names]
        in_loop = np.isin(name[root], root_ids)
        self.loop_ns = float(dur[in_loop & ~has_parent].sum())
        self.name = name[in_loop]
        self.parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)[in_loop]
        self.dur = dur[in_loop]
        self.self_ns = (dur - child_ns)[in_loop]
        self.all_name = name
        self.all_dur = dur

    def _mask(self, names, pool) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(pool, ids)

    def matching(self, pred: Callable[[str], bool]) -> List[str]:
        return [n for n in self.names if pred(n)]

    def count(self, *names: str) -> int:
        return int(self._mask(names, self.name).sum())

    def total_ns(self, *names: str) -> float:
        return float(self.dur[self._mask(names, self.name)].sum())

    def self_total_ns(self, *names: str) -> float:
        return float(self.self_ns[self._mask(names, self.name)].sum())

    def durations(self, *names: str) -> np.ndarray:
        return self.dur[self._mask(names, self.name)]

    def count_under(self, names, parents) -> int:
        return int((self._mask(names, self.name) & self._mask(parents, self.parent_name)).sum())

    def all_durations(self, *names: str) -> np.ndarray:
        """Durations of all spans of these names, set-up included."""
        return self.all_dur[self._mask(names, self.all_name)]
