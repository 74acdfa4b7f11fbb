"""Reduction pipeline: parity OuMv via path counting.

Contents:

* exact Poisson sampling (numpy's ``Generator.poisson``) and
  parity-conditioned Poisson sampling;
* the adversarial change distribution over a P3-partite layout and a
  histogram authenticity check of the solver's own change sequences;
* the three-copy solver answering online u^T M v over F2 through s-t
  3-path counters;
* the sixteen-graph construction that recovers a restricted instance's
  interior count from unrestricted counters by inclusion-exclusion;
* worst-case-to-average massaging for OuMv (random zeroing of M and the
  8-way random split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .counters import STPath3Counter
from .graph import DynamicGraph, Pair, pair, random_graph, uniform_pairs
from .oracles import bf_st_paths
from .smoothing import Model, SmoothedSource, SmoothingParams, UniformFlipAdversary, notify_and_flip


# -- Poisson machinery ---------------------------------------------------


def poisson_sample(lam: float, rng: np.random.Generator) -> int:
    """Exact Poisson(lam) draw: one ``rng.poisson(lam)``."""
    if lam < 0:
        raise ValueError(f"lambda={lam} must be nonnegative")
    return int(rng.poisson(lam))


class ParitySamplingError(RuntimeError):
    pass


_PARITY_RETRY_CAP = 64


def poisson_parity_conditional(
    lam: float, parities: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """One Poisson(lam) draw per entry of ``parities``, each conditioned on
    its entry's parity, by rejection.

    Draws ``rng.poisson(lam, size=len(parities))``, then redraws the
    entries of the wrong parity, in index order, as one array a round,
    until every entry has its parity.  The target parity has mass
    (1 +- e^{-2 lam})/2 >= 1/3 for lam >= ln(3)/2, so an entry's 64 tries
    fail with probability at most (2/3)^64, about 2^-37.4.  At the
    solver's lambda (about 7.7 at n = 16, p = 1/2) both masses are within
    e^-15 of 1/2, so there it is about 2^-64.  An exhausted cap signals a
    pathologically small lambda paired with parity 1.
    """
    if lam <= 0:
        raise ValueError(f"lambda={lam} must be positive")
    parities = np.asarray(parities, dtype=np.int64) & 1
    z = np.empty(len(parities), dtype=np.int64)
    wrong = np.arange(len(parities))
    for _ in range(_PARITY_RETRY_CAP):
        z[wrong] = rng.poisson(lam, size=len(wrong))
        wrong = wrong[z[wrong] % 2 != parities[wrong]]
        if not len(wrong):
            return z
    raise ParitySamplingError(
        f"no Poisson({lam}) draw of parity {parities[wrong[0]]} in {_PARITY_RETRY_CAP} tries"
    )


def poisson_even_mass(lam: float) -> float:
    """P(Poisson(lam) is even) = (1 + e^{-2 lam})/2."""
    return (1.0 + math.exp(-2.0 * lam)) / 2.0


# -- P3-partite layout and the adversarial change distribution -----------


@dataclass(frozen=True)
class P3Layout:
    """Node layout {s} + A + B + {t} with allowed edges sA, AB, Bt.

    Node ids: s=0, A = 1..n, B = n+1..2n, t = 2n+1.  :meth:`interior_edges`
    states the allowed pairs' order, which the seeded streams index.
    """

    n: int

    @property
    def n_nodes(self) -> int:
        return 2 * self.n + 2

    @property
    def s(self) -> int:
        return 0

    @property
    def t(self) -> int:
        return 2 * self.n + 1

    @property
    def a_nodes(self) -> range:
        return range(1, self.n + 1)

    @property
    def b_nodes(self) -> range:
        return range(self.n + 1, 2 * self.n + 1)

    def interior_edges(self) -> List[Pair]:
        """The allowed pairs, in the order of u, v and M's entries: u's
        entry i (s, a_i) at index i, v's entry j (b_j, t) at n + j, and M's
        entry (i, j) (a_i, b_j) at 2n + i n + j."""
        s, t, A, B = self.s, self.t, self.a_nodes, self.b_nodes
        return [(s, a) for a in A] + [(b, t) for b in B] + [(a, b) for a in A for b in B]

    def graph_of(self, M: np.ndarray, u: np.ndarray, v: np.ndarray) -> DynamicGraph:
        """Graph mirroring the two vectors (sA / Bt) and the matrix (AB);
        raises ValueError unless u and v have n entries and M n^2."""
        bits = np.concatenate([u, v, np.ravel(M)])
        edges = [e for e, bit in zip(self.interior_edges(), bits, strict=True) if bit]
        return DynamicGraph(self.n_nodes, edges)


@dataclass(frozen=True)
class ChangeDistribution:
    """Per-edge adversarial change distribution over a P3 layout.

    Side (sA/Bt) edges each carry p/(2n) + (1-p)/(n(n+2)); middle (AB)
    edges carry (1-p)/(n(n+2)); the 2n side + n^2 middle masses sum to 1.
    With p a Fraction every mass is exact.
    """

    p: float
    n: int

    @property
    def q_side(self) -> float:
        n = self.n
        return self.p / (2 * n) + (1 - self.p) / (n * (n + 2))

    @property
    def q_mid(self) -> float:
        n = self.n
        return (1 - self.p) / (n * (n + 2))

    def total_mass(self):
        """2n q_side + n^2 q_mid, which is 1."""
        return 2 * self.n * self.q_side + self.n * self.n * self.q_mid

    def poisson_rates(self, t_param: int) -> Tuple[float, float]:
        """(lam_side, lam_ab): rates of a side edge's parity batch and a copy's AB batch."""
        return self.q_side * t_param, (1.0 - self.p) * self.n / (self.n + 2) * t_param / 2.0


def rounds_parameter(n: int, p: float) -> int:
    """t = ceil(5 n ln(n) / p); natural log."""
    if p <= 0:
        raise ValueError("the round parameter requires p > 0")
    if n < 2:
        raise ValueError("need n >= 2")
    return math.ceil(5.0 * n * math.log(n) / p)


# -- OuMv instances ------------------------------------------------------


@dataclass
class OuMvInstance:
    n: int
    M: np.ndarray  # n x n bits
    rounds: List[Tuple[np.ndarray, np.ndarray]]  # n+1 pairs (u_i, v_i)

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=np.uint8) % 2
        if self.M.shape != (self.n, self.n):
            raise ValueError("M dimension mismatch")
        self.rounds = [
            (np.asarray(u, dtype=np.uint8) % 2, np.asarray(v, dtype=np.uint8) % 2)
            for u, v in self.rounds
        ]
        for u, v in self.rounds:
            if u.shape != (self.n,) or v.shape != (self.n,):
                raise ValueError("vector dimension mismatch")


def random_oumv_instance(n: int, rng: np.random.Generator) -> OuMvInstance:
    M = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
    rounds = [
        (
            rng.integers(0, 2, size=n, dtype=np.uint8),
            rng.integers(0, 2, size=n, dtype=np.uint8),
        )
        for _ in range(n + 1)
    ]
    return OuMvInstance(n, M, rounds)


def read_oumv_instance(fp: IO[str]) -> OuMvInstance:
    """Parse an OuMv instance file: n, then n rows of M and n+1 lines
    ``u v``, each a string of n binary digits.  Anything else
    raises a ValueError that names its line."""
    lines = fp.read().splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 1 or not head[0].isdecimal() or int(head[0]) < 1:
        raise ValueError(f"line 1: expected a positive integer n, got {' '.join(head)!r}")
    n = int(head[0])

    def bit_strings(i: int, count: int) -> List[List[int]]:
        tokens = lines[i - 1].split() if i <= len(lines) else []
        if len(tokens) != count or any(len(t) != n or set(t) - {"0", "1"} for t in tokens):
            got = repr(lines[i - 1]) if i <= len(lines) else "end of input"
            raise ValueError(f"line {i}: expected {count} string(s) of {n} binary digits, got {got}")
        return [[int(c) for c in t] for t in tokens]

    M = [bit_strings(i, 1)[0] for i in range(2, n + 2)]
    rounds = [tuple(bit_strings(i, 2)) for i in range(n + 2, 2 * n + 3)]
    for i in range(2 * n + 3, len(lines) + 1):
        if lines[i - 1].strip():
            raise ValueError(f"line {i}: content after the {n + 1} rounds")
    return OuMvInstance(n, M, rounds)


def f2_oumv_oracle(M, u, v) -> int:
    """u^T M v over F2 by direct evaluation."""
    return int_oumv_oracle(M, u, v) % 2


def int_oumv_oracle(M, u, v) -> int:
    """u^T M v over the integers by direct evaluation."""
    M, u, v = (np.asarray(x, dtype=np.int64) for x in (M, u, v))
    if M.shape != (u.shape[0], v.shape[0]):
        raise ValueError("dimension mismatch")
    return int(u @ (M @ v))


# -- the three-copy solver (parity OuMv via st3 counting) ----------------


class ExactST3Counter:
    """Oracle-backed stand-in with the counter interface."""

    def __init__(self, g: DynamicGraph, s: int, t: int):
        self.g, self.s, self.t = g, s, t

    def update(self, e, now_present) -> None:
        pass

    def query(self) -> int:
        return bf_st_paths(self.g, self.s, self.t, 3)


# perfbench/test_perfbench.py imports the real counter by this name
st3_counter_factory = STPath3Counter


def round_sequences(
    layout: P3Layout, lam_side: float, lam_ab: float, dif: Sequence[int], rng: np.random.Generator
) -> List[np.ndarray]:
    """The three copies' shuffled change sequences for one solver round,
    each an int64 array of codes: indices into ``layout.interior_edges()``,
    whose docstring states the index.

    ``dif`` holds the round's 2n difference bits, u_dif then v_dif, so bit
    k's side pair has code k; an AB draw (i, j) gets M's entry (i, j)'s
    code.  Every copy gets Poisson(lam_side) changes of each side edge, of
    the parity of its bit; copy j's Poisson(lam_ab) batch of uniform AB changes goes
    to the other two copies.  Draws, in this order: the side counts
    (:func:`poisson_parity_conditional`, redraws included), then per copy
    its AB count ``poisson(lam_ab)`` and its 2z endpoints
    ``integers(n, size=2z)`` (i0, j0, i1, j1, ...), then the three
    shuffles, each the permutation a list of the same entries would get.
    """
    n = layout.n
    shared = np.repeat(np.arange(2 * n), poisson_parity_conditional(lam_side, dif, rng))
    batches = []
    for _ in range(3):
        ends = rng.integers(n, size=2 * poisson_sample(lam_ab, rng))
        batches.append(2 * n + ends[::2] * n + ends[1::2])
    seqs = [np.concatenate([shared, *batches[:j], *batches[j + 1 :]]) for j in range(3)]
    for seq in seqs:
        rng.shuffle(seq)
    return seqs


class ParityOuMvSolver:
    """Answers online u^T M v over F2 through three st3 counters.

    Three graph copies, all initially mirroring (M, u_0, v_0), absorb
    each round's difference vectors through a shared parity-exact batch
    of side-edge changes plus pairwise-shared Poisson batches of AB
    changes (:func:`round_sequences`); the AB batches cancel mod 2 so the
    three matrices always sum to M over F2, and the answer is the parity
    of the three queries.
    """

    def __init__(
        self,
        M: np.ndarray,
        u0: np.ndarray,
        v0: np.ndarray,
        p: float,
        counter_factory: Callable[[DynamicGraph, int, int], object],
        rng: np.random.Generator,
    ):
        M, u0, v0 = (np.asarray(x, dtype=np.uint8) % 2 for x in (M, u0, v0))
        n = len(u0)
        self.rng = rng
        self.layout = P3Layout(n)
        dist = ChangeDistribution(p, n)
        self.lam_side, self.lam_ab = dist.poisson_rates(rounds_parameter(n, p))
        self.pairs = tuple(self.layout.interior_edges())  # what round_sequences' codes index
        self.graphs = [self.layout.graph_of(M, u0, v0) for _ in range(3)]
        self.counters = [
            counter_factory(g, self.layout.s, self.layout.t) for g in self.graphs
        ]
        self.u_prev, self.v_prev = u0, v0

    def initial_answer(self) -> int:
        return self.counters[0].query() % 2

    def round(self, u: np.ndarray, v: np.ndarray) -> int:
        u = np.asarray(u, dtype=np.uint8) % 2
        v = np.asarray(v, dtype=np.uint8) % 2
        dif = np.concatenate([u ^ self.u_prev, v ^ self.v_prev])
        seqs = round_sequences(self.layout, self.lam_side, self.lam_ab, dif, self.rng)
        for g, counter, codes in zip(self.graphs, self.counters, seqs):
            notify_and_flip(g, map(self.pairs.__getitem__, codes.tolist()), (counter,))
        self.u_prev, self.v_prev = u, v
        return sum(c.query() for c in self.counters) % 2


@dataclass
class SolOutcome:
    answers: List[int]
    oracle_answers: List[int]

    @property
    def errors(self) -> int:
        return sum(a != b for a, b in zip(self.answers, self.oracle_answers))


def sol_solve(
    instance: OuMvInstance,
    p: float,
    counter_factory: Callable,
    rng: np.random.Generator,
) -> SolOutcome:
    u0, v0 = instance.rounds[0]
    solver = ParityOuMvSolver(instance.M, u0, v0, p, counter_factory, rng)
    answers = [solver.initial_answer()]
    oracle = [f2_oumv_oracle(instance.M, u0, v0)]
    for u, v in instance.rounds[1:]:
        answers.append(solver.round(u, v))
        oracle.append(f2_oumv_oracle(instance.M, u, v))
    return SolOutcome(answers, oracle)


# -- sequence authenticity check -----------------------------------------


@dataclass
class HistogramFit:
    type_counts: np.ndarray  # 2 x 3: rows genuine/solver's, cols sA/Bt/AB
    type_pvalue: float
    length_pvalue: float


def _chi2_pvalue(table: np.ndarray) -> float:
    # imported here: scipy.stats takes about 1 s and 60 MiB to load, and
    # only the histogram check uses it
    from scipy import stats

    return float(stats.chi2_contingency(table).pvalue)


def _two_sample_chi2_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample chi-square on integer samples, shared adaptive bins."""
    combined = np.concatenate([a, b])
    lo, hi = combined.min(), combined.max()
    edges = np.unique(np.percentile(combined, np.linspace(0, 100, 21)))
    if len(edges) < 3:
        edges = np.array([lo - 0.5, (lo + hi) / 2.0, hi + 0.5])
    edges[0] -= 0.5
    edges[-1] += 0.5
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    keep = (ca + cb) >= 5
    table = np.vstack([ca[keep], cb[keep]])
    if table.shape[1] < 2:
        return 1.0
    return _chi2_pvalue(table)


def dadvp_verify_histogram(
    p: float,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> HistogramFit:
    """Compare the solver's change sequences against genuine ones.

    Genuine: Poisson(t)-length i.i.d. samples from the adversarial change
    distribution.  Solver's: copy 0's sequence from :func:`round_sequences`,
    with the round's difference bits themselves drawn from the adversarial
    process.  Compares edge-type occupancy and total sequence length by
    chi-square.
    """
    layout = P3Layout(n)
    t_param = rounds_parameter(n, p)
    dist = ChangeDistribution(p, n)
    lam_side, lam_ab = dist.poisson_rates(t_param)
    probs = [n * dist.q_side, n * dist.q_side, n * n * dist.q_mid]  # sA, Bt, AB
    genuine = rng.multinomial(rng.poisson(t_param, size=samples), probs)
    solver = np.empty((samples, 3), dtype=np.int64)
    for i in range(samples):
        dif = rng.poisson(lam_side, size=2 * n) % 2
        codes = round_sequences(layout, lam_side, lam_ab, dif, rng)[0]
        solver[i] = np.bincount(np.minimum(codes // n, 2), minlength=3)  # < n, < 2n, the rest
    totals = np.vstack([genuine.sum(axis=0), solver.sum(axis=0)])
    cols = totals.sum(axis=0) > 0
    type_p = _chi2_pvalue(totals[:, cols]) if cols.sum() > 1 else 1.0
    length_p = _two_sample_chi2_pvalue(genuine.sum(axis=1), solver.sum(axis=1))
    return HistogramFit(totals, type_p, length_p)


# -- sixteen-graph inclusion-exclusion -----------------------------------


class InvariantError(RuntimeError):
    """A sixteen-graph invariant failed (alpha outside [1/2, 1], a recombination
    numerator not divisible by 16, or a part mismatch); signals an implementation bug."""


def alpha_of(p, n: int):
    """Mixing coefficient alpha and induced p' = alpha * p.

    |R| = n(n+2) interior pairs; |R-bar| = binom(2n+2, 2) - |R| exterior
    pairs (including (s,t)).  Exact rational arithmetic when p is a
    Fraction.
    """
    r = n * (n + 2)
    rbar = (n + 1) * (2 * n + 1) - r
    alpha = r / (r + (1 - p) * rbar)
    if not (Fraction(1, 2) <= Fraction(alpha) <= 1):
        raise InvariantError(f"alpha={alpha} outside [1/2, 1]")
    return alpha, alpha * p


EXTERIOR_TYPES = ("sB", "At", "AA", "BB")


class SixteenPack:
    """Sixteen unrestricted graphs recovering a P3 instance's count.

    All sixteen graphs share the interior (sA/AB/Bt) edges and the (s,t)
    bit.  Each pair e of the four exterior types (sB, At, AA, BB) carries
    one random part bit ``part[e]``, and graph i holds e of type l iff
    ``part[e] == (i >> l) & 1``: every graph takes one part per type, all
    16 part combinations.  Every realized flip lands on all sixteen
    graphs, and an exterior flip toggles the pair's part bit, which keeps
    that rule true; the interior 3-path count is recovered as

        C = (sum_i C^i - 4 C_AB - 4(n-1) (C_sA + C_Bt)) / 16

    with the interior type counts read off the interior graph.
    """

    def __init__(
        self,
        layout: P3Layout,
        interior: DynamicGraph,
        p: float,
        rng: np.random.Generator,
    ):
        self.layout = layout
        self.interior = interior.copy()
        self.interior_pairs = frozenset(layout.interior_edges())
        for e in self.interior.edges():
            if e not in self.interior_pairs:
                raise ValueError(f"interior graph holds exterior edge {e}")
        self.type_edges: Dict[str, List[Pair]] = {
            "sB": [pair(layout.s, b) for b in layout.b_nodes],
            "At": [pair(a, layout.t) for a in layout.a_nodes],
            "AA": [pair(x, y) for x, y in combinations(layout.a_nodes, 2)],
            "BB": [pair(x, y) for x, y in combinations(layout.b_nodes, 2)],
        }
        self.part: Dict[Pair, int] = {}
        for edges in self.type_edges.values():
            coins = rng.random(len(edges)) < 0.5
            self.part.update(zip(edges, coins.astype(int).tolist()))
        st_edge = pair(layout.s, layout.t)
        st_present = rng.random() < 0.5
        self.alpha = float(alpha_of(p, layout.n)[0])
        # uniform_pairs indexes these rows: (s,t) first, then the types in order
        self.exterior_all = np.array([st_edge, *self.part], dtype=np.int64)
        self.graphs: List[DynamicGraph] = []
        for i in range(16):
            edges = set(self.interior.edges())
            for l, name in enumerate(EXTERIOR_TYPES):
                edges.update(e for e in self.type_edges[name] if self.part[e] == (i >> l) & 1)
            if st_present:
                edges.add(st_edge)
            self.graphs.append(DynamicGraph(layout.n_nodes, edges))

    def step(self, next_interior: Callable[[], Pair], rng: np.random.Generator) -> Tuple[Pair, bool]:
        """One step: with probability alpha consume an interior change,
        else flip a uniform exterior pair; apply to all sixteen graphs."""
        interior = rng.random() < self.alpha
        if interior:
            e = next_interior()
            if e not in self.interior_pairs:
                raise ValueError(f"interior source produced exterior edge {e}")
            self.interior.flip(*e)
        else:
            u, v = uniform_pairs(self.layout.n_nodes, rng, 1, self.exterior_all)
            e = (int(u[0]), int(v[0]))
            if e in self.part:  # every exterior pair but (s,t)
                self.part[e] ^= 1
        for g in self.graphs:
            g.flip(*e)
        return e, interior

    def recombine(self, counts: Sequence[int]) -> int:
        n = self.layout.n
        c_sa_bt = self.interior.degree(self.layout.s) + self.interior.degree(self.layout.t)
        c_ab = self.interior.edge_count() - c_sa_bt
        numerator = sum(counts) - 4 * c_ab - 4 * (n - 1) * c_sa_bt
        if numerator % 16 != 0:
            raise InvariantError(f"recombination numerator {numerator} not divisible by 16")
        return numerator // 16

    def query(self, count_fn: Callable[[DynamicGraph], int]) -> int:
        return self.recombine([count_fn(g) for g in self.graphs])

    def check_partition(self) -> None:
        """Every graph holds exactly the exterior pairs its part bits select."""
        for i, g in enumerate(self.graphs):
            for l, name in enumerate(EXTERIOR_TYPES):
                bit = (i >> l) & 1
                if any(g.has(*e) != (self.part[e] == bit) for e in self.type_edges[name]):
                    raise InvariantError(f"graph {i} type {name}: partition part mismatch")


@dataclass
class P3ToGeneralRun:
    queries: List[Tuple[int, int, int]]  # (step, recovered, oracle)
    interior_steps: int


def run_p3_to_general(
    n: int,
    p: float,
    total_steps: int,
    query_every: int,
    rng: np.random.Generator,
    check_every_step: bool = False,
) -> P3ToGeneralRun:
    """Drive a SixteenPack for ``total_steps`` steps against a p-smoothed
    interior source.

    The interior source is an oblivious-flip smoothed sequence restricted
    to the P3 pairs with a uniform adversary.  At every query the
    recovered count is paired with the interior oracle's count.
    ``interior_steps`` counts the changes drawn from that source.
    """
    layout = P3Layout(n)
    restriction = tuple(layout.interior_edges())
    params = SmoothingParams(p, restriction=restriction)
    adversary = UniformFlipAdversary(layout.n_nodes, rng.spawn(1)[0], restriction=params.restriction)
    source = SmoothedSource(
        Model.OBLIVIOUS_FLIP, params, adversary, layout.n_nodes, rng=rng.spawn(1)[0]
    )
    interior0 = random_graph(layout.n_nodes, rng, restriction=restriction)
    pack = SixteenPack(layout, interior0, p, rng)
    count_fn = lambda g: bf_st_paths(g, layout.s, layout.t, 3)
    interior_steps = 0
    queries: List[Tuple[int, int, int]] = []

    def next_interior() -> Pair:
        nonlocal interior_steps
        interior_steps += 1
        return source.next_change().edge

    for step in range(1, total_steps + 1):
        pack.step(next_interior, rng)
        if check_every_step:
            pack.check_partition()
        if step % query_every == 0:
            recovered = pack.query(count_fn)
            oracle = bf_st_paths(pack.interior, layout.s, layout.t, 3)
            queries.append((step, recovered, oracle))
    return P3ToGeneralRun(queries, interior_steps)


# -- OMv massaging (random zeroing + 8-way split) ------------------------


def omv_parity_reduction(
    M, u, v, parity_solver: Callable, repetitions: int, rng: np.random.Generator
) -> int:
    """Existence (u^T M v > 0?) from a parity solver by random zeroing.

    Each repetition keeps every 1-entry of M independently with
    probability 1/2; a zero integer product stays zero, a positive one
    has odd parity with probability 1/2 per repetition.
    """
    M = np.asarray(M, dtype=np.uint8) % 2
    for _ in range(repetitions):
        keep = rng.integers(0, 2, size=M.shape, dtype=np.uint8)
        if parity_solver(M * keep, u, v) == 1:
            return 1
    return 0


def worstcase_to_average_split(
    M, u, v, avg_solver: Callable, rng: np.random.Generator
) -> int:
    """Parity of u^T M v from a solver for uniformly random inputs.

    Splits M = M1 + M2, u = u1 + u2, v = v1 + v2 over F2 with uniform
    first halves; the answer is the mod-2 sum of the eight sub-products.
    """
    M = np.asarray(M, dtype=np.uint8) % 2
    u = np.asarray(u, dtype=np.uint8) % 2
    v = np.asarray(v, dtype=np.uint8) % 2
    n = M.shape[0]
    M1 = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
    u1 = rng.integers(0, 2, size=n, dtype=np.uint8)
    v1 = rng.integers(0, 2, size=n, dtype=np.uint8)
    M2, u2, v2 = M ^ M1, u ^ u1, v ^ v1
    total = 0
    for ub in (u1, u2):
        for Mb in (M1, M2):
            for vb in (v1, v2):
                total += avg_solver(Mb, ub, vb)
    return total % 2
