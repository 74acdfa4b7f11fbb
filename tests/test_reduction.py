import copy
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothdyn.counters import STPath3Counter
from smoothdyn.graph import DynamicGraph, pair, random_graph
from smoothdyn.oracles import bf_st_paths
from smoothdyn.reduction import (
    EXTERIOR_TYPES,
    ChangeDistribution,
    ExactST3Counter,
    InvariantError,
    P3Layout,
    ParityOuMvSolver,
    ParitySamplingError,
    SixteenPack,
    alpha_of,
    dadvp_verify_histogram,
    f2_oumv_oracle,
    int_oumv_oracle,
    omv_parity_reduction,
    poisson_even_mass,
    poisson_parity_conditional,
    poisson_sample,
    random_oumv_instance,
    read_oumv_instance,
    round_sequences,
    rounds_parameter,
    run_p3_to_general,
    sol_solve,
    worstcase_to_average_split,
)
from smoothdyn.rng import trial_stream


# -- Poisson machinery ---------------------------------------------------


def test_poisson_sample_moments():
    rng = trial_stream(0, 0)
    lam = 4.0
    draws = np.array([poisson_sample(lam, rng) for _ in range(20000)])
    assert abs(draws.mean() - lam) < 0.06
    assert abs(draws.var() - lam) < 0.2
    p0 = float(np.mean(draws == 0))
    assert abs(p0 - math.exp(-lam)) < 0.005
    assert poisson_sample(0.0, rng) == 0
    with pytest.raises(ValueError):
        poisson_sample(-1.0, rng)


def test_poisson_parity_conditional():
    rng = trial_stream(1, 0)
    lam = 2.0
    draws = poisson_parity_conditional(lam, [0, 1] * 4000, rng)
    evens, odds = draws[0::2], draws[1::2]
    assert draws.shape == (8000,)
    assert (evens % 2 == 0).all() and (odds % 2 == 1).all()
    # conditional means: lam * (1 -+ e^{-2 lam}) / (1 +- e^{-2 lam})
    e2 = math.exp(-2 * lam)
    assert abs(evens.mean() - lam * (1 - e2) / (1 + e2)) < 0.1
    assert abs(odds.mean() - lam * (1 + e2) / (1 - e2)) < 0.1
    assert poisson_parity_conditional(lam, [], rng).shape == (0,)


def test_poisson_parity_tiny_lambda():
    rng = trial_stream(2, 0)
    # parity 1 at small lambda: nearly every accepted draw is exactly 1
    draws = poisson_parity_conditional(0.3, [1] * 200, rng)
    assert (draws % 2 == 1).all() and (draws == 1).sum() >= 190
    # the parity-0 entry accepts at once; the parity-1 entry runs out of tries
    with pytest.raises(ParitySamplingError, match="parity 1 in 64 tries"):
        poisson_parity_conditional(1e-18, [0, 1], rng)
    with pytest.raises(ValueError):
        poisson_parity_conditional(0.0, [0], rng)


def test_poisson_even_mass():
    assert poisson_even_mass(0.0) == 1.0
    assert abs(poisson_even_mass(1.0) - (1 + math.exp(-2)) / 2) < 1e-15
    rng = trial_stream(3, 0)
    hits = sum(poisson_sample(1.0, rng) % 2 == 0 for _ in range(40000))
    assert abs(hits / 40000 - poisson_even_mass(1.0)) < 0.01


# -- layout and change distribution --------------------------------------


def test_layout_roles_and_edges():
    lay = P3Layout(3)
    assert lay.n_nodes == 8 and lay.s == 0 and lay.t == 7
    interior = set(lay.interior_edges())
    assert (0, 1) in interior  # sA
    assert (1, 4) in interior  # AB
    assert (4, 7) in interior  # Bt
    assert (0, 7) not in interior  # the (s,t) pair
    assert (1, 2) not in interior  # AA
    assert len(interior) == len(lay.interior_edges()) == 3 * (3 + 2)


def test_layout_graph_of_matches_oracle():
    lay = P3Layout(3)
    u = np.array([1, 0, 0])
    v = np.array([1, 1, 0])
    M = np.zeros((3, 3), dtype=np.uint8)
    M[0, 0] = M[0, 1] = M[1, 2] = 1
    g = lay.graph_of(M, u, v)
    assert g.edge_count() == 1 + 2 + 3
    assert bf_st_paths(g, lay.s, lay.t, 3) == 2 == int_oumv_oracle(M, u, v)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_change_distribution_exact_normalization(p, n):
    assert ChangeDistribution(p, n).total_mass() == 1


@pytest.mark.parametrize("p", [0.0, 1 / 3, 0.9])
@pytest.mark.parametrize("n", [2, 16])
def test_poisson_rates_match_the_solver_formulas_bit_for_bit(p, n):
    # reference expressions, in the operation order the floats depend on
    t = rounds_parameter(n, max(p, 0.05))
    dist = ChangeDistribution(p, n)
    assert dist.poisson_rates(t) == (dist.q_side * t, (1.0 - p) * n / (n + 2) * t / 2.0)


def test_rounds_parameter():
    assert rounds_parameter(8, 0.5) == math.ceil(5 * 8 * math.log(8) / 0.5)
    with pytest.raises(ValueError):
        rounds_parameter(8, 0.0)
    with pytest.raises(ValueError):
        rounds_parameter(1, 0.5)


# -- OuMv instances and oracles ------------------------------------------


def test_f2_oracle_frozen():
    M = [[1, 0], [1, 1]]
    assert f2_oumv_oracle(M, [1, 0], [1, 0]) == 1
    assert f2_oumv_oracle(M, [1, 1], [1, 0]) == 0  # 1 + 1 = 0 over F2
    assert int_oumv_oracle(M, [1, 1], [1, 0]) == 2
    with pytest.raises(ValueError):
        f2_oumv_oracle(M, [1, 0, 0], [1, 0])


def write_oumv_instance(inst, fp) -> None:
    """The file format ``read_oumv_instance`` parses."""
    bits = lambda row: "".join(str(int(b)) for b in row)
    fp.write(f"{inst.n}\n" + "".join(bits(row) + "\n" for row in inst.M))
    fp.write("".join(f"{bits(u)} {bits(v)}\n" for u, v in inst.rounds))


def test_oumv_instance_roundtrip():
    inst = random_oumv_instance(5, trial_stream(5, 0))
    buf = io.StringIO()
    write_oumv_instance(inst, buf)
    back = read_oumv_instance(io.StringIO(buf.getvalue()))
    assert back.n == inst.n
    assert np.array_equal(back.M, inst.M)
    assert len(back.rounds) == len(inst.rounds)
    for (u1, v1), (u2, v2) in zip(back.rounds, inst.rounds):
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    again = io.StringIO()
    write_oumv_instance(read_oumv_instance(io.StringIO(buf.getvalue() + "\n \n")), again)
    assert again.getvalue() == buf.getvalue()  # trailing blank lines are fine


# a valid n = 2 instance, one line per entry
OUMV_LINES = ["2", "10", "01", "10 01", "01 10", "11 00"]


def _with_line(lineno, text):
    lines = list(OUMV_LINES)
    lines[lineno - 1] = text
    return lines


@pytest.mark.parametrize(
    "lines,bad_line",
    [
        (_with_line(2, "12"), 2),  # non-binary character in M
        (_with_line(5, "0a 10"), 5),  # non-binary character in u
        (_with_line(3, "011"), 3),  # row too long
        (_with_line(4, "10 1"), 4),  # vector too short
        (_with_line(2, "10 1"), 2),  # extra token in a row
        (_with_line(6, "11 00 1"), 6),  # extra token in a round
        (_with_line(4, "10"), 4),  # missing vector
        (OUMV_LINES[:-1], 6),  # missing round
        (OUMV_LINES + ["00 00"], 7),  # content after the n+1 rounds
        (_with_line(1, "x"), 1),
        (_with_line(1, "0"), 1),
        (_with_line(1, "2 2"), 1),
        ([], 1),
    ],
)
def test_read_oumv_instance_rejects_malformed(lines, bad_line):
    text = "".join(line + "\n" for line in lines)
    with pytest.raises(ValueError, match=f"^line {bad_line}:"):
        read_oumv_instance(io.StringIO(text))


# -- the three-copy solver -----------------------------------------------


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
def test_sol_exact_counters_agree(p):
    rng = trial_stream(6, 0)
    for _ in range(8):
        inst = random_oumv_instance(5, rng)
        out = sol_solve(inst, p, ExactST3Counter, rng)
        assert out.errors == 0


def test_sol_incremental_counters_agree():
    rng = trial_stream(7, 0)
    for _ in range(6):
        inst = random_oumv_instance(5, rng)
        out = sol_solve(inst, 0.5, STPath3Counter, rng)
        assert out.errors == 0


def test_sol_matrices_xor_to_m():
    # invariant: the three AB layers always sum to M over F2
    rng = trial_stream(8, 0)
    inst = random_oumv_instance(4, rng)
    u0, v0 = inst.rounds[0]
    solver = ParityOuMvSolver(inst.M, u0, v0, 0.5, ExactST3Counter, rng)
    lay = solver.layout
    for u, v in inst.rounds[1:]:
        solver.round(u, v)
        for i in range(4):
            for j in range(4):
                bits = sum(g.has_pair(lay.ab_edge(i, j)) for g in solver.graphs)
                assert bits % 2 == int(inst.M[i, j])


def test_sol_constant_rounds_stay_correct():
    # u_dif = v_dif = 0 rounds: only parity-0 side noise and AB noise land
    rng = trial_stream(9, 0)
    inst = random_oumv_instance(4, rng)
    u0, v0 = inst.rounds[0]
    inst.rounds = [(u0.copy(), v0.copy()) for _ in range(5)]
    out = sol_solve(inst, 0.5, ExactST3Counter, rng)
    assert out.errors == 0
    assert len(set(out.oracle_answers)) == 1


def test_round_applies_what_round_sequences_returns():
    """Each copy's counter receives exactly the flips ``round_sequences``
    returns for the generator state and difference vectors ``round`` sees."""
    received = []

    class RecordingCounter:
        def __init__(self, g, s, t):
            self.flips = []
            received.append(self.flips)

        def update(self, e, now_present):
            self.flips.append(e)

        def query(self):
            return 0

    rng = trial_stream(9, 1)
    inst = random_oumv_instance(4, rng)
    u_prev, v_prev = inst.rounds[0]
    solver = ParityOuMvSolver(inst.M, u_prev, v_prev, 0.5, RecordingCounter, rng)
    for u, v in inst.rounds[1:]:
        twin = copy.deepcopy(rng)
        dif = [*(u ^ u_prev), *(v ^ v_prev)]
        expected = round_sequences(solver.layout, solver.lam_side, solver.lam_ab, dif, twin)
        for flips in received:
            flips.clear()
        solver.round(u, v)
        assert received == expected and all(expected)
        assert rng.bit_generator.state == twin.bit_generator.state
        u_prev, v_prev = u, v


def test_round_sequences_stream_contract():
    """A twin generator replays one round in stream version 3's order:
    the side counts ``poisson(lam_side, size=2n)`` with the wrong-parity
    entries redrawn in index order, then per copy ``poisson(lam_ab)`` and
    ``integers(n, size=2z)``, then the three shuffles."""
    n, p = 4, 0.5
    layout = P3Layout(n)
    lam_side, lam_ab = ChangeDistribution(p, n).poisson_rates(rounds_parameter(n, p))
    dif = [1, 0, 1, 1, 0, 0, 1, 0]
    rng, twin = trial_stream(12, 0), trial_stream(12, 0)
    got = round_sequences(layout, lam_side, lam_ab, dif, rng)

    counts = twin.poisson(lam_side, size=2 * n).tolist()
    wrong = [i for i in range(2 * n) if counts[i] % 2 != dif[i]]
    assert wrong  # the round exercises the redraws
    while wrong:
        for i, z in zip(wrong, twin.poisson(lam_side, size=len(wrong)).tolist()):
            counts[i] = z
        wrong = [i for i in wrong if counts[i] % 2 != dif[i]]
    shared = [e for e, count in zip(layout.side_edges(), counts) for _ in range(count)]
    expected = [list(shared) for _ in range(3)]
    for j in range(3):
        ends = twin.integers(n, size=2 * int(twin.poisson(lam_ab))).tolist()
        batch = [layout.ab_edge(i, k) for i, k in zip(ends[::2], ends[1::2])]
        for other in range(3):
            if other != j:
                expected[other] += batch
    for seq in expected:
        twin.shuffle(seq)
    assert got == expected
    assert rng.bit_generator.state == twin.bit_generator.state


def test_dadvp_histogram_fit():
    fit = dadvp_verify_histogram(0.5, 6, 400, trial_stream(10, 0))
    assert fit.type_pvalue > 1e-3
    assert fit.length_pvalue > 1e-3
    assert fit.type_counts.shape == (2, 3)


# -- sixteen-graph inclusion-exclusion -----------------------------------


def test_alpha_frozen_and_bounds():
    alpha, pp = alpha_of(Fraction(0), 2)
    assert alpha == Fraction(8, 15) and pp == 0
    alpha, pp = alpha_of(Fraction(1), 5)
    assert alpha == 1 and pp == 1
    for n in (2, 3, 10):
        for p in (0.0, 0.3, 0.9):
            a, _ = alpha_of(p, n)
            assert 0.5 <= a <= 1.0


def fixture_pack(seed):
    lay = P3Layout(3)
    u = np.array([1, 0, 0])
    v = np.array([1, 1, 0])
    M = np.zeros((3, 3), dtype=np.uint8)
    M[0, 0] = M[0, 1] = M[1, 2] = 1
    interior = lay.graph_of(M, u, v)
    return lay, SixteenPack(lay, interior, 0.5, trial_stream(11, seed))


def test_sixteen_pack_frozen_recombination():
    # C = 2, C_AB = 3, C_sA = 1, C_Bt = 2 -> sum over the 16 graphs is
    # 16*2 + 4*3 + 4*(3-1)*(1+2) = 68 for any exterior bipartition
    for seed in range(5):
        lay, pack = fixture_pack(seed)
        counts = [bf_st_paths(g, lay.s, lay.t, 3) for g in pack.graphs]
        assert sum(counts) == 68
        assert pack.recombine(counts) == 2
        pack.check_partition()


def test_sixteen_pack_rejects_exterior_interior():
    lay = P3Layout(3)
    bad = DynamicGraph(lay.n_nodes, [pair(1, 2)])  # an AA pair
    with pytest.raises(ValueError):
        SixteenPack(lay, bad, 0.5, trial_stream(11, 9))


def test_sixteen_pack_mutation_detected():
    lay, pack = fixture_pack(0)
    # a flip applied to only 15 of the 16 graphs breaks the partition
    e = pack.type_edges["AA"][0]
    for g in pack.graphs[1:]:
        g.flip(*e)
    with pytest.raises(InvariantError):
        pack.check_partition()
    # an off-by-one count breaks the mod-16 recombination residue
    lay2, pack2 = fixture_pack(1)
    counts = [bf_st_paths(g, lay2.s, lay2.t, 3) for g in pack2.graphs]
    counts[3] += 1
    with pytest.raises(InvariantError):
        pack2.recombine(counts)


def test_sixteen_pack_steps_preserve_recovery():
    lay, pack = fixture_pack(2)
    rng = trial_stream(11, 20)
    interior_edges = lay.interior_edges()

    def next_interior():
        return interior_edges[int(rng.integers(len(interior_edges)))]

    count = lambda g: bf_st_paths(g, lay.s, lay.t, 3)
    for _ in range(150):
        pack.step(next_interior, rng)
        assert pack.query(count) == bf_st_paths(pack.interior, lay.s, lay.t, 3)
    pack.check_partition()


class ScriptedRng:
    """Stands in for the generator of one ``SixteenPack.step``: the step
    kind and the exterior pair's index are chosen by the test."""

    def __init__(self, interior: bool, index: int):
        self.interior = interior
        self.index = index

    def random(self):
        return 0.0 if self.interior else 1.0  # alpha lies in (0, 1)

    def integers(self, k, size):
        return np.full(size, self.index % k)


@given(
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_sixteen_pack_part_bits_hold_after_any_steps(n, seed, script):
    lay = P3Layout(n)
    interior_edges = lay.interior_edges()
    rng = trial_stream(seed, 0)
    interior = random_graph(lay.n_nodes, rng, restriction=interior_edges)
    pack = SixteenPack(lay, interior, 0.5, rng)
    for interior_step, index in script:
        pack.step(
            lambda: interior_edges[index % len(interior_edges)],
            ScriptedRng(interior_step, index),
        )
        pack.check_partition()
        for i, g in enumerate(pack.graphs):
            for l, name in enumerate(EXTERIOR_TYPES):
                for e in pack.type_edges[name]:
                    assert g.has_pair(e) == (pack.part[e] == (i >> l) & 1)


def test_run_p3_to_general():
    run = run_p3_to_general(
        4, 0.5, 300, 25, trial_stream(12, 0), check_every_step=True
    )
    assert len(run.queries) == 300 // 25
    assert all(rec == orc for _, rec, orc in run.queries)
    assert 0 < run.interior_steps <= 300


# -- OMv massaging -------------------------------------------------------


def test_omv_parity_reduction():
    rng = trial_stream(13, 0)
    zero = np.zeros((4, 4), dtype=np.uint8)
    ones = np.ones(4, dtype=np.uint8)
    assert omv_parity_reduction(zero, ones, ones, f2_oumv_oracle, 20, rng) == 0
    misses = 0
    for _ in range(200):
        M = rng.integers(0, 2, size=(5, 5), dtype=np.uint8)
        u = rng.integers(0, 2, size=5, dtype=np.uint8)
        v = rng.integers(0, 2, size=5, dtype=np.uint8)
        want = int(int_oumv_oracle(M, u, v) > 0)
        got = omv_parity_reduction(M, u, v, f2_oumv_oracle, 20, rng)
        misses += got != want
    assert misses == 0  # false-negative rate 2^-20 per positive instance


def test_worstcase_split_exact():
    rng = trial_stream(14, 0)
    for _ in range(1000):
        M = rng.integers(0, 2, size=(5, 5), dtype=np.uint8)
        u = rng.integers(0, 2, size=5, dtype=np.uint8)
        v = rng.integers(0, 2, size=5, dtype=np.uint8)
        assert worstcase_to_average_split(M, u, v, f2_oumv_oracle, rng) == f2_oumv_oracle(M, u, v)


def test_worstcase_split_error_amplification():
    # a solver wrong w.p. eps yields an overall error rate at most 8 eps
    eps = 0.01
    rng = trial_stream(14, 1)
    noise = trial_stream(14, 2)

    def noisy(M, u, v):
        ans = f2_oumv_oracle(M, u, v)
        return ans ^ 1 if noise.random() < eps else ans

    errors = 0
    trials = 2000
    for _ in range(trials):
        M = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        u = rng.integers(0, 2, size=4, dtype=np.uint8)
        v = rng.integers(0, 2, size=4, dtype=np.uint8)
        errors += worstcase_to_average_split(M, u, v, noisy, rng) != f2_oumv_oracle(M, u, v)
    assert errors / trials <= 8 * eps + 0.02


def test_chain_zeroing_over_split():
    # full chain: existence via random zeroing, each parity query answered
    # through the 8-way split of a (here: exact) average-case solver
    rng = trial_stream(15, 0)

    def parity_via_split(M, u, v):
        return worstcase_to_average_split(M, u, v, f2_oumv_oracle, rng)

    for _ in range(100):
        M = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
        u = rng.integers(0, 2, size=4, dtype=np.uint8)
        v = rng.integers(0, 2, size=4, dtype=np.uint8)
        want = int(int_oumv_oracle(M, u, v) > 0)
        assert omv_parity_reduction(M, u, v, parity_via_split, 20, rng) == want
