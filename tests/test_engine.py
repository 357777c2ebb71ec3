import random
import sys

import pytest

import cactusrank as cr
from cactusrank import BesStep, Block, BlockEliminationScheme, BlockKind

from .helpers import (
    bowtie,
    cycle_graph,
    naive_rank,
    path_graph,
    random_cactus,
    random_divisor,
    stacked_triangles,
)


def rk(g, f):
    return cr.rank(g, f).rank


def triangle_with_pendant():
    return cr.Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def test_single_vertex():
    g = cr.Multigraph(1, [])
    assert rk(g, [3]) == 3
    assert rk(g, [0]) == 0
    assert rk(g, [-1]) == -1


def test_tree_divisor():
    assert rk(path_graph(3), [1, 0, 2]) == 3
    assert rk(path_graph(4), [0, 0, 0, 0]) == 0
    assert rk(path_graph(4), [2, -1, 0, -2]) == -1


def test_single_cycle():
    assert rk(cycle_graph(3), [1, -2, 1]) == 0
    assert rk(cycle_graph(3), [1, -1, 0]) == -1
    assert rk(cycle_graph(5), [3, 0, 0, 0, 0]) == 2


def test_shared_vertex_chip():
    # one chip on the vertex two triangles share
    assert rk(bowtie(), [1, 0, 0, 0, 0]) == 0


def test_triangle_with_pendant_zero_divisor():
    assert rk(triangle_with_pendant(), [0, 0, 0, 0]) == 0


def test_regression_two_cycles_cancel():
    # chips +1 and -1 split across the two triangles: not L-effective,
    # even though each cycle's contraction looks harmless on its own
    g = bowtie()
    f = [0, 0, 0, 1, -1]
    assert rk(g, f) == -1
    assert cr.oracle_rank(g, f) == -1


def test_regression_no_strict_drop_at_rank_zero():
    # two chips at the foot of a stacked pair of triangles: removing both
    # chips does NOT lower the rank (both divisors have rank 0), so the
    # engine must compare the spend branch against the skip branch
    g = stacked_triangles(2)
    f = [0, 0, 0, 0, 2]
    assert rk(g, f) == 0
    assert rk(g, [0, 0, 0, 0, 0]) == 0
    assert cr.oracle_rank(g, f) == 0
    assert cr.oracle_rank(g, [0, 0, 0, 0, 0]) == 0


def test_regression_good_cycles_do_not_stack_offsets():
    # one chip on each of the two top vertices: a greedy +1 per good cycle
    # would report 1, the true rank is 0
    g = stacked_triangles(3)
    f = [0, 0, 0, 0, 0, 1, 1]
    assert rk(g, f) == 0
    assert cr.oracle_rank(g, f) == 0


def test_matches_oracle_on_random_cacti():
    rng = random.Random(424242)
    for _ in range(300):
        g = random_cactus(rng)
        f = random_divisor(rng, g.n)
        assert rk(g, f) == cr.oracle_rank(g, f), (g.edges, tuple(f))


def test_matches_transparent_recursion():
    rng = random.Random(515151)
    for _ in range(200):
        g = random_cactus(rng)
        f = random_divisor(rng, g.n, lo=-3, hi=3, max_deg=10)
        assert rk(g, f) == naive_rank(g, f), (g.edges, tuple(f))
    # genus 6..8 with the degree inside (0, 2g - 2), where the path DP
    # combines residues across nested subtrees
    deep = 0
    while deep < 150:
        g = random_cactus(rng, max_n=24, max_genus=8, max_cycle_len=5)
        gn = cr.genus(g)
        if gn < 6:
            continue
        f = [rng.randint(-2, 2) for _ in range(g.n)]
        target = rng.randint(1, 2 * gn - 3)
        while sum(f) != target:
            f[rng.randrange(g.n)] += 1 if sum(f) < target else -1
        assert rk(g, f) == naive_rank(g, f), (g.edges, tuple(f))
        deep += 1


def test_invariant_under_linear_equivalence():
    rng = random.Random(61)
    for _ in range(60):
        g = random_cactus(rng, max_n=9)
        f = random_divisor(rng, g.n)
        x = [rng.randint(-2, 2) for _ in range(g.n)]
        assert rk(g, f) == rk(g, cr.apply_firing(g, f, x))


def test_invariant_under_relabeling():
    rng = random.Random(62)
    for _ in range(60):
        g = random_cactus(rng, max_n=9)
        f = random_divisor(rng, g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g2 = cr.Multigraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        f2 = [0] * g.n
        for v in range(g.n):
            f2[perm[v]] = f[v]
        assert rk(g, f) == rk(g2, f2)


def test_rank_independent_of_scheme_order():
    g = bowtie()
    scheme = cr.build_bes(g)
    flipped = BlockEliminationScheme(tuple(reversed(scheme.steps)), scheme.root)
    for f in ([1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [2, -1, 1, 0, 0], [0, 0, 0, 1, -1]):
        assert cr.rank(g, f, scheme=scheme).rank == cr.rank(g, f, scheme=flipped).rank


def test_rank_accepts_rotated_scheme_blocks():
    g = triangle_with_pendant()
    s0 = cr.build_bes(g).steps[0]
    rotated = BesStep(Block(BlockKind.CYCLE, (1, 2, 0)), 0)
    scheme = BlockEliminationScheme((s0, rotated), 0)
    for f in ([0, 0, 0, 0], [1, -2, 1, 0], [0, 1, 0, 1]):
        assert cr.rank(g, f, scheme=scheme).rank == rk(g, f)


def test_rank_rejects_invalid_scheme():
    g = triangle_with_pendant()
    scheme = cr.build_bes(g)
    swapped = BlockEliminationScheme(tuple(reversed(scheme.steps)), scheme.root)
    with pytest.raises(cr.GraphError):
        cr.rank(g, [0, 0, 0, 0], scheme=swapped)


def test_rank_input_validation():
    with pytest.raises(cr.GraphError):
        cr.rank(cycle_graph(3), [0, 0])
    with pytest.raises(cr.NotCactusError):
        cr.rank(cr.Multigraph(2, [(0, 1)] * 3), [0, 0])
    with pytest.raises(cr.DisconnectedGraphError):
        cr.rank(cr.Multigraph(2, []), [0, 0])


def test_fast_path():
    assert cr.rank_fast_path(cycle_graph(4), [5, 0, 0, 0]) == 4
    assert cr.rank_fast_path(cycle_graph(4), [-7, 0, 0, 0]) == -1
    # genus 2, degree 2 = 2g - 2: the boundary needs the full scheme
    assert cr.rank_fast_path(bowtie(), [2, 0, 0, 0, 0]) is None


def test_fast_path_agrees_with_engine():
    rng = random.Random(63)
    for _ in range(200):
        g = random_cactus(rng)
        f = [rng.randint(-6, 6) for _ in range(g.n)]
        shortcut = cr.rank_fast_path(g, f)
        if shortcut is not None:
            assert shortcut == rk(g, f)


def test_rank_duality_identity():
    rng = random.Random(64)
    fn = lambda g, f: cr.rank(g, f).rank
    for _ in range(150):
        g = random_cactus(rng)
        f = cr.Divisor([rng.randint(-4, 6) for _ in range(g.n)])
        assert cr.rr_check(g, f, fn)


def test_trace_structure():
    g = bowtie()
    res = cr.rank(g, [1, 0, 0, 0, 0], trace=True)
    assert res.rank == 0
    trace = res.trace
    assert trace[0].kind == "cycle"
    assert trace[0].goodness == "good"
    assert trace[0].adjustment == -2
    assert trace[0].branch in ("charged", "skipped")
    assert trace[-1].kind == "base"
    assert trace[-1].branch == "negative-degree"
    # trace off by default
    assert cr.rank(g, [1, 0, 0, 0, 0]).trace is None


def test_trace_regimes():
    g = cycle_graph(4)
    assert cr.rank(g, [9, 0, 0, 0], trace=True).trace[-1].branch == "high-degree"
    assert cr.rank(g, [0, 0, 0, 0], trace=True).trace[-1].branch == "zero-degree"
    assert cr.rank(g, [-1, 0, 0, 0], trace=True).trace[-1].branch == "negative-degree"
    g2 = bowtie()
    assert cr.rank(g2, [2, 0, 0, 0, 0], trace=True).trace[-1].branch == "mirror"


def test_engine_leaves_no_state_behind():
    g = stacked_triangles(2)
    f = [1, 0, 0, 0, 1]
    first = cr.rank(g, f)
    second = cr.rank(g, f)
    assert first.rank == second.rank
    # an in-band rank on 300 cycles leaves the recursion limit as it was
    g = stacked_triangles(300)
    f = [0] * g.n
    f[-1] = 3
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for trace in (False, True):
            cr.rank(g, f, trace=trace)
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_deep_chain_of_cycles():
    # 60 stacked triangles, one chip at the far end: the degree sits inside
    # the band, so the rank comes from the path DP over the whole chain
    g = stacked_triangles(60)
    f = [0] * g.n
    f[-1] = 1
    value = cr.rank(g, f).rank
    assert value >= -1
    fn = lambda gg, ff: cr.rank(gg, ff).rank
    assert cr.rr_check(g, cr.Divisor(f), fn)


def test_mirror_regime_agrees_with_oracle():
    rng = random.Random(65)
    hits = 0
    for _ in range(20000):
        if hits >= 40:
            break
        g = random_cactus(rng, max_n=8)
        gn = cr.genus(g)
        if gn == 0:
            continue
        f = random_divisor(rng, g.n, lo=-3, hi=4, max_deg=7)
        if f.degree != 2 * gn - 2:
            continue
        hits += 1
        assert rk(g, f) == cr.oracle_rank(g, f)
    assert hits >= 40
