import random
import sys
from array import array

import pytest

import cactusrank as cr

from .helpers import (
    bowtie,
    cycle_graph,
    naive_rank,
    path_graph,
    random_cactus,
    random_divisor,
    rank_witness,
    stacked_triangles,
)


def rk(g, f):
    return cr.rank(g, f).rank


def triangle_with_pendant():
    return cr.Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def _in_band_divisor(rng, g, gn):
    f = [rng.randint(-2, 2) for _ in range(g.n)]
    target = rng.randint(1, 2 * gn - 3)
    while sum(f) != target:
        f[rng.randrange(g.n)] += 1 if sum(f) < target else -1
    return f


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
        f = _in_band_divisor(rng, g, gn)
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
    # relabelling the vertices and shuffling the edge list changes the
    # scan's root and block order, so the rank must not depend on either
    rng = random.Random(62)
    reordered = 0
    for _ in range(60):
        g = random_cactus(rng, max_n=9)
        f = random_divisor(rng, g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rng.shuffle(edges)
        g2 = cr.Multigraph(g.n, edges)
        f2 = [0] * g.n
        for v in range(g.n):
            f2[perm[v]] = f[v]
        assert rk(g, f) == rk(g2, f2)
        back = {perm[v]: v for v in range(g.n)}
        steps = [(s.block.kind, tuple(back[v] for v in s.block.vertices),
                  back[s.attach]) for s in cr.build_bes(g2).steps]
        ours = [(s.block.kind, s.block.vertices, s.attach)
                for s in cr.build_bes(g).steps]
        reordered += steps != ours
    assert reordered >= 20


def test_rank_independent_of_scheme_order():
    # reversing the edge list makes the scan eliminate the bowtie's two
    # triangles in the opposite order
    g = bowtie()
    flipped = cr.Multigraph(g.n, list(reversed(g.edges)))
    blocks = [set(s.block.vertices) for s in cr.build_bes(g).steps]
    assert [set(s.block.vertices) for s in cr.build_bes(flipped).steps] == blocks[::-1]
    for f in ([1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [2, -1, 1, 0, 0], [0, 0, 0, 1, -1]):
        assert cr.rank(g, f).rank == cr.rank(flipped, f).rank


def test_rank_input_validation():
    with pytest.raises(cr.GraphError):
        cr.rank(cycle_graph(3), [0, 0])
    with pytest.raises(cr.NotCactusError):
        cr.rank(cr.Multigraph(2, [(0, 1)] * 3), [0, 0])
    with pytest.raises(cr.DisconnectedGraphError):
        cr.rank(cr.Multigraph(2, []), [0, 0])


def test_rank_duality_identity():
    rng = random.Random(64)
    fn = lambda g, f: cr.rank(g, f).rank
    for _ in range(150):
        g = random_cactus(rng)
        f = cr.Divisor([rng.randint(-4, 6) for _ in range(g.n)])
        assert cr.rr_check(g, f, fn)


def _check_trace(g, f, res):
    # one record per block in scheme order, each adjustment set by its
    # goodness and branch, degree_after running from deg f, and the
    # path's value max(d + c, c - 1) is the rank
    *steps, base = res.trace
    scheme = cr.build_bes(g)
    assert (base.kind, base.branch, base.attach) == ("base", "path-dp", scheme.root)
    assert [s.index for s in steps] == list(range(len(scheme.steps)))
    d = sum(f)
    for s in steps:
        if s.kind == "edge":
            assert (s.goodness, s.branch, s.adjustment) == (None, None, 0)
        elif s.goodness == "bad":
            assert (s.kind, s.branch, s.adjustment) == ("cycle", None, -1)
        else:
            assert s.kind == "cycle" and s.goodness == "good"
            assert s.adjustment == {"skipped": 0, "charged": -2}[s.branch]
        d += s.adjustment
        assert s.degree_after == d
    assert base.degree_after == d and base.index == len(steps)
    c = sum(s.branch == "charged" for s in steps)
    assert max(d + c, c - 1) == res.rank


def test_trace_structure():
    g = bowtie()
    res = cr.rank(g, [1, 0, 0, 0, 0], trace=True)
    assert res.rank == 0
    assert [s.goodness for s in res.trace[:-1]] == ["good", "good"]
    _check_trace(g, [1, 0, 0, 0, 0], res)
    # trace off by default
    assert cr.rank(g, [1, 0, 0, 0, 0]).trace is None
    rng = random.Random(67)
    hits = 0
    while hits < 300:
        g = random_cactus(rng, max_n=16, max_genus=6, max_cycle_len=5)
        gn = cr.genus(g)
        if gn < 2:
            continue
        f = _in_band_divisor(rng, g, gn)
        res = cr.rank(g, f, trace=True)
        assert res.rank == rk(g, f)
        _check_trace(g, f, res)
        hits += 1


def test_rank_witness_from_trace():
    # the traced path names an effective E of degree rank + 1 such that
    # f - E is not L-effective (the oracle's burning test, not the
    # recursion), so the rank is no larger than the engine says
    rng = random.Random(68)
    hits = 0
    while hits < 600:
        g = random_cactus(rng, max_n=11, max_genus=5, max_cycle_len=5)
        gn = cr.genus(g)
        for target in range(1, 2 * gn - 2):
            f = [rng.randint(-2, 3) for _ in range(g.n)]
            while sum(f) != target:
                f[rng.randrange(g.n)] += 1 if sum(f) < target else -1
            res = cr.rank(g, f, trace=True)
            e = rank_witness(g, f, res)
            assert min(e) >= 0 and sum(e) == res.rank + 1, (g.edges, f)
            assert cr.is_l_effective(g, [x - y for x, y in zip(f, e)]) is False, (g.edges, f)
            hits += 1


def test_matches_oracle_at_genus_6_to_11():
    # doubled bridges are 2-cycles, so 12 vertices reach genus 11
    rng = random.Random(69)
    hits = 0
    while hits < 500:
        g = random_cactus(rng, max_n=12, max_genus=11, max_cycle_len=rng.choice((2, 3)))
        gn = cr.genus(g)
        if gn < 6:
            continue
        f = _in_band_divisor(rng, g, gn)
        assert rk(g, f) == cr.oracle_rank(g, f, max_rank=12), (g.edges, f)
        hits += 1


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


def test_rank_reads_any_sequence_in_place():
    # rank reads f where it lies, without a copy, so every integer sequence
    # gives the same answer and trace, and none is changed; half the inputs
    # are in the degree band, where the path DP reads f
    rng = random.Random(20161)
    for i in range(200):
        g = random_cactus(rng, max_n=12, max_genus=5)
        gn = cr.genus(g)
        if i % 2 and gn >= 2:
            base = _in_band_divisor(rng, g, gn)
        else:
            base = random_divisor(rng, g.n)
        want = cr.rank(g, cr.Divisor(base), trace=True)
        for f in (cr.Divisor(base), tuple(base), list(base), array("i", base)):
            before = f[:]
            assert cr.rank(g, f, trace=True) == want, (g.edges, base, type(f))
            assert cr.rank(g, f).rank == want.rank
            assert f == before


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


def test_residue_sweep_at_genus_6_to_8():
    # degree 0 and 2g - 2 close before the first step, by the residue sweep
    # over every cycle of f or of K - f.  Half the divisors are 0 or K moved
    # by a random firing, so the sweep gives both verdicts in each regime.
    rng = random.Random(66)
    for regime in ("zero-degree", "mirror"):
        verdicts = set()
        hits = 0
        while hits < 75:
            g = random_cactus(rng, max_n=24, max_genus=8, max_cycle_len=5)
            gn = cr.genus(g)
            if gn < 6:
                continue
            base = [0] * g.n if regime == "zero-degree" else cr.canonical_divisor(g)
            if rng.random() < 0.5:
                x = [rng.randint(-2, 2) for _ in range(g.n)]
                f = list(cr.apply_firing(g, base, x))
            else:
                f = [rng.randint(-2, 2) for _ in range(g.n)]
                while sum(f) != sum(base):
                    f[rng.randrange(g.n)] += 1 if sum(f) < sum(base) else -1
            res = cr.rank(g, f, trace=True)
            assert res.trace[-1].branch == regime, (g.edges, tuple(f))
            assert res.rank == naive_rank(g, f), (g.edges, tuple(f))
            verdicts.add(res.rank - (0 if regime == "zero-degree" else gn - 1))
            hits += 1
        assert verdicts == {0, -1}, regime
