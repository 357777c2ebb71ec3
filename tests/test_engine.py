import random
import sys
from array import array

import pytest

import cactusrank as cr
from cactusrank import graph
from cactusrank.engine import _UNREACHABLE, _funnel, _product, _split
from cactusrank.graph import _scan

from .helpers import (
    apply_firing,
    bowtie,
    cycle_graph,
    naive_rank,
    path_graph,
    random_cactus,
    random_divisor,
    rank_witness,
    stacked_triangles,
    trace_digest,
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
        assert rk(g, f) == rk(g, apply_firing(g, f, x))


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


def test_trace_digest_pinned():
    # every record of 4,200 traced ranks (600 random cacti up to 100
    # vertices and genus 30, seven degrees each); a change to how the DP
    # breaks ties shows here even when every rank holds, and so does one to
    # which no-charge test closes a degree outside the band (0, 2g - 2)
    assert trace_digest(71, 600) == (
        "c8b9b288ea59f27d916757e24a76a83b1fe287dfb877b5068c3f31bebff59ae7")


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
    # outside the band (0, 2g - 2) the base record names the no-charge test
    # that closed: over f, or over K - f when f's test gives up
    g = cycle_graph(4)
    assert cr.rank(g, [9, 0, 0, 0], trace=True).trace[-1].branch == "mirror"
    assert cr.rank(g, [0, 0, 0, 0], trace=True).trace[-1].branch == "no-charge"
    assert cr.rank(g, [-1, 0, 0, 0], trace=True).trace[-1].branch == "no-charge"
    g2 = bowtie()
    assert cr.rank(g2, [2, 0, 0, 0, 0], trace=True).trace[-1].branch == "mirror"
    assert cr.rank(g2, [1, 0, 0, 0, 0], trace=True).trace[-1].branch == "path-dp"


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
    # degree 0 and 2g - 2 close before the first step, by the no-charge test
    # over f or over K - f.  Half the divisors are 0 or K moved by a random
    # firing, so the test gives both verdicts in each regime.
    rng = random.Random(66)
    for regime in ("no-charge", "mirror"):
        verdicts = set()
        hits = 0
        while hits < 75:
            g = random_cactus(rng, max_n=24, max_genus=8, max_cycle_len=5)
            gn = cr.genus(g)
            if gn < 6:
                continue
            base = [0] * g.n if regime == "no-charge" else cr.canonical_divisor(g)
            if rng.random() < 0.5:
                x = [rng.randint(-2, 2) for _ in range(g.n)]
                f = list(apply_firing(g, base, x))
            else:
                f = [rng.randint(-2, 2) for _ in range(g.n)]
                while sum(f) != sum(base):
                    f[rng.randrange(g.n)] += 1 if sum(f) < sum(base) else -1
            res = cr.rank(g, f, trace=True)
            assert res.trace[-1].branch == regime, (g.edges, tuple(f))
            assert res.rank == naive_rank(g, f), (g.edges, tuple(f))
            verdicts.add(res.rank - (0 if regime == "no-charge" else gn - 1))
            hits += 1
        assert verdicts == {0, -1}, regime


def test_funnel_reads_k_minus_f_without_building_it():
    # sign -1 hands each block's share of K down at its attachment; block by
    # block, the residues match those of K - f funnelled as chips.  Half the
    # divisors are K moved by a random firing, whose residues all vanish.
    rng = random.Random(1603)
    verdicts = set()
    for _ in range(300):
        g = random_cactus(rng, max_n=30, max_genus=8, max_cycle_len=6)
        k = cr.canonical_divisor(g)
        if rng.random() < 0.5:
            f = apply_firing(g, k, [rng.randint(-2, 2) for _ in range(g.n)])
        else:
            f = random_divisor(rng, g.n)
        blocks = _scan(g)
        assert list(blocks) == list(blocks)
        mirrored = list(_funnel(blocks, f, -1))
        assert mirrored == list(_funnel(_scan(g), k - f, 1)), (g.edges, tuple(f))
        verdicts.add(any(res for *_, res in mirrored))
    assert verdicts == {False, True}


def test_rank_grows_one_tree_per_call(monkeypatch):
    # both no-charge tests and the path DP read the one scan that rank
    # makes, and the graph keeps its tree, so an untraced and a traced call
    # on one graph grow one spanning tree together, at every degree
    grown = []
    tree = graph._tree

    def counted(g):
        grown.append(g)
        return tree(g)

    monkeypatch.setattr(graph, "_tree", counted)
    for seed in range(6):
        for deg in (-1, 0, 1, 11, 21, 22, 23):  # g = 12: g - 1, 2g - 3, 2g - 2, 2g - 1
            g, f = cr.generate(cr.GeneratorParams(
                vertices=60, cycles=12, max_cycle_len=5, divisor_degree=deg, seed=seed))
            assert g.num_edges - g.n + 1 == 12
            grown.clear()
            want = cr.rank(g, f, trace=False).rank
            assert cr.rank(g, f, trace=True).rank == want
            assert len(grown) == 1 and grown[0] is g, (seed, deg, grown)


def test_parse_then_rank_grows_one_tree(monkeypatch):
    # parse_string checks connectivity by growing the tree with its cycle
    # claims, and keeps it on the graph for the block scan that rank runs
    g, f = cr.generate(cr.GeneratorParams(
        vertices=4096, cycles=512, max_cycle_len=8, divisor_degree=1022, seed=3))
    text = cr.serialize(g, f)
    want = cr.rank(g, f).rank
    grown = []
    tree = graph._tree

    def counted(g):
        grown.append(g)
        return tree(g)

    monkeypatch.setattr(graph, "_tree", counted)
    h, f = cr.parse_string(text)
    assert cr.rank(h, f).rank == want
    assert len(grown) == 1 and grown[0] is h
    # on a graph that is not a cactus the same tree, grown to its end,
    # answers the connectivity check and names the edge on a second cycle
    # to every scan
    grown.clear()
    h, f = cr.parse_string(text.replace("\nd ", "\ne 0 5\ne 0 5\nd ", 1))
    assert len(grown) == 1 and grown[0] is h and h.is_connected()
    for _ in range(2):
        with pytest.raises(cr.NotCactusError, match=r"edge \(0, 5\)") as raised:
            cr.rank(h, f)
        assert raised.value.edge == (0, 5)
    assert len(grown) == 1


def _random_states(rng, k, size):
    # residue states with -inf holes, as a cycle's per-residue lists hold
    states = {}
    for r in rng.sample(range(k), rng.randint(1, k)):
        states[r] = [rng.choice((_UNREACHABLE, rng.randint(0, 12)))
                     for _ in range(rng.randint(1, size))]
    return states


def test_product_and_split_are_inverse():
    # every finite entry of _product is the (max,+) of its operands, as a
    # plain loop over every pair computes it, and _split takes it apart into
    # q's entry with the fewest charges that rebuilds it
    rng = random.Random(1901)
    for _ in range(400):
        k = rng.randint(1, 8)
        j = rng.randrange(k)
        size = rng.randint(1, 9)
        states = _random_states(rng, k, size)
        q = [rng.randint(0, 12) for _ in range(rng.randint(1, size))]
        want: dict = {}
        for r, xs in states.items():
            for c1, x in enumerate(xs):
                for c2, lost in enumerate(q):
                    if c1 + c2 < size and x != _UNREACHABLE:
                        row = want.setdefault((r - j * lost) % k, {})
                        row[c1 + c2] = max(row.get(c1 + c2, _UNREACHABLE), x + lost)
        out = _product(states, q, j, k, size)
        finite = {r: {c: v for c, v in enumerate(xs) if v != _UNREACHABLE}
                  for r, xs in out.items()}
        assert {r: row for r, row in finite.items() if row} == want
        for res, row in finite.items():
            for c, lost in row.items():
                c2, x = _split(states, q, j, k, res, c, lost)
                assert x == q[c2]
                fits = [i for i, y in enumerate(q)
                        if 0 <= c - i < len(states.get((res + j * y) % k, ()))
                        and states[(res + j * y) % k][c - i] + y == lost]
                assert c2 == fits[0]


def test_ring_of_one_is_the_vertex_merge():
    # k = 1 is the plain (max,+) merge of two lists without holes, capped
    # at size entries
    rng = random.Random(1902)
    for _ in range(300):
        size = rng.randint(1, 12)
        a = [rng.randint(0, 20) for _ in range(rng.randint(1, size))]
        b = [rng.randint(0, 20) for _ in range(rng.randint(1, size))]
        want = [_UNREACHABLE] * min(len(a) + len(b) - 1, size)
        for i, x in enumerate(a):
            for t, y in enumerate(b):
                if i + t < size:
                    want[i + t] = max(want[i + t], x + y)
        assert _product({0: a}, b, 0, 1, size) == {0: want}


class _CountedReads(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_degree_0_and_mirror_stop_at_the_first_bad_cycle():
    # at degree 0 and 2g - 2 the no-charge test reads f (or K - f) only up
    # to the first bad cycle; the scan has checked the whole graph before
    # the first block, which keeps the 2^20 mirror call to the parse, the
    # scan's tree and a few blocks; a pass over every block would
    # read f once per vertex.  At g - 1 neither test can close, and each
    # gives up at its second good cycle: the path DP's one read per vertex
    # and a little more, where two full tests would read f about 3n times
    n = 1 << 10
    for seed in range(3):
        for deg, most in ((0, n // 8), (2 * (n // 8) - 2, n // 8), (n // 8 - 1, 1.5 * n)):
            g, f = cr.generate(cr.GeneratorParams(
                vertices=n, cycles=n // 8, max_cycle_len=8, divisor_degree=deg, seed=seed))
            counted = _CountedReads(f)
            assert cr.rank(g, counted) == cr.rank(g, f)
            assert counted.reads < most, (seed, deg, counted.reads)


def test_ladder_agrees_with_the_path_dp():
    # inside the band (0, 2g - 2) a traced call takes the path DP, while an
    # untraced one first runs the no-charge tests over f and K - f, which
    # close at -1 or at D - g, or give up.  Every degree of the band, with
    # each outcome many times over
    rng = random.Random(2203)
    seen = {"-1": 0, "D - g": 0, "between": 0}
    for _ in range(120):
        g = random_cactus(rng, max_n=60, max_genus=16, max_cycle_len=rng.choice((2, 3, 6)))
        gn = cr.genus(g)
        for deg in range(1, 2 * gn - 2):
            f = [rng.randint(-2, 3) for _ in range(g.n)]
            while sum(f) != deg:
                f[rng.randrange(g.n)] += 1 if sum(f) < deg else -1
            r = rk(g, f)
            assert r == cr.rank(g, f, trace=True).rank, (g.edges, f)
            seen["-1" if r == -1 else "D - g" if r == deg - gn else "between"] += 1
    assert min(seen.values()) >= 100, seen


# a triangle at vertex 0 comes first in the scan, then the part that is not
# a cactus: a triple edge; K4 with a pendant path; a second bowtie apart
# from the first
_TRIANGLE = [(0, 1), (1, 2), (2, 0)]
_BOWTIE = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
NOT_CONNECTED_CACTI = [
    (cr.NotCactusError, cr.Multigraph(4, _TRIANGLE + [(0, 3)] * 3)),
    (cr.NotCactusError, cr.Multigraph(8, _TRIANGLE + [
        (0, 3), (0, 4), (0, 5), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7)])),
    (cr.DisconnectedGraphError,
     cr.Multigraph(10, _BOWTIE + [(u + 5, v + 5) for u, v in _BOWTIE])),
]


def test_every_rung_raises_on_a_graph_that_is_not_a_connected_cactus():
    # every degree, below 0, 0, in the band, 2g - 2 and above it (g read as
    # m - n + 1), raises as the block scan does, traced or not, also when a
    # bad cycle or the divisor's degree alone already decides the answer
    rng = random.Random(1601)
    for error, g in NOT_CONNECTED_CACTI:
        top = 2 * (g.num_edges - g.n + 1) - 2
        assert top >= 2
        for deg in (-1, 0, 1, top - 1, top, top + 1):
            for _ in range(20):
                f = [rng.randint(-2, 2) for _ in range(g.n)]
                while sum(f) != deg:
                    f[rng.randrange(g.n)] += 1 if sum(f) < deg else -1
                for trace in (False, True):
                    with pytest.raises(error):
                        cr.rank(g, f, trace=trace)
