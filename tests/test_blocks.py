import random

import pytest

import cactusrank as cr
from cactusrank import Block, BesStep, BlockEliminationScheme, BlockKind

from .helpers import (
    _block_edges,
    block_decomposition,
    bowtie,
    cycle_graph,
    edge_orders,
    grows_late,
    k4,
    path_graph,
    random_cactus,
    stacked_triangles,
    validate_bes,
)


def triangle_with_pendant():
    return cr.Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def test_is_cactus_classification():
    assert cr.is_cactus(cycle_graph(4))
    assert cr.is_cactus(cycle_graph(2))
    assert cr.is_cactus(path_graph(6))
    assert cr.is_cactus(bowtie())
    assert cr.is_cactus(cr.Multigraph(1, []))
    assert not cr.is_cactus(k4())
    # three parallel edges: the pair of endpoints lies on two 2-cycles
    assert not cr.is_cactus(cr.Multigraph(2, [(0, 1), (0, 1), (0, 1)]))


def test_not_cactus_error_carries_edge():
    g = k4()
    with pytest.raises(cr.NotCactusError) as exc:
        cr.build_bes(g)
    u, v = exc.value.edge
    assert g.adjacency[u].get(v, 0) >= 1


def test_disconnected_raises():
    g = cr.Multigraph(3, [(0, 1)])
    with pytest.raises(cr.DisconnectedGraphError):
        cr.build_bes(g)


def test_build_bes_triangle_with_pendant():
    scheme = cr.build_bes(triangle_with_pendant())
    assert scheme.root == 0
    assert [s.block.kind for s in scheme.steps] == [BlockKind.EDGE, BlockKind.CYCLE]
    assert scheme.steps[0].block.vertices == (2, 3)
    assert scheme.steps[0].attach == 2
    assert scheme.steps[1].block.vertices == (0, 1, 2)
    assert scheme.steps[1].attach == 0


def test_build_bes_single_vertex_and_single_blocks():
    assert cr.build_bes(cr.Multigraph(1, [])).steps == ()
    s = cr.build_bes(cycle_graph(2))
    assert len(s.steps) == 1
    assert s.steps[0].block == Block(BlockKind.CYCLE, (0, 1))
    s = cr.build_bes(cycle_graph(5))
    assert len(s.steps) == 1
    assert s.steps[0].block.kind is BlockKind.CYCLE
    assert s.steps[0].attach == 0


def test_build_bes_deterministic():
    g = random_cactus(random.Random(5), max_n=10)
    assert cr.build_bes(g) == cr.build_bes(g)
    assert cr.build_bes(g) == cr.build_bes(cr.Multigraph(g.n, list(g.edges)))


def test_block_decomposition_triangle_with_pendant():
    dec = block_decomposition(triangle_with_pendant())
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == frozenset({2})
    # edges are (0,1),(1,2),(2,0),(2,3); the first three form block 1
    assert dec.block_of_edge == (1, 1, 1, 0)


def test_block_decomposition_counts():
    rng = random.Random(99)
    for _ in range(100):
        g = random_cactus(rng)
        dec = block_decomposition(g)
        n_cyc = sum(1 for b in dec.blocks if b.kind is BlockKind.CYCLE)
        assert n_cyc == cr.genus(g)
        # every edge is assigned to a block of which both ends are members
        for eid, (u, v) in enumerate(g.edges):
            vs = dec.blocks[dec.block_of_edge[eid]].vertices
            assert u in vs and v in vs
        # two blocks share at most one vertex
        for i in range(len(dec.blocks)):
            for j in range(i + 1, len(dec.blocks)):
                shared = set(dec.blocks[i].vertices) & set(dec.blocks[j].vertices)
                assert len(shared) <= 1


def test_cycle_blocks_are_rings():
    rng = random.Random(3)
    for _ in range(60):
        g = random_cactus(rng)
        adj = g.adjacency
        for b in block_decomposition(g).blocks:
            if b.kind is BlockKind.EDGE:
                assert len(b.vertices) == 2
                continue
            vs = b.vertices
            k = len(vs)
            if k == 2:
                assert adj[vs[0]][vs[1]] == 2
            else:
                for i in range(k):
                    assert adj[vs[i]][vs[(i + 1) % k]] == 1


def test_validate_bes_accepts_built_schemes():
    rng = random.Random(11)
    for _ in range(150):
        g = random_cactus(rng)
        assert validate_bes(g, cr.build_bes(g))


def test_validate_bes_rejects_wrong_order():
    g = stacked_triangles(2)
    scheme = cr.build_bes(g)
    swapped = BlockEliminationScheme(tuple(reversed(scheme.steps)), scheme.root)
    assert not validate_bes(g, swapped)


def test_validate_bes_rejects_wrong_graph_and_root():
    g = triangle_with_pendant()
    scheme = cr.build_bes(g)
    assert not validate_bes(k4(), scheme)
    assert not validate_bes(g, BlockEliminationScheme(scheme.steps, root=1))
    missing = BlockEliminationScheme(scheme.steps[:1], scheme.root)
    assert not validate_bes(g, missing)


def test_validate_bes_rejects_tampered_block():
    g = triangle_with_pendant()
    scheme = cr.build_bes(g)
    bad = (
        BesStep(Block(BlockKind.EDGE, (1, 3)), 1),  # not an edge of g
        scheme.steps[1],
    )
    assert not validate_bes(g, BlockEliminationScheme(bad, scheme.root))
    edge, cyc = BlockKind.EDGE, BlockKind.CYCLE
    pendant = BesStep(Block(edge, (2, 3)), 2)
    triangle = BesStep(Block(cyc, (0, 1, 2)), 0)
    assert scheme.steps == (pendant, triangle)
    double = cr.Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    tail = BesStep(Block(edge, (1, 2)), 1)
    assert validate_bes(double, BlockEliminationScheme(
        (tail, BesStep(Block(cyc, (0, 1)), 0)), 0))
    tampered = [
        # a 2-cycle listed as an edge
        (double, (tail, BesStep(Block(edge, (0, 1)), 0))),
        # a bridge listed as a 2-cycle
        (g, (BesStep(Block(cyc, (2, 3)), 2), triangle)),
        # an attachment outside the block
        (g, (BesStep(Block(edge, (2, 3)), 0), triangle)),
        # a repeated vertex
        (g, (pendant, BesStep(Block(cyc, (0, 1, 2, 0)), 0))),
        # a cycle of one vertex
        (g, (pendant, BesStep(Block(cyc, (0,)), 0), triangle)),
        # an edge block with three vertices
        (g, (pendant, BesStep(Block(edge, (0, 1, 2)), 0))),
        # a non-attachment vertex with an edge outside the block
        (g, (BesStep(Block(edge, (2, 3)), 3), triangle)),
        (g, (triangle, pendant)),
        # a cycle listed without one of its sides
        (path_graph(3), (BesStep(Block(cyc, (0, 1, 2)), 0),)),
        (cycle_graph(4), (BesStep(Block(cyc, (0, 1, 3, 2)), 0),)),
    ]
    for graph, steps in tampered:
        assert not validate_bes(graph, BlockEliminationScheme(steps, 0)), steps


def test_validate_bes_rejects_bad_vertices_and_steps():
    # False, never an exception, for a vertex that is not a live vertex of
    # g and for a step that is not a BesStep
    g = triangle_with_pendant()
    edge = BlockKind.EDGE
    pendant = BesStep(Block(edge, (2, 3)), 2)
    triangle = BesStep(Block(BlockKind.CYCLE, (0, 1, 2)), 0)
    assert validate_bes(g, BlockEliminationScheme((pendant, triangle), 0))
    for bad in ((2, 4), (2, -1), (2, 3.0), (2, "3"), (2, None)):
        steps = (BesStep(Block(edge, bad), 2), triangle)
        assert not validate_bes(g, BlockEliminationScheme(steps, 0)), bad
    # 3 was removed with the pendant edge
    again = BesStep(Block(edge, (3, 2)), 2)
    assert not validate_bes(g, BlockEliminationScheme((pendant, again, triangle), 0))
    bare = (tuple(pendant), triangle)
    assert not validate_bes(g, BlockEliminationScheme(bare, 0))


def test_validate_bes_accepts_rotated_cycle_listing():
    # a cycle block may be listed starting anywhere along the ring
    g = triangle_with_pendant()
    s0 = cr.build_bes(g).steps[0]
    rotated = BesStep(Block(BlockKind.CYCLE, (1, 2, 0)), 0)
    scheme = BlockEliminationScheme((s0, rotated), 0)
    assert validate_bes(g, scheme)


def test_validate_bes_order_freedom_at_shared_attach():
    g = bowtie()
    scheme = cr.build_bes(g)
    assert len(scheme.steps) == 2
    flipped = BlockEliminationScheme(tuple(reversed(scheme.steps)), scheme.root)
    assert validate_bes(g, scheme)
    assert validate_bes(g, flipped)


def test_elimination_order_is_leaf_first():
    # once a vertex is eliminated it never appears in a later block
    rng = random.Random(21)
    for _ in range(80):
        g = random_cactus(rng)
        gone = set()
        for step in cr.build_bes(g).steps:
            assert not (set(step.block.vertices) & gone)
            gone.update(v for v in step.block.vertices if v != step.attach)


def test_step_count_matches_block_count():
    rng = random.Random(34)
    for _ in range(80):
        g = random_cactus(rng)
        assert len(cr.build_bes(g).steps) == len(block_decomposition(g).blocks)


def _block_set(blocks):
    return sorted((b.kind.value, sorted(_block_edges(*b))) for b in blocks)


def test_scan_agrees_over_edge_orders():
    # random_cactus and generate write their edges in grown order, where each
    # edge has an end reached before it.  Shuffled or reversed, the scan
    # meets an edge with neither end reached and grows the rest of its tree
    # over the half-edge lists; the blocks, the scheme's validity and the
    # ranks must not change
    rng = random.Random(2710)
    grown_late = 0
    for _ in range(300):
        g = random_cactus(rng, max_n=40, max_genus=12, max_cycle_len=rng.choice((2, 3, 6)))
        want = _block_set(block_decomposition(g).blocks)
        gn = cr.genus(g)
        divisors = []
        for deg in (-1, 0, gn - 1, 2 * gn - 2):
            f = [rng.randint(-2, 3) for _ in range(g.n)]
            while sum(f) != deg:
                f[rng.randrange(g.n)] += 1 if sum(f) < deg else -1
            divisors.append(f)
        ranks = [cr.rank(g, f).rank for f in divisors]
        for h in edge_orders(rng, g):
            assert _block_set(block_decomposition(h).blocks) == want, h.edges
            assert validate_bes(h, cr.build_bes(h)), h.edges
            assert [cr.rank(h, f).rank for f in divisors] == ranks, h.edges
            grown_late += grows_late(h)
    assert grown_late >= 450, grown_late
    not_connected_cacti = (
        (cr.NotCactusError, k4()),
        (cr.NotCactusError, cr.Multigraph(2, [(0, 1)] * 3)),
        (cr.DisconnectedGraphError, cr.Multigraph(10, [
            (0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
            (5, 6), (6, 7), (7, 5), (5, 8), (8, 9), (9, 5)])),
    )
    for error, g in not_connected_cacti:
        for _ in range(20):
            for h in edge_orders(rng, g):
                with pytest.raises(error):
                    cr.build_bes(h)
