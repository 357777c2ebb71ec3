import itertools
import random

import pytest

import cactusrank as cr
from cactusrank import Block, BlockKind

from .helpers import (
    Goodness,
    apply_firing,
    contract_divisor,
    cycle_goodness,
    cycle_graph,
    cycle_rank,
    path_graph,
    star_graph,
    tree_rank,
    zero_part,
)


def goodness_on_graph(k: int, f) -> Goodness:
    """Goodness of a degree-0 divisor on cycle_graph(k), taking vertex 0 as
    the attachment (so the attachment-last vector is f[1:] + f[:1])."""
    return cycle_goodness(list(f[1:]) + [f[0]])


def test_goodness_examples():
    assert cycle_goodness([0, 0, 0, 0]) is Goodness.GOOD
    assert cycle_goodness([1, -2, 1]) is Goodness.GOOD
    assert cycle_goodness([1, -1, 0]) is Goodness.BAD
    assert cycle_goodness([0, 0]) is Goodness.GOOD
    assert cycle_goodness([1, -1]) is Goodness.BAD
    assert cycle_goodness([2, -2]) is Goodness.GOOD


def test_good_example_is_equivalent_to_zero():
    # (1,-2,1) on the triangle: vertex 1 borrows once and the chips cancel
    g = cycle_graph(3)
    assert tuple(apply_firing(g, [1, -2, 1], [0, 1, 0])) == (0, 0, 0)
    assert cr.q_reduce(g, [1, -2, 1], 0).values == (0, 0, 0)


def test_bad_example_not_equivalent_to_zero():
    g = cycle_graph(3)
    assert not cr.is_l_effective(g, [1, -1, 0])


def test_goodness_argument_errors():
    with pytest.raises(cr.GraphError):
        cycle_goodness([5])
    with pytest.raises(cr.GraphError):
        cycle_goodness([1, 0, 0])


def test_cycle_rank_rejects_short_cycles():
    # a cycle has at least two vertices, whatever the divisor's degree
    for f in ([], [0], [5], [-3]):
        with pytest.raises(cr.GraphError, match="cycle length must be at least 2"):
            cycle_rank(f)


def test_goodness_matches_oracle_exhaustively():
    # every degree-0 divisor with entries in [-2, 2] on C_2..C_5
    for k in range(2, 6):
        g = cycle_graph(k)
        for f in itertools.product(range(-2, 3), repeat=k):
            if sum(f) != 0:
                continue
            want = cr.is_l_effective(g, f)
            got = goodness_on_graph(k, f) is Goodness.GOOD
            assert got == want, (k, f)


def test_goodness_rotation_and_reflection_invariant():
    rng = random.Random(17)
    for k in range(2, 9):
        for _ in range(50):
            f = [rng.randint(-3, 3) for _ in range(k - 1)]
            f.append(-sum(f))
            base = cycle_goodness(f)
            for r in range(k):
                rot = f[r:] + f[:r]
                assert cycle_goodness(rot) is base
                assert cycle_goodness(rot[::-1]) is base


def test_cycle_rank_cases():
    assert cycle_rank([-1, 0, 0]) == -1
    assert cycle_rank([1, -2, 1]) == 0
    assert cycle_rank([1, -1, 0]) == -1
    assert cycle_rank([3, 0, 0, 0, 0]) == 2
    assert cycle_rank([1, 0]) == 0
    assert cycle_rank([2, 2]) == 3


def test_cycle_rank_matches_oracle():
    rng = random.Random(23)
    for k in range(2, 9):
        g = cycle_graph(k)
        for _ in range(60):
            f = [rng.randint(-3, 3) for _ in range(k)]
            while sum(f) > 6:
                f[rng.randrange(k)] -= 1
            # cycle_rank reads positions with the attachment last; vertex 0
            # of cycle_graph is the attachment
            assert cycle_rank(list(f[1:]) + [f[0]]) == cr.oracle_rank(g, f), (k, f)


def test_tree_rank():
    g = path_graph(3)
    assert tree_rank(g, [1, 0, 2]) == 3
    assert tree_rank(g, [0, 0, 0]) == 0
    assert tree_rank(g, [-1, 0, 0]) == -1
    assert tree_rank(star_graph(5), [-2, 1, 1, 1, 0]) == 1


def test_tree_rank_rejects_non_trees():
    with pytest.raises(cr.GraphError):
        tree_rank(cycle_graph(3), [0, 0, 0])
    with pytest.raises(cr.GraphError):
        tree_rank(cr.Multigraph(3, [(0, 1)]), [0, 0, 0])
    with pytest.raises(cr.GraphError):
        tree_rank(path_graph(3), [0, 0])


def test_tree_rank_matches_oracle():
    rng = random.Random(29)
    from .helpers import random_tree

    for _ in range(80):
        g = random_tree(rng, rng.randint(1, 8))
        f = [rng.randint(-3, 3) for _ in range(g.n)]
        while sum(f) > 6:
            f[rng.randrange(g.n)] -= 1
        assert tree_rank(g, f) == cr.oracle_rank(g, f)


def triangle_with_pendant():
    return cr.Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])


def test_contract_divisor_edge_block():
    g = triangle_with_pendant()
    block = Block(BlockKind.EDGE, (2, 3))
    out = contract_divisor(g, [0, 0, 1, 2], block, 2)
    assert tuple(out) == (0, 0, 3)
    assert out.degree == 3


def test_contract_divisor_cycle_block():
    g = cycle_graph(3)
    block = Block(BlockKind.CYCLE, (0, 1, 2))
    assert tuple(contract_divisor(g, [5, -1, 9], block, 0)) == (13,)
    assert tuple(contract_divisor(g, [5, -1, 9], block, 2)) == (13,)


def test_zero_part():
    g = cycle_graph(3)
    block = Block(BlockKind.CYCLE, (0, 1, 2))
    zp = zero_part(g, [5, -1, 9], block, 2)
    assert tuple(zp) == (5, -1, -4)
    assert zp.degree == 0
    zp = zero_part(g, [5, -1, 9], block, 0)
    assert tuple(zp) == (-8, -1, 9)


def test_zero_part_trivial_when_block_carries_nothing():
    g = triangle_with_pendant()
    block = Block(BlockKind.EDGE, (2, 3))
    assert tuple(zero_part(g, [4, 1, 7, 0], block, 2)) == (0, 0)


def test_contract_and_zero_part_recompose():
    g = triangle_with_pendant()
    f = [3, -2, 1, 4]
    block = Block(BlockKind.EDGE, (2, 3))
    contracted = contract_divisor(g, f, block, 2)
    zp = zero_part(g, f, block, 2)
    assert contracted.degree == sum(f)
    assert zp.degree == 0
    # glue back: attachment value of the contraction plus the zero part's
    # attachment entry recovers f at the attachment; off it they match f
    assert contracted[2] + zp[0] == f[2]
    assert zp[1] == f[3]


def test_block_operators_reject_non_free_blocks():
    g = triangle_with_pendant()
    cyc = Block(BlockKind.CYCLE, (0, 1, 2))
    # vertex 2 still carries the pendant edge, so the triangle is not free
    with pytest.raises(cr.GraphError):
        contract_divisor(g, [0, 0, 0, 0], cyc, 0)
    with pytest.raises(cr.GraphError):
        zero_part(g, [0, 0, 0, 0], cyc, 0)
    with pytest.raises(cr.GraphError):
        contract_divisor(g, [0, 0, 0, 0], Block(BlockKind.EDGE, (2, 3)), 0)
    with pytest.raises(cr.GraphError):
        zero_part(g, [0, 0, 0], Block(BlockKind.EDGE, (2, 3)), 2)
    edge, cyc = BlockKind.EDGE, BlockKind.CYCLE
    cases = [
        # a 2-cycle listed as an edge
        (cycle_graph(2), Block(edge, (0, 1)), 0),
        # a bridge listed as a 2-cycle
        (path_graph(2), Block(cyc, (0, 1)), 0),
        # an attachment outside the block
        (path_graph(3), Block(edge, (1, 2)), 0),
        # a repeated vertex
        (cycle_graph(3), Block(cyc, (0, 1, 2, 0)), 0),
        # a cycle of one vertex
        (path_graph(1), Block(cyc, (0,)), 0),
        # an edge block with three vertices
        (path_graph(3), Block(edge, (0, 1, 2)), 0),
        # a non-attachment vertex with an edge outside the block
        (g, Block(edge, (2, 3)), 3),
        # a cycle listed without one of its sides
        (path_graph(3), Block(cyc, (0, 1, 2)), 0),
        (cycle_graph(4), Block(cyc, (0, 1, 3, 2)), 0),
    ]
    for graph, block, attach in cases:
        for op in (contract_divisor, zero_part):
            with pytest.raises(cr.GraphError):
                op(graph, [0] * graph.n, block, attach)
    # the listings these cases tamper with are free
    assert contract_divisor(cycle_graph(2), [1, 2], Block(cyc, (0, 1)), 0) == (3,)
    assert contract_divisor(path_graph(2), [1, 2], Block(edge, (0, 1)), 0) == (3,)
    assert contract_divisor(cycle_graph(4), [1, 2, 3, 4], Block(cyc, (0, 1, 2, 3)), 0) == (10,)


def test_block_operators_reject_non_integer_vertices():
    # a vertex id that is not an int is a GraphError, as in validate_bes
    g = path_graph(2)
    for vs in ((0, 1.0), (0, "1"), (0, None)):
        for op in (contract_divisor, zero_part):
            with pytest.raises(cr.GraphError):
                op(g, [0, 0], Block(BlockKind.EDGE, vs), 0)
