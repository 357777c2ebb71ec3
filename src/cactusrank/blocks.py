"""Block structure of cactus graphs.

A cactus is a connected graph in which every block (maximal subgraph with no
cut vertex) is a single edge or a simple cycle; equivalently, no edge lies on
two distinct simple cycles.  One depth-first scan recognizes the property,
extracts every block with its cyclic vertex order, and yields the blocks in
an order that is already a valid elimination scheme: each block is
contracted into its attachment vertex only after everything hanging below
it is gone.

The scan, engine._scan, lives beside its main consumer, so that a rank
call does not load this module.  It works on the graph's linked half-edge
arrays and yields each block as it finishes, as a kind and a tuple or list
of vertices.  The public object API here builds its records from that
stream; the rank engine folds each block in as it arrives, so no scheme is
stored.  A graph that is not a cactus raises where the scan finds a second
cycle through an edge, and a disconnected one once the scan is exhausted: a
consumer must read the stream to its end.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .engine import _scan
from .graph import Multigraph, NotCactusError


class BlockKind(enum.Enum):
    EDGE = "edge"
    CYCLE = "cycle"


class Block(NamedTuple):
    """A bridge edge or a simple cycle.

    For a cycle, vertices are listed in cyclic order (consecutive entries are
    adjacent, and the last wraps to the first).  A parallel-edge pair is a
    cycle of length 2.
    """

    kind: BlockKind
    vertices: tuple[int, ...]


class BesStep(NamedTuple):
    block: Block
    attach: int


class BlockEliminationScheme(NamedTuple):
    """Ordered contractions: replaying steps shrinks the graph to root alone.

    At each step the block must be free in the current graph, meaning every
    vertex of the block except the attachment has all of its incident edges
    inside the block.
    """

    steps: tuple[BesStep, ...]
    root: int


class BlockDecomposition(NamedTuple):
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    # block_of_edge[i] = index into blocks for edge id i (position in g.edges)
    block_of_edge: tuple[int, ...]


def is_cactus(g: Multigraph) -> bool:
    """True iff every block of g is an edge or a simple cycle.  O(n + m)."""
    try:
        for _ in _scan(g):
            pass
    except NotCactusError:
        return False
    return True


def _blocks(g: Multigraph) -> tuple[Block, ...]:
    kinds = (BlockKind.EDGE, BlockKind.CYCLE)
    return tuple(Block(kinds[kind], tuple(vs)) for kind, vs in _scan(g))


def block_decomposition(g: Multigraph) -> BlockDecomposition:
    """Blocks, cut vertices, and the edge-to-block map of a cactus."""
    blocks = _blocks(g)
    count = [0] * g.n
    for b in blocks:
        for v in b.vertices:
            count[v] += 1
    pair_to_block = {e: bi for bi, b in enumerate(blocks) for e in _block_edges(*b)}
    boe = tuple(
        pair_to_block[(u, v) if u <= v else (v, u)] for u, v in g.edges
    )
    cuts = frozenset(v for v in range(g.n) if count[v] >= 2)
    return BlockDecomposition(blocks, cuts, boe)


def build_bes(g: Multigraph) -> BlockEliminationScheme:
    """A valid elimination scheme for a cactus, deterministic for a given
    vertex/edge ordering.  Raises NotCactusError otherwise."""
    steps = tuple(BesStep(b, b.vertices[0]) for b in _blocks(g))
    return BlockEliminationScheme(steps, 0)


def _block_edges(kind: BlockKind, vs) -> list:
    """The edges of a block as sorted vertex pairs: a bridge's one edge, the
    parallel pair of a 2-cycle twice, the sides of a longer cycle in ring
    order."""
    ring = vs[1:2] if kind is BlockKind.EDGE else (*vs[1:], vs[0])
    return [(u, v) if u <= v else (v, u) for u, v in zip(vs, ring)]


def _free_block_shape(adj, deg, vs, a: int, kind: BlockKind, edges: list) -> bool:
    """Is (vs, a) a free edge/cycle block of the graph given by adj/deg?
    edges is _block_edges(kind, vs); adj must hold each of them exactly as
    often as it is listed, and every vertex but a must have all of its ends
    inside the block."""
    if a not in vs or len(set(vs)) != len(vs):
        return False
    if len(vs) != 2 if kind is BlockKind.EDGE else len(vs) < 2:
        return False
    count = {}
    inside = dict.fromkeys(vs, 0)
    for e in edges:
        count[e] = count.get(e, 0) + 1
        u, v = e
        inside[u] += 1
        inside[v] += 1
    return (all(adj[u].get(v, 0) == m for (u, v), m in count.items())
            and all(deg[u] == inside[u] for u in vs if u != a))


def validate_bes(g: Multigraph, scheme: BlockEliminationScheme) -> bool:
    """Replay the scheme on g and check every invariant.  Returns False on
    any violation (wrong block, non-free block, leftovers...), never raises.

    A free block's other vertices have no edge left once it is removed, so
    when only the root survives, no edge does (g has no loops)."""
    try:
        n = g.n
        adj = [dict(d) for d in g.adjacency]
        deg = list(g.degrees)
        alive = bytearray([1]) * n
        for step in scheme.steps:
            kind = step.block.kind
            vs = step.block.vertices
            a = step.attach
            if not all(isinstance(v, int) and 0 <= v < n and alive[v] for v in vs):
                return False
            edges = _block_edges(kind, vs)
            if not _free_block_shape(adj, deg, vs, a, kind, edges):
                return False
            for u, v in edges:
                adj[u][v] -= 1
                adj[v][u] -= 1
                deg[u] -= 1
                deg[v] -= 1
            for v in vs:
                if v != a:
                    alive[v] = 0
        survivors = [v for v in range(n) if alive[v]]
        return survivors == [scheme.root]
    except Exception:
        return False
