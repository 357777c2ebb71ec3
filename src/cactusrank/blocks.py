"""Block structure of cactus graphs.

A cactus is a connected graph in which every block (maximal subgraph with no
cut vertex) is a single edge or a simple cycle; equivalently, no edge lies on
two distinct simple cycles.  One depth-first scan recognizes the property,
extracts every block with its cyclic vertex order, and emits the blocks in an
order that is already a valid elimination scheme: each block is contracted
into its attachment vertex only after everything hanging below it is gone.

The scan works on the graph's linked half-edge arrays and is shared by the
public object API here and by the rank engine (which consumes the raw arrays
directly to avoid building a million small objects).
"""

from __future__ import annotations

import enum
from array import array
from itertools import accumulate
from typing import NamedTuple

from .graph import DisconnectedGraphError, Multigraph, NotCactusError


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


class RawScheme(NamedTuple):
    """Flat elimination order: block t has kind kinds[t] (0 edge, 1 cycle)
    and vertices verts[offs[t]:offs[t+1]] with the attachment first.  offs
    and verts are C-int arrays, so the scheme holds no int object per block
    or vertex."""

    kinds: bytes
    offs: array
    verts: array
    root: int


def _raw_scheme(g: Multigraph) -> RawScheme:
    """One iterative DFS from vertex 0 producing blocks in elimination order.

    A visit pushes a marker (-1) and then every unvisited neighbor, the first
    neighbor in edge order last, so vertices are visited in the order of the
    recursive DFS; an entry for a vertex visited meanwhile is dropped when it
    pops.  path holds the vertices being visited, root first above a -1
    that stands for the root's parent: a vertex's parent is the top of path
    when it is visited, and its marker pops it off path once its subtree is
    done.  At a visit, every visited neighbor other
    than one copy of the parent edge is an ancestor on path, and that back
    edge closes a cycle with the stretch of path above it.  The cycle claims
    the stretch's tree edges; an edge claimed twice lies on two cycles.
    Tree edges left unclaimed are bridges.

    Each block has a child: the bridge's lower end, or the cycle's vertex
    after its attachment.  Everything hanging below a block lies in its
    child's subtree, so emitting each block when its child's marker pops is
    an elimination order.
    """
    n = g.n
    head, nxt = g._half_edges()
    ends = g._ends
    seen = bytearray(n)
    # 0: the parent edge is a bridge; 1: a cycle claims it; 2: also the
    # cycle's child, whose cycle waits in cycles.  The root has no parent
    # edge and emits nothing.
    claimed = bytearray(n)
    claimed[0] = 1
    cycles: dict = {}
    verts = array("i")
    add_vert = verts.append
    sizes = array("i")  # per block: its length, negated for an edge
    add_size = sizes.append
    path = [-1]
    enter, leave = path.append, path.pop
    stack = [0]
    push, pop = stack.append, stack.pop
    while stack:
        x = pop()
        if x < 0:
            x = leave()
            c = claimed[x]
            if not c:
                add_vert(path[-1])
                add_vert(x)
                add_size(-2)
            elif c == 2:
                chain = cycles.pop(x)
                verts.fromlist(chain)
                add_size(len(chain))
            continue
        if seen[x]:
            continue
        seen[x] = 1
        px = path[-1]
        enter(x)
        push(-1)
        skip_parent = True
        h = head[x]
        while h >= 0:
            y = ends[h ^ 1]
            h = nxt[h]
            if not seen[y]:
                push(y)
            elif y == px and skip_parent:
                skip_parent = False
            else:
                i = len(path) - 2
                while path[i] != y:
                    i -= 1
                chain = path[i:]
                for t in chain[1:]:
                    if claimed[t]:
                        raise NotCactusError((x, y))
                    claimed[t] = 1
                claimed[chain[1]] = 2
                cycles[chain[1]] = chain
    reached = n - seen.count(0)
    if reached != n:
        raise DisconnectedGraphError(
            f"graph is disconnected ({reached} of {n} vertices reachable)"
        )
    kinds = bytes(map((0).__lt__, sizes))
    offs = array("i", accumulate(map(abs, sizes), initial=0))
    return RawScheme(kinds, offs, verts, 0)


def is_cactus(g: Multigraph) -> bool:
    """True iff every block of g is an edge or a simple cycle.  O(n + m)."""
    try:
        _raw_scheme(g)
    except NotCactusError:
        return False
    return True


def _wrap_blocks(raw: RawScheme) -> tuple[Block, ...]:
    out = []
    offs, verts, kinds = raw.offs, raw.verts, raw.kinds
    for t in range(len(kinds)):
        vs = tuple(verts[offs[t]:offs[t + 1]])
        out.append(Block(BlockKind.CYCLE if kinds[t] else BlockKind.EDGE, vs))
    return tuple(out)


def block_decomposition(g: Multigraph) -> BlockDecomposition:
    """Blocks, cut vertices, and the edge-to-block map of a cactus."""
    blocks = _wrap_blocks(_raw_scheme(g))
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
    raw = _raw_scheme(g)
    blocks = _wrap_blocks(raw)
    steps = tuple(BesStep(b, b.vertices[0]) for b in blocks)
    return BlockEliminationScheme(steps, raw.root)


def _block_edges(kind: BlockKind, vs) -> list:
    """The edges of a block as sorted vertex pairs: a bridge's one edge, the
    parallel pair of a 2-cycle twice, the sides of a longer cycle in ring
    order."""
    ring = vs[1:2] if kind is BlockKind.EDGE else (*vs[1:], vs[0])
    return [(u, v) if u <= v else (v, u) for u, v in zip(vs, ring)]


def _free_block_shape(adj, deg, vs, a: int, kind: BlockKind) -> bool:
    """Is (vs, a) a free edge/cycle block of the graph given by adj/deg?
    adj must hold each of its edges exactly as often as the block lists it,
    and every vertex but a must have all of its ends inside the block."""
    if a not in vs or len(set(vs)) != len(vs):
        return False
    if len(vs) != 2 if kind is BlockKind.EDGE else len(vs) < 2:
        return False
    count = {}
    inside = dict.fromkeys(vs, 0)
    for e in _block_edges(kind, vs):
        count[e] = count.get(e, 0) + 1
        u, v = e
        inside[u] += 1
        inside[v] += 1
    return (all(adj[u].get(v, 0) == m for (u, v), m in count.items())
            and all(deg[u] == inside[u] for u in vs if u != a))


def validate_bes(g: Multigraph, scheme: BlockEliminationScheme) -> bool:
    """Replay the scheme on g and check every invariant.  Returns False on
    any violation (wrong block, non-free block, leftovers...), never raises."""
    try:
        n = g.n
        adj = [dict(d) for d in g.adjacency]
        deg = list(g.degrees)
        alive = bytearray([1]) * n
        live_edges = g.num_edges
        for step in scheme.steps:
            vs = step.block.vertices
            a = step.attach
            if not all(isinstance(v, int) and 0 <= v < n and alive[v] for v in vs):
                return False
            if not _free_block_shape(adj, deg, vs, a, step.block.kind):
                return False
            for u, v in _block_edges(step.block.kind, vs):
                adj[u][v] -= 1
                adj[v][u] -= 1
                deg[u] -= 1
                deg[v] -= 1
                live_edges -= 1
            for v in vs:
                if v != a:
                    if deg[v] != 0:
                        return False
                    alive[v] = 0
        if live_edges != 0:
            return False
        survivors = [v for v in range(n) if alive[v]]
        return survivors == [scheme.root]
    except Exception:
        return False
