"""Loop-free undirected multigraphs and integer divisors (chip configurations).

Vertices are dense integer ids 0..n-1.  Parallel edges are allowed and are
tracked by multiplicity; loops are rejected at construction.  Graphs are
immutable once built; derived views (edge pairs, adjacency, degrees and the
spanning tree) are computed lazily and cached.  The spanning tree, which
_tree grows from vertex 0 in stored edge order with its cycle claims, is
the graph's one traversal: it answers the connectivity check, is_connected,
and the block scan, _scan, which the rank engine and blocks.build_bes read.
Its stored-order loop, _grow, reads the edges as a sequence of endpoint
chunks, so that the CLI's pipelined read (see piped) can run it in a child
over a stream and hand the graph the whole tree.  _divisor_degree is the
one check of a divisor against a graph.
"""

from __future__ import annotations

from array import array
from itertools import chain, count, islice
from operator import index
from typing import Iterable, Sequence

# vertex ids are stored in C int arrays
_MAX_VERTICES = 2 ** 31 - 1


class GraphError(ValueError):
    """Invalid graph construction or an operation on an unsuitable graph."""


class DisconnectedGraphError(GraphError):
    """Raised by operations that require a connected graph."""


class NotCactusError(GraphError):
    """The graph has a block that is neither an edge nor a simple cycle.

    The offending edge, as stored (one that closes a second cycle through
    some tree edge), is in .edge.  Raised by the block scan, _scan.
    """

    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"not a cactus: edge {edge} lies on a second cycle")
        self.edge = edge


class OracleLimitError(RuntimeError):
    """Instance exceeds the oracle's configured size guards."""


class Multigraph:
    """An undirected loop-free multigraph on vertices 0..n-1.

    Edges are stored as one flat array of endpoints, edge i being
    (ends[2i], ends[2i+1]); vertex ids must fit a C int.  The edges view and
    the other derived structures are built on first use and cached.
    """

    __slots__ = ("n", "_ends", "_edges", "_adj", "_degrees", "_grown")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        try:
            count = index(n)
        except TypeError:
            count = 0
        if not 1 <= count <= _MAX_VERTICES:
            raise GraphError(f"vertex count must be an integer in 1..{_MAX_VERTICES}, got {n!r}")
        n = count
        ends = array("i")
        for e in edges:
            try:
                u, v = map(index, e)
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a pair of integer vertex ids") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop edge ({u}, {u}) not allowed")
            ends.append(u)
            ends.append(v)
        self.n = n
        self._ends = ends
        self._edges = None
        self._adj = None
        self._degrees = None
        self._grown = None

    @classmethod
    def _from_ends(cls, n: int, ends: array) -> "Multigraph":
        # for callers that have already range- and loop-checked the endpoints
        g = cls(n, ())
        g._ends = ends
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) pairs, in stored order; parallel edges repeat."""
        if self._edges is None:
            ends = self._ends
            self._edges = tuple(zip(ends[0::2], ends[1::2]))
        return self._edges

    @property
    def num_edges(self) -> int:
        """Total edge multiplicity m."""
        return len(self._ends) >> 1

    @property
    def adjacency(self) -> tuple[dict, ...]:
        """Per-vertex dict mapping neighbor id to edge multiplicity."""
        if self._adj is None:
            adj = [dict() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u][v] = adj[u].get(v, 0) + 1
                adj[v][u] = adj[v].get(u, 0) + 1
            self._adj = tuple(adj)
        return self._adj

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            deg = [0] * self.n
            for v in self._ends:
                deg[v] += 1
            self._degrees = tuple(deg)
        return self._degrees

    @property
    def _spanning(self) -> "_Tree":
        """The spanning tree, grown by _tree on first use and kept."""
        if self._grown is None:
            self._grown = _tree(self)
        return self._grown

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0: the spanning
        tree, _tree's, reached them all.  The tree is kept on g with its
        cycle claims for the block scan, _scan; its arrays take about 9
        bytes a vertex for g's life."""
        return self._spanning.reached == self.n

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self.n != other.n:
            return False
        norm = lambda es: sorted((u, v) if u <= v else (v, u) for u, v in es)
        return norm(self.edges) == norm(other.edges)

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.num_edges})"


def _close(idx, parent, claimed, e: int, u: int, v: int):
    """Claim the tree edges of the cycle that edge number e = (u, v) closes,
    and store -1 - e in its key's parent; see _tree.  Returns (u, v) if the
    walk meets a tree edge claimed already, None otherwise."""
    x, y = u, v
    ix, iy = idx[x], idx[y]
    bx = by = -1  # the last vertex each end stepped from
    while x != y:
        if ix > iy:
            if claimed[x]:
                return u, v
            claimed[x] = 1
            bx = x
            x = parent[x]
            ix = idx[x]
        else:
            if claimed[y]:
                return u, v
            claimed[y] = 1
            by = y
            y = parent[y]
            iy = idx[y]
    if bx < 0 or 0 <= by and idx[by] < idx[bx]:
        bx = by
    parent[bx] = -1 - e
    return None


def _grow(n: int, chunks, claimed):
    """The stored-order loop of _tree, over the edges of chunks, a sequence
    of flat endpoint arrays each holding whole edges: (idx, parent, stop,
    bad), stop being the index of the first edge with neither end reached,
    or None if every edge came up with an end reached, and bad the first
    edge found on a second cycle, or None."""
    idx = array("i", [-1]) * n
    parent = array("i", [-1]) * n
    idx[0] = 0
    e = 0
    bad = None
    for ends in chunks:
        it = iter(ends)
        for e, u, v in zip(count(e + 1), it, it):
            if idx[u] < 0:
                if idx[v] < 0:
                    return idx, parent, e - 1, bad
                idx[u] = e
                parent[u] = v
            elif idx[v] < 0:
                idx[v] = e
                parent[v] = u
            elif bad is None:
                bad = _close(idx, parent, claimed, e, u, v)
    return idx, parent, None, bad


def _tree(g: Multigraph) -> "_Tree":
    """Grow g's spanning tree from vertex 0 in stored edge order, with its
    cycle claims: each vertex's number, -1 while unreached, and tree parent,
    the vertices the fallback below reached, in the order it reached them,
    the index of the edge the stored-order loop, _grow, stopped at, m if
    none, and the first edge found on a second cycle, if any.

    An edge with one end reached is a tree edge: the other end's parent is
    the reached end and its number is 1 + the edge's index, the root's being
    0, so a parent is numbered before its child.  An edge with both ends
    reached closes a cycle: its ends walk up the tree, the one with the
    larger number first, until they meet at the attachment a, and each step
    claims a tree edge; one claimed twice lies on two cycles.  The cycles of
    a cactus are exactly the fundamental cycles of any of its spanning
    trees, and a connected graph whose fundamental cycles are pairwise
    edge-disjoint is a cactus (Paton, CACM 1969).  The cycle's key is the
    first numbered of the one or two vertices just below a, and parent[key]
    becomes -2 - e for the closing edge e: no later read needs the parent of
    a claimed vertex, as a walk stops at one before it steps past.  The
    first closing edge whose walk meets a claimed tree edge is the tree's
    bad edge; no walk runs after it, as the blocks of a graph that is not a
    cactus are never read, but the tree grows to its end, so that its reach
    answers the connectivity check all the same.  An edge with neither end
    reached means the edges are not in grown order (generate's output and
    the tests' random cacti always are): the loop stops at it, edge stop,
    and the rest of the tree grows from every vertex reached so far over
    linked lists of the half-edges of the edges from stop on, one done flag
    per edge.  It numbers the vertices it reaches m + 1, m + 2, ..., after
    every number the loop gave, and lists them in late, a C int array: edge
    numbers fit a C int, as half-edge indices must.  Edge i has half-edges
    2i, leaving ends[2i], and 2i+1, leaving ends[2i+1], so half-edge h leads
    to vertex ends[h ^ 1]; nxt[h] is the next half-edge leaving the same
    vertex, or -1, and head[v] is v's first one, or -1; a vertex's list runs
    from its last edge to its first.
    """
    ends = g._ends
    m = len(ends) >> 1
    claimed = bytearray(g.n)
    idx, parent, stop, bad = _grow(g.n, (ends,), claimed)
    late = array("i")
    if stop is None:
        stop = m
    else:
        nxt = array("i", [0]) * len(ends)
        head = array("i", [-1]) * g.n
        for h in range(2 * stop, len(ends)):
            v = ends[h]
            nxt[h] = head[v]
            head[v] = h
        done = bytearray(m)
        stack = [0, *_heads(ends, idx, stop)]
        push, pop = stack.append, stack.pop
        number = m
        while stack:
            x = pop()
            h = head[x]
            while h >= 0:
                e = h >> 1
                if not done[e]:
                    done[e] = 1
                    y = ends[h ^ 1]
                    if idx[y] < 0:
                        number += 1
                        idx[y] = number
                        parent[y] = x
                        late.append(y)
                        push(y)
                    elif bad is None:
                        bad = _close(idx, parent, claimed, e + 1, ends[h & -2], ends[h | 1])
                h = nxt[h]
    return _Tree(ends, idx, parent, late, stop, claimed, g.n - idx.count(-1), bad)


def _heads(ends, idx, stop: int, backward: bool = False):
    """The vertex each tree edge among edges 0..stop-1 reached, the end that
    has the edge's number, first edge first, or last first if backward."""
    if backward:
        numbers = range(stop, 0, -1)
        it = islice(reversed(ends), len(ends) - 2 * stop, None)
    else:
        numbers = range(1, stop + 1)
        it = iter(ends)
    for e, u, v in zip(numbers, it, it):
        if idx[u] == e:
            yield u
        elif idx[v] == e:
            yield v


def _scan(g: Multigraph) -> "_Tree":
    """Check that g is a connected cactus and return its blocks, a stream
    that can be read more than once, of (kind, vs) for each block in
    elimination order: kind 0 and vs = (parent, child) for a bridge, kind 1
    and vs the cycle's vertices in ring order for a cycle, the attachment
    first.  Raises NotCactusError, naming as stored the first edge found on
    a second cycle, or else DisconnectedGraphError, before it returns.  The
    first pass is the spanning tree g keeps, grown by _tree on first use;
    each read of the stream runs the second, _unwind, over it.
    """
    tree = g._spanning
    if tree.bad is not None:
        raise NotCactusError(tree.bad)
    if tree.reached != g.n:
        raise DisconnectedGraphError(
            f"graph is disconnected ({tree.reached} of {g.n} vertices reachable)"
        )
    return tree


class _Tree:
    """A spanning tree as _tree grows it, which reached .reached vertices
    and found .bad on a second cycle, or None; see _tree for the rest.  Its
    iterations are the blocks, each running _unwind afresh."""

    __slots__ = ("ends", "idx", "parent", "late", "stop", "claimed", "reached", "bad")

    def __init__(self, ends, idx, parent, late, stop, claimed, reached, bad):
        self.ends, self.idx, self.parent, self.late = ends, idx, parent, late
        self.stop, self.claimed, self.reached, self.bad = stop, claimed, reached, bad

    def __iter__(self):
        return _unwind(self)


def _unwind(tree: _Tree):
    """The second pass of _scan, which only reads the tree: the vertices in
    reverse discovery order, which is reversed(late), then the end each tree
    edge reached, from the stop edge down.  An unclaimed vertex yields its
    bridge, a key its cycle, rebuilt from the closing edge by walking each
    end up while its number is larger than the key's; one walk stops at the
    key, the other at the attachment a.  Every block hanging below a cycle,
    and every other vertex of the cycle, is reached after its key, so this
    is an elimination order."""
    ends, idx, parent, claimed = tree.ends, tree.idx, tree.parent, tree.claimed
    for x in chain(reversed(tree.late), _heads(ends, idx, tree.stop, True)):
        p = parent[x]
        if not claimed[x]:
            yield 0, (p, x)
        elif p < -1:
            key = idx[x]
            e = -2 - p
            u, v = ends[e << 1], ends[e << 1 | 1]
            up, vp = [], []
            while idx[u] > key:
                up.append(u)
                u = parent[u]
            while idx[v] > key:
                vp.append(v)
                v = parent[v]
            if u != x:
                u, v, up, vp = v, u, vp, up
            yield 1, [v, x, *reversed(up), *vp]


def is_cactus(g: Multigraph) -> bool:
    """True iff every block of g is an edge or a simple cycle.  O(n + m).
    DisconnectedGraphError if g is not connected."""
    try:
        _scan(g)
    except NotCactusError:
        return False
    return True


class Divisor(tuple):
    """Integer chip counts, one per vertex.

    A thin tuple subclass: hashable, comparable, with elementwise arithmetic.
    Plain + and - act coordinatewise (NOT tuple concatenation).  Every
    function that takes a divisor takes any sequence of ints.  A Divisor is
    made only where the library returns one, as parse_file and generate
    do: making one copies a plain tuple of its entries, so the CLI hands
    its handlers the plain tuple it read.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self)

    def __add__(self, other):
        if len(other) != len(self):
            raise GraphError("divisor length mismatch")
        return Divisor(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if len(other) != len(self):
            raise GraphError("divisor length mismatch")
        return Divisor(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Divisor(-a for a in self)

    def __repr__(self):
        return f"Divisor{tuple(self)!r}"


def degree(f: Sequence[int]) -> int:
    """Sum of all chip counts, an int.  A float, Fraction or Decimal entry
    makes the sum one too, which has no __index__: GraphError."""
    try:
        return index(sum(f))
    except TypeError:
        raise GraphError("divisor entries must be integers") from None


def _divisor_degree(g: Multigraph, f: Sequence[int]) -> int:
    """degree(f); GraphError unless f has one integer entry per vertex of g."""
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    return degree(f)


def _vertex(n: int, v: int) -> int:
    """v as an int; GraphError unless it is an integer in 0..n-1."""
    try:
        i = index(v)
    except TypeError:
        raise GraphError(f"vertex {v!r} is not an integer") from None
    if not 0 <= i < n:
        raise GraphError(f"vertex {i} out of range")
    return i


def genus(g: Multigraph) -> int:
    """Cycle rank m - n + 1 of a connected graph."""
    if not g.is_connected():
        raise DisconnectedGraphError("genus is defined for connected graphs")
    return g.num_edges - g.n + 1


def canonical_divisor(g: Multigraph) -> Divisor:
    """degree(v) - 2 at every vertex; total degree 2(m - n)."""
    return Divisor(d - 2 for d in g.degrees)
