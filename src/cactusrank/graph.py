"""Loop-free undirected multigraphs and integer divisors (chip configurations).

Vertices are dense integer ids 0..n-1.  Parallel edges are allowed and are
tracked by multiplicity; loops are rejected at construction.  Graphs are
immutable once built, derived views (edge pairs, adjacency, degrees, linked
half-edge lists) are computed lazily and cached.  Only this module reads
the half-edge lists: the connectivity check and the block scan, _scan, which
the rank engine and blocks.build_bes read.  _divisor_degree is the one check
of a divisor against a graph.
"""

from __future__ import annotations

from array import array
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

    The offending edge (one that closes a second cycle through some vertex)
    is stored in .edge.  Raised by the block scan, _scan.
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

    __slots__ = ("n", "_ends", "_edges", "_adj", "_degrees", "_links", "_connected")

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
        self._links = None
        self._connected = None

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

    def _half_edges(self) -> tuple[array, array]:
        """Adjacency as linked lists of half-edges: (head, nxt).

        Edge i has half-edges 2i, leaving ends[2i], and 2i+1, leaving
        ends[2i+1], so half-edge h leads to vertex ends[h ^ 1].  nxt[h] is
        the next half-edge leaving the same vertex, or -1, and head[v] is v's
        first one, or -1.  A vertex's list runs from its last edge to its
        first.  One pass over the endpoints builds it; the connectivity check
        and the block scan share it.
        """
        if self._links is None:
            ends = self._ends
            nxt = array("i", [0]) * len(ends)
            head = array("i", [-1]) * self.n
            for h, v in enumerate(ends):
                nxt[h] = head[v]
                head[v] = h
            self._links = (head, nxt)
        return self._links

    def is_connected(self) -> bool:
        if self._connected is None:
            head, nxt = self._half_edges()
            ends = self._ends
            seen = bytearray(self.n)
            seen[0] = 1
            stack = [0]
            reached = 1
            while stack:
                h = head[stack.pop()]
                while h >= 0:
                    y = ends[h ^ 1]
                    if not seen[y]:
                        seen[y] = 1
                        reached += 1
                        stack.append(y)
                    h = nxt[h]
            self._connected = reached == self.n
        return self._connected

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self.n != other.n:
            return False
        norm = lambda es: sorted((u, v) if u <= v else (v, u) for u, v in es)
        return norm(self.edges) == norm(other.edges)

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.num_edges})"


def _scan(g: Multigraph):
    """One iterative DFS from vertex 0 yielding (kind, vs) for each block in
    elimination order: kind 0 and vs = (parent, child) for a bridge, kind 1
    and vs the cycle's vertices in ring order for a cycle, the attachment
    first.  Raises NotCactusError where an edge closes a second cycle, and
    DisconnectedGraphError once the scan ends short of some vertex, so a
    caller that stops early learns neither.

    A visit pushes a marker (-1) and then every unvisited neighbor, the first
    neighbor in edge order last, so vertices are visited in the order of the
    recursive DFS; an entry for a vertex visited meanwhile is dropped when it
    pops.  path holds the vertices being visited, root first above a -1
    that stands for the root's parent: a vertex's parent is the top of path
    when it is visited, and its marker pops it off path once its subtree is
    done.  At a visit, every visited neighbor other than one copy of the
    parent edge is an ancestor on path, and that back edge closes a cycle
    with the stretch of path above it.  The cycle claims the stretch's tree
    edges; an edge claimed twice lies on two cycles.  Tree edges left
    unclaimed are bridges.

    Each block has a child: the bridge's lower end, or the cycle's vertex
    after its attachment.  Everything hanging below a block lies in its
    child's subtree, so yielding each block when its child's marker pops is
    an elimination order.
    """
    n = g.n
    head, nxt = g._half_edges()
    ends = g._ends
    seen = bytearray(n)
    # 0: the parent edge is a bridge; 1: a cycle claims it; 2: also the
    # cycle's child, whose cycle waits in cycles.  The root has no parent
    # edge and yields nothing.
    claimed = bytearray(n)
    claimed[0] = 1
    cycles: dict = {}
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
                yield 0, (path[-1], x)
            elif c == 2:
                yield 1, cycles.pop(x)
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


def is_cactus(g: Multigraph) -> bool:
    """True iff every block of g is an edge or a simple cycle.  O(n + m)."""
    try:
        for _ in _scan(g):
            pass
    except NotCactusError:
        return False
    return True


class Divisor(tuple):
    """Integer chip counts, one per vertex.

    A thin tuple subclass: hashable, comparable, with elementwise arithmetic.
    Plain + and - act coordinatewise (NOT tuple concatenation).
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
