"""Loop-free undirected multigraphs and integer divisors (chip configurations).

Vertices are dense integer ids 0..n-1.  Parallel edges are allowed and are
tracked by multiplicity; loops are rejected at construction.  Graphs are
immutable once built, derived views (edge pairs, adjacency, degrees, linked
half-edge lists) are computed lazily and cached.
"""

from __future__ import annotations

from array import array
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
    is stored in .edge.  Raised by the block scan; defined here, beside the
    other graph errors, so that catching it loads no other module.
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
        if not isinstance(n, int) or not 1 <= n <= _MAX_VERTICES:
            raise GraphError(f"vertex count must be an integer in 1..{_MAX_VERTICES}, got {n!r}")
        ends = array("i")
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop edge ({u}, {u}) not allowed")
            ends.append(u)
            ends.append(v)
        self._init(n, ends)

    def _init(self, n: int, ends: array) -> None:
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
        g = cls.__new__(cls)
        g._init(n, ends)
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

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range")
        return self.degrees[v]

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between u and v."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u}, {v}) out of range")
        return self.adjacency[u].get(v, 0)

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


class Divisor(tuple):
    """Integer chip counts, one per vertex.

    A thin tuple subclass: hashable, comparable, with elementwise arithmetic.
    Plain + and - act coordinatewise (NOT tuple concatenation).
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self)

    def is_effective(self) -> bool:
        return all(v >= 0 for v in self)

    def __add__(self, other):
        if len(other) != len(self):
            raise ValueError("divisor length mismatch")
        return Divisor(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if len(other) != len(self):
            raise ValueError("divisor length mismatch")
        return Divisor(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Divisor(-a for a in self)

    def __repr__(self):
        return f"Divisor{tuple(self)!r}"


# firing vectors are any integer sequence of length n, no wrapper type needed
FiringVector = Sequence[int]


def degree(f: Sequence[int]) -> int:
    """Sum of all chip counts."""
    return sum(f)


def is_effective(f: Sequence[int]) -> bool:
    return all(v >= 0 for v in f)


def index_divisor(n: int, v: int) -> Divisor:
    """The divisor with a single chip at vertex v."""
    if not 0 <= v < n:
        raise GraphError(f"vertex {v} out of range")
    return Divisor(1 if i == v else 0 for i in range(n))


def genus(g: Multigraph) -> int:
    """Cycle rank m - n + 1 of a connected graph."""
    if not g.is_connected():
        raise DisconnectedGraphError("genus is defined for connected graphs")
    return g.num_edges - g.n + 1


def laplacian_row(g: Multigraph, v: int) -> tuple[int, ...]:
    """Row v of the graph Laplacian: degree on the diagonal, minus multiplicity off it."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    row = [0] * g.n
    row[v] = g.degree(v)
    for u, m in g.adjacency[v].items():
        row[u] = -m
    return tuple(row)


def apply_firing(g: Multigraph, f: Sequence[int], x: Sequence[int]) -> Divisor:
    """Move chips along a firing vector: returns f + x.L where L is the Laplacian.

    A vertex v with x(v) = -1 fires (sends one chip down each incident edge);
    x(v) = +1 borrows.  Divisor degree is preserved for every x.
    """
    n = g.n
    if len(f) != n or len(x) != n:
        raise GraphError("divisor / firing vector length mismatch")
    out = list(f)
    adj = g.adjacency
    deg = g.degrees
    for v in range(n):
        xv = x[v]
        if xv:
            out[v] += xv * deg[v]
            for u, m in adj[v].items():
                out[u] -= xv * m
    return Divisor(out)


def canonical_divisor(g: Multigraph) -> Divisor:
    """degree(v) - 2 at every vertex; total degree 2(m - n)."""
    return Divisor(d - 2 for d in g.degrees)
