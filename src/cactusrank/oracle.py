"""Brute-force ground truth for divisor rank on small connected multigraphs.

Everything here works on ANY connected loop-free multigraph, not just cacti,
so it can cross-check the fast cactus engine from a fully independent angle:
q-reduced forms via Dhar's burning algorithm, L-effectiveness, rank by
exhaustive enumeration of effective configurations, and a rank duality
identity checker.

The enumeration is combinatorial by design; oracle_rank refuses instances
beyond its guards instead of hanging.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .graph import (
    Divisor,
    DisconnectedGraphError,
    GraphError,
    Multigraph,
    canonical_divisor,
    degree,
    genus,
)


class OracleLimitError(RuntimeError):
    """Instance exceeds the oracle's configured size guards."""


@dataclass(frozen=True)
class ReducedDivisor:
    """A q-reduced chip configuration together with its base vertex."""

    values: tuple[int, ...]
    base: int

    @property
    def degree(self) -> int:
        return sum(self.values)


def _reduce_in_place(adj, deg, vals: list, q: int) -> list:
    """Core reduction: returns vals rewritten to the unique q-reduced form.

    Stage 1 clears debt off q by borrowing: a vertex v < 0 borrows
    ceil(-vals[v] / deg(v)) times at once.  This is sandpile toppling in the
    mirrored configuration with q as the sink, so it terminates.

    Stage 2 is Dhar's burning test: start a fire at q, a vertex burns once
    more burnt neighbors point at it than it has chips.  While some set
    survives the fire, that whole set fires as one unit, as many times in a
    row as it can without debt, so a vertex holding many chips does not
    take one round per chip.  Each round pushes chips strictly toward q, so
    this terminates too.
    """
    n = len(vals)
    while True:
        work = [v for v in range(n) if v != q and vals[v] < 0]
        if not work:
            break
        for v in work:
            k = (-vals[v] + deg[v] - 1) // deg[v]
            vals[v] += k * deg[v]
            for u, m in adj[v].items():
                vals[u] -= k * m
    while True:
        burnt = bytearray(n)
        burnt[q] = 1
        cnt = [0] * n
        queue = [q]
        while queue:
            x = queue.pop()
            for y, m in adj[x].items():
                if not burnt[y]:
                    cnt[y] += m
                    if cnt[y] > vals[y]:
                        burnt[y] = 1
                        queue.append(y)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return vals
        # an unburnt v has cnt[v] edges leaving the set, so the set can fire
        # t times in a row before its poorest vertex would go into debt
        t = min(vals[v] // cnt[v] for v in unburnt if cnt[v])
        inside = set(unburnt)
        for v in unburnt:
            for u, m in adj[v].items():
                if u not in inside:
                    vals[v] -= t * m
                    vals[u] += t * m


def q_reduce(g: Multigraph, f: Sequence[int], q: int) -> ReducedDivisor:
    """Unique q-reduced divisor linearly equivalent to f.  Idempotent."""
    if not 0 <= q < g.n:
        raise GraphError(f"base vertex {q} out of range")
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    if not g.is_connected():
        raise DisconnectedGraphError("q_reduce requires a connected graph")
    vals = _reduce_in_place(g.adjacency, g.degrees, list(f), q)
    return ReducedDivisor(tuple(vals), q)


def is_l_effective(g: Multigraph, f: Sequence[int]) -> bool:
    """True iff f is linearly equivalent to some effective divisor.

    Equivalent to: the 0-reduced form of f is nonnegative at the base vertex
    (all other entries are nonnegative by construction).  The verdict does
    not depend on which base vertex is used.
    """
    return q_reduce(g, f, 0).values[0] >= 0


def enumerate_effective(n: int, d: int) -> Iterator[Divisor]:
    """All effective divisors on n vertices with total degree d, lexicographic
    by chip-position multiset, each exactly once."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        yield Divisor([0] * n)
        return
    for comb in itertools.combinations_with_replacement(range(n), d):
        vals = [0] * n
        for v in comb:
            vals[v] += 1
        yield Divisor(vals)


def oracle_rank(
    g: Multigraph,
    f: Sequence[int],
    *,
    max_vertices: int = 12,
    max_rank: int = 8,
) -> int:
    """Rank by definition: the largest r such that f minus ANY effective
    divisor of degree r stays L-effective; -1 if f itself is not.

    Refuses instances with n > max_vertices or a search passing max_rank
    (OracleLimitError) rather than grinding through an enormous enumeration.
    """
    if g.n > max_vertices:
        raise OracleLimitError(
            f"graph has {g.n} vertices, oracle guard is {max_vertices}"
        )
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    if not g.is_connected():
        raise DisconnectedGraphError("oracle_rank requires a connected graph")
    adj = g.adjacency
    deg = g.degrees
    base = _reduce_in_place(adj, deg, list(f), 0)
    if base[0] < 0:
        return -1
    # rank is invariant under linear equivalence, so search from the reduced
    # form: each candidate subtraction then starts nearly reduced already
    r = 1
    while True:
        if r > max_rank:
            raise OracleLimitError(
                f"rank search passed {max_rank} (raise max_rank to continue)"
            )
        for comb in itertools.combinations_with_replacement(range(g.n), r):
            vals = base[:]
            for v in comb:
                vals[v] -= 1
            if _reduce_in_place(adj, deg, vals, 0)[0] < 0:
                return r - 1
        r += 1


def rr_check(g: Multigraph, f: Sequence[int], rank_fn: Callable) -> bool:
    """Check the rank duality identity
    rank(f) - rank(K - f) == degree(f) - genus + 1
    where K is the canonical divisor.  rank_fn(g, divisor) -> int supplies
    both ranks (fast engine for cacti, oracle_rank otherwise)."""
    fd = Divisor(f)
    k = canonical_divisor(g)
    lhs = rank_fn(g, fd) - rank_fn(g, k - fd)
    rhs = degree(fd) - genus(g) + 1
    return lhs == rhs
