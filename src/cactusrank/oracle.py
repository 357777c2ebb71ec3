"""Brute-force ground truth for divisor rank on small connected multigraphs.

Everything here works on ANY connected loop-free multigraph, not just cacti,
so it can cross-check the fast cactus engine from a fully independent angle:
q-reduced forms via Dhar's burning algorithm, L-effectiveness, rank by
definition searched over linear-equivalence classes, and a rank duality
identity checker.

The search is exponential by design (rank is NP-hard on general graphs,
Kiss-Tothmeresz 2015); oracle_rank refuses instances beyond its guards
instead of hanging.

The search names a class by its 0-reduced form, split into the chips on
vertex 0 and the rest, the non-base part.  A child class, one chip off v,
needs a reduction only when v != 0 holds no chip, and that reduction is a
cached step.  Reducing never fires vertex 0 and never reads its count, so
the step's outcome depends only on the non-base part and v: the chips it
moves onto vertex 0 and the new non-base part.  Computed once, it serves
every chip count on vertex 0.  A step runs the debt-clearing stage,
_borrow, alone; a full reduction runs the same loop before its burning.
The non-base part of a 0-reduced form is superstable, so its mirror
(deg(u) - 1 - vals[u] at each u) is a recurrent sandpile with sink 0;
taking a chip off v adds a grain there, borrowing is toppling in the
mirror, and stabilising a recurrent configuration plus one grain gives a
recurrent one (Dhar 1990).  Its mirror is superstable again, so the form
is reduced and a burning pass would fire nothing.  The root reduction and
q_reduce run both stages from scratch.

oracle_rank computes rank(C) = 1 + min over v of rank(C - v), or -1 for a
class that is not L-effective, once per class C it reaches, capped at the
depth left: the class of f has cap max_rank, each level down one less.  A
class has one degree, so it has one cap and one value, min(rank, cap).
A superstable non-base part holds at most g chips (g the genus), so a
class of degree >= g is effective and rank(C) >= deg(C) - g (Riemann's
inequality for graphs, Baker-Norine 2007).  A class stops asking its
children once the least child rank so far meets that floor for their
degree, deg(C) - 1, or -1, or their cap.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Sequence

from .graph import (
    Divisor,
    DisconnectedGraphError,
    Multigraph,
    OracleLimitError,
    _divisor_degree,
    _vertex,
    canonical_divisor,
    degree,
    genus,
)


class ReducedDivisor(NamedTuple):
    """A q-reduced chip configuration together with its base vertex."""

    values: tuple[int, ...]
    base: int

    @property
    def degree(self) -> int:
        return sum(self.values)


def _borrow(adj, deg, vals: list, q: int, debtors) -> None:
    """The debt-clearing stage, in place: a vertex v != q in debt borrows
    ceil(-vals[v] / deg(v)) times at once.  debtors lists each one in debt,
    once; they and each neighbour a borrow pushes into debt wait in a FIFO
    queue (a stack borrows 15-18 % more often on a long path).  This
    is toppling in the mirror with sink q: it ends, in the same
    configuration whatever the order (Dhar 1990)."""
    queue = deque(debtors)
    while queue:
        v = queue.popleft()
        d = deg[v]
        k = (d - 1 - vals[v]) // d
        vals[v] += k * d
        for u, m in adj[v].items():
            x = vals[u]
            vals[u] = x - k * m
            if u != q and 0 <= x < k * m:
                queue.append(u)


def _reduce_in_place(adj, deg, vals: list, q: int) -> list:
    """Core reduction: returns vals rewritten to the unique q-reduced form.

    Stage 1, _borrow, clears every vertex but q of debt.

    Stage 2 is Dhar's burning test: start a fire at q, a vertex burns once
    more burnt neighbors point at it than it has chips.  While some set
    survives the fire, that whole set fires as one unit, as many times in a
    row as it can without debt, so a vertex holding many chips does not
    take one round per chip.  Each round pushes chips strictly toward q, so
    this terminates too.
    """
    n = len(vals)
    _borrow(adj, deg, vals, q, [v for v in range(n) if v != q and vals[v] < 0])
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


def _step(adj, deg, rest: tuple, v: int) -> tuple[int, tuple]:
    """One chip off v != 0, which holds none, in a 0-reduced form whose
    entries but vertex 0's are rest: returns (chips moved onto vertex 0, the
    new entries but vertex 0's).  Only stage 1 of _reduce_in_place runs.
    The result is already reduced (see the module docstring), and vertex 0's
    count is never read, so it holds for every count there."""
    vals = [0, *rest]
    vals[v] = -1
    _borrow(adj, deg, vals, 0, (v,))
    return vals[0], tuple(vals[1:])


def q_reduce(g: Multigraph, f: Sequence[int], q: int) -> ReducedDivisor:
    """Unique q-reduced divisor linearly equivalent to f.  Idempotent."""
    q = _vertex(g.n, q)
    _divisor_degree(g, f)
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


def oracle_rank(
    g: Multigraph,
    f: Sequence[int],
    *,
    max_vertices: int = 12,
    max_rank: int = 8,
) -> int:
    """Rank by definition: the largest r such that f minus ANY effective
    divisor of degree r stays L-effective; -1 if f itself is not.

    Every effective divisor of degree r >= 1 is v + E', so
    rank(C) = 1 + min over v of rank(C - v) for an L-effective class C.
    Each class, named by its 0-reduced form, has its rank computed once,
    capped: the class of f at max_rank, each chip off one less.  Its
    children have rank at least deg(C) - 1 - g, since the superstable
    non-base part of a 0-reduced form holds at most g chips; a class stops
    asking them once the least so far meets that floor (module docstring).
    A child's reduction is a step cached by the non-base part and v.

    Refuses instances with n > max_vertices or a rank of max_rank or more
    (OracleLimitError) rather than grinding through an enormous search;
    every rank is at least -1, so a max_rank below 0 refuses every one.
    """
    if g.n > max_vertices:
        raise OracleLimitError(
            f"graph has {g.n} vertices, oracle guard is {max_vertices}"
        )
    limit = OracleLimitError(f"rank is {max_rank} or more (raise max_rank to continue)")
    if max_rank < 0:
        raise limit
    d = _divisor_degree(g, f)
    if not g.is_connected():
        raise DisconnectedGraphError("oracle_rank requires a connected graph")
    adj = g.adjacency
    deg = g.degrees
    n = g.n
    vals = _reduce_in_place(adj, deg, list(f), 0)
    if vals[0] < 0:
        return -1
    # a class of cap c has degree d - max_rank + c, so its children's ranks
    # are at least max(c + slack, -1)
    slack = d - max_rank - 1 - genus(g)
    # 0-reduced form, as (chips on 0, non-base part) -> min(rank, cap)
    ranks = {}
    # (non-base part, v) -> (chips moved onto 0, new non-base part)
    steps = {}

    def child(form: tuple, v: int) -> tuple:
        # a chip off vertex 0, or off a vertex that still has one, leaves
        # the form reduced; only a vertex going into debt needs a step
        chips, rest = form
        if not v:
            return chips - 1, rest
        if rest[v - 1]:
            vals = list(rest)
            vals[v - 1] -= 1
            return chips, tuple(vals)
        step = steps.get((rest, v))
        if step is None:
            step = steps[rest, v] = _step(adj, deg, rest, v)
        return chips + step[0], step[1]

    # depth first; a frame is [form, cap, next v, least child rank so far],
    # the least starting at the children's cap
    stack = [[(vals[0], tuple(vals[1:])), max_rank, 0, max_rank - 1]]
    while True:
        top = stack[-1]
        form, cap, v, least = top
        floor = min(max(cap + slack, -1), cap - 1)
        while least > floor and v < n:
            kid = child(form, v)
            # an L-effective child of cap 0 has rank 0 there
            rank = -1 if kid[0] < 0 else 0 if cap == 1 else ranks.get(kid)
            if rank is None:
                top[2:] = v, least
                stack.append([kid, cap - 1, 0, cap - 2])
                break
            least = min(least, rank)
            v += 1
        else:
            stack.pop()
            if stack:
                ranks[form] = least + 1
            elif least + 1 < max_rank:
                return least + 1
            else:
                raise limit


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
