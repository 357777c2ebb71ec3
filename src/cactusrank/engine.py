"""Divisor rank on a cactus by block elimination.

The engine folds in the blocks as the block scan yields them, in
elimination order, leaf blocks first; no scheme is stored.  Eliminating a
block moves its chip total onto the attachment vertex; what else happens
depends on the block:

  edge block    rank unchanged, nothing else to do;
  cycle block   look at the balanced remainder of the chips on the cycle.
                If it is bad (not equivalent to zero on the cycle), one chip
                is forfeited at the attachment.  If it is good, the rank obeys

                    rank(before) = min(rank(after), rank(after - 2e_v) + 1)

                where e_v is one chip at the attachment: two chips buy one
                extra unit of rank, unless leaving them unspent is better.
                Both branches must be evaluated; taking the +1 branch alone
                overshoots on some inputs (see the regression tests).

Every rung below reads one funnel over the scan: it moves each block's
chips onto the attachment and gives each cycle the positional residue
sum(pos * w) mod k of the chips w that reach its positions, which vanishes
exactly when the cycle is good (see _funnel).

Before the scan starts, the engine checks the degree regimes that admit
direct answers, which is also what keeps the common cases linear.  It reads
the cycle count as m - n + 1, the number of cycle blocks of a connected
cactus.  Every rung reads the scan to its end, even once its answer is
known, so a graph that is not a connected cactus raises at every degree:

  deg < 0                rank is -1;
  deg = 0                rank is 0 when the funnel meets no bad cycle (the
                         divisor class is trivial), else -1;
  deg > 2*cycles - 2     rank is deg - cycles;
  deg = 2*cycles - 2     mirror through the canonical divisor K (Riemann-Roch,
                         Baker-Norine 2007): K - f has degree 0, so its rank
                         is 0 or -1 by the funnel read over K - f, and
                         rank = rank(K - f) + cycles - 1.

Degrees strictly inside (0, 2*cycles - 2) take one bottom-up path DP over
the funnel, one block per step.  Flattening the nested min gives

    rank = min over charge/skip paths of max(D - L + c, c - 1)

where c counts the charged good cycles on a path and L = b + 2c is the
chips it loses: one at each of its b bad cycles, two per charge.  A path
through the blocks hanging below a vertex u leaves S_u - L_u chips on u,
S_u being the chips the funnel moves onto u, so the cycle above u is good
exactly when its funnel residue minus sum(pos * L_u) vanishes mod k.

Losing more chips below a vertex never raises the rank, so for each vertex
and each c the DP keeps only the largest L.  An extra lost chip matters only
by flipping a cycle above.  Made bad, the cycle loses one more chip, and
(c, L + 2) or more is no worse than either side of the good cycle, (c, L)
and (c + 1, L + 2).  Made good, its skip side keeps the L + 1 the bad cycle
had.  Within a cycle the same holds per residue, so a cycle combines its
vertices' lists position by position, one list per residue.  The all-skip
path has value max(D - b, -1) <= D, and a path with c > D charges is worth
at least c - 1 >= D, so it never wins (a tie goes to the smaller c) and no
list runs past c = D.  The charge counts reachable below a vertex run
0..max with no gap: a merge adds two such ranges, a bad cycle keeps its
range, and a good one's skip side keeps it while its charged side gives
1..max+1.  So only a cycle's per-residue lists can hold an unreachable
count.  The DP is polynomial, not linear: the lists grow with the cycles
below a vertex, and merging two costs the product of their lengths.  At
degree g - 1 on the generator's family (n/8 cycles of length up to 8, seed
101) it takes 4.0 ms at n = 2^10, 17 ms at 2^12, 69 ms at 2^14 and 0.57 s
at 2^16 (2-vCPU Xeon VM, CPython 3.11.7).

With trace=True the pass also keeps each block's vertices, each cycle's
residue states, position by position, and both operands of each merge at a
vertex, then reads the
minimising (c, L) back from the root, blocks in reverse order: one record
per block along that path, at a constant factor over the untraced pass.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graph import GraphError, Multigraph
from .blocks import _scan


_UNREACHABLE = float("-inf")


class TraceStep(NamedTuple):
    """One block on the minimising path, in scheme order.  kind is "edge",
    "cycle", or "base" for the closing record; adjustment is the chip charge
    at the attachment (0, -1 or -2); branch reports which side of the min
    the path takes at a good cycle ("charged" or "skipped"), or the closing
    regime on the "base" record: a ladder rung, or "path-dp"."""

    index: int
    kind: str
    attach: int
    goodness: Optional[str]
    adjustment: int
    degree_after: int
    branch: Optional[str] = None


class RankResult(NamedTuple):
    rank: int
    trace: Optional[tuple[TraceStep, ...]] = None


def _raise(out: list, xs: list, c: int, lost: int, size: int) -> None:
    """out[c + i] = max(out[c + i], xs[i] + lost) for every c + i < size,
    growing out.  Lists hold the most chips lost with each number of
    charges.  A residue state's list holds -inf where its residue cannot be
    reached with that number; a vertex's list has no such holes."""
    end = min(c + len(xs), size)
    if len(out) < end:
        out.extend([_UNREACHABLE] * (end - len(out)))
    out[c:end] = [x + lost if x + lost > y else y
                  for x, y in zip(xs, out[c:end])]


def _funnel(blocks, f: Sequence[int], sign: int):
    """Eliminate the blocks of the scan in turn, funnelling each one's chips
    onto its attachment, and yield (kind, vs, residue) per block: for a cycle
    of length k, sum(pos * w) mod k over the chips w that reach each position
    pos >= 1, its own and those funnelled onto it; 0 for an edge.  A cycle
    is good (its chips are equivalent to zero on it) iff its residue is 0.

    sign 1 reads the chips of f, sign -1 those of K - f, K the canonical
    divisor, without building it: K(u) + 2 is u's degree, its own block's
    share (1 on an edge, 2 on a cycle) plus the shares of the blocks hanging
    at u, which are funnelled with their chips.  On a cycle each vertex's
    share cancels its -2 and the cycle hands its share of 2 to the
    attachment; an edge's end nets -1 and the edge hands 1 down.
    """
    extra: dict = {}
    pop = extra.pop
    for kind, vs in blocks:
        a = vs[0]
        if kind == 0:
            u = vs[1]
            s = sign * f[u] + pop(u, 0)
            res = 0
        else:
            k = len(vs)
            s = 1 - sign  # for K - f, the cycle's share of 2
            res = 0
            for pos in range(1, k):
                u = vs[pos]
                w = sign * f[u] + pop(u, 0)
                s += w
                res += pos * w
            res %= k
        extra[a] = extra.get(a, 0) + s
        yield kind, vs, res


def rank(g: Multigraph, f: Sequence[int], *, trace: bool = False) -> RankResult:
    """Rank of divisor f on the connected cactus g.

    The blocks are eliminated in the order build_bes reports; the rank does
    not depend on the order.  With trace=True the result carries one record
    per block along a minimising charge/skip path and a closing "base"
    record, whose regime is "path-dp" unless the degree ladder answers
    before the first step.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    blocks = _scan(g)  # from the root, vertex 0
    # on a connected cactus, which the scan checks as it goes, the cycle
    # blocks number m - n + 1
    cycles = g.num_edges - g.n + 1
    deg = sum(f)

    top = 2 * cycles - 2
    regime = None
    if deg < 0:
        r, regime = -1, "negative-degree"
    elif deg == 0:
        r = -1 if any(res for *_, res in _funnel(blocks, f, 1)) else 0
        regime = "zero-degree"
    elif deg > top:
        r, regime = deg - cycles, "high-degree"
    elif deg == top:
        r = (-1 if any(res for *_, res in _funnel(blocks, f, -1)) else 0) + cycles - 1
        regime = "mirror"
    if regime is not None:
        # the rest of the scan, which raises unless g is a connected cactus
        for _ in blocks:
            pass
        return RankResult(r, (TraceStep(0, "base", 0, None, 0, deg, regime),)
                          if trace else None)

    # the path DP.  best[v][c]: the most chips L = b + 2c that a path
    # through the blocks below v can lose with c <= deg charges, absent
    # for [0]; v ends with the chips funnelled onto it minus L.  Traced, log
    # keeps per block its kind and vertices, the list at its attachment
    # before it, its own list, its loaded positions and the residue states
    # after each.
    size = deg + 1
    best: dict = {}
    take = best.pop
    log = [] if trace else None
    for kind, vs, res in _funnel(blocks, f, 1):
        a = vs[0]
        below = seq = None
        if kind == 0:
            p = take(vs[1], None)
        else:
            k = len(vs)
            below = []
            for j in range(1, k):
                q = take(vs[j], None)
                if q is not None:
                    below.append((j, q))
            # residue -> best losses reachable with it; losing L more
            # chips at position j takes j * L off the residue
            states = {res: [0]}
            if log is not None:
                seq = [states]
            for j, q in below:
                nxt: dict = {}
                for r, xs in states.items():
                    for c, lost in enumerate(q):
                        key = (r - j * lost) % k
                        out = nxt.get(key)
                        if out is None:
                            out = nxt[key] = []
                        _raise(out, xs, c, lost, size)
                states = nxt
                if seq is not None:
                    seq.append(states)
            # bad: one chip lost; good: skip, or charge and lose two
            p = []
            for r, xs in states.items():
                if r:
                    _raise(p, xs, 0, 1, size)
                else:
                    _raise(p, xs, 0, 0, size)
                    _raise(p, xs, 1, 2, size)
        q = None
        if p is not None:
            q = take(a, None)
            if q is None:
                best[a] = p
            else:
                x, y = (q, p) if len(q) < len(p) else (p, q)
                out = []
                for c, lost in enumerate(x):
                    _raise(out, y, c, lost, size)
                best[a] = out
        if log is not None:
            log.append((kind, vs, q, p, below, seq))
    ends = best.get(0, [0])
    r, c = min((max(deg - lost + c, c - 1), c) for c, lost in enumerate(ends))
    if log is None:
        return RankResult(r)

    # read the minimising path back, last block first.  need[v] = (c, L):
    # what the blocks hanging at v that are still to come must lose.
    need = {0: (c, ends[c])}
    loss = [0] * len(log)
    for t in range(len(log) - 1, -1, -1):
        kind, vs, q, p, below, seq = log[t]
        if p is None:
            continue
        a = vs[0]
        c, lost = need.pop(a)
        if q is not None:
            # split the merge at a between the earlier blocks and this one
            c1 = next(i for i, x in enumerate(q)
                      if 0 <= c - i < len(p) and x + p[c - i] == lost)
            need[a] = (c1, q[c1])
            c -= c1
            lost -= q[c1]
        if below is None:
            need[vs[1]] = (c, lost)
            continue
        res, c, loss[t] = next(
            (res, c - ch, dl) for res, xs in seq[-1].items()
            for ch, dl in (((0, 1),) if res else ((0, 0), (1, 2)))
            if 0 <= c - ch < len(xs) and xs[c - ch] + dl == lost)
        lost -= loss[t]
        k = len(vs)
        for (j, q), states in zip(reversed(below), reversed(seq[:-1])):
            # losing x chips at position j took j * x off the residue
            for c2, x in enumerate(q):
                xs = states.get((res + j * x) % k, ())
                if 0 <= c - c2 < len(xs) and xs[c - c2] + x == lost:
                    break
            need[vs[j]] = (c2, x)
            res, c, lost = (res + j * x) % k, c - c2, lost - x
    names = {(0, 0): ("edge", None, None), (1, 1): ("cycle", "bad", None),
             (1, 0): ("cycle", "good", "skipped"), (1, 2): ("cycle", "good", "charged")}
    rows = []
    d = deg
    for t, (kind, vs, *_) in enumerate(log):
        d -= loss[t]
        name, good, branch = names[kind, loss[t]]
        rows.append(TraceStep(t, name, vs[0], good, -loss[t], d, branch))
    rows.append(TraceStep(len(log), "base", 0, None, 0, d, "path-dp"))
    return RankResult(r, tuple(rows))
