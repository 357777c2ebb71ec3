"""Divisor rank on a cactus by block elimination.

The engine walks the elimination scheme (the block scan's raw arrays) once,
leaf blocks first, keeping a single mutable chip array.  Eliminating a block
moves its chip total onto the attachment vertex; what else happens depends
on the block:

  edge block    rank unchanged, nothing else to do;
  cycle block   look at the balanced remainder of the chips on the cycle.
                If it is bad (not equivalent to zero on the cycle), one chip
                is forfeited at the attachment.  If it is good, the rank obeys

                    rank(before) = min(rank(after), rank(after - 2e_v) + 1)

                where e_v is one chip at the attachment: two chips buy one
                extra unit of rank, unless leaving them unspent is better.
                Both branches must be evaluated; taking the +1 branch alone
                overshoots on some inputs (see the regression tests).

Before every step the engine checks the degree regimes that admit direct
answers, which is also what keeps the common cases linear:

  deg < 0                rank is -1;
  deg = 0                rank is 0 when every remaining cycle's positional
                         residue vanishes (the divisor class is trivial),
                         else -1;
  deg > 2*cycles - 2     rank is deg - cycles;
  deg = 2*cycles - 2     mirror through the canonical divisor K of the live
                         graph (Riemann-Roch, Baker-Norine 2007): K - f has
                         degree 0, so its rank is 0 or -1 by the same
                         residue sweep run over K - f, and
                         rank = rank(K - f) + cycles - 1.

Only degrees strictly inside (0, 2*cycles - 2) need more.  The walk goes on
through edges and bad cycles, checking the ladder before each step, and the
first good cycle hands the rest of the scheme to one bottom-up path DP.
Flattening the nested min gives

    rank = min over charge/skip paths of max(D - L + c, c - 1)

where c counts the charged good cycles on a path and L = b + 2c is the
chips it loses: one at each of its b bad cycles, two per charge.  A path
through the blocks hanging below a vertex u leaves S_u - L_u chips on u,
S_u being the chips on u and on those blocks, so the cycle above u is good
exactly when sum(pos * (S_u - L_u)) vanishes mod k.

Losing more chips below a vertex never raises the rank, so for each vertex
and each c the DP keeps only the largest L.  An extra lost chip matters only
by flipping a cycle above.  Made bad, the cycle loses one more chip, and
(c, L + 2) or more is no worse than either side of the good cycle, (c, L)
and (c + 1, L + 2).  Made good, its skip side keeps the L + 1 the bad cycle
had.  Within a cycle the same holds per residue, so a cycle combines its
vertices' lists position by position, one list per residue.  The DP is
polynomial, not linear: the lists grow with the cycles below a vertex, and
merging two costs the product of their lengths.  At degree g - 1 on the
generator's family (n/8 cycles of length up to 8, seed 101) it takes
2.3 ms at n = 2^10, 11 ms at 2^12, 67 ms at 2^14 and 0.59 s at 2^16 (2-vCPU
Xeon VM, CPython 3.11.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import GraphError, Multigraph
from .blocks import _raw_scheme


_UNREACHABLE = float("-inf")


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One engine decision.  kind is "edge", "cycle", or "base" for the
    closing record; adjustment is the chip charge at the attachment (0, -1 or
    -2); branch reports which side of the min won at a good cycle ("charged"
    or "skipped"), or the closing regime on the "base" record."""

    index: int
    kind: str
    attach: int
    goodness: Optional[str]
    adjustment: int
    degree_after: int
    branch: Optional[str] = None


@dataclass(frozen=True, slots=True)
class RankResult:
    rank: int
    trace: Optional[tuple[TraceStep, ...]] = None


def _raise(out: list, xs: list, c: int, lost: int) -> None:
    """out[c + i] = max(out[c + i], xs[i] + lost) for every i, growing out.
    Lists hold the most chips lost with each number of charges, -inf where
    that number cannot be reached."""
    end = c + len(xs)
    if len(out) < end:
        out.extend([_UNREACHABLE] * (end - len(out)))
    out[c:end] = [x + lost if x + lost > y else y
                  for x, y in zip(xs, out[c:end])]


def rank(g: Multigraph, f: Sequence[int], *, trace: bool = False) -> RankResult:
    """Rank of divisor f on the connected cactus g.

    The blocks are eliminated in the order build_bes reports; the rank does
    not depend on the order.  With trace=True the per-block decisions of the
    top-level pass are recorded.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    kinds, offs, verts, root = _raw_scheme(g)

    nsteps = len(kinds)
    vals = list(f)
    cycles_total = kinds.count(1)
    deg0 = sum(vals)

    def residues_zero(i: int, sign: int) -> bool:
        # a degree-0 class is trivial iff every remaining cycle's positional
        # residue is zero; chips funnel toward the root, entering each cycle
        # at the position where their branch attaches.  sign 1 tests vals,
        # sign -1 tests K - vals, K the canonical divisor of the live graph:
        # K(u) + 2 is u's live degree, its own block's share (1 on an edge,
        # 2 on a cycle) plus the shares of the live blocks hanging at u,
        # which are handed down with their chips.  On a cycle each vertex's
        # share cancels its -2 and the cycle hands down its share of 2 at the
        # attachment; an edge's end nets -1 and the edge hands down 1.
        extra: dict = {}
        pop = extra.pop
        for t in range(i, nsteps):
            lo = offs[t]
            hi = offs[t + 1]
            a = verts[lo]
            if kinds[t] == 0:
                u = verts[lo + 1]
                extra[a] = extra.get(a, 0) + sign * vals[u] + pop(u, 0)
            else:
                k = hi - lo
                s = 0
                res = 0
                pos = 1
                for j in range(lo + 1, hi):
                    u = verts[j]
                    w = sign * vals[u] + pop(u, 0)
                    s += w
                    res += pos * w
                    pos += 1
                if res % k:
                    return False
                extra[a] = extra.get(a, 0) + s + 1 - sign
        return True

    def path_dp(i: int) -> int:
        # rank of the live divisor on the graph left after steps 0..i-1.
        # best[v][c]: the most chips L = b + 2c that a path through the
        # blocks below v can lose with c charges, absent for [0];
        # extra[v]: the chips handed down to v, so v ends with
        # vals[v] + extra[v] - L chips
        extra: dict = {}
        best: dict = {}
        pop = extra.pop
        take = best.pop
        for t in range(i, nsteps):
            lo = offs[t]
            hi = offs[t + 1]
            a = verts[lo]
            if kinds[t] == 0:
                u = verts[lo + 1]
                s = vals[u] + pop(u, 0)
                p = take(u, None)
            else:
                k = hi - lo
                s = 0
                res = 0
                below = []
                for j in range(1, k):
                    u = verts[lo + j]
                    w = vals[u] + pop(u, 0)
                    s += w
                    res += j * w
                    q = take(u, None)
                    if q is not None:
                        below.append((j, q))
                # residue -> best losses reachable with it; losing L more
                # chips at position j takes j * L off the residue
                states = {res % k: [0]}
                for j, q in below:
                    nxt: dict = {}
                    for r, xs in states.items():
                        for c, lost in enumerate(q):
                            if lost >= 0:
                                key = (r - j * lost) % k
                                out = nxt.get(key)
                                if out is None:
                                    out = nxt[key] = []
                                _raise(out, xs, c, lost)
                    states = nxt
                # bad: one chip lost; good: skip, or charge and lose two
                p = []
                for r, xs in states.items():
                    if r:
                        _raise(p, xs, 0, 1)
                    else:
                        _raise(p, xs, 0, 0)
                        _raise(p, xs, 1, 2)
            extra[a] = extra.get(a, 0) + s
            if p is not None:
                q = take(a, None)
                if q is None:
                    best[a] = p
                else:
                    if len(q) < len(p):
                        p, q = q, p
                    out = []
                    for c, lost in enumerate(p):
                        if lost >= 0:
                            _raise(out, q, c, lost)
                    best[a] = out
        deg = vals[root] + extra.get(root, 0)
        return min(max(deg - lost + c, c - 1)
                   for c, lost in enumerate(best.get(root, [0])) if lost >= 0)

    # the top-level walk: edges and bad cycles are forced, and the ladder is
    # checked before each step.  Untraced, the first good cycle leaves the
    # rest to path_dp.  Traced, the walk takes the charged side of every
    # good cycle and path_dp gives the skipped side's rank.
    tb = [] if trace else None
    i = 0
    dg = deg0
    gp = cycles_total
    goods = []  # (trace row, rank of the skipped side) per good cycle
    while True:
        if dg < 0:
            r = -1
            regime = "negative-degree"
            break
        if dg == 0:
            r = 0 if residues_zero(i, 1) else -1
            regime = "zero-degree"
            break
        top = 2 * gp - 2
        if dg > top:
            r = dg - gp
            regime = "high-degree"
            break
        if dg == top:
            r = (0 if residues_zero(i, -1) else -1) + gp - 1
            regime = "mirror"
            break
        # 1 <= dg <= 2*gp - 3: eliminate the next block
        lo = offs[i]
        hi = offs[i + 1]
        a = verts[lo]
        if kinds[i] == 0:
            vals[a] += vals[verts[lo + 1]]
            if tb is not None:
                tb.append([i, "edge", a, None, 0, dg, None])
        else:
            k = hi - lo
            s = 0
            res = 0
            pos = 1
            for j in range(lo + 1, hi):
                w = vals[verts[j]]
                s += w
                res += pos * w
                pos += 1
            if res % k:
                vals[a] += s - 1
                dg -= 1
                gp -= 1
                if tb is not None:
                    tb.append([i, "cycle", a, "bad", -1, dg, None])
            elif tb is None:
                r = path_dp(i)
                break
            else:
                vals[a] += s
                goods.append((len(tb), path_dp(i + 1)))
                vals[a] -= 2
                dg -= 2
                gp -= 1
                tb.append([i, "cycle", a, "good", -2, dg, None])
        i += 1
    if tb is None:
        return RankResult(r)
    tb.append([i, "base", root, None, 0, dg, regime])
    # fold the good-cycle choices back in, last step first
    for pos, sub in reversed(goods):
        charged = r + 1
        if sub < charged:
            r = sub
            tb[pos][6] = "skipped"
        else:
            r = charged
            tb[pos][6] = "charged"
    return RankResult(r, tuple(TraceStep(*row) for row in tb))
