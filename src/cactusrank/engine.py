"""Divisor rank on a cactus by block elimination.

The engine reads the elimination scheme (the block scan's raw arrays), leaf
blocks first.  Eliminating a block moves its chip total onto the attachment
vertex; what else happens depends on the block:

  edge block    rank unchanged, nothing else to do;
  cycle block   look at the balanced remainder of the chips on the cycle.
                If it is bad (not equivalent to zero on the cycle), one chip
                is forfeited at the attachment.  If it is good, the rank obeys

                    rank(before) = min(rank(after), rank(after - 2e_v) + 1)

                where e_v is one chip at the attachment: two chips buy one
                extra unit of rank, unless leaving them unspent is better.
                Both branches must be evaluated; taking the +1 branch alone
                overshoots on some inputs (see the regression tests).

Before the first step the engine checks the degree regimes that admit
direct answers, which is also what keeps the common cases linear:

  deg < 0                rank is -1;
  deg = 0                rank is 0 when every cycle's positional residue
                         vanishes (the divisor class is trivial), else -1;
  deg > 2*cycles - 2     rank is deg - cycles;
  deg = 2*cycles - 2     mirror through the canonical divisor K (Riemann-Roch,
                         Baker-Norine 2007): K - f has degree 0, so its rank
                         is 0 or -1 by the same residue sweep run over K - f,
                         and rank = rank(K - f) + cycles - 1.

Degrees strictly inside (0, 2*cycles - 2) take one bottom-up path DP over
the whole scheme.  Flattening the nested min gives

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
vertices' lists position by position, one list per residue.  The all-skip
path has value max(D - b, -1) <= D, so a path with c - 1 > D never wins and
no list runs past c = D + 1.  The DP is polynomial, not linear: the lists
grow with the cycles below a vertex, and merging two costs the product of
their lengths.  At degree g - 1 on the generator's family (n/8 cycles of
length up to 8, seed 101) it takes 4.0 ms at n = 2^10, 17 ms at 2^12,
69 ms at 2^14 and 0.57 s at 2^16 (2-vCPU Xeon VM, CPython 3.11.7).

With trace=True the pass also keeps each cycle's residue states, position
by position, and both operands of each merge at a vertex, then reads the
minimising (c, L) back from the root, blocks in reverse order: one record
per block along that path, at a constant factor over the untraced pass.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graph import GraphError, Multigraph
from .blocks import _raw_scheme


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
    charges, -inf where that number cannot be reached."""
    end = min(c + len(xs), size)
    if len(out) < end:
        out.extend([_UNREACHABLE] * (end - len(out)))
    out[c:end] = [x + lost if x + lost > y else y
                  for x, y in zip(xs, out[c:end])]


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
    kinds, offs, verts, root = _raw_scheme(g)
    nsteps = len(kinds)
    cycles = kinds.count(1)
    deg = sum(f)

    def residues_zero(sign: int) -> bool:
        # a degree-0 class is trivial iff every cycle's positional residue
        # is zero; chips funnel toward the root, entering each cycle at the
        # position where their branch attaches.  sign 1 tests f, sign -1
        # tests K - f, K the canonical divisor: K(u) + 2 is u's degree,
        # its own block's share (1 on an edge, 2 on a cycle) plus the shares
        # of the blocks hanging at u, which are handed down with their
        # chips.  On a cycle each vertex's share cancels its -2 and the
        # cycle hands down its share of 2 at the attachment; an edge's end
        # nets -1 and the edge hands down 1.
        extra: dict = {}
        pop = extra.pop
        for t in range(nsteps):
            lo = offs[t]
            hi = offs[t + 1]
            a = verts[lo]
            if kinds[t] == 0:
                u = verts[lo + 1]
                extra[a] = extra.get(a, 0) + sign * f[u] + pop(u, 0)
            else:
                k = hi - lo
                s = 0
                res = 0
                pos = 1
                for j in range(lo + 1, hi):
                    u = verts[j]
                    w = sign * f[u] + pop(u, 0)
                    s += w
                    res += pos * w
                    pos += 1
                if res % k:
                    return False
                extra[a] = extra.get(a, 0) + s + 1 - sign
        return True

    top = 2 * cycles - 2
    regime = None
    if deg < 0:
        r, regime = -1, "negative-degree"
    elif deg == 0:
        r, regime = (0 if residues_zero(1) else -1), "zero-degree"
    elif deg > top:
        r, regime = deg - cycles, "high-degree"
    elif deg == top:
        r, regime = (0 if residues_zero(-1) else -1) + cycles - 1, "mirror"
    if regime is not None:
        return RankResult(r, (TraceStep(0, "base", root, None, 0, deg, regime),)
                          if trace else None)

    # the path DP.  best[v][c]: the most chips L = b + 2c that a path
    # through the blocks below v can lose with c <= deg + 1 charges, absent
    # for [0]; extra[v]: the chips handed down to v, so v ends with
    # f[v] + extra[v] - L chips.  Traced, log keeps per block the list at
    # its attachment before it, its own list, its loaded positions and the
    # residue states after each.
    size = deg + 2
    extra: dict = {}
    best: dict = {}
    pop = extra.pop
    take = best.pop
    log = [] if trace else None
    for t in range(nsteps):
        lo = offs[t]
        a = verts[lo]
        below = seq = None
        if kinds[t] == 0:
            u = verts[lo + 1]
            s = f[u] + pop(u, 0)
            p = take(u, None)
        else:
            k = offs[t + 1] - lo
            s = 0
            res = 0
            below = []
            for j in range(1, k):
                u = verts[lo + j]
                w = f[u] + pop(u, 0)
                s += w
                res += j * w
                q = take(u, None)
                if q is not None:
                    below.append((j, q))
            # residue -> best losses reachable with it; losing L more
            # chips at position j takes j * L off the residue
            states = {res % k: [0]}
            if log is not None:
                seq = [states]
            for j, q in below:
                nxt: dict = {}
                for r, xs in states.items():
                    for c, lost in enumerate(q):
                        if lost >= 0:
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
        extra[a] = extra.get(a, 0) + s
        q = None
        if p is not None:
            q = take(a, None)
            if q is None:
                best[a] = p
            else:
                x, y = (q, p) if len(q) < len(p) else (p, q)
                out = []
                for c, lost in enumerate(x):
                    if lost >= 0:
                        _raise(out, y, c, lost, size)
                best[a] = out
        if log is not None:
            log.append((q, p, below, seq))
    ends = best.get(root, [0])
    r, c = min((max(deg - lost + c, c - 1), c)
               for c, lost in enumerate(ends) if lost >= 0)
    if log is None:
        return RankResult(r)

    # read the minimising path back, last block first.  need[v] = (c, L):
    # what the blocks hanging at v that are still to come must lose.
    need = {root: (c, ends[c])}
    loss = [0] * nsteps
    for t in range(nsteps - 1, -1, -1):
        q, p, below, seq = log[t]
        if p is None:
            continue
        lo = offs[t]
        a = verts[lo]
        c, lost = need.pop(a)
        if q is not None:
            # split the merge at a between the earlier blocks and this one
            c1 = next(i for i, x in enumerate(q)
                      if 0 <= c - i < len(p) and x + p[c - i] == lost)
            need[a] = (c1, q[c1])
            c -= c1
            lost -= q[c1]
        if below is None:
            need[verts[lo + 1]] = (c, lost)
            continue
        res, c, loss[t] = next(
            (res, c - ch, dl) for res, xs in seq[-1].items()
            for ch, dl in (((0, 1),) if res else ((0, 0), (1, 2)))
            if 0 <= c - ch < len(xs) and xs[c - ch] + dl == lost)
        lost -= loss[t]
        k = offs[t + 1] - lo
        for (j, q), states in zip(reversed(below), reversed(seq[:-1])):
            # losing x chips at position j took j * x off the residue
            for c2, x in enumerate(q):
                if x >= 0:
                    xs = states.get((res + j * x) % k, ())
                    if 0 <= c - c2 < len(xs) and xs[c - c2] + x == lost:
                        break
            need[verts[lo + j]] = (c2, x)
            res, c, lost = (res + j * x) % k, c - c2, lost - x
    names = {(0, 0): ("edge", None, None), (1, 1): ("cycle", "bad", None),
             (1, 0): ("cycle", "good", "skipped"), (1, 2): ("cycle", "good", "charged")}
    rows = []
    d = deg
    for t in range(nsteps):
        d -= loss[t]
        kind, good, branch = names[kinds[t], loss[t]]
        rows.append(TraceStep(t, kind, verts[offs[t]], good, -loss[t], d, branch))
    rows.append(TraceStep(nsteps, "base", root, None, 0, d, "path-dp"))
    return RankResult(r, tuple(rows))
