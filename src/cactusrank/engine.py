"""Divisor rank on a cactus by block elimination.

The engine folds in the blocks as the graph module's block scan, _scan,
yields them, in elimination order, leaf blocks first; no scheme is stored,
so a rank call loads none of the block records.  Eliminating a block
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

rank scans once, growing one spanning tree, and every pass below reads one
funnel over that scan from its start: it moves each block's chips onto the
attachment and gives each cycle the positional residue sum(pos * w) mod k
of the chips w that reach its positions, which vanishes exactly when the
cycle is good (see _funnel).  Flattening the nested min gives

    rank = min over charge/skip paths of max(D - L + c, c - 1)

where D is the degree, c counts the charged good cycles on a path and
L = b + 2c is the chips it loses: one at each of its b bad cycles, two per
charge.  Read at c = 0 this is the regime ladder, _no_charge: a path with
a charge is worth at least 0, so once the all-skip path loses L(0) >= D
chips the rank is max(D - L(0), -1).  The test runs on f, then on K - f,
K the canonical divisor, of degree 2g - 2 on the g = m - n + 1 cycles of a
connected cactus: rank(f) = rank(K - f) + D - g + 1 (Riemann-Roch,
Baker-Norine 2007).  The two close every degree outside (0, 2g - 2) and
much of the band.  The rest takes one bottom-up path DP over the funnel,
one block per step.  A path through the blocks hanging below a vertex u
leaves S_u - L_u chips on u, S_u being the chips the funnel moves onto u,
so the cycle above u is good exactly when its funnel residue minus
sum(pos * L_u) vanishes mod k.

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
below a vertex, and merging two costs the product of their lengths; README
"Performance" has the timings.

With trace=True the pass also logs each cycle's folds as (states before,
position, list), its closing states and both operands of each vertex
merge, then reads the minimising (c, L) back from the root, blocks in
reverse order: _split, the inverse of _product, finds the operands of each
entry (fewest charges first) and _CLOSE the side taken.  That gives one
record per block along the path, at a constant factor over the untraced
pass.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .graph import Multigraph, _divisor_degree, _scan

_UNREACHABLE = float("-inf")


class TraceStep(NamedTuple):
    """One block on the minimising path, in scheme order.  kind is "edge",
    "cycle", or "base" for the closing record; adjustment is the chip charge
    at the attachment (0, -1 or -2); branch reports which side of the min
    the path takes at a good cycle ("charged" or "skipped"), or the closing
    regime on the "base" record: "no-charge" or "mirror", the test over f or
    K - f that closed, or "path-dp"."""

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


def _product(states: dict, q: list, j: int, k: int, size: int) -> dict:
    """The residue states after list q is added at position j of a ring of
    k: losing L more chips at position j takes j * L off the residue, so
    out[(r - j * L) % k][c + c2] is the max of xs[c] + L over the states'
    entries (r, xs[c]) and q's entries (c2, L), for c + c2 < size.  A vertex
    merge is the ring of one: _product({0: longer}, shorter, 0, 1, size)[0].
    The cost is the product of the lengths."""
    out: dict = {}
    for r, xs in states.items():
        for c, lost in enumerate(q):
            key = (r - j * lost) % k
            o = out.get(key)
            if o is None:
                o = out[key] = []
            _raise(o, xs, c, lost, size)
    return out


def _split(states: dict, q: list, j: int, k: int, res: int, c: int,
           lost: int) -> tuple:
    """The inverse of _product at one entry: the (c2, L2) of q, smallest c2
    first, whose sum with an entry of states gives lost chips with c charges
    at residue res.  The state it pairs with is at residue res + j * L2."""
    for c2, x in enumerate(q):
        xs = states.get((res + j * x) % k, ())
        if 0 <= c - c2 < len(xs) and xs[c - c2] + x == lost:
            return c2, x


# how a block closes at its attachment, one row per side the path can take:
# (charges, chips lost, kind, goodness, branch).  An edge loses nothing; a
# cycle with residue not 0 is bad and loses one chip; a good one (_CLOSE[True])
# skips, or charges and loses two.
_EDGE = (0, 0, "edge", None, None)
_CLOSE = (((0, 1, "cycle", "bad", None),),
          ((0, 0, "cycle", "good", "skipped"), (1, 2, "cycle", "good", "charged")))


def _funnel(blocks, f: Sequence[int], sign: int, pay: int = 0):
    """Eliminate the blocks of the scan in turn, funnelling each one's chips
    onto its attachment, and yield (kind, vs, residue) per block: for a cycle
    of length k, sum(pos * w) mod k over the chips w that reach each position
    pos >= 1, its own and those funnelled onto it; 0 for an edge.  A cycle
    is good (its chips are equivalent to zero on it) iff its residue is 0.
    With pay=1 a bad cycle hands one chip fewer down, as on the all-skip path.

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
        res = 0
        if kind == 0:
            u = vs[1]
            s = sign * f[u] + pop(u, 0)
        else:
            k = len(vs)
            s = 1 - sign  # for K - f, the cycle's share of 2
            for pos in range(1, k):
                u = vs[pos]
                w = sign * f[u] + pop(u, 0)
                s += w
                res += pos * w
            res %= k
            if res:
                s -= pay
        extra[a] = extra.get(a, 0) + s
        yield kind, vs, res


def _no_charge(blocks, f: Sequence[int], sign: int, d: int, cycles: int):
    """The no-charge test over f (sign 1) or K - f (sign -1), of degree d,
    reading blocks, rank's one scan, from the start: the rank
    max(d - L(0), -1) if the all-skip path loses L(0) >= d chips, else None.
    It stops at the (d + 1)-th bad cycle, the rank being -1, and gives up
    past cycles - d good ones, as L(0) < d then."""
    if d > cycles:
        return None
    bad, spare = 0, cycles - d  # spare: the good cycles it can still meet
    for kind, _, res in _funnel(blocks, f, sign, 1) if d >= 0 else ():
        if res:
            bad += 1
            if bad > d:
                break
        elif kind:
            spare -= 1
            if spare < 0:
                return None
    return max(d - bad, -1)


def rank(g: Multigraph, f: Sequence[int], *, trace: bool = False) -> RankResult:
    """Rank of divisor f on the connected cactus g.

    The blocks are eliminated in the order build_bes reports; the rank does
    not depend on the order.  With trace=True the result carries one record
    per block along a minimising charge/skip path and a "base" record naming
    "path-dp", at every degree in (0, 2g - 2), as only the path DP names a
    path; elsewhere a no-charge test closes and the trace is its base record.
    """
    deg = _divisor_degree(g, f)
    blocks = _scan(g)  # raises unless g is a connected cactus
    cycles = g.num_edges - g.n + 1
    top = 2 * cycles - 2
    if not (trace and 0 < deg < top):
        for sign, d, shift, regime in ((1, deg, 0, "no-charge"),
                                       (-1, top - deg, deg - cycles + 1, "mirror")):
            r = _no_charge(blocks, f, sign, d, cycles)
            if r is not None:
                return RankResult(r + shift, (TraceStep(0, "base", 0, None, 0, deg, regime),)
                                  if trace else None)

    # the path DP.  best[v][c]: the most chips L = b + 2c that a path
    # through the blocks below v can lose with c <= deg charges, absent
    # for [0]; v ends with the chips funnelled onto it minus L.  Traced, log
    # keeps per block its kind and vertices, the list at its attachment
    # before it, its own list, its cycle's folds and its closing states.
    size = deg + 1
    best: dict = {}
    take = best.pop
    log = [] if trace else None
    for kind, vs, res in _funnel(blocks, f, 1):  # from the root, vertex 0
        a = vs[0]
        folds = states = None
        if kind == 0:
            p = take(vs[1], None)
        else:
            k = len(vs)
            # residue -> best losses reachable with it
            states = {res: [0]}
            if log is not None:
                folds = []
            for j in range(1, k):
                q = take(vs[j], None)
                if q is not None:
                    if folds is not None:
                        folds.append((states, j, q))
                    states = _product(states, q, j, k, size)
            p = []
            for r, xs in states.items():
                for ch, dl, *_ in _CLOSE[r == 0]:
                    _raise(p, xs, ch, dl, size)
        q = None
        if p is not None:
            q = take(a, None)
            if q is None:
                best[a] = p
            else:
                x, y = (q, p) if len(q) < len(p) else (p, q)
                best[a] = _product({0: y}, x, 0, 1, size)[0]
        if log is not None:
            log.append((kind, vs, q, p, folds, states))
    ends = best.get(0, [0])
    r, c = min((max(deg - lost + c, c - 1), c) for c, lost in enumerate(ends))
    if log is None:
        return RankResult(r)

    # read the minimising path back, last block first.  need[v] = (c, L):
    # what the blocks hanging at v that are still to come must lose.
    need = {0: (c, ends[c])}
    closed = [_EDGE] * len(log)
    for t in range(len(log) - 1, -1, -1):
        kind, vs, q, p, folds, states = log[t]
        if p is None:
            continue
        a = vs[0]
        c, lost = need.pop(a)
        if q is not None:
            # split the merge at a between the earlier blocks and this one
            c1, x = need[a] = _split({0: p}, q, 0, 1, 0, c, lost)
            c, lost = c - c1, lost - x
        if kind == 0:
            need[vs[1]] = (c, lost)
            continue
        res, closed[t] = next(
            (res, side) for res, xs in states.items() for side in _CLOSE[res == 0]
            if 0 <= c - side[0] < len(xs) and xs[c - side[0]] + side[1] == lost)
        c, lost = c - closed[t][0], lost - closed[t][1]
        k = len(vs)
        for states, j, q in reversed(folds):
            c2, x = need[vs[j]] = _split(states, q, j, k, res, c, lost)
            res, c, lost = (res + j * x) % k, c - c2, lost - x
    rows = []
    d = deg
    for t, ((_, vs, *_), (_, dl, name, good, branch)) in enumerate(zip(log, closed)):
        d -= dl
        rows.append(TraceStep(t, name, vs[0], good, -dl, d, branch))
    rows.append(TraceStep(len(log), "base", 0, None, 0, d, "path-dp"))
    return RankResult(r, tuple(rows))
