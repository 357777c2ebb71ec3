"""Shared test utilities: deterministic graph builders, corpora, and
transparent reference implementations: the rank recursion, rank by
definition, the chip-firing toolkit, the closed forms on trees and cycles,
the per-block operators, the block decomposition and the elimination-scheme
validator."""

from __future__ import annotations

import enum
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import cactusrank as cr
from cactusrank.blocks import Block, BlockEliminationScheme, BlockKind, _blocks
from cactusrank.graph import Divisor, GraphError, Multigraph, _divisor_degree, _vertex
from cactusrank.oracle import _reduce_in_place


def cycle_graph(k: int) -> cr.Multigraph:
    if k == 2:
        return cr.Multigraph(2, [(0, 1), (0, 1)])
    return cr.Multigraph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> cr.Multigraph:
    return cr.Multigraph(k, [(i, i + 1) for i in range(k - 1)])


def star_graph(k: int) -> cr.Multigraph:
    return cr.Multigraph(k, [(0, i) for i in range(1, k)])


def k4() -> cr.Multigraph:
    return cr.Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def prufer_tree(n: int, seq: list[int]) -> cr.Multigraph:
    """Decode a Pruefer sequence (length n-2, entries in 0..n-1) to a tree."""
    assert n >= 2 and len(seq) == n - 2
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u, v = leaves[0], leaves[1]
    edges.append((u, v))
    return cr.Multigraph(n, edges)


def random_tree(rng: random.Random, n: int) -> cr.Multigraph:
    if n == 1:
        return cr.Multigraph(1, [])
    if n == 2:
        return cr.Multigraph(2, [(0, 1)])
    return prufer_tree(n, [rng.randrange(n) for _ in range(n - 2)])


def random_cactus(
    rng: random.Random,
    max_n: int = 10,
    max_genus: int = 3,
    max_cycle_len: int = 6,
) -> cr.Multigraph:
    """Random cactus grown block by block; every shape of attachment
    (stacking cycles on cycles included) can occur."""
    n = rng.randint(1, max_n)
    edges = []
    nv = 1
    cyc = 0
    while nv < n:
        room = n - nv
        if cyc < max_genus and rng.random() < 0.5:
            length = min(rng.randrange(2, max_cycle_len + 1), room + 1)
            at = rng.randrange(nv)
            if length == 2:
                edges += [(at, nv), (at, nv)]
                nv += 1
            else:
                ring = [at] + list(range(nv, nv + length - 1))
                nv += length - 1
                edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
            cyc += 1
        else:
            edges.append((rng.randrange(nv), nv))
            nv += 1
    return cr.Multigraph(nv, edges)


def edge_orders(rng: random.Random, g: cr.Multigraph):
    """g's edges in stored, shuffled and reversed order, each edge's ends
    swapped at random."""
    edges = list(g.edges)
    shuffled = rng.sample(edges, len(edges))
    for es in (edges, shuffled, edges[::-1]):
        yield cr.Multigraph(g.n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in es])


def grows_late(g: cr.Multigraph) -> bool:
    """True iff some edge, in stored order, has neither end reached from
    vertex 0 by the edges before it, so that the spanning tree grows the
    rest of the way over half-edge lists."""
    reached = {0}
    for u, v in g.edges:
        if u not in reached and v not in reached:
            return True
        reached.update((u, v))
    return False


def random_divisor(
    rng: random.Random, n: int, lo: int = -4, hi: int = 6, max_deg: int = 7
) -> cr.Divisor:
    """Entries uniform in [lo, hi]; total degree trimmed down to max_deg so
    the brute-force oracle stays inside its rank-search guard."""
    f = [rng.randint(lo, hi) for _ in range(n)]
    while sum(f) > max_deg:
        i = rng.randrange(n)
        if f[i] > lo:
            f[i] -= 1
    return cr.Divisor(f)


def naive_rank(g: cr.Multigraph, f) -> int:
    """Plain recursion over the elimination steps with explicit divisor
    copies: contract edge blocks, charge one chip at a bad cycle, evaluate
    BOTH branches at a good cycle and take the min.  Exponential in the
    number of good cycles, transparent, for small inputs only."""
    scheme = cr.build_bes(g)
    steps = scheme.steps
    root = scheme.root

    def rec(i: int, fmap: dict) -> int:
        if i == len(steps):
            d = fmap[root]
            return d if d >= 0 else -1
        step = steps[i]
        vs = step.block.vertices
        a = step.attach
        assert vs[0] == a
        total = sum(fmap[v] for v in vs)
        nxt = dict(fmap)
        for v in vs[1:]:
            del nxt[v]
        if step.block.kind is cr.BlockKind.EDGE:
            nxt[a] = total
            return rec(i + 1, nxt)
        remainder = [fmap[v] for v in vs[1:]]
        remainder.append(-sum(remainder))  # attachment last
        if cycle_goodness(remainder) is Goodness.BAD:
            nxt[a] = total - 1
            return rec(i + 1, nxt)
        nxt[a] = total
        skip = rec(i + 1, nxt)
        nxt[a] = total - 2
        return min(skip, rec(i + 1, nxt) + 1)

    return rec(0, {v: f[v] for v in range(g.n)})


def definition_rank(
    g: cr.Multigraph,
    f,
    *,
    max_vertices: int = 12,
    max_rank: int = 8,
) -> int:
    """Rank by definition read literally, the reference for oracle_rank:
    for r = 1, 2, ... subtract every effective divisor of degree r and
    reduce each result from scratch.  Same guards and errors."""
    limit = cr.OracleLimitError(f"rank is {max_rank} or more (raise max_rank to continue)")
    if g.n > max_vertices:
        raise cr.OracleLimitError(
            f"graph has {g.n} vertices, oracle guard is {max_vertices}"
        )
    if max_rank < 0:
        raise limit
    if len(f) != g.n:
        raise cr.GraphError("divisor length mismatch")
    if not g.is_connected():
        raise cr.DisconnectedGraphError("oracle_rank requires a connected graph")
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
            raise limit
        for comb in itertools.combinations_with_replacement(range(g.n), r):
            vals = base[:]
            for v in comb:
                vals[v] -= 1
            if _reduce_in_place(adj, deg, vals, 0)[0] < 0:
                return r - 1
        r += 1


# The chip-firing toolkit: the tests' tools for invariance under firing and
# for the vertex-argument checks.


def is_effective(f: Sequence[int]) -> bool:
    return all(v >= 0 for v in f)


def index_divisor(n: int, v: int) -> Divisor:
    """The divisor with a single chip at vertex v."""
    v = _vertex(n, v)
    return Divisor(1 if i == v else 0 for i in range(n))


def laplacian_row(g: Multigraph, v: int) -> tuple[int, ...]:
    """Row v of the graph Laplacian: degree on the diagonal, minus multiplicity off it."""
    v = _vertex(g.n, v)
    row = [0] * g.n
    row[v] = g.degrees[v]
    for u, m in g.adjacency[v].items():
        row[u] = -m
    return tuple(row)


def apply_firing(g: Multigraph, f: Sequence[int], x: Sequence[int]) -> Divisor:
    """Move chips along a firing vector: returns f + x.L where L is the Laplacian.

    A vertex v with x(v) = -1 fires (sends one chip down each incident edge);
    x(v) = +1 borrows.  Divisor degree is preserved for every x.
    """
    _divisor_degree(g, f)
    _divisor_degree(g, x)
    n = g.n
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



# Closed-form ranks on trees and cycles, plus the per-block operators.
#
# On a tree the rank of a divisor is its degree (or -1 below zero).  On a
# cycle of length k the only interesting case is degree zero, where the divisor
# is equivalent to zero exactly when the weighted position sum
#
#     1*f_1 + 2*f_2 + ... + (k-1)*f_{k-1}  (mod k)
#
# vanishes; such divisors are called good, the rest bad.  Positions run along
# the cycle with the attachment vertex last (position k, coefficient 0 mod k).
# The congruence does not depend on where the labeling starts or on direction,
# since the degree-zero condition absorbs both.
#
# contract_divisor and zero_part split a divisor across a free block: the sum
# of the block moves onto the attachment, and the block keeps a balanced
# remainder of degree zero.


class Goodness(enum.Enum):
    GOOD = "good"
    BAD = "bad"


def _cycle_length(f: Sequence[int]) -> int:
    k = len(f)
    if k < 2:
        raise GraphError("cycle length must be at least 2")
    return k


def cycle_goodness(f: Sequence[int]) -> Goodness:
    """Classify a degree-0 divisor on a cycle, entries in cycle order with
    the attachment last."""
    k = _cycle_length(f)
    if sum(f) != 0:
        raise GraphError("goodness is defined only for degree-0 divisors")
    acc = 0
    for i in range(k - 1):
        acc = (acc + (i + 1) * f[i]) % k
    return Goodness.GOOD if acc == 0 else Goodness.BAD


def cycle_rank(f: Sequence[int]) -> int:
    """Rank of any divisor on a cycle: -1 below degree 0, good/bad at 0,
    degree-1 above."""
    _cycle_length(f)
    d = sum(f)
    if d <= -1:
        return -1
    if d == 0:
        return 0 if cycle_goodness(f) is Goodness.GOOD else -1
    return d - 1


def tree_rank(g: Multigraph, f: Sequence[int]) -> int:
    """Rank of a divisor on a tree: the degree, floored at -1."""
    if not g.is_connected() or g.num_edges != g.n - 1:
        raise GraphError("tree_rank requires a tree")
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    d = sum(f)
    return d if d >= 0 else -1


def _check_free(g: Multigraph, block: Block, attach: int) -> None:
    if len(set(block.vertices)) != len(block.vertices):
        raise GraphError("block vertices must be distinct")
    if not all(isinstance(v, int) and 0 <= v < g.n for v in block.vertices):
        raise GraphError("block vertex out of range")
    vs, kind = block.vertices, block.kind
    if not _free_block_shape(g.adjacency, g.degrees, vs, attach, kind, _block_edges(kind, vs)):
        raise GraphError(f"block is not free at vertex {attach}")


def contract_divisor(g: Multigraph, f: Sequence[int], block: Block, attach: int) -> Divisor:
    """Divisor after contracting a free block into its attachment: the
    attachment collects the block's total, the other block vertices drop out.

    The result lives on the contracted graph; its entries follow the
    surviving vertices of g in ascending original id.  Degree is preserved.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    _check_free(g, block, attach)
    gone = set(block.vertices)
    gone.discard(attach)
    total = sum(f[v] for v in block.vertices)
    out = []
    for v in range(g.n):
        if v in gone:
            continue
        out.append(total if v == attach else f[v])
    return Divisor(out)


def zero_part(g: Multigraph, f: Sequence[int], block: Block, attach: int) -> Divisor:
    """Balanced remainder of f on a free block: equal to f away from the
    attachment, with the attachment entry set so the total is zero.

    Entries follow block.vertices order, so for a cycle block stored with
    the attachment first, rotating the result by one gives the attachment-last
    vector that cycle_goodness expects.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    _check_free(g, block, attach)
    vals = [f[v] for v in block.vertices]
    ai = block.vertices.index(attach)
    vals[ai] = -(sum(vals) - vals[ai])
    return Divisor(vals)


# The block decomposition and the scheme validator: the references that
# build_bes is checked against.


class BlockDecomposition(NamedTuple):
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    # block_of_edge[i] = index into blocks for edge id i (position in g.edges)
    block_of_edge: tuple[int, ...]


def block_decomposition(g: Multigraph) -> BlockDecomposition:
    """Blocks, cut vertices, and the edge-to-block map of a cactus."""
    blocks = _blocks(g)
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


def _block_edges(kind: BlockKind, vs) -> list:
    """The edges of a block as sorted vertex pairs: a bridge's one edge, the
    parallel pair of a 2-cycle twice, the sides of a longer cycle in ring
    order."""
    ring = vs[1:2] if kind is BlockKind.EDGE else (*vs[1:], vs[0])
    return [(u, v) if u <= v else (v, u) for u, v in zip(vs, ring)]


def _free_block_shape(adj, deg, vs, a: int, kind: BlockKind, edges: list) -> bool:
    """Is (vs, a) a free edge/cycle block of the graph given by adj/deg?
    edges is _block_edges(kind, vs); adj must hold each of them exactly as
    often as it is listed, and every vertex but a must have all of its ends
    inside the block."""
    if a not in vs or len(set(vs)) != len(vs):
        return False
    if len(vs) != 2 if kind is BlockKind.EDGE else len(vs) < 2:
        return False
    count = {}
    inside = dict.fromkeys(vs, 0)
    for e in edges:
        count[e] = count.get(e, 0) + 1
        u, v = e
        inside[u] += 1
        inside[v] += 1
    return (all(adj[u].get(v, 0) == m for (u, v), m in count.items())
            and all(deg[u] == inside[u] for u in vs if u != a))


def validate_bes(g: Multigraph, scheme: BlockEliminationScheme) -> bool:
    """Replay the scheme on g and check every invariant.  Returns False on
    any violation (wrong block, non-free block, leftovers...), never raises.

    A free block's other vertices have no edge left once it is removed, so
    when only the root survives, no edge does (g has no loops)."""
    try:
        n = g.n
        adj = [dict(d) for d in g.adjacency]
        deg = list(g.degrees)
        alive = bytearray([1]) * n
        for step in scheme.steps:
            kind = step.block.kind
            vs = step.block.vertices
            a = step.attach
            if not all(isinstance(v, int) and 0 <= v < n and alive[v] for v in vs):
                return False
            edges = _block_edges(kind, vs)
            if not _free_block_shape(adj, deg, vs, a, kind, edges):
                return False
            for u, v in edges:
                adj[u][v] -= 1
                adj[v][u] -= 1
                deg[u] -= 1
                deg[v] -= 1
            for v in vs:
                if v != a:
                    alive[v] = 0
        survivors = [v for v in range(n) if alive[v]]
        return survivors == [scheme.root]
    except Exception:
        return False


# small named graphs used by several test modules
def bowtie() -> cr.Multigraph:
    # two triangles sharing vertex 0
    return cr.Multigraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def stacked_triangles(levels: int) -> cr.Multigraph:
    """Chain of triangles, each next one hanging off a vertex of the last."""
    edges = []
    base = 0
    nv = 1
    for _ in range(levels):
        a, b = nv, nv + 1
        edges += [(base, a), (a, b), (b, base)]
        nv += 2
        base = b
    return cr.Multigraph(nv, edges)


def rank_witness(g: cr.Multigraph, f, res: cr.RankResult) -> list[int]:
    """An effective divisor E of degree rank + 1 read off a traced path-DP
    rank: d + 1 chips at the root when the path leaves it d >= 0 chips, and
    one chip at a non-attachment vertex of each charged cycle.  f - E should
    not be L-effective, which is what makes the rank no larger."""
    *steps, base = res.trace
    blocks = cr.build_bes(g).steps
    e = [0] * g.n
    if base.degree_after >= 0:
        e[base.attach] += base.degree_after + 1
    for s in steps:
        if s.branch == "charged":
            e[blocks[s.index].block.vertices[1]] += 1
    return e


def trace_digest(seed: int, count: int) -> str:
    """sha256 over repr(rank(g, f, trace=True)) for count seeded random cacti,
    each at degrees -1, 0, 1, g - 1, 2g - 3, 2g - 2 and 2g - 1 (g the genus)
    with chips in [-2, 3] moved one at a time to the degree.  Pins every
    trace record, not just the rank, the way the generator's digests pin
    its output."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        g = random_cactus(rng, max_n=100, max_genus=30, max_cycle_len=6)
        gn = cr.genus(g)
        for target in (-1, 0, 1, gn - 1, 2 * gn - 3, 2 * gn - 2, 2 * gn - 1):
            f = [rng.randint(-2, 3) for _ in range(g.n)]
            while sum(f) != target:
                f[rng.randrange(g.n)] += 1 if sum(f) < target else -1
            h.update(repr(cr.rank(g, f, trace=True)).encode("ascii"))
    return h.hexdigest()


# the environment of a child interpreter that imports cactusrank from this
# checkout's src/, whether or not the test process found it on PYTHONPATH
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"), CHILD_ENV.get("PYTHONPATH"))))


def run_fresh(code: str, *args: str, timeout: float | None = None) -> str:
    """stdout of `python -c code *args` in a new interpreter that imports
    cactusrank from this checkout's src/; fails the test on a non-zero exit,
    and on running past timeout seconds (subprocess.TimeoutExpired)."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs argv, reaps it with os.wait4, prints its ru_maxrss (kilobytes on
# Linux) and exits with its exit code
_MAXRSS = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss)
sys.exit(child.returncode)"""


def cli_peak_rss_mb(*args: str) -> float:
    """Peak resident set, in MB, of `python -m cactusrank *args`.

    On Linux a child's ru_maxrss starts at the resident set of the process
    that spawned it, so a child of the test process would report at least
    pytest's own peak.  The CLI is spawned instead by a bare `python -c`
    that stays small."""
    return int(run_fresh(_MAXRSS, sys.executable, "-m", "cactusrank", *args)) / 1024
