"""Shared test utilities: deterministic graph builders, corpora, and
transparent reference implementations of the rank recursion and of rank by
definition."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import cactusrank as cr
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
        if cr.cycle_goodness(remainder) is cr.Goodness.BAD:
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
    if g.n > max_vertices:
        raise cr.OracleLimitError(
            f"graph has {g.n} vertices, oracle guard is {max_vertices}"
        )
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
            raise cr.OracleLimitError(
                f"rank search passed {max_rank} (raise max_rank to continue)"
            )
        for comb in itertools.combinations_with_replacement(range(g.n), r):
            vals = base[:]
            for v in comb:
                vals[v] -= 1
            if _reduce_in_place(adj, deg, vals, 0)[0] < 0:
                return r - 1
        r += 1


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


# the environment of a child interpreter that imports cactusrank from this
# checkout's src/, whether or not the test process found it on PYTHONPATH
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parents[1] / "src"), CHILD_ENV.get("PYTHONPATH"))))


def run_fresh(code: str, *args: str) -> str:
    """stdout of `python -c code *args` in a new interpreter that imports
    cactusrank from this checkout's src/; fails the test on a non-zero exit."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=CHILD_ENV,
                          capture_output=True, text=True)
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
