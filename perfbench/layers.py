"""Traced child: times one problem's calls into each cactusrank layer.

    python3 perfbench/layers.py PROBLEM_FILE GENERATOR_PARAMS_JSON

Spans are taken here, around public calls from outside the package, in this
order (each layer's rss_mb is this process's ru_maxrss high-water mark read
right after the named call):

  problemfile.parse_s     parse_file(check_connected=False), as the CLI does
  graph.csr_bfs_s         first g.is_connected(): builds the CSR, plus one BFS
  blocks.scan_s           is_cactus(g) with the CSR already cached
  engine.rank_s           rank(g, f); it runs the scan again, so
  engine.walk_s           = engine.rank_s - blocks.scan_s
  (untimed)               rank(g, f, trace=True) for the top-level counts
  graph.adjacency_s       the g.adjacency dicts the oracle reads
  oracle.rank_s           oracle_rank(g, f); beyond its n <= 12 guard this is
                          the time it takes to refuse, as `cactusrank oracle`
  oracle.q_reduce_s       q_reduce(g, f, 0) up to QREDUCE_MAX_N vertices; it
                          is quadratic, so larger graphs reduce the zero
                          divisor instead (one burning pass)
  generate.gen_s          generate(params) of the same problem
  problemfile.serialize_s serialize(g, f) of the regenerated problem

Prints one JSON object with the answers and every span.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import import_cactusrank

QREDUCE_MAX_N = 4096


def main(argv: list[str]) -> int:
    path, params_json = argv
    cr = import_cactusrank()
    out = {}

    def span(name, fn, *args, **kw):
        t0 = time.perf_counter()
        value = fn(*args, **kw)
        out[name] = time.perf_counter() - t0
        return value

    def rss(layer):
        out[f"{layer}.rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    g, f = span("problemfile.parse_s", cr.parse_file, path, check_connected=False)
    rss("problemfile")
    span("graph.csr_bfs_s", g.is_connected)
    rss("graph")
    span("blocks.scan_s", cr.is_cactus, g)
    rss("blocks")
    answer = span("engine.rank_s", cr.rank, g, f).rank
    rss("engine")
    out["engine.walk_s"] = out["engine.rank_s"] - out["blocks.scan_s"]

    steps = cr.rank(g, f, trace=True).trace
    walked = [s for s in steps if s.kind != "base"]
    counts = {
        "engine.steps_walked": len(walked),
        "engine.good_cycles": sum(s.goodness == "good" for s in walked),
        "engine.bad_cycles": sum(s.goodness == "bad" for s in walked),
    }
    regime = steps[-1].branch

    span("graph.adjacency_s", lambda: g.adjacency)
    t0 = time.perf_counter()
    try:
        oracle = cr.oracle_rank(g, f)
    except cr.OracleLimitError:
        oracle = None
    out["oracle.rank_s"] = time.perf_counter() - t0
    target = f if g.n <= QREDUCE_MAX_N else cr.Divisor([0] * g.n)
    span("oracle.q_reduce_s", cr.q_reduce, g, target, 0)
    rss("oracle")

    scheme = cr.build_bes(g)
    counts["blocks.blocks"] = len(scheme.steps)
    counts["blocks.cycles"] = sum(s.block.kind is cr.BlockKind.CYCLE for s in scheme.steps)
    counts["graph.edges"] = g.num_edges
    counts["problemfile.bytes"] = os.path.getsize(path)
    del g, f, scheme

    p = json.loads(params_json)
    g2, f2 = span("generate.gen_s", cr.generate, cr.GeneratorParams(**p))
    rss("generate")
    text = span("problemfile.serialize_s", cr.serialize, g2, f2)
    with open(path, encoding="ascii") as fh:
        same = fh.read() == text

    print(json.dumps({"rank": answer, "oracle": oracle, "regime": regime,
                      "regenerated_same": same, "spans": out, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
