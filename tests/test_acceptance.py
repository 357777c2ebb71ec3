"""Acceptance gate: one test per shipping criterion.

Each test prints a single summary line; pytest -v shows one PASSED/FAILED
line per criterion.  The corpus fixture (conftest.py) is shared: 1000 seeded
cacti with n <= 10, genus <= 3, divisor entries in [-4, 6] (degree capped at
7 so the brute-force oracle never trips its own rank-search guard).
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest

import cactusrank as cr
from cactusrank.cli import main

from .helpers import (
    CHILD_ENV,
    Goodness,
    block_decomposition,
    cli_peak_rss_mb,
    cycle_goodness,
    cycle_graph,
    cycle_rank,
    prufer_tree,
    random_tree,
    tree_rank,
    validate_bes,
)


def rk(g, f):
    return cr.rank(g, f).rank


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    for g, f in corpus:
        assert rk(g, f) == cr.oracle_rank(g, f), (g.edges, tuple(f))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: engine == oracle on {len(corpus)} instances "
          f"in {elapsed:.1f}s")


def test_criterion_2_rank_duality(corpus):
    for g, f in corpus:
        k = cr.canonical_divisor(g)
        lhs = rk(g, f) - rk(g, k - f)
        rhs = f.degree - cr.genus(g) + 1
        assert lhs == rhs, (g.edges, tuple(f))
    print(f"criterion 2 PASS: duality identity exact on {len(corpus)} instances")


def test_criterion_3_closed_forms():
    rng = random.Random(314159)

    def divisors(n, count):
        out = []
        for _ in range(count):
            f = [rng.randint(-3, 3) for _ in range(n)]
            while sum(f) > 6:
                f[rng.randrange(n)] -= 1
            out.append(f)
        return out

    # every labeled tree with up to 5 vertices, seeded trees for 6..8
    trees = [cr.Multigraph(1, []), cr.Multigraph(2, [(0, 1)])]
    for n in (3, 4, 5):
        for seq in itertools.product(range(n), repeat=n - 2):
            trees.append(prufer_tree(n, list(seq)))
    for n in (6, 7, 8):
        trees.extend(random_tree(rng, n) for _ in range(30))
    tree_checks = 0
    for g in trees:
        for f in divisors(g.n, 4):
            want = cr.oracle_rank(g, f)
            assert tree_rank(g, f) == want, (g.edges, f)
            assert rk(g, f) == want, (g.edges, f)
            tree_checks += 1

    cycle_checks = 0
    for k in range(2, 9):
        g = cycle_graph(k)
        for f in divisors(k, 80):
            want = cr.oracle_rank(g, f)
            assert cycle_rank(list(f[1:]) + [f[0]]) == want, (k, f)
            assert rk(g, f) == want, (k, f)
            cycle_checks += 1

    # degree-0 classification: Good exactly when the divisor ~ 0
    good_checks = 0
    for k in range(2, 7):
        g = cycle_graph(k)
        for f in itertools.product(range(-3, 4), repeat=k):
            if sum(f) != 0:
                continue
            is_good = cycle_goodness(list(f[1:]) + [f[0]]) is Goodness.GOOD
            assert is_good == cr.is_l_effective(g, f), (k, f)
            good_checks += 1
    for k in (7, 8):
        g = cycle_graph(k)
        for _ in range(300):
            f = [rng.randint(-3, 3) for _ in range(k - 1)]
            f.append(-sum(f))
            is_good = cycle_goodness(list(f[1:]) + [f[0]]) is Goodness.GOOD
            assert is_good == cr.is_l_effective(g, f), (k, f)
            good_checks += 1

    print(f"criterion 3 PASS: {len(trees)} trees ({tree_checks} divisors), "
          f"{cycle_checks} cycle divisors, {good_checks} goodness checks")


def test_criterion_4_goodness_invariance():
    rng = random.Random(271828)
    total = 0
    for n in range(3, 9):
        for _ in range(200):
            f = [rng.randint(-4, 4) for _ in range(n - 1)]
            f.append(-sum(f))
            base = cycle_goodness(f)
            for r in range(n):
                rot = f[r:] + f[:r]
                assert cycle_goodness(rot) is base, (f, r)
                assert cycle_goodness(rot[::-1]) is base, (f, r)
            total += 1
    print(f"criterion 4 PASS: goodness stable across all rotations and "
          f"reflections of {total} degree-0 divisors")


def test_criterion_5a_unit_chip_bounds(corpus):
    checked = 0
    for g, f in corpus:
        r = rk(g, f)
        for v in range(g.n):
            f1 = list(f)
            f1[v] -= 1
            r1 = rk(g, f1)
            assert r - 1 <= r1 <= r, (g.edges, tuple(f), v, r, r1)
            checked += 1
    print(f"criterion 5a PASS: removing one chip moves rank by at most one "
          f"({checked} vertex cases)")


def test_criterion_5b_two_chip_strict_drop(corpus):
    violations = []
    checked = 0
    for gi, (g, f) in enumerate(corpus):
        r = rk(g, f)
        if r < 0:
            continue
        for v in range(g.n):
            f2 = list(f)
            f2[v] -= 2
            r2 = rk(g, f2)
            checked += 1
            if not r2 < r:
                violations.append((gi, g, f, v, r, r2))
    if violations:
        gi, g, f, v, r, r2 = violations[0]
        # confirm with the independent oracle before declaring failure
        assert cr.oracle_rank(g, f) == r
        f2 = list(f)
        f2[v] -= 2
        assert cr.oracle_rank(g, f2) == r2
        pytest.fail(
            f"criterion 5b FAIL: strict drop does not hold at every vertex; "
            f"{len(violations)} of {checked} cases violate it. "
            f"First: corpus[{gi}], edges={g.edges}, f={tuple(f)}, v={v}: "
            f"rank(f)={r} and rank(f-2e_v)={r2}, both oracle-confirmed. "
            f"Removing two chips at a vertex does not always lower a "
            f"nonnegative rank; the inequality is only guaranteed for the "
            f"attachment vertex of a just-eliminated good cycle, not for "
            f"arbitrary vertices.",
            pytrace=False,
        )
    print(f"criterion 5b PASS: strict drop held on {checked} cases")


def test_criterion_6_linear_time_benchmark(tmp_path):
    times = {}
    for p in (14, 16, 18, 20):
        n = 2 ** p
        cycles = n // 8
        g, f = cr.generate(cr.GeneratorParams(
            vertices=n,
            cycles=cycles,
            max_cycle_len=8,
            divisor_degree=2 * cycles - 2,
            seed=101,
        ))
        path = str(tmp_path / f"bench_{p}.txt")
        with open(path, "w") as fh:
            fh.write(cr.serialize(g, f))
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cactusrank", "rank", path],
                env=CHILD_ENV,
                capture_output=True,
                text=True,
            )
            best = min(best, time.perf_counter() - t0)
            assert proc.returncode == 0, proc.stderr
        times[n] = best
        os.unlink(path)
    assert times[2 ** 20] < 5.0, times
    sizes = sorted(times)
    rates = []
    for a, b in zip(sizes, sizes[1:]):
        # sizes step by 4x = two doublings; bound the per-doubling growth rate
        rate = math.sqrt(times[b] / times[a])
        rates.append(rate)
        assert rate <= 3.0, (a, b, times)
    print(f"criterion 6 PASS: t(2^20)={times[2 ** 20]:.2f}s, per-doubling "
          f"growth rates {['%.2f' % r for r in rates]}")


def test_band_quarters_linear_time(tmp_path):
    # criterion 6's family at 2^20 at 1/4 and 3/4 of the band (0, 2g - 2):
    # the no-charge test over f closes the first and the one over K - f the
    # second, so neither runs the path DP, which took 131 and 149 s.  On a
    # 2-vCPU Xeon VM (CPython 3.11.7) the CLI call measured 2.9-3.6 s with a
    # depth-first block scan, and 1.6 s with the edge-order scan; at 1/4, 1.80
    # s before the pipelined read and 1.54 s with it (medians of five
    # alternated pairs).
    n = 2 ** 20
    cycles = n // 8
    times = {}
    for quarters in (1, 3):
        d = quarters * (2 * cycles - 2) // 4
        g, f = cr.generate(cr.GeneratorParams(
            vertices=n, cycles=cycles, max_cycle_len=8, divisor_degree=d, seed=101))
        path = tmp_path / f"band_{quarters}.txt"
        path.write_text(cr.serialize(g, f))
        del g, f
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "cactusrank", "rank", str(path)],
                                  env=CHILD_ENV, capture_output=True, text=True)
            best = min(best, time.perf_counter() - t0)
            assert proc.returncode == 0, proc.stderr
        r = int(proc.stdout)
        assert d - cycles <= r <= d // 2, (quarters, r)
        times[quarters] = best
        path.unlink()
    assert max(times.values()) < 5.0, times
    print(f"band quarters PASS: t(1/4)={times[1]:.2f}s, t(3/4)={times[3]:.2f}s at 2^20")


def test_rank_peak_rss(tmp_path):
    # criterion 6's file at 2^20 is 21 MB.  The parse reads it a run at a
    # time into one endpoint array and the divisor, and the engine folds in
    # the block scan's blocks as they come, so neither the file's bytes nor
    # the elimination scheme is held; on a 2-vCPU Xeon VM (CPython 3.11.7)
    # the peak measured 48 MB (47.0 MB with the pipelined read, whose forked
    # child is reaped before exit and so counted), against 64 MB with the
    # whole file read and the scheme stored in typed arrays, 80 MB with a
    # copy of the divisor, a far-end array and a list behind the divisor, and
    # 176 MB with lists of ints.  The same file with CRLF line ends is read line by line, and
    # with a comment on top its edge lines still go by the C route a run at
    # a time; both measured 47-48 MB, against 50 MB when either sent the
    # whole file to a separate line parser, 69 MB with the file's bytes held,
    # 90 MB with a decoded copy of the whole file too and 197 MB with every
    # line held at once.
    n = 2 ** 20
    cycles = n // 8
    path = tmp_path / "bench_20.txt"
    with open(path, "w") as fh:
        subprocess.run([sys.executable, "-m", "cactusrank", "gen", "--vertices", str(n),
                        "--cycles", str(cycles), "--max-cycle-len", "8",
                        "--divisor-degree", str(2 * cycles - 2), "--seed", "101"],
                       stdout=fh, env=CHILD_ENV, check=True)
    peak = cli_peak_rss_mb("rank", str(path))
    assert peak < 52, f"peak RSS {peak:.1f} MB"
    crlf = tmp_path / "bench_20_crlf.txt"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    commented = tmp_path / "bench_20_comment.txt"
    commented.write_bytes(b"# c\n" + path.read_bytes())
    for name, variant in (("CRLF line ends", crlf), ("a comment first", commented)):
        peak = cli_peak_rss_mb("rank", str(variant))
        assert peak < 52, f"peak RSS {peak:.1f} MB with {name}"


def test_shuffled_edges_at_scale(tmp_path):
    # criterion 6's 2^20 file with its edge lines in a seeded shuffle.  The
    # block scan meets an edge with neither end reached at once and grows
    # its tree over half-edge lists, holding them beside the tree arrays; on
    # a 2-vCPU Xeon VM (CPython 3.11.7) the CLI call measured 2.0 s at a
    # 59 MB peak, against 1.0 s and 47 MB with the edges in grown order.
    # The pipelined read forks here too, but its child meets that edge at
    # once and the tree grows in the CLI: 2.80 s against 2.89 s before it,
    # medians of eight alternated pairs on a busier host, both at 59 MB
    n = 2 ** 20
    cycles = n // 8
    g, f = cr.generate(cr.GeneratorParams(
        vertices=n, cycles=cycles, max_cycle_len=8, divisor_degree=2 * cycles - 2, seed=101))
    want = cr.rank(g, f).rank
    head, *edges, divisor = cr.serialize(g, f).splitlines(keepends=True)
    del g, f
    random.Random(20).shuffle(edges)
    path = tmp_path / "shuffled_20.txt"
    path.write_text(head + "".join(edges) + divisor)
    del edges
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cactusrank", "rank", str(path)],
                          env=CHILD_ENV, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == want
    assert elapsed < 5.0, f"{elapsed:.2f} s"
    peak = cli_peak_rss_mb("rank", str(path))
    assert peak < 64, f"peak RSS {peak:.1f} MB"
    print(f"shuffled edges PASS: {elapsed:.2f} s at a {peak:.1f} MB peak at 2^20")


def test_midband_polynomial_time():
    # degree g - 1 on criterion 6's family, in-process: the regime the
    # degree ladder cannot close, where every good cycle offers both the
    # charged and the skipped branch.  On a 2-vCPU Xeon VM (CPython 3.11.7)
    # t(2^12) measured 10-18 ms and the per-doubling rates 1.8-2.6; the
    # bounds leave about 14x and 1.9x of margin.
    times = {}
    for p in (10, 11, 12):
        n = 2 ** p
        cycles = n // 8
        g, f = cr.generate(cr.GeneratorParams(
            vertices=n,
            cycles=cycles,
            max_cycle_len=8,
            divisor_degree=cycles - 1,
            seed=101,
        ))
        best = math.inf
        for _ in range(7):
            t0 = time.perf_counter()
            r = rk(g, f)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
        d = f.degree
        gn = cr.genus(g)
        assert r - rk(g, cr.canonical_divisor(g) - f) == d - gn + 1, n
        assert d - gn <= r <= d // 2, (n, r)
    assert times[2 ** 12] < 0.25, times
    sizes = sorted(times)
    rates = [times[b] / times[a] for a, b in zip(sizes, sizes[1:])]
    assert max(rates) <= 5.0, times
    print(f"mid-band PASS: t(2^12)={times[2 ** 12] * 1000:.0f}ms, per-doubling "
          f"growth rates {['%.2f' % r for r in rates]}")


def test_traced_rank_time():
    # degree g - 1 at 2^14 on criterion 6's family: the trace is read back
    # from the same path DP, so it costs a constant factor over the untraced
    # rank.  On a 2-vCPU Xeon VM (CPython 3.11.7) traced/untraced measured
    # 1.4-1.6x, so the 3x bound leaves about 2x of margin.
    n = 2 ** 14
    cycles = n // 8
    g, f = cr.generate(cr.GeneratorParams(
        vertices=n,
        cycles=cycles,
        max_cycle_len=8,
        divisor_degree=cycles - 1,
        seed=101,
    ))
    times = {False: math.inf, True: math.inf}
    ranks = {}
    for _ in range(3):
        for trace in (False, True):
            t0 = time.perf_counter()
            ranks[trace] = cr.rank(g, f, trace=trace).rank
            times[trace] = min(times[trace], time.perf_counter() - t0)
    dual = rk(g, cr.canonical_divisor(g) - f) + f.degree - cr.genus(g) + 1
    assert ranks[False] == ranks[True] == dual, (ranks, dual)
    assert times[True] < 3 * times[False], times
    print(f"traced rank PASS: {times[True] * 1000:.0f}ms traced, "
          f"{times[False] * 1000:.0f}ms untraced at 2^14")


def test_criterion_7_scheme_validity(corpus):
    for g, _ in corpus:
        scheme = cr.build_bes(g)
        assert validate_bes(g, scheme), g.edges
        dec = block_decomposition(g)
        assert len(scheme.steps) == len(dec.blocks), g.edges
        n_cyc = sum(
            1 for s in scheme.steps if s.block.kind is cr.BlockKind.CYCLE
        )
        assert n_cyc == cr.genus(g), g.edges
    print(f"criterion 7 PASS: schemes replay cleanly on {len(corpus)} cacti, "
          f"block and cycle counts match")


def test_criterion_8_cli_contract(corpus, tmp_path, capsys):
    # byte-exact round trip over the whole corpus
    for g, f in corpus:
        text = cr.serialize(g, f)
        g2, f2 = cr.parse_string(text)
        assert cr.serialize(g2, f2) == text

    # documented exit code per error class
    ok = tmp_path / "ok.txt"
    ok.write_text("n 3\ne 0 1\ne 1 2\ne 2 0\nd 1 -2 1\n")
    assert main(["rank", str(ok)]) == 0

    bad_syntax = tmp_path / "syntax.txt"
    bad_syntax.write_text("n 3\nwhat\nd 0 0 0\n")
    assert main(["rank", str(bad_syntax)]) == 2

    loopy = tmp_path / "loop.txt"
    loopy.write_text("n 2\ne 0 0\nd 0 0\n")
    assert main(["rank", str(loopy)]) == 3

    k4 = tmp_path / "k4.txt"
    k4.write_text("n 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\nd 0 0 0 0\n")
    assert main(["rank", str(k4)]) == 4

    big = tmp_path / "big.txt"
    big.write_text("n 13\n" + "".join(f"e {i} {i + 1}\n" for i in range(12))
                   + "d " + " ".join(["0"] * 13) + "\n")
    assert main(["oracle", str(big)]) == 5

    capsys.readouterr()

    # gen emits identical bytes for identical seeds
    argv = ["gen", "--vertices", "64", "--cycles", "6", "--seed", "31337",
            "--divisor-degree", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    g, f = cr.parse_string(first)
    assert cr.genus(g) == 6 and f.degree == 4

    print("criterion 8 PASS: round trip byte-exact on the corpus, exit codes "
          "0/2/3/4/5 observed, gen byte-deterministic")
