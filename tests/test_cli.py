import functools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cactusrank as cr
from cactusrank import cli, graph, piped
from cactusrank.cli import _COMMANDS, main
from cactusrank.problemfile import _CHUNK

from .helpers import CHILD_ENV, run_fresh

TRIANGLE_GOOD = "n 3\ne 0 1\ne 1 2\ne 2 0\nd 1 -2 1\n"
TRIANGLE_PENDANT = "n 4\ne 0 1\ne 1 2\ne 2 0\ne 2 3\nd 0 0 0 0\n"
K4 = "n 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\nd 2 0 0 0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_rank_command(tmp_path, capsys):
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    assert main(["rank", path]) == 0
    assert capsys.readouterr().out == "0\n"


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out == "0\n"


def test_oracle_command_on_non_cactus(tmp_path, capsys):
    path = write(tmp_path, "k4.txt", K4)
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out == "0\n"


def test_reduce_command(tmp_path, capsys):
    path = write(tmp_path, "r.txt", "n 3\ne 0 1\ne 1 2\ne 2 0\nd 0 2 -1\n")
    assert main(["reduce", path]) == 0
    assert capsys.readouterr().out == "d 1 0 0\n"
    assert main(["reduce", path, "--base", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("d ")
    vals = list(map(int, out[2:].split()))
    assert sum(vals) == 1
    assert vals[0] >= 0 and vals[2] >= 0


def test_rrcheck_command(tmp_path, capsys):
    for text in (TRIANGLE_GOOD, TRIANGLE_PENDANT, K4):
        path = write(tmp_path, "x.txt", text)
        assert main(["rrcheck", path]) == 0
        assert capsys.readouterr().out == "OK\n"


def test_rrcheck_reports_fail(tmp_path, capsys, monkeypatch):
    # deg 2 on a triangle: rank 1 and rank(K - f) = -1 satisfy the identity;
    # a rank function that always answers 0 does not
    path = write(tmp_path, "t.txt", "n 3\ne 0 1\ne 1 2\ne 2 0\nd 2 0 0\n")
    assert main(["rrcheck", path]) == 0
    assert capsys.readouterr().out == "OK\n"
    monkeypatch.setattr("cactusrank.engine.rank", lambda g, f: cr.RankResult(0))
    assert main(["rrcheck", path]) == 1
    assert capsys.readouterr().out == "FAIL\n"


def test_check_command(tmp_path, capsys):
    path = write(tmp_path, "c.txt", TRIANGLE_PENDANT)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "cactus\n"
    path = write(tmp_path, "k.txt", K4)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "not-cactus\n"


def test_bes_command_golden(tmp_path, capsys):
    path = write(tmp_path, "b.txt", TRIANGLE_PENDANT)
    assert main(["bes", path]) == 0
    assert capsys.readouterr().out == (
        "step 1 block edge [2 3] attach 2\n"
        "step 2 block cycle [0 1 2] attach 0\n"
        "root 0\n"
    )


def test_bes_command_single_vertex(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "n 1\nd 0\n")
    assert main(["bes", path]) == 0
    assert capsys.readouterr().out == "root 0\n"


def test_gen_command_deterministic(tmp_path, capsys):
    argv = ["gen", "--vertices", "20", "--cycles", "3", "--seed", "7",
            "--divisor-degree", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    g, f = cr.parse_string(first)
    assert g.n == 20 and cr.genus(g) == 3 and f.degree == 2


def test_gen_command_infeasible(tmp_path, capsys):
    assert main(["gen", "--vertices", "2", "--cycles", "5"]) == 2
    err = capsys.readouterr().err
    assert "vertices" in err


def test_gen_output_feeds_other_commands(tmp_path, capsys):
    assert main(["gen", "--vertices", "15", "--cycles", "2", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    path = write(tmp_path, "g.txt", text)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "cactus\n"
    assert main(["rrcheck", path]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_exit_code_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "n 2\nbogus\nd 0 0\n")
    assert main(["rank", path]) == 2
    assert "parse error" in capsys.readouterr().err
    # a non-ASCII byte is a syntax error too, reported in one line
    path = tmp_path / "latin.txt"
    path.write_bytes(b"n 2\ne 0 1\nd 0 \xff\n")
    assert main(["rank", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 3") and err.count("\n") == 1
    # "\r" ends a line for a non-ASCII byte as for any other error
    path.write_bytes(b"n 2\re 0 1\rd 0 \xff\r")
    assert main(["rank", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: line 3: non-ASCII byte 0xff\n"


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["rank", str(tmp_path / "absent.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exit_code_invalid_graph(tmp_path, capsys):
    path = write(tmp_path, "loop.txt", "n 2\ne 0 0\nd 0 0\n")
    assert main(["rank", path]) == 3
    assert "invalid graph" in capsys.readouterr().err
    path = write(tmp_path, "disc.txt", "n 3\ne 0 1\nd 0 0 0\n")
    assert main(["rank", path]) == 3
    capsys.readouterr()


def test_exit_code_not_cactus(tmp_path, capsys):
    path = write(tmp_path, "k4.txt", K4)
    assert main(["rank", path]) == 4
    assert "not a cactus" in capsys.readouterr().err


def test_exit_codes_at_every_degree(tmp_path, capsys):
    # the diagnostic and exit code of a rank call on a graph that is not a
    # connected cactus do not depend on the divisor's degree or on --trace
    cases = (
        ("n 4\ne 0 1\ne 1 2\ne 2 0\ne 0 3\ne 0 3\ne 0 3\nd {}\n", 4,
         "not a cactus: edge (0, 3) lies on a second cycle\n"),
        ("n 10\ne 0 1\ne 1 2\ne 2 0\ne 0 3\ne 3 4\ne 4 0\n"
         "e 5 6\ne 6 7\ne 7 5\ne 5 8\ne 8 9\ne 9 5\nd {}\n", 3,
         "invalid graph: graph is disconnected (5 of 10 vertices reachable)\n"),
    )
    for text, code, err in cases:
        n = int(text.split()[1])
        for deg in (-1, 0, 1, 4, 5):
            chips = [deg] + [0] * (n - 1)
            path = write(tmp_path, "g.txt", text.format(" ".join(map(str, chips))))
            for flags in ([], ["--trace"]):
                assert main(["rank", path, *flags]) == code, (text, deg, flags)
                assert capsys.readouterr() == ("", err)


def test_exit_code_oracle_guard(tmp_path, capsys):
    edges = "".join(f"e {i} {i + 1}\n" for i in range(12))
    path = write(tmp_path, "big.txt", f"n 13\n{edges}d {' '.join(['0'] * 13)}\n")
    assert main(["oracle", path]) == 5
    assert "oracle guard" in capsys.readouterr().err
    # raising the guard makes the same instance acceptable, in either spelling
    for raised in (["--max-n", "13"], ["--max-n=13"]):
        assert main(["oracle", path, *raised]) == 0
        assert capsys.readouterr().out == "0\n"
    assert main(["oracle", path, "--max-n=12"]) == 5
    capsys.readouterr()
    # a rank of exactly --max-r is refused, and the one line says so
    path = write(tmp_path, "eight.txt", "n 1\nd 8\n")
    assert main(["oracle", path]) == 5
    assert capsys.readouterr() == (
        "", "oracle guard: rank is 8 or more (raise max_rank to continue)\n")
    # every rank is at least -1, so --max-r -1 refuses even a rank of -1
    path = write(tmp_path, "minus.txt", "n 2\ne 0 1\nd -1 0\n")
    assert main(["oracle", path, "--max-r", "-1"]) == 5
    assert capsys.readouterr() == (
        "", "oracle guard: rank is -1 or more (raise max_rank to continue)\n")
    assert main(["oracle", path, "--max-r", "0"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_rank_trace_goes_to_stderr(tmp_path, capsys):
    path = write(
        tmp_path, "bow.txt",
        "n 5\ne 0 1\ne 1 2\ne 2 0\ne 0 3\ne 3 4\ne 4 0\nd 1 0 0 0 0\n",
    )
    assert main(["rank", path, "--trace"]) == 0
    out, err = capsys.readouterr()
    assert out == "0\n"
    assert "block 0 cycle attach 0 good" in err
    assert "base path-dp" in err


def test_usage_errors(tmp_path, capsys):
    # each returns 2 with one line on stderr; none raises SystemExit
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    for argv in (
        [],
        ["frobnicate", path],
        ["rank", path, "--depth", "3"],
        ["rank", path, "--tr"],  # no prefix abbreviations
        ["oracle", path, "--max-n"],
        ["oracle", path, "--max-n", "x"],
        ["rank", path, "--trace=1"],
        ["rank"],
        ["rank", path, path],
        ["gen", "--cycles", "2"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)


def test_help_lists_every_command(tmp_path, capsys):
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    for argv in (["-h"], ["--help"], ["rank", path, "--help"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for command in ("rank", "oracle", "reduce", "rrcheck", "check", "bes", "gen"):
            assert f"\n  {command} " in out, (argv, command)


def test_output_errors_are_reported_as_such():
    # a reader that went away and a closed stdout are output errors: one
    # line, exit code 2; the exit flush adds nothing even when stdout is
    # block-buffered
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    for argv in (["gen", "--vertices", "2000", "--cycles", "100"],
                 ["gen", "--vertices", "5"]):
        cmd = [sys.executable, "-m", "cactusrank", *argv]
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(cmd, stdout=w, stderr=subprocess.PIPE, env=env,
                                  text=True)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (
            2, "cannot write output: [Errno 32] Broken pipe\n"), argv
        proc = subprocess.run(cmd, stderr=subprocess.PIPE, env=env, text=True,
                              preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (
            2, "cannot write output: stdout is closed\n"), argv


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    proc = subprocess.run(
        [sys.executable, "-m", "cactusrank", "rank", path],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n"


# the peak address space of an interpreter that has loaded every module a
# command can load, in kB
_VM_PEAK = """import re, cactusrank.cli, cactusrank.engine, cactusrank.generator, cactusrank.piped
print(re.search(r"VmPeak:\\s*(\\d+) kB", open("/proc/self/status").read())[1])"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_out_of_memory_is_one_line_and_exit_code_2(tmp_path):
    # under an address-space limit 8 MB above what start-up and the imports
    # take, set in the CLI's process alone, a 2^20-vertex file and a
    # 2^20-vertex gen run out of memory: one line on stderr, exit code 2
    import resource

    limit = (int(run_fresh(_VM_PEAK)) + 8 * 1024) * 1024
    n = 1 << 20
    path = tmp_path / "path.txt"
    with open(path, "w") as fh:
        fh.write(f"n {n}\n")
        fh.writelines(f"e {i} {i + 1}\n" for i in range(n - 1))
        fh.write("d" + " 0" * n + "\n")
    for argv in (["rank", str(path)], ["gen", "--vertices", str(n)]):
        proc = subprocess.run(
            [sys.executable, "-m", "cactusrank", *argv], env=CHILD_ENV,
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stderr.count("\n")) == (2, 1), (argv, proc.stderr)
        assert proc.stderr.startswith("out of memory: "), (argv, proc.stderr)


def test_rank_reads_a_path_naming_a_pipe():
    proc = subprocess.run(
        [sys.executable, "-m", "cactusrank", "rank", "/dev/stdin"],
        env=CHILD_ENV,
        input="n 3\ne 0 1\ne 1 2\ne 2 0\nd 2 0 0\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


_LOADED = """
import sys
from cactusrank.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(sys.modules)))
"""


def test_cli_call_loads_only_its_command(tmp_path):
    # start-up as a count, not a timer: a fresh interpreter runs one command
    # and lists every module it loaded; no command loads argparse
    path = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    for argv, answer, used, unused in (
        (["rank", path], "0", "cactusrank.engine",
         {"cactusrank.blocks", "cactusrank.oracle", "cactusrank.generator",
          "cactusrank.piped", "dataclasses", "inspect"}),
        (["check", path], "cactus", "cactusrank.graph",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.oracle",
          "cactusrank.generator", "cactusrank.piped"}),
        (["oracle", path], "0", "cactusrank.oracle",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.generator",
          "cactusrank.piped", "dataclasses", "inspect"}),
        (["gen", "--vertices", "3"], "n 3", "cactusrank.generator",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.oracle",
          "cactusrank.piped"}),
    ):
        first, *_, summary = run_fresh(_LOADED, *argv).splitlines()
        code, *loaded = summary.split()
        assert (first, code) == (answer, "0") and used in loaded, argv
        assert not (unused | {"argparse"}) & set(loaded), argv


# the pipelined read: files over one run of the parse, from generate at
# 2^13 vertices, and variants that end at each exit code the read can meet.
# They are under the CLI's size threshold, which the tests lower to one run
_BIG_N = 2 ** 13
_BIG_CYCLES = _BIG_N // 8


def _big_text(degree: int, seed: int = 3) -> str:
    g, f = cr.generate(cr.GeneratorParams(_BIG_N, _BIG_CYCLES, 8, degree, seed))
    return cr.serialize(g, f)


def _big_variants() -> dict:
    """name: file bytes.  The chord runs parallel to an edge of a cycle of
    three or more vertices, so it closes a second cycle through that edge;
    it is the last edge, and it and the other edits sit near the end, after
    the first runs went to the child."""
    text = _big_text(_BIG_CYCLES - 1)
    head, *edges, divisor = text.splitlines(keepends=True)
    g, _ = cr.parse_string(text)
    a, b = next(vs for kind, vs in graph._scan(g) if kind == 1 and len(vs) > 2)[:2]
    chord = [*edges, f"e {a} {b}\n"]
    n = int(head.split()[1])
    variants = {
        "stored": text,
        "chord": "".join([head, *chord, divisor]),
        "isolated vertex": "".join([f"n {n + 1}\n", *edges, divisor.rstrip() + " 0\n"]),
        "chord then a bad line": "".join([head, *chord, "e 1\n", divisor]),
        "late non-ASCII byte": "".join([head, *edges, "# caf\u00e9\n", divisor]),
        "CRLF line ends": text.replace("\n", "\r\n"),
        "shuffled edges": "".join([head, *random.Random(5).sample(edges, len(edges)), divisor]),
    }
    return {name: text.encode() for name, text in variants.items()}


def _calls(path, argvs, capsys) -> list:
    # (exit code, stdout, stderr) of main on each argv, path after the command
    out = []
    for command, *options in argvs:
        code = main([command, str(path), *options])
        out.append((code, *capsys.readouterr()))
    return out


def _counted_forks(monkeypatch, exit_at_once: bool = False) -> list:
    # two CPUs, whatever the host has, files over one run pipelined, and a
    # list that grows by one a fork; if exit_at_once, each child leaves as
    # soon as it is forked
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        pid = fork()
        if pid == 0 and exit_at_once:
            os._exit(0)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "_PIPELINED", _CHUNK)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _in_process(path, argvs, capsys, monkeypatch) -> list:
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return _calls(path, argvs, capsys)


_ARGVS = (["rank"], ["rank", "--trace"], ["check"], ["bes"])
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
def test_pipelined_read_matches_the_in_process_read(tmp_path, capsys, monkeypatch):
    forks = _counted_forks(monkeypatch)
    path = tmp_path / "big.txt"
    cases = [(f"degree {d}", _big_text(d).encode())
             for d in (-1, 0, _BIG_CYCLES // 2, _BIG_CYCLES - 1, 2 * _BIG_CYCLES - 2,
                       2 * _BIG_CYCLES - 1)]
    cases += _big_variants().items()
    codes = set()
    for name, data in cases:
        assert len(data) > _CHUNK, name
        path.write_bytes(data)
        forks.clear()
        got = _calls(path, _ARGVS, capsys)
        assert len(forks) == len(_ARGVS), name
        assert got == _in_process(path, _ARGVS, capsys, monkeypatch), name
        codes.update(code for code, *_ in got)
    assert codes == {0, 2, 3, 4}


def _kept(tree) -> tuple:
    return (tree.idx, tree.parent, tree.late, tree.stop, tree.claimed, tree.reached,
            tree.bad)


@needs_fork
def test_pipelined_read_verdicts(tmp_path):
    # the child sends the whole tree, the one _tree grows in this process,
    # and the graph keeps it: on the chord, the tree's bad edge is the
    # chord.  On shuffled edges the child meets an edge with neither end
    # reached and sends nothing, and the scan grows the tree in this process
    path = tmp_path / "big.txt"
    variants = _big_variants()
    chord = tuple(map(int, variants["chord"].splitlines()[-2].split()[1:]))
    for name, bad in (("stored", None), ("chord", chord), ("isolated vertex", None),
                      ("shuffled edges", None)):
        path.write_bytes(variants[name])
        g, f = piped.parse_file(str(path))
        h, f_in = cr.parse_string(variants[name].decode(), check_connected=False)
        assert (g, f) == (h, f_in), name
        # both of the CLI's reads hand over the divisor they built, a plain
        # tuple; the library copies it into a Divisor
        assert type(f) is type(cli._read(str(path), False)[1]) is tuple, name
        grown = graph._tree(h)
        assert grown.bad == bad, name
        if name == "shuffled edges":
            assert g._grown is None
        else:
            assert _kept(g._grown) == _kept(grown), name


@needs_fork
def test_rrcheck_on_a_pipelined_file_grows_no_tree_here(tmp_path, capsys, monkeypatch):
    # the child's tree answers the cactus check, both ranks and the genus;
    # read in this process, the file's graph grows one tree
    forks = _counted_forks(monkeypatch)
    grown = []
    tree = graph._tree

    def counted(g):
        grown.append(g)
        return tree(g)

    monkeypatch.setattr(graph, "_tree", counted)
    path = tmp_path / "big.txt"
    path.write_text(_big_text(_BIG_CYCLES - 1))
    assert main(["rrcheck", str(path)]) == 0
    assert (capsys.readouterr().out, len(forks), grown) == ("OK\n", 1, [])
    assert _in_process(path, [["rrcheck"]], capsys, monkeypatch) == [(0, "OK\n", "")]
    assert len(grown) == 1


@needs_fork
def test_pipelined_read_survives_a_child_that_exits_at_once(tmp_path, capsys,
                                                             monkeypatch):
    forks = _counted_forks(monkeypatch, exit_at_once=True)
    path = tmp_path / "big.txt"
    variants = _big_variants()
    for name in ("stored", "chord", "isolated vertex", "chord then a bad line"):
        path.write_bytes(variants[name])
        want = _in_process(path, _ARGVS, capsys, monkeypatch)
        assert _calls(path, _ARGVS, capsys) == want, name
    assert forks


@needs_fork
def test_pipelined_read_forks_once_for_a_big_file_and_a_scan_only(tmp_path, capsys,
                                                                 monkeypatch):
    threshold = cli._PIPELINED
    forks = _counted_forks(monkeypatch)
    big = tmp_path / "big.txt"
    big.write_text(_big_text(0))
    small = write(tmp_path, "t.txt", TRIANGLE_GOOD)
    assert main(["rank", str(big)]) == 0
    assert len(forks) == 1
    # oracle and reduce do not scan; oracle refuses the graph by its size
    assert main(["oracle", str(big)]) == 5
    assert main(["reduce", str(big)]) == 0
    for command in ("rank", "check", "bes", "oracle", "reduce", "rrcheck"):
        main([command, small])
    assert len(forks) == 1
    # the big file is under the real threshold
    assert big.stat().st_size <= threshold
    monkeypatch.setattr(cli, "_PIPELINED", threshold)
    assert main(["rank", str(big)]) == 0
    assert len(forks) == 1
    capsys.readouterr()


@needs_fork
def test_pipelined_read_forks_no_child_for_more_vertices_than_the_file_holds(
        tmp_path, capsys, monkeypatch):
    # the header states 2^31 - 1 vertices and the file is far too short for
    # them: the parse ends at the divisor's length, with no child sized by n
    # (a child forked here leaves at once, before it could size its arrays)
    forks = _counted_forks(monkeypatch, exit_at_once=True)
    path = tmp_path / "big.txt"
    path.write_text("n 2147483647\n" + "e 0 1\n" * 20_000 + "d 0 0\n")
    assert path.stat().st_size > _CHUNK
    want = _in_process(path, _ARGVS, capsys, monkeypatch)
    assert _calls(path, _ARGVS, capsys) == want
    assert {code for code, *_ in want} == {3}
    assert forks == []


# the CLI in a fresh interpreter, pipelining as under _counted_forks; it runs
# setup first, the forked child runs child first, and the number of forks is
# printed after the call's own output
_PIPELINING = """import os, sys, time
from cactusrank import cli
from cactusrank.problemfile import _CHUNK
os.sched_getaffinity = lambda pid: {{0, 1}}
cli._PIPELINED = _CHUNK
fork = os.fork
forks = []
def counted():
    forks.append(1)
    pid = fork()
    if pid == 0:
        {child}
    return pid
os.fork = counted
{setup}
code = cli.main(sys.argv[1:])
print("forks", len(forks))
sys.exit(code)"""


@needs_fork
def test_pipelined_read_where_the_system_reaps_children(tmp_path):
    # with SIGCHLD ignored the child is reaped by the system, and the CLI's
    # own wait finds no child: not an error
    text = _big_text(0)
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = _PIPELINING.format(
        setup="import signal; signal.signal(signal.SIGCHLD, signal.SIG_IGN)", child="pass")
    assert (run_fresh(code, "rank", str(path))
            == f"{cr.rank(*cr.parse_string(text)).rank}\nforks 1\n")


@needs_fork
def test_no_process_outlives_a_cli_call(tmp_path):
    # a process the CLI forked holds every file descriptor the CLI held, so
    # the read end of a pipe whose write end the CLI inherits reaches its end
    # as soon as the call exits only if no such process is left; a child
    # that starts 0.3 s late would outlive a CLI that did not wait for it.
    # stdout and stderr go to a file: a pipe there would make run() wait for
    # every holder
    variants = _big_variants()
    path = tmp_path / "big.txt"
    for name, code in (("stored", 0), ("chord then a bad line", 2), ("chord", 4)):
        path.write_bytes(variants[name])
        for child in ("pass", "time.sleep(0.3)"):
            how = _PIPELINING.format(setup="", child=child)
            r, w = os.pipe()
            try:
                with open(tmp_path / "out", "w") as out:
                    proc = subprocess.run([sys.executable, "-c", how, "rank", str(path)],
                                          env=CHILD_ENV, stdout=out, stderr=out,
                                          pass_fds=(w,), timeout=60)
                os.close(w)
                w = -1
                os.set_blocking(r, False)
                assert (proc.returncode, os.read(r, 1)) == (code, b""), (name, child)
                assert "forks 1\n" in (tmp_path / "out").read_text(), (name, child)
            finally:
                os.close(r)
                if w >= 0:
                    os.close(w)


def _mutate(seed: bytes, edits) -> bytes:
    # each edit overwrites, inserts or deletes bytes at a position
    data = bytearray(seed)
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        if kind == 0:
            data[pos:pos + len(chunk)] = chunk
        elif kind == 1:
            data[pos:pos] = chunk
        else:
            del data[pos:pos + len(chunk) + 1]
    return bytes(data)


_SEEDS = [t.encode() for t in (TRIANGLE_GOOD, TRIANGLE_PENDANT, K4)] + [
    b"n 5\ne 0 1\ne 1 2\ne 2 0\ne 0 3\ne 3 4\ne 4 0\nd 1 0 2 0 -1\n",
    b"n 1\nd 0\n",
]
_EDITS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99),
                            st.binary(min_size=1, max_size=3)), max_size=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=80),
                 st.builds(_mutate, st.sampled_from(_SEEDS), _EDITS)))
def test_exit_code_contract_on_arbitrary_bytes(tmp_path, capsys, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for command in ("rank", "check", "bes", "oracle", "reduce", "rrcheck"):
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), (command, data, code)
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, (command, data, err)


# seeds above one run of the parse, the pipelined read's files, and edits
# anywhere in them, of any bytes, of digits or of the file format's bytes.
# Hypothesis favours small integers: a multiplicative hash spreads the
# positions over the file
_BIG_SEEDS = functools.cache(lambda: list(_big_variants().values()))
_BIG_EDITS = st.lists(st.tuples(
    st.integers(0, 2), st.integers(0, 1 << 17).map(lambda x: x * 2654435761 % (1 << 17)),
    st.one_of(st.binary(min_size=1, max_size=3),
              st.text("0123456789", min_size=1, max_size=3).map(str.encode),
              st.text("0123456789 -\nde", min_size=1, max_size=3).map(str.encode)),
), max_size=4)


@needs_fork
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 6), _BIG_EDITS)
def test_pipelined_read_matches_the_in_process_read_on_mutated_files(
        tmp_path, capsys, monkeypatch, seed, edits):
    data = _mutate(_BIG_SEEDS()[seed], edits)
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    argvs = (["rank"], ["check"], ["bes"], ["rrcheck"])
    with monkeypatch.context() as m:
        _counted_forks(m)
        got = _calls(path, argvs, capsys)
        assert got == _in_process(path, argvs, capsys, m), (seed, edits)


# what argv tokens are drawn from: every command and option name, spelled
# both ways, small ints, and free text without NUL (an operating system's
# argv cannot hold one)
_OPTIONS = sorted({opt for _, _, options, _ in _COMMANDS.values() for opt in options})
_INTS = st.integers(-3, 40).map(str)
_TOKENS = st.one_of(
    st.sampled_from([*_COMMANDS, *_OPTIONS, "-h", "--help", "-", "--"]),
    _INTS,
    st.builds("{}={}".format, st.sampled_from(_OPTIONS), _INTS),
    st.text(st.characters(exclude_characters="\x00"), max_size=6),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_TOKENS, max_size=8), st.integers(0, 8))
def test_main_returns_an_exit_code_on_any_argv(tmp_path, capsys, monkeypatch,
                                               tokens, at):
    # one valid file among the tokens; relative names resolve in tmp_path
    monkeypatch.chdir(tmp_path)
    tokens.insert(at, write(tmp_path, "t.txt", TRIANGLE_GOOD))
    code = main(tokens)
    capsys.readouterr()
    assert type(code) is int and 0 <= code <= 5, tokens
