import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

import cactusrank as cr
from cactusrank.cli import _COMMANDS, main

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
          "dataclasses", "inspect"}),
        (["check", path], "cactus", "cactusrank.graph",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.oracle",
          "cactusrank.generator"}),
        (["oracle", path], "0", "cactusrank.oracle",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.generator",
          "dataclasses", "inspect"}),
        (["gen", "--vertices", "3"], "n 3", "cactusrank.generator",
         {"cactusrank.blocks", "cactusrank.engine", "cactusrank.oracle"}),
    ):
        first, *_, summary = run_fresh(_LOADED, *argv).splitlines()
        code, *loaded = summary.split()
        assert (first, code) == (answer, "0") and used in loaded, argv
        assert not (unused | {"argparse"}) & set(loaded), argv


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
