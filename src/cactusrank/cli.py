"""Command line interface.

Commands: rank, oracle, reduce, rrcheck, check, bes, gen.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 ok, 1 check-style failure,
2 usage error, parse error, unreadable input or unwritable output, 3 invalid
graph (loop, bad id, wrong divisor length, disconnected), 4 not a cactus,
5 oracle guard exceeded.

One table, _COMMANDS, holds each command's handler, whether it reads a
FILE, its options with their defaults, and its help line; the same table
parses argv and prints the usage.  An option is given by its exact name,
as --opt N or --opt=N, and takes an int, except the flag --trace.  -h or
--help prints the usage.  Anything else is a usage error: one line on
stderr and exit code 2, returned by main, not raised.

Each command imports only the modules it runs, so that a call's start-up
does not pay for the others; no argument-parsing library is loaded.

For a command that scans the graph's blocks (rank, rrcheck, check, bes), a
FILE that is a regular file of more than _PIPELINED bytes is read by the
pipelined reader, piped, when os.fork exists and the process may run on two
CPUs or more: a forked child grows the spanning tree while this process
parses.  Every other FILE is parsed in this process, and a call that reads
one does not import piped.
"""

from __future__ import annotations

import os
import sys
from stat import S_ISREG

from .graph import GraphError, NotCactusError, OracleLimitError, is_cactus
from .problemfile import ParseError, _text_runs, parse_file


def _cmd_rank(g, f, trace) -> int:
    from .engine import rank

    res = rank(g, f, trace=trace)
    if trace:
        for s in res.trace:
            if s.kind == "base":
                print(f"base {s.branch} deg {s.degree_after} root {s.attach}",
                      file=sys.stderr)
            else:
                good = f" {s.goodness}" if s.goodness else ""
                br = f" take={s.branch}" if s.branch else ""
                print(f"block {s.index} {s.kind} attach {s.attach}{good} "
                      f"adjust {s.adjustment} deg {s.degree_after}{br}",
                      file=sys.stderr)
    print(res.rank)
    return 0


def _cmd_oracle(g, f, max_n, max_r) -> int:
    from .oracle import oracle_rank

    print(oracle_rank(g, f, max_vertices=max_n, max_rank=max_r))
    return 0


def _cmd_reduce(g, f, base) -> int:
    from .oracle import q_reduce

    red = q_reduce(g, f, base)
    print("d " + " ".join(map(str, red.values)))
    return 0


def _cmd_rrcheck(g, f) -> int:
    from .engine import rank
    from .oracle import oracle_rank, rr_check

    fn = (lambda gg, ff: rank(gg, ff).rank) if is_cactus(g) else oracle_rank
    ok = rr_check(g, f, fn)
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_check(g, f) -> int:
    print("cactus" if is_cactus(g) else "not-cactus")
    return 0


def _cmd_bes(g, f) -> int:
    from .blocks import build_bes

    scheme = build_bes(g)
    for i, step in enumerate(scheme.steps, 1):
        vs = " ".join(map(str, step.block.vertices))
        print(f"step {i} block {step.block.kind.value} [{vs}] attach {step.attach}")
    print(f"root {scheme.root}")
    return 0


def _cmd_gen(**options) -> int:
    from .generator import GeneratorParams, generate

    try:
        params = GeneratorParams(**options)
    except ValueError as e:
        print(f"gen: {e}", file=sys.stderr)
        return 2
    g, f = generate(params)
    sys.stdout.writelines(_text_runs(g, f))
    return 0


# command: (handler, reads a FILE, {option: default}, help line).  A
# handler takes the FILE's graph and divisor, if any, then each option as a
# keyword (--max-n as max_n).  A False default marks a flag, a None
# default a required option; every other option takes an int.
_COMMANDS = {
    "rank": (_cmd_rank, True, {"--trace": False},
             "fast cactus rank; --trace prints the minimising path's "
             "per-block decisions to stderr"),
    "oracle": (_cmd_oracle, True, {"--max-n": 12, "--max-r": 8},
               "brute-force rank (small graphs): --max-n guards the vertex "
               "count; a rank of --max-r or more is refused"),
    "reduce": (_cmd_reduce, True, {"--base": 0},
               'q-reduced divisor for base vertex q = --base, as a "d" line'),
    "rrcheck": (_cmd_rrcheck, True, {}, "rank duality identity: OK / FAIL"),
    "check": (_cmd_check, True, {}, "cactus / not-cactus"),
    "bes": (_cmd_bes, True, {}, "block elimination scheme, one step per line"),
    "gen": (_cmd_gen, False,
            {"--vertices": None, "--cycles": 0, "--max-cycle-len": 8,
             "--divisor-degree": 0, "--seed": 0},
            "emit a random cactus problem file"),
}


def _cmd_help() -> int:
    lines = [
        "usage: cactusrank COMMAND [FILE] [--option N ...]",
        "",
        "Divisor rank on cactus graphs, with a brute-force oracle.  Options",
        "take an integer, as --opt N or --opt=N; [--opt N] gives the default.",
        "",
    ]
    for name, (_, reads_file, options, text) in _COMMANDS.items():
        words = [name, "FILE"] if reads_file else [name]
        for opt, default in options.items():
            words.append(f"[{opt}]" if default is False
                         else f"{opt} N" if default is None
                         else f"[{opt} {default}]")
        lines += ["  " + " ".join(words), "      " + text]
    print("\n".join(lines))
    return 0


# the commands whose handlers scan the graph's blocks, which the pipelined
# read's child starts on
_SCANS = (_cmd_rank, _cmd_rrcheck, _cmd_check, _cmd_bes)
# the file size in bytes above which a scanning command's read is pipelined:
# in alternated CLI pairs of rank on gen files (2-vCPU VM, CPython 3.11.7;
# README, Performance) the two reads break even at about half a megabyte,
# and below it the fork and the pipe cost more than the overlap saves
_PIPELINED = 1 << 19


def _read(path: str, scans: bool):
    """The graph and divisor in the file at path, its connectivity left to
    the command, which scans the blocks if scans (see the module docstring
    for the pipelined read)."""
    if scans and _pipelined(path):
        from .piped import parse_file as read
        return read(path)
    return parse_file(path, check_connected=False)


def _pipelined(path: str) -> bool:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    try:
        st = os.stat(path)
    except OSError:  # reported by the in-process read
        return False
    return (S_ISREG(st.st_mode) and st.st_size > _PIPELINED
            and len(os.sched_getaffinity(0)) > 1)


class _UsageError(Exception):
    pass


def _parse_argv(argv):
    """(handler, FILE or None, keyword options) for argv, the help printer
    when argv holds -h or --help.  Raises _UsageError naming the first
    thing wrong."""
    if "-h" in argv or "--help" in argv:
        return _cmd_help, None, {}
    if not argv:
        raise _UsageError("no command given")
    name, *rest = argv
    if name not in _COMMANDS:
        raise _UsageError(f"unknown command {name!r}")
    func, reads_file, defaults, _ = _COMMANDS[name]
    options = dict(defaults)
    files = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        opt, eq, value = token.partition("=")
        if opt not in defaults:
            raise _UsageError(f"{name}: unknown option {opt!r}")
        if defaults[opt] is False:
            if eq:
                raise _UsageError(f"{name}: {opt} takes no value")
            options[opt] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"{name}: {opt} needs a value")
        try:
            options[opt] = int(value)
        except ValueError:
            raise _UsageError(
                f"{name}: {opt} needs an integer, not {value!r}") from None
    for opt, value in options.items():
        if value is None:
            raise _UsageError(f"{name}: {opt} is required")
    if len(files) != reads_file:
        raise _UsageError(f"{name}: expected {'one FILE' if reads_file else 'no FILE'}"
                          f", got {len(files)}")
    return (func, files[0] if files else None,
            {opt[2:].replace("-", "_"): value for opt, value in options.items()})


def main(argv=None) -> int:
    try:
        func, path, options = _parse_argv(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"usage error: {e} (cactusrank --help lists the commands)",
              file=sys.stderr)
        return 2
    inputs = None
    try:
        inputs = () if path is None else _read(path, func in _SCANS)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = func(*inputs, **options)
        sys.stdout.flush()
        return code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except NotCactusError as e:
        print(e, file=sys.stderr)
        return 4
    except OracleLimitError as e:
        print(f"oracle guard: {e}", file=sys.stderr)
        return 5
    except GraphError as e:
        print(f"invalid graph: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        # a handler reads nothing, so once the input is in, an OSError is
        # the output's
        if inputs is None:
            print(f"cannot read input: {e}", file=sys.stderr)
            return 2
        # what is left in stdout's buffer would fail again at exit, with a
        # second, multi-line report
        sys.stdout = None
        print(f"cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
