"""Command line interface.

Commands: rank, oracle, reduce, rrcheck, check, bes, gen.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 ok, 1 check-style failure,
2 parse or usage error, 3 invalid graph (loop, bad id, wrong divisor length,
disconnected), 4 not a cactus, 5 oracle guard exceeded.

Each command imports only the modules it runs, so that a call's start-up
does not pay for the others.
"""

from __future__ import annotations

import argparse
import sys

from .graph import GraphError, NotCactusError, OracleLimitError
from .problemfile import ParseError, _text_runs, parse_file


def _cmd_rank(args, g, f) -> int:
    from .engine import rank

    res = rank(g, f, trace=args.trace)
    if args.trace:
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


def _cmd_oracle(args, g, f) -> int:
    from .oracle import oracle_rank

    print(oracle_rank(g, f, max_vertices=args.max_n, max_rank=args.max_r))
    return 0


def _cmd_reduce(args, g, f) -> int:
    from .oracle import q_reduce

    red = q_reduce(g, f, args.base)
    print("d " + " ".join(map(str, red.values)))
    return 0


def _cmd_rrcheck(args, g, f) -> int:
    from .blocks import is_cactus
    from .engine import rank
    from .oracle import oracle_rank, rr_check

    fn = (lambda gg, ff: rank(gg, ff).rank) if is_cactus(g) else oracle_rank
    ok = rr_check(g, f, fn)
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_check(args, g, f) -> int:
    from .blocks import is_cactus

    print("cactus" if is_cactus(g) else "not-cactus")
    return 0


def _cmd_bes(args, g, f) -> int:
    from .blocks import build_bes

    scheme = build_bes(g)
    for i, step in enumerate(scheme.steps, 1):
        vs = " ".join(map(str, step.block.vertices))
        print(f"step {i} block {step.block.kind.value} [{vs}] attach {step.attach}")
    print(f"root {scheme.root}")
    return 0


def _cmd_gen(args) -> int:
    from .generator import GeneratorParams, generate

    try:
        params = GeneratorParams(
            vertices=args.vertices,
            cycles=args.cycles,
            max_cycle_len=args.max_cycle_len,
            divisor_degree=args.divisor_degree,
            seed=args.seed,
        )
    except ValueError as e:
        print(f"gen: {e}", file=sys.stderr)
        return 2
    g, f = generate(params)
    sys.stdout.writelines(_text_runs(g, f))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cactusrank",
        description="Divisor rank on cactus graphs, with a brute-force oracle.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("rank", help="fast rank of the divisor in FILE")
    r.add_argument("file")
    r.add_argument("--trace", action="store_true",
                   help="print the minimising path's per-block decisions to stderr")
    r.set_defaults(func=_cmd_rank)

    o = sub.add_parser("oracle", help="brute-force rank (small instances)")
    o.add_argument("file")
    o.add_argument("--max-n", type=int, default=12, help="vertex guard (default 12)")
    o.add_argument("--max-r", type=int, default=8, help="rank search guard (default 8)")
    o.set_defaults(func=_cmd_oracle)

    q = sub.add_parser("reduce", help="print the q-reduced divisor")
    q.add_argument("file")
    q.add_argument("--base", type=int, default=0, help="base vertex q (default 0)")
    q.set_defaults(func=_cmd_reduce)

    rr = sub.add_parser("rrcheck", help="check the rank duality identity")
    rr.add_argument("file")
    rr.set_defaults(func=_cmd_rrcheck)

    c = sub.add_parser("check", help="print cactus / not-cactus")
    c.add_argument("file")
    c.set_defaults(func=_cmd_check)

    b = sub.add_parser("bes", help="print the block elimination scheme")
    b.add_argument("file")
    b.set_defaults(func=_cmd_bes)

    gn = sub.add_parser("gen", help="emit a random cactus problem file")
    gn.add_argument("--vertices", type=int, required=True)
    gn.add_argument("--cycles", type=int, default=0)
    gn.add_argument("--max-cycle-len", type=int, default=8)
    gn.add_argument("--divisor-degree", type=int, default=0)
    gn.add_argument("--seed", type=int, default=0)
    gn.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "file" not in args:
            return args.func(args)
        return args.func(args, *parse_file(args.file, check_connected=False))
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
        print(f"cannot read input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
