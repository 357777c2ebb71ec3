"""Benchmark workloads: which problem files each one runs, and their answers.

A workload is a list of generator parameters plus the cactusrank subcommand
that every call runs on each generated file.  Expected answers come from an
untimed verify phase: the answers stored in goldens.json for the default
seed, else the rank duality identity rank(f) - rank(K - f) = deg - g + 1
with the in-process engine on K - f; either way the closed-form bounds must
hold.

run.py imports nothing from cactusrank: set-up and verify run in a child of
their own, which prints the problems as one JSON line, so the large
problems never enter run.py's memory:

    python3 perfbench/workloads.py setup WORKLOAD SEED WORKDIR [--once]
        [--tiny] [--goldens FILE] [--budget SECONDS]

and this rewrites goldens.json from the current engine:

    python3 perfbench/workloads.py goldens
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
DEFAULT_SEED = 0
# setup_s is the median of several set-ups: at least 3, and enough to fill
# four seconds when the problems are small, so that it spans the host's
# second-to-second changes of speed
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 4.0, 2000


def import_cactusrank():
    """Import the package from the checkout's src/ tree."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import cactusrank
    return cactusrank


def mirror_params(seed: int, n: int = 2 ** 20) -> list:
    """The acceptance gate's family: cycles = n/8, cycle length <= 8, degree
    2g - 2.  The graph follows the seed; the cost depends on n only."""
    cr = import_cactusrank()
    c = n // 8
    return [cr.GeneratorParams(n, c, 8, 2 * c - 2, seed)]


def midband_params(seed: int, n: int = 512, seeds: range = range(10),
                   shares: tuple = (3 / 8, 1 / 2, 5 / 8)) -> list:
    """Degrees 3/8, 1/2 and 5/8 of 2g - 2 on the same family.  The corpus
    does not follow the seed: per-instance cost is heavy-tailed (passes over
    seed blocks 0..9, 10..19, 20..29, 30..39, 40..49 took 19, 20, 10, 13 and
    95 s in-process on a 2-vCPU Xeon), so a seed-dependent corpus would
    measure the corpus, not the program.  The seed only orders the calls."""
    cr = import_cactusrank()
    c = n // 8
    return [cr.GeneratorParams(n, c, 8, int(share * (2 * c - 2)), s)
            for s in seeds for share in shares]


def oracle_params(seed: int, seeds: range = range(8),
                  degrees: tuple = (6, 8, 10)) -> list:
    """n = 12 with 4 cycles, degrees 2g - 2, 2g and 2g + 2 (ranks 2..6).
    Fixed corpus for the same reason as midband: the oracle's cost over one
    8-seed block ranged from 7.0 to 10.5 s."""
    cr = import_cactusrank()
    return [cr.GeneratorParams(12, 4, 8, d, s) for s in seeds for d in degrees]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the cactusrank subcommand each call runs
    params: Callable[[int], list]
    call_timeout_s: float
    tiny: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("mirror-1m", "rank", mirror_params, 60.0),
        Workload("midband", "rank", midband_params, 60.0),
        Workload("oracle-small", "oracle", oracle_params, 30.0),
    )
}

# the same three shapes, small enough for the self-tests
TINY = {
    "mirror-1m": Workload("mirror-1m", "rank", partial(mirror_params, n=2 ** 10), 30.0, True),
    "midband": Workload("midband", "rank", partial(midband_params, n=64, seeds=range(2)),
                        30.0, True),
    "oracle-small": Workload("oracle-small", "oracle",
                             partial(oracle_params, seeds=range(1), degrees=(6, 8)), 30.0, True),
}


@dataclass
class Problem:
    params: dict  # GeneratorParams fields
    path: str
    genus: int = 0
    expected: Optional[int] = None
    # TraceStep.branch of the pass's base record, from the goldens or a traced run
    regime: str = "unknown"
    errors: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return problem_key(self.params)

    @property
    def meta(self) -> dict:
        p = self.params
        return {"key": self.key, "n": p["vertices"], "g": self.genus,
                "degree": p["divisor_degree"], "regime": self.regime}


def problem_key(p: dict) -> str:
    return (f"n{p['vertices']}-c{p['cycles']}-L{p['max_cycle_len']}"
            f"-d{p['divisor_degree']}-s{p['seed']}")


def setup_once(workload: Workload, seed: int, workdir: Path):
    """Generate and write every problem file; returns [(problem, g, f)]."""
    cr = import_cactusrank()
    out = []
    for params in workload.params(seed):
        g, f = cr.generate(params)
        text = cr.serialize(g, f)
        fields = dataclasses.asdict(params)
        prob = Problem(fields, str(workdir / f"{problem_key(fields)}.txt"))
        with open(prob.path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        out.append((prob, g, f))
    return out


def setup(workload: Workload, seed: int, workdir: Path):
    """Set up SETUP_MIN_REPS times, and more while the total is under
    SETUP_MIN_S; returns the last setup and the median setup time."""
    times = []
    while True:
        t0 = time.perf_counter()
        made = setup_once(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_S):
            return made, statistics.median(times)
        del made


class VerifyTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Interrupt the block after seconds of wall time (main thread only)."""
    def fire(signum, frame):
        raise VerifyTimeout()
    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def load_goldens(workload: str, path=GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def verify(workload: Workload, made: list, goldens: dict, budget_s: float) -> list:
    """Fill in expected answers and regimes; record any failed check in
    problem.errors.  The expected rank is the golden when there is one (each
    was checked by duality when written), else it comes from the duality
    identity with the in-process engine on K - f.  Returns the problems."""
    cr = import_cactusrank()
    problems = []
    deadline = time.perf_counter() + budget_s
    for prob, g, f in made:
        problems.append(prob)
        gn = cr.genus(g)
        d = f.degree
        gold = goldens.get(prob.key)
        prob.genus = gn
        if gold:
            prob.regime = gold["regime"]
        try:
            with time_limit(deadline - time.perf_counter()):
                r = gold["rank"] if gold else duality_rank(cr, g, f)
                direct = cr.rank(g, f).rank if workload.command == "oracle" else r
        except VerifyTimeout:
            prob.errors.append("verify timed out")
            continue
        prob.expected = r
        prob.errors.extend(bound_errors(r, d, gn))
        if direct != r:
            prob.errors.append(f"engine rank {direct} != expected {r}")
    return problems


def duality_rank(cr, g, f) -> int:
    """rank(f) from rank(f) - rank(K - f) = deg - g + 1."""
    return cr.rank(g, cr.canonical_divisor(g) - f).rank + f.degree - cr.genus(g) + 1


def bound_errors(r: int, d: int, gn: int) -> list:
    """Closed forms outside the band, Riemann-Roch and Clifford inside it."""
    if d < 0:
        ok = r == -1
    elif d > 2 * gn - 2:
        ok = r == d - gn
    else:
        ok = d - gn <= r <= d // 2
    return [] if ok else [f"rank {r} breaks the closed-form bounds at deg {d}, g {gn}"]


def write_goldens() -> None:
    """Answers and closing regimes for the default seed of every workload,
    each checked by duality, the bounds and, on oracle workloads, the oracle."""
    cr = import_cactusrank()
    out = {}
    for name, w in WORKLOADS.items():
        rows = {}
        for params in w.params(DEFAULT_SEED):
            g, f = cr.generate(params)
            res = cr.rank(g, f, trace=True)
            key = problem_key(dataclasses.asdict(params))
            if (duality_rank(cr, g, f) != res.rank or bound_errors(res.rank, f.degree, cr.genus(g))
                    or (w.command == "oracle" and cr.oracle_rank(g, f) != res.rank)):
                raise SystemExit(f"{name} {key}: the checks disagree with rank {res.rank}")
            rows[key] = {"rank": res.rank, "regime": res.trace[-1].branch}
            print(name, key, rows[key], flush=True)
        out[name] = rows
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def call_order(problems: list, seed: int) -> list:
    order = list(problems)
    random.Random(seed).shuffle(order)
    return order


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark set-up child, or rewrite the goldens")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("goldens")
    st = sub.add_parser("setup")
    st.add_argument("workload", choices=list(WORKLOADS))
    st.add_argument("seed", type=int)
    st.add_argument("workdir", type=Path)
    st.add_argument("--once", action="store_true", help="set up once, untimed")
    st.add_argument("--tiny", action="store_true", help="the self-tests' small variant")
    st.add_argument("--goldens", type=Path, help="expected answers (default: none)")
    st.add_argument("--budget", type=float, default=150.0, help="seconds for set-up and verify")
    args = ap.parse_args(argv)
    if args.cmd == "goldens":
        write_goldens()
        return 0

    deadline = time.perf_counter() + args.budget
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    if args.once:
        made, setup_s = setup_once(workload, args.seed, args.workdir), None
    else:
        made, setup_s = setup(workload, args.seed, args.workdir)
    for prob, _, _ in made:  # untimed: no writeback of the files while calls are timed
        with open(prob.path, "rb") as fh:
            os.fsync(fh.fileno())
    goldens = load_goldens(workload.name, args.goldens) if args.goldens else {}
    problems = verify(workload, made, goldens,
                      budget_s=0.4 * (deadline - time.perf_counter()))
    print(json.dumps({"setup_s": setup_s,
                      "problems": [dataclasses.asdict(p) for p in problems]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
