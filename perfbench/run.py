"""cactusrank benchmark: the real CLI, driven as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

One client, one child at a time: each call is a fresh `python -m cactusrank`
process on a generated problem file, so interpreter start-up is included.
Every child is spawned by client.Spawner, a bare interpreter of its own, so
the children's max-RSS does not start at this process's size.  Workloads
are defined in workloads.py.  A run sets up (generates and writes the
problem files, several times, reporting the median) and verifies the
expected answers (untimed), both in a workloads.py child, then measures
whole passes over the problems until S seconds have gone by.

--trace 0 prints the end-to-end metrics:
  wall_s          median wall time of one pass over the workload's problems
  latency_p50_s   median per-call wall time
  latency_tail_s  per-call wall time at the highest percentile with at least
                  10 problems beyond it (the slowest problem when there are
                  fewer than 11); its level, the count beyond it and the
                  number of calls are in the report line
  peak_rss_mb     largest max-RSS of any child, read per child by os.wait4
  setup_s         median time to generate and write the problem files
  ok_frac         share of calls that exit 0 in time with the right answer
Both latencies are taken over the problems, a problem's latency being the
median of its calls over the passes, and estimated by Harrell-Davis, which
weighs every problem near the quantile instead of taking one, so that a
call slowed by the host moves them less.

--trace 1 runs one untraced pass, then one traced pass in which every problem
goes to a fresh layers.py child that times each layer (see layers.py), and
prints the per-layer metrics, summed over a pass (rss: the largest); the
report line tallies the regimes that closed the engine's passes.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it is a JSON report with the run metadata and
every problem's (n, g, degree, closing regime).  Any wrong answer, crash or
timeout makes the exit code 1; a checkout without src/cactusrank gives 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import client
import workloads as wl

ROOT = wl.ROOT
HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 165.0  # every run must end within 180 s
STARTUP_CALLS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio",
}
SPAN_NAMES = (
    "problemfile.parse_s", "problemfile.serialize_s", "graph.csr_bfs_s",
    "graph.adjacency_s", "blocks.scan_s", "engine.rank_s", "engine.walk_s",
    "oracle.rank_s", "oracle.q_reduce_s", "generate.gen_s",
)
RSS_LAYERS = ("problemfile", "graph", "blocks", "engine", "oracle", "generate")
COUNT_NAMES = (
    "problemfile.bytes", "graph.edges", "blocks.blocks", "blocks.cycles",
    "engine.steps_walked", "engine.good_cycles", "engine.bad_cycles",
)
# the spans a CLI call of each command spends inside the package
CLI_PATH = {
    "rank": ("problemfile.parse_s", "graph.csr_bfs_s", "engine.rank_s"),
    "oracle": ("problemfile.parse_s", "graph.csr_bfs_s", "graph.adjacency_s",
               "oracle.rank_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Closed-loop calls with one shared deadline; tallies every attempt."""

    def __init__(self, spawner: client.Spawner, deadline: float):
        self.spawner = spawner
        self.deadline = deadline
        self.attempted = 0
        self.failures: list = []

    def run(self, argv: list, timeout_s: float, check) -> client.Call | None:
        """One call; check(call) returns an error string or None.  Returns
        None, and counts a failure, when the deadline leaves no time."""
        self.attempted += 1
        left = self.deadline - time.perf_counter()
        if left < 1.0:
            self.failures.append(f"{argv[-1]}: not run, run deadline reached")
            return None
        c = self.spawner.call(argv, min(timeout_s, left))
        if c.timed_out:
            err = f"timed out after {min(timeout_s, left):.1f} s"
        elif c.exit_code != 0:
            err = f"exit {c.exit_code}: {c.stderr.strip()[-300:]}"
        else:
            err = check(c)
        if err:
            self.failures.append(f"{Path(argv[-1]).name}: {err}")
        return c


def expect_stdout(expected, errors):
    def check(c):
        if errors:
            return "; ".join(errors)
        got = c.stdout.strip()
        return None if got == str(expected) else f"printed {got!r}, expected {expected}"
    return check


def cli_argv(command: str, path: str) -> list:
    return [sys.executable, "-m", "cactusrank", command, path]


def run_pass(runner: Runner, workload, problems: list) -> tuple[float, list]:
    """One call per problem, in order; the calls line up with the problems
    (None where the run's deadline left no time)."""
    t0 = time.perf_counter()
    calls = [runner.run(cli_argv(workload.command, p.path), workload.call_timeout_s,
                        expect_stdout(p.expected, p.errors))
             for p in problems]
    return time.perf_counter() - t0, calls


def hd_quantile(xs: list, q: float, per_bin: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): the mean of the
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each
    bin [(i-1)/n, i/n], integrated by the midpoint rule.  Every sample near
    the quantile counts, so it is steadier than a single order statistic."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    h = 1.0 / (n * per_bin)
    logs = [(a - 1) * math.log((k + 0.5) * h) + (b - 1) * math.log1p(-(k + 0.5) * h)
            for k in range(n * per_bin)]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [math.fsum(dens[i * per_bin:(i + 1) * per_bin]) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile level, problems beyond it) of per-problem
    latencies: the Harrell-Davis estimate at the highest percentile with at
    least TAIL_BEYOND problems beyond it, or the slowest problem when there
    are no more than TAIL_BEYOND."""
    m = len(latencies)
    if m <= TAIL_BEYOND:
        return max(latencies), 100.0, 0
    level = (m - TAIL_BEYOND) / m
    return hd_quantile(latencies, level), 100.0 * level, TAIL_BEYOND


def machine_meta() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def startup_probe(runner: Runner, workdir: Path) -> list:
    """CLI calls on a 1-vertex problem: warms the bytecode cache and times
    bare start-up.  Returns the wall times of the successful calls."""
    path = workdir / "one-vertex.txt"
    path.write_text("n 1\nd 0\n", encoding="ascii")
    path = str(path)
    walls = []
    for _ in range(STARTUP_CALLS):
        c = runner.run(cli_argv("rank", path), 30.0, expect_stdout(0, []))
        if c is not None and c.exit_code == 0:
            walls.append(c.wall_s)
    return walls


def measure(workload, problems: list, runner: Runner, seconds: float, workdir: Path):
    """Untraced passes until `seconds` have gone by (at least one)."""
    startup_probe(runner, workdir)  # warm-up, not reported
    runner.attempted = 0
    runner.failures.clear()
    passes = []
    t0 = time.perf_counter()
    while True:
        wall, calls = run_pass(runner, workload, problems)
        passes.append((wall, calls))
        now = time.perf_counter()
        if now - t0 >= seconds or now + wall > runner.deadline:
            return passes


def end_to_end(passes, setup_s, runner) -> tuple[dict, dict]:
    """wall_s is the median over passes.  A problem's latency is the median
    of its calls over the passes, and the latencies reported are
    Harrell-Davis quantiles over the problems, so that neither the level
    nor the estimate depends on how many passes fit in a run."""
    walls = [wall for wall, _ in passes]
    lat = [[c.wall_s if c else None for c in calls] for _, calls in passes]
    per_problem = [statistics.median(xs) for xs in
                   ([x for x in col if x is not None] for col in zip(*lat)) if xs]
    nan = float("nan")
    value, level, beyond = tail(per_problem) if per_problem else (nan, nan, 0)
    metrics = {
        "wall_s": statistics.median(walls),
        "latency_p50_s": hd_quantile(per_problem, 0.5) if per_problem else nan,
        "latency_tail_s": value,
        "peak_rss_mb": max((c.rss_mb for _, calls in passes for c in calls if c), default=nan),
        "setup_s": setup_s,
        "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
    }
    extra = {"passes": len(passes), "pass_walls_s": walls, "call_walls_s": lat,
             "latency_samples": sum(x is not None for p in lat for x in p),
             "latency_tail_level_pct": level, "latency_tail_beyond": beyond}
    return metrics, extra


def traced(workload, problems: list, runner: Runner, workdir: Path) -> tuple[dict, dict]:
    """One untraced pass, the start-up probe, then one traced pass."""
    untraced_wall, _ = run_pass(runner, workload, problems)
    startup = startup_probe(runner, workdir)
    spans = {k: 0.0 for k in SPAN_NAMES}
    counts = {k: 0 for k in COUNT_NAMES}
    regimes: dict = {}
    rss = {k: 0.0 for k in RSS_LAYERS}
    cli_path = 0.0
    t0 = time.perf_counter()
    for p in problems:
        rows = []

        def check(c, p=p, rows=rows):
            try:
                row = json.loads(c.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                return "layers.py printed no result"
            rows.append(row)
            if p.errors:
                return "; ".join(p.errors)
            if row["rank"] != p.expected:
                return f"traced rank {row['rank']} != expected {p.expected}"
            if workload.command == "oracle" and row["oracle"] != p.expected:
                return f"traced oracle rank {row['oracle']} != expected {p.expected}"
            if not row["regenerated_same"]:
                return "regenerated problem differs from the file"
            return None

        runner.run([sys.executable, str(HERE / "layers.py"), p.path, json.dumps(p.params)],
                   workload.call_timeout_s * 3, check)
        if not rows:
            continue
        row = rows[0]
        p.regime = row["regime"]
        for k in SPAN_NAMES:
            spans[k] += row["spans"][k]
        for k in RSS_LAYERS:
            rss[k] = max(rss[k], row["spans"][f"{k}.rss_mb"])
        for k in COUNT_NAMES:
            counts[k] += row["counts"][k]
        regimes[row["regime"]] = regimes.get(row["regime"], 0) + 1
        cli_path += sum(row["spans"][k] for k in CLI_PATH[workload.command])
    traced_wall = time.perf_counter() - t0

    metrics = {k: (v, "s") for k, v in spans.items()}
    metrics.update({f"{k}.rss_mb": (v, "MB") for k, v in rss.items()})
    metrics.update({k: (v, "bytes" if k.endswith("bytes") else "count")
                    for k, v in counts.items()})
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else float("nan"), "s")
    metrics["cli.overhead_s"] = (untraced_wall - cli_path, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "cli_path_s": cli_path, "regime_counts": regimes}
    return metrics, extra


def set_up(workload, seed: int, trace: bool, workdir: Path, goldens, runner: Runner):
    """Set-up and verify in a workloads.py child (set up once when tracing);
    returns the problems and the median set-up time.  A failed set-up ends
    the run without a result."""
    left = runner.deadline - time.perf_counter()
    argv = [sys.executable, str(HERE / "workloads.py"), "setup", workload.name, str(seed),
            str(workdir), "--budget", f"{left - 5:.1f}"]
    argv += ["--once"] * trace + ["--tiny"] * workload.tiny
    if goldens:
        argv += ["--goldens", str(goldens)]
    c = runner.spawner.call(argv, left)
    if c.timed_out or c.exit_code != 0:
        raise SystemExit(f"set-up of {workload.name} failed (exit {c.exit_code}, "
                         f"timed out {c.timed_out}): {c.stderr.strip()[-500:]}")
    out = json.loads(c.stdout.strip().splitlines()[-1])
    return [wl.Problem(**p) for p in out["problems"]], out["setup_s"]


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 goldens, spawner: client.Spawner) -> dict:
    """goldens: a goldens.json-shaped file of expected answers, or None."""
    runner = Runner(spawner, time.perf_counter() + RUN_BUDGET_S)
    problems, setup_s = set_up(workload, seed, trace, workdir, goldens, runner)
    problems = wl.call_order(problems, seed)
    if trace:
        metrics, extra = traced(workload, problems, runner, workdir)
    else:
        passes = measure(workload, problems, runner, seconds, workdir)
        values, extra = end_to_end(passes, setup_s, runner)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    failed = len(runner.failures)
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        **machine_meta(), **extra,
        "problems": [p.meta for p in sorted(problems, key=lambda p: p.key)],
        "failures": runner.failures[:20],
    }
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def print_result(res: dict) -> None:
    rep = res["report"]
    print(f"# {rep['workload']}: seed {rep['seed']}, trace {int(rep['trace'])}, "
          f"{res['attempted']} calls, {res['failed']} failed")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in rep["failures"]:
        print(f"FAIL {line}")
    print(json.dumps({"report": rep}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cactusrank" / "__init__.py").is_file():
        print(f"no cactusrank source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = {}
        with client.Spawner(child_env()) as spawner:
            for name in names:
                res = run_workload(wl.WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), workdir, wl.GOLDENS, spawner)
                print_result(res)
                results[name] = res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
