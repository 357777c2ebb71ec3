"""Closed-loop calls into child processes, timed and reaped with os.wait4.

A child is reaped by os.wait4 rather than by subprocess, so the resource
usage returned is that one child's own (ru_maxrss is its peak resident set),
not the running maximum over all children that RUSAGE_CHILDREN would give.

On Linux a child's ru_maxrss also starts at the resident set of the process
that spawned it (that process's peak, when it spawns by vfork as CPython's
subprocess does).  So the benchmark's children are spawned by a Spawner: a
bare interpreter running this file, which stays small however large the
process that drives it grows.  It reads one JSON request per line on stdin,
{"argv": [...], "timeout_s": S}, and answers each with one JSON line holding
the Call fields.

    python3 perfbench/client.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool


def call(argv: list[str], timeout_s: float) -> Call:
    """Run argv to completion (or kill it at timeout_s) and reap it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    drained = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            deadline = t0 + timeout_s
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
            drained = not timed_out
    finally:
        if not drained:
            # timed out or interrupted; not yet reaped, so the pid is still ours
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Call(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kilobytes
        exit_code=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        stderr=b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
        timed_out=timed_out,
    )


class Spawner:
    """A spawner process (this file) that runs calls one at a time; its
    children inherit env.  Use as a context manager, which ends it."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, text=True)

    def call(self, argv: list[str], timeout_s: float) -> Call:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout_s": timeout_s}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return Call(**json.loads(line))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # end of input ends the spawner
        self.proc.stdout.close()  # an unread reply cannot block it
        self.proc.wait()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        c = call(req["argv"], req["timeout_s"])
        sys.stdout.write(json.dumps(dataclasses.asdict(c)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
