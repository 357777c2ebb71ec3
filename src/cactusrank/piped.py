"""The pipelined read: a problem file is parsed in this process while a
forked child grows its spanning tree.

The CLI reads a FILE this way for a command that scans the graph when the
FILE is a regular file of more than cli._PIPELINED bytes, os.fork exists
and the process may run on at least two CPUs; no other call loads this
module.  The parse is problemfile's, with every check, and like the CLI's
in-process read it returns the divisor as a plain tuple.  The child is forked
at the first run that knows n, unless n is more than the file could hold
(its divisor line alone takes more than 2n bytes), so that the child, which
sizes its arrays by n, about 9 bytes a vertex, never allocates more than a
few times the file's size.  After each run's checks the run's new endpoints
go to it as raw C ints over a pipe.  It grows the tree over that stream in
the graph module's stored-order loop, _grow, as the in-process scan does,
and answers on a second pipe with three C ints, the number of vertices
reached and the first edge found on a second cycle, -1 -1 if none, then
idx, parent and claimed: the whole tree, which the graph keeps as if _tree
had grown it, so that is_connected and the block scan read it.  If an edge
comes with neither end reached, the child leaves at once with no answer
and the parent stops sending; then, or when the child fails, the scan grows
the tree in this process.  A parse error is raised before the answer is
read.  The child imports nothing, writes nothing to stdio and leaves by
os._exit; the parent closes both pipes and reaps it before it returns or
raises.
"""

from __future__ import annotations

import os
from array import array

from .graph import _grow, _Tree
from .problemfile import _parse

# the most the child reads at a time: a pipe's default capacity on Linux
_READ = 1 << 16


def parse_file(path: str):
    """(Multigraph, chips) for the problem file at path, as the CLI's
    in-process read, problemfile._parse_file(path, False), gives them: the
    chips a plain tuple, the graph holding the child's tree."""
    with open(path, "rb") as fh:
        # a file that parses holds more than 2n bytes: "d" and " c" for each
        # of the divisor's n entries
        child = _Child(os.fstat(fh.fileno()).st_size // 2)
        try:
            g, f = _parse(fh, False, child.send)
            child.answer_to(g)
        finally:
            child.close()
    return g, f


class _Child:
    """The forked child and this process's ends of its two pipes, -1 once
    closed; no child is forked for more than max_n vertices."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.forked = False
        self.pid = 0
        self.data = self.answer = -1

    def send(self, n, ends, new) -> None:
        """The parse's per-run hook: fork at the first run that knows n,
        then send the run's new endpoints."""
        if not self.forked:
            if n is None:
                return
            self.forked = True
            if n > self.max_n:  # an error to come: the file is too short
                return
            self._fork(n)
        if self.data >= 0:
            try:
                _write(self.data, ends[new:])
            except OSError:  # the child has left: the scan grows the tree here
                self._close_data()

    def _fork(self, n: int) -> None:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no child: the scan grows the tree here
            for fd in fds:
                os.close(fd)
            return
        data_r, data_w, answer_r, answer_w = fds
        if pid == 0:
            os.close(data_w)
            os.close(answer_r)
            _serve(n, data_r, answer_w)
        os.close(data_r)
        os.close(answer_w)
        self.pid, self.data, self.answer = pid, data_w, answer_r

    def answer_to(self, g) -> None:
        """Mark the end of the stream, read the child's answer and keep the
        tree it sends on g; keep nothing if the child sent none."""
        if self.answer < 0:
            return
        self._close_data()
        head = array("i", [0]) * 3
        if not _fill(self.answer, head):
            return
        reached, u, v = head
        idx = array("i", [0]) * g.n
        parent = array("i", [0]) * g.n
        claimed = bytearray(g.n)
        if all(_fill(self.answer, buf) for buf in (idx, parent, claimed)):
            g._grown = _Tree(g._ends, idx, parent, array("i"), g.num_edges, claimed,
                             reached, None if u < 0 else (u, v))

    def _close_data(self) -> None:
        if self.data >= 0:
            os.close(self.data)
            self.data = -1

    def close(self) -> None:
        """Close both pipes and reap the child."""
        self._close_data()
        if self.answer >= 0:
            os.close(self.answer)
            self.answer = -1
        if self.pid:
            pid, self.pid = self.pid, 0
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as where SIGCHLD is ignored
                pass


def _serve(n: int, data: int, answer: int) -> None:
    """The child: grow the tree over the endpoints read from fd data, send
    it on fd answer unless the edges were not in grown order, and leave by
    os._exit, never returning."""
    code = 1
    try:
        claimed = bytearray(n)
        idx, parent, stop, bad = _grow(n, _chunks(data), claimed)
        if stop is None:
            head = array("i", (n - idx.count(-1), *(bad or (-1, -1))))
            for buf in (head, idx, parent, claimed):
                _write(answer, buf)
        code = 0
    finally:
        os._exit(code)


def _chunks(fd: int):
    """The endpoints read from fd until its end, as C int arrays of whole
    edges; a read that ends inside an edge leaves that edge to the next."""
    rest = b""
    while more := os.read(fd, _READ):
        if rest:
            more = rest + more
        cut = len(more) & -8
        rest = more[cut:]
        chunk = array("i")
        chunk.frombytes(memoryview(more)[:cut])
        yield chunk


def _write(fd: int, buf) -> None:
    view = memoryview(buf).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _fill(fd: int, buf) -> bool:
    """Read into all of buf from fd; False if the stream ends first."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True
