"""The pipelined read: a problem file is parsed in this process while a
forked child grows its spanning tree.

The CLI reads a FILE this way for a command that scans the graph when the
FILE is a regular file of more than cli._PIPELINED bytes, os.fork exists
and the process may run on at least two CPUs; no other call loads this
module.  The parse is problemfile's, with every check.  The child is forked
at the first run that knows n, unless n is more than the file could hold
(its divisor line alone takes more than 2n bytes), so that the child, which
sizes its arrays by n, about 9 bytes a vertex, never allocates more than a
few times the file's size.  After each run's checks the run's new endpoints
go to it as raw C ints over a pipe.  It grows the tree with claims over
that stream, in the graph module's stored-order loop, _grow, and answers on
a second pipe with one of

  _TREE        the number of vertices reached, then idx, parent and claimed;
  _NOT_CACTUS  the edge that closes a second cycle through a tree edge;
  _NOT_GROWN   an edge came with neither end reached.

The first two become the graph's scan verdict (Multigraph._scanned), which
the block scan and is_connected read, so NotCactusError and
DisconnectedGraphError are raised where, and as, they are in-process.  On
_NOT_GROWN, or when the child fails, the scan grows the tree in this
process.  A parse error is raised before the verdict is read.  The child
reads the stream to its end whatever it finds, imports nothing, writes
nothing to stdio and leaves by os._exit; the parent closes both pipes and
reaps it before it returns or raises.
"""

from __future__ import annotations

import os
from array import array

from .graph import NotCactusError, _Blocks, _grow
from .problemfile import _parse

_TREE, _NOT_CACTUS, _NOT_GROWN = range(3)
# the most the child reads at a time: a pipe's default capacity on Linux
_READ = 1 << 16


def parse_file(path: str):
    """(Multigraph, Divisor) for the problem file at path, as
    problemfile.parse_file(path, check_connected=False) gives them, the
    graph holding the child's verdict."""
    with open(path, "rb") as fh:
        # a file that parses holds more than 2n bytes: "d" and " c" for each
        # of the divisor's n entries
        child = _Child(os.fstat(fh.fileno()).st_size // 2)
        try:
            g, f = _parse(fh, False, child.send)
            child.verdict(g)
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
            except OSError:  # the child is gone: the scan grows the tree here
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

    def verdict(self, g) -> None:
        """Mark the end of the stream, read the child's answer and store the
        verdict it gives on g; store nothing if the child failed."""
        if self.answer < 0:
            return
        self._close_data()
        head = array("i", [0]) * 3
        if not _fill(self.answer, head):
            return
        kind, a, b = head
        if kind == _NOT_CACTUS:
            g._scanned = NotCactusError((a, b))
        elif kind == _TREE:
            idx = array("i", [0]) * g.n
            parent = array("i", [0]) * g.n
            claimed = bytearray(g.n)
            if all(_fill(self.answer, buf) for buf in (idx, parent, claimed)):
                g._scanned = _Blocks(g._ends, idx, parent, array("i"), g.num_edges,
                                     claimed, a)

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
    the verdict on fd answer, and leave by os._exit, never returning."""
    code = 1
    try:
        chunks = _chunks(data)
        claimed = bytearray(n)
        try:
            idx, parent, stop = _grow(n, chunks, claimed)
        except NotCactusError as e:
            out = [array("i", (_NOT_CACTUS, *e.edge))]
        else:
            out = ([array("i", (_NOT_GROWN, 0, 0))] if stop is not None else
                   [array("i", (_TREE, n - idx.count(-1), 0)), idx, parent, claimed])
        for _ in chunks:  # the rest of the stream, unread by the tree
            pass
        for buf in out:
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
