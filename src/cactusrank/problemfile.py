"""Problem files: one graph plus one divisor, line-based ASCII.

    # comment lines and blank lines are ignored
    n <N>                 exactly one header, first
    e <u> <v>             one line per edge copy (parallel edges repeat)
    d <v0> ... <v_{N-1}>  exactly one divisor line, last

serialize() emits the canonical form (no comments, edges in stored order),
and parsing it back is a byte-exact round trip.  Parsing distinguishes
syntax problems (ParseError, with a line number) from structurally invalid
graphs (GraphError: loops, out-of-range ids, wrong divisor length,
disconnected input).  Line numbers count every break str.splitlines() knows.

The file is read in one pass, a run of about 64 KB of whole lines at a
time, so its bytes are never held at once.  In each run, the stretch of edge
lines that has exactly the canonical shape goes by a C route: its numbers are
read by the JSON decoder and range- and loop-checked as one list.  A stretch
that fails a check, and every other line (comments, other spacing, CRLF line
ends, bad values), is read line by line, which raises the precise error.
Both give the same result.  Problem files are ASCII: any other byte, of a
file or of str input's UTF-8, is a ParseError before any other error.  On an
error the rest of the file is checked with isascii(), so that a non-ASCII
byte on a later line is the error reported; only when there is one are the
lines read again, up to that byte, to number its line.
"""

from __future__ import annotations

import io
import json
from array import array
from itertools import chain, islice
from operator import eq
from typing import BinaryIO, TextIO, Union

from .graph import (_MAX_VERTICES, DisconnectedGraphError, Divisor, GraphError, Multigraph,
                    _divisor_degree)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# a file is read this many bytes at a time, each read cut just after its last
# "\n", so no list or bytes object holds more than about one run's worth
_CHUNK = 1 << 16


def _runs(fh):
    r"""The binary file fh a run at a time: each run is the bytes up to just
    after the last "\n" in the next read of _CHUNK bytes, with whatever the
    reads before it left over in front, and the last run is what is left."""
    parts = []
    while more := fh.read(_CHUNK):
        cut = more.rfind(b"\n") + 1
        if cut:
            parts.append(more[:cut])
            run, parts = b"".join(parts), [more[cut:]]
            yield run
        else:
            parts.append(more)
    if run := b"".join(parts):
        yield run


def _spans(text: str, lo: int, sep: str):
    """(lo, hi) spans tiling text[lo:]: each is at least _CHUNK long and ends
    just after a sep, except the last, which ends at the end."""
    end = len(text)
    while lo < end:
        hi = text.find(sep, lo + _CHUNK - 1) + 1 or end
        yield lo, hi
        lo = hi


def _text(run: bytes, done: int) -> str:
    """run decoded, done lines after the file's start.  A byte that is not
    ASCII is a ParseError on the line splitlines() would put it."""
    try:
        return run.decode("ascii")
    except UnicodeDecodeError as e:
        # the text before the byte, with a character added, ends on its line
        line = done + len((run[:e.start] + b".").decode("ascii").splitlines())
        raise ParseError(f"non-ASCII byte 0x{run[e.start]:02x}", line) from None


def _lines(fh):
    r"""The lines of the file fh, as its decoded text's splitlines() gives
    them, decoded and split a run at a time: "\n" ends every line break it
    is part of, so a run that ends just after one ends a line."""
    done = 0
    for run in _runs(fh):
        lines = _text(run, done).splitlines()
        done += len(lines)
        yield from lines


_DIGITS = b"0123456789"
_CHIPS = b"-0123456789 "
# translated and put between "[" and "]", the numbers of canonical edge lines
# after their first "e ", or of a divisor span stripped of its outer spaces,
# are one JSON list: "u v\ne x y\n" reads "[u,v  ,x,y ]" and "x y" reads
# "[x,y]", one comma per space of the text
_ITEMS = bytes.maketrans(b" \ne", b",  ")


def _items(run: bytes) -> list:
    return json.loads("".join(("[", run.translate(_ITEMS).decode("ascii"), "]")))


def _edge_run(run: bytes):
    r"""(a, b, items), where run[a:b] is the stretch from the first line that
    starts with "e " to the first "d" after it and items are its numbers, if
    it is exactly canonical edge lines: with the digits deleted it reads
    "e  \n" * k, every "e" starting its line, and the C JSON decoder reads
    every number.  Otherwise (0, 0, None)."""
    a = 0 if run[:2] == b"e " else run.find(b"\ne ") + 1
    b = run.find(b"d", a)
    if b < 0:
        b = len(run)
    edges = run[a:b]
    k = edges.count(b"\n")
    if (edges[:2] == b"e " and edges[-1:] == b"\n" and edges.count(b"\ne ") == k - 1
            and edges.translate(None, _DIGITS) == b"e  \n" * k):
        try:
            return a, b, _items(edges[2:])
        except ValueError:  # an empty or malformed number
            pass
    return 0, 0, None


def _entries(span: str) -> list:
    # the integers of a span of the divisor line: by the C JSON decoder if it
    # holds only digits, "-" and single spaces, else by int()
    chips = span.strip(" ").encode()
    if not chips.translate(None, _CHIPS):
        try:
            return _items(chips)
        except ValueError:
            pass
    return list(map(int, span.split()))


def _divisor(line: str, lineno: int, n: int) -> Divisor:
    # split a run at a time; a space never falls inside an entry
    try:
        divisor = Divisor(chain.from_iterable(
            _entries(line[lo:hi]) for lo, hi in _spans(line, 1, " ")))
    except ValueError:
        raise ParseError("divisor entries must be integers", lineno) from None
    if len(divisor) != n:
        raise GraphError(f"line {lineno}: divisor has {len(divisor)} entries, expected {n}")
    return divisor


def _parse(fh, check_connected: bool):
    # fh: a seekable binary file, read from its current position
    start = fh.tell()
    runs = _runs(fh)
    n = divisor = None
    ends = array("i")
    add_end = ends.append
    lineno = 0
    for run in runs:
        if not run.isascii():
            _text(run, lineno)  # raises on the byte's line
        a, b, edges = _edge_run(run)
        try:
            # the lines before run[a:b], run[a:b] itself on the C route if it
            # passes the checks below, else line by line, then the rest
            for lo, hi, items in ((0, a, None), (a, b, edges), (b, None, None)):
                if (items and n is not None and divisor is None and max(items) < n
                        and not any(map(eq, islice(items, 0, None, 2),
                                        islice(items, 1, None, 2)))):
                    ends.fromlist(items)
                    lineno += len(items) >> 1
                    continue
                for raw in _text(run[lo:hi], lineno).splitlines():
                    lineno += 1
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    # enough parts to check an n or an e line
                    parts = line.split(None, 3)
                    tag = parts[0]
                    if tag == "n":
                        if n is not None:
                            raise ParseError("duplicate n header", lineno)
                        if len(parts) != 2:
                            raise ParseError("n header takes one value", lineno)
                        try:
                            n = int(parts[1])
                        except ValueError:
                            raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
                        if n < 1:
                            raise ParseError("vertex count must be at least 1", lineno)
                        if n > _MAX_VERTICES:
                            raise ParseError(f"vertex count above {_MAX_VERTICES}", lineno)
                    elif tag == "e":
                        if n is None:
                            raise ParseError("edge before n header", lineno)
                        if divisor is not None:
                            raise ParseError("edge after divisor line", lineno)
                        if len(parts) != 3:
                            raise ParseError("edge line takes two endpoints", lineno)
                        try:
                            u, v = int(parts[1]), int(parts[2])
                        except ValueError:
                            raise ParseError("edge endpoints must be integers", lineno) from None
                        if not (0 <= u < n and 0 <= v < n):
                            raise GraphError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
                        if u == v:
                            raise GraphError(f"line {lineno}: loop edge ({u}, {u}) not allowed")
                        add_end(u)
                        add_end(v)
                    elif tag == "d":
                        if n is None:
                            raise ParseError("divisor before n header", lineno)
                        if divisor is not None:
                            raise ParseError("duplicate divisor line", lineno)
                        # read once the loop is done and the run's bytes and
                        # this split are dropped, which lowers the peak
                        divisor, parts = (line, lineno), None
                    else:
                        raise ParseError(f"unknown directive {tag!r}", lineno)
        except (ParseError, GraphError):
            # a non-ASCII byte on a later line is the error reported: the
            # rest of the file is checked with isascii(), and only if a byte
            # fails does _lines read it again, from the start, to raise on
            # that byte's line.  An error on the d line comes next
            if not all(map(bytes.isascii, runs)):
                fh.seek(start)
                for _ in _lines(fh):
                    pass
            if divisor is not None:
                _divisor(*divisor, n)
            raise
    if n is None:
        raise ParseError("missing n header", lineno or None)
    if divisor is None:
        raise ParseError("missing divisor line", lineno or None)
    del run, edges  # the last run and its numbers, before the divisor is built
    f = _divisor(*divisor, n)
    g = Multigraph._from_ends(n, ends)
    if check_connected and not g.is_connected():
        raise DisconnectedGraphError("graph in file is disconnected")
    return g, f


def parse_string(text: str, *, check_connected: bool = True):
    """Parse problem-file text into (Multigraph, Divisor).

    check_connected=False skips the connectivity pass; callers that feed the
    graph straight into the block scan (which detects disconnection itself)
    use this to avoid touching every edge twice.
    """
    return _parse(io.BytesIO(text.encode("utf-8", "surrogatepass")), check_connected)


def parse_file(source: Union[str, BinaryIO, TextIO], *, check_connected: bool = True):
    """Parse a path or an open stream (text or binary).  A path opens as a
    binary stream.  A seekable binary stream, a regular file's included, is
    read a run at a time from its current position; any other stream, such
    as a pipe's, is read whole first."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return parse_file(fh, check_connected=check_connected)
    if isinstance(source.read(0), str):
        return parse_string(source.read(), check_connected=check_connected)
    if not source.seekable():
        source = io.BytesIO(source.read())
    return _parse(source, check_connected)


# serialize() fills this many copies of a line's format per % operation
_FILL = 1 << 12


def _filled(fmt: str, width: int, items):
    """fmt repeated len(items) // width times, filled from items in order, as
    one string per run of _FILL copies: one C-level % per run, not one
    Python format per copy."""
    step = width * _FILL
    full = fmt * _FILL
    return ((full if len(run) == step else fmt * (len(run) // width)) % tuple(run)
            for run in (items[lo:lo + step] for lo in range(0, len(items), step)))


def _text_runs(g: Multigraph, f):
    """The canonical problem-file text for (g, f) as a stream of strings, so
    a writer can write each run as it is formatted (cactusrank gen).  f is
    checked first, as %d would truncate a float entry."""
    _divisor_degree(g, f)
    yield f"n {g.n}\n"
    yield from _filled("e %d %d\n", 2, g._ends)
    yield "d"
    yield from _filled(" %d", 1, f)
    yield "\n"


def serialize(g: Multigraph, f) -> str:
    """Canonical problem-file text for (g, f)."""
    return "".join(_text_runs(g, f))
