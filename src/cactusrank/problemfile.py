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

Input in exactly the canonical shape is parsed on a fast path that leaves
the per-number work to C; anything else (comments, other spacing, CRLF line
ends, bad values) falls back to a line-by-line pass that produces precise
errors.  Both give the same result.  Problem files are ASCII: any other byte,
of a file or of str input's UTF-8, is a ParseError before any other error.

Both passes read the file a run of about 64 KB at a time, so a file's bytes
are never held at once; the fallback seeks back to where the fast path
began and parses the lines.  On an error it checks the file with isascii(),
so that a non-ASCII byte on a later line is the error reported; only when
there is one are the lines read again, up to that byte, to number its line.
"""

from __future__ import annotations

import io
import json
from array import array
from itertools import chain, islice
from operator import eq
from typing import BinaryIO, TextIO, Union

from .graph import _MAX_VERTICES, DisconnectedGraphError, Divisor, GraphError, Multigraph


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# a file is read this many bytes at a time, each read cut just after its last
# separator, so no list or bytes object holds more than about one run's worth
_CHUNK = 1 << 16


class _Runs:
    """A binary file read a run at a time.  Called with a separator, returns
    the next run: the bytes up to just after the last sep in the next read of
    _CHUNK bytes, with whatever the reads before it left over in front.  At
    the end of the file it returns what is left, then b"".  rest holds the
    bytes read but not yet returned; a caller may put bytes back in front."""

    def __init__(self, fh):
        self.read = fh.read
        self.rest = b""

    def __call__(self, sep: bytes) -> bytes:
        parts = [self.rest]
        while True:
            more = self.read(_CHUNK)
            if not more:
                self.rest = b""
                return b"".join(parts)
            cut = more.rfind(sep) + 1
            if cut:
                self.rest = more[cut:]
                parts.append(more[:cut])
                return b"".join(parts)
            parts.append(more)


def _spans(text: str, lo: int, sep: str):
    """(lo, hi) spans tiling text[lo:]: each is at least _CHUNK long and ends
    just after a sep, except the last, which ends at the end."""
    end = len(text)
    while lo < end:
        hi = text.find(sep, lo + _CHUNK - 1) + 1 or end
        yield lo, hi
        lo = hi


def _lines(fh):
    r"""The lines of the file fh, as its decoded text's splitlines() gives
    them, decoded and split a run at a time: "\n" ends every line break it
    is part of, so a run that ends just after one ends a line.  A byte that
    is not ASCII is a ParseError on the line splitlines() would put it."""
    runs = _Runs(fh)
    done = 0
    while run := runs(b"\n"):
        try:
            lines = run.decode("ascii").splitlines()
        except UnicodeDecodeError as e:
            # the text before the byte, with a character added, ends on its line
            line = done + len((run[:e.start] + b".").decode("ascii").splitlines())
            raise ParseError(f"non-ASCII byte 0x{run[e.start]:02x}", line) from None
        done += len(lines)
        yield from lines


def _parse_lines(fh):
    start = fh.tell()
    n = None
    ends = array("i")
    add_end = ends.append
    divisor = None
    lineno = 0
    lines = _lines(fh)
    try:
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # enough parts to check an n or an e line; the divisor line is split
            # below, a run at a time
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
                # split a run at a time; a space never falls inside an entry
                try:
                    divisor = Divisor(map(int, chain.from_iterable(
                        line[lo:hi].split() for lo, hi in _spans(line, 1, " "))))
                except ValueError:
                    raise ParseError("divisor entries must be integers", lineno) from None
                if len(divisor) != n:
                    raise GraphError(
                        f"line {lineno}: divisor has {len(divisor)} entries, expected {n}"
                    )
            else:
                raise ParseError(f"unknown directive {tag!r}", lineno)
    except (ParseError, GraphError):
        # a non-ASCII byte is reported before an error on an earlier line.
        # isascii() looks for one; only if there is one does _lines read the
        # file again, from the start, to raise on that byte's line
        fh.seek(start)
        while run := fh.read(_CHUNK):
            if not run.isascii():
                fh.seek(start)
                for _ in _lines(fh):
                    pass
        raise
    if n is None:
        raise ParseError("missing n header", lineno or None)
    if divisor is None:
        raise ParseError("missing divisor line", lineno or None)
    return n, ends, divisor


_DIGITS = b"0123456789"
_CHIPS = b"-0123456789 "
# translated and put between "[" and "]", the numbers of a run of canonical
# edge lines after its first "e ", or of a run of the divisor line without
# its last space, are one JSON list: "u v\ne x y\n" reads "[u,v  ,x,y ]"
# and "x y" reads "[x,y]", one comma per space of the text
_ITEMS = bytes.maketrans(b" \ne", b",  ")


def _items(run: bytes) -> list:
    return json.loads("".join(("[", run.translate(_ITEMS).decode("ascii"), "]")))


def _parse_canonical(fh):
    r"""(n, ends, divisor) for a file in exactly the shape serialize() writes,
    None for anything else.

    The file is read a run at a time: the header line, then the edge lines
    in runs that end just after a "\n", then the divisor line in runs that
    end just after a space.  With the digits deleted, each edge run must read
    "e  \n" * k, every "e" starting its line; with the digits, minus signs
    and spaces deleted, a divisor run must be empty but for the final "\n",
    which ends the file.  The C JSON decoder reads each run's numbers and
    rejects an empty or malformed one.  Each edge run's endpoints are range-
    and loop-checked and go straight into one array, and the divisor's
    entries straight into the Divisor, so no per-edge Python object outlives
    its run and the file's bytes are never held at once.
    """
    runs = _Runs(fh)
    run = runs(b"\n")
    hdr = run.find(b"\n")
    if hdr < 0 or run[:2] != b"n " or not run[2:hdr].isdigit():
        return None
    n = int(run[2:hdr])
    if not 1 <= n <= _MAX_VERTICES:
        return None
    run = run[hdr + 1:]
    ends = array("i")
    try:
        while True:
            d = run.find(b"d")
            if d >= 0:  # the divisor line starts here: put it back
                runs.rest = run[d:] + runs.rest
                run = run[:d]
            if run:
                k = run.count(b"\n")
                if (run[:2] != b"e " or run[-1:] != b"\n" or run.count(b"\ne ") != k - 1
                        or run.translate(None, _DIGITS) != b"e  \n" * k):
                    return None  # a "-" too: the line parser reports it
                items = _items(run[2:])
                if max(items) >= n or any(map(eq, islice(items, 0, None, 2),
                                              islice(items, 1, None, 2))):
                    return None  # likewise, with its line number
                ends.fromlist(items)
            if d >= 0:
                break
            run = runs(b"\n")
            if not run:
                return None
        divisor = Divisor(chain.from_iterable(_chips(runs)))
    except ValueError:  # an empty or malformed number, or a bad divisor run
        return None
    if len(divisor) != n:
        return None
    return n, ends, divisor


def _chips(runs: _Runs):
    # the divisor line's entries, a list per run; ValueError unless the line
    # is "d", then entries each after one space, then the "\n" ending the file
    run = runs(b" ")
    if run[:2] != b"d ":
        raise ValueError
    run = run[2:] or runs(b" ")
    while True:
        last = run[-1:] != b" "  # only the file's end stops a run elsewhere
        if last and run[-1:] != b"\n":
            raise ValueError
        body = run[:-1]
        if not body or body.translate(None, _CHIPS):
            raise ValueError
        yield _items(body)
        if last:
            return
        run = runs(b" ")


def _parse(fh, check_connected: bool):
    # fh: a seekable binary file, read from its current position
    start = fh.tell()
    parsed = _parse_canonical(fh)
    if parsed is None:
        fh.seek(start)
        parsed = _parse_lines(fh)
    n, ends, divisor = parsed
    g = Multigraph._from_ends(n, ends)
    if check_connected and not g.is_connected():
        raise DisconnectedGraphError("graph in file is disconnected")
    return g, divisor


def parse_string(text: str, *, check_connected: bool = True):
    """Parse problem-file text into (Multigraph, Divisor).

    check_connected=False skips the connectivity pass; callers that feed the
    graph straight into the block scan (which detects disconnection itself)
    use this to avoid touching every edge twice.
    """
    return _parse(io.BytesIO(text.encode("utf-8", "surrogatepass")), check_connected)


def parse_file(source: Union[str, BinaryIO, TextIO], *, check_connected: bool = True):
    """Parse a path or an open stream (text or binary).  A path is read a run
    at a time; a seekable binary stream is read from its current position,
    any other stream is read whole first."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return _parse(fh, check_connected)
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
    a writer can write each run as it is formatted (cactusrank gen)."""
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    yield f"n {g.n}\n"
    yield from _filled("e %d %d\n", 2, g._ends)
    yield "d"
    yield from _filled(" %d", 1, f)
    yield "\n"


def serialize(g: Multigraph, f) -> str:
    """Canonical problem-file text for (g, f)."""
    return "".join(_text_runs(g, f))
