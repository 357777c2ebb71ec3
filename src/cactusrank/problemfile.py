"""Problem files: one graph plus one divisor, line-based ASCII.

    # comment lines and blank lines are ignored
    n <N>                 exactly one header, first
    e <u> <v>             one line per edge copy (parallel edges repeat)
    d <v0> ... <v_{N-1}>  exactly one divisor line, last

serialize() emits the canonical form (no comments, edges in stored order),
and parsing it back is a byte-exact round trip.  Parsing distinguishes
syntax problems (ParseError, with a line number) from structurally invalid
graphs (GraphError: loops, out-of-range ids, wrong divisor length,
disconnected input).

Input in exactly the canonical shape is parsed on a fast path that leaves
the per-number work to C; anything else (comments, other spacing, CRLF line
ends, bad values) falls back to a line-by-line pass that produces precise
errors.  Both give the same result.  Problem files are ASCII: any other byte
is a ParseError.
"""

from __future__ import annotations

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


# long text is read this many bytes (or characters) at a time, each run
# extended to its next separator, so no list holds more than one run's worth
_CHUNK = 1 << 18


def _runs(buf, lo: int, end: int, sep):
    """(lo, hi) spans tiling buf[lo:end]: each is at least _CHUNK long and
    ends just after a sep, except the last, which ends at end."""
    while lo < end:
        hi = buf.find(sep, lo + _CHUNK - 1, end) + 1 or end
        yield lo, hi
        lo = hi


def _lines(text: str):
    r"""The lines of text, as text.splitlines() gives them, split a run at a
    time: "\n" ends every line break it is part of, so a run that ends just
    after one ends a line."""
    for lo, hi in _runs(text, 0, len(text), "\n"):
        yield from text[lo:hi].splitlines()


def _parse_lines(text: str):
    n = None
    ends = array("i")
    add_end = ends.append
    divisor = None
    last_line = 0
    for lineno, raw in enumerate(_lines(text), 1):
        last_line = lineno
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
                    line[lo:hi].split() for lo, hi in _runs(line, 1, len(line), " "))))
            except ValueError:
                raise ParseError("divisor entries must be integers", lineno) from None
            if len(divisor) != n:
                raise GraphError(
                    f"line {lineno}: divisor has {len(divisor)} entries, expected {n}"
                )
        else:
            raise ParseError(f"unknown directive {tag!r}", lineno)
    if n is None:
        raise ParseError("missing n header", last_line or None)
    if divisor is None:
        raise ParseError("missing divisor line", last_line or None)
    return n, ends, divisor


_DIGITS = b"0123456789-"
# translated, put after "[0" and closed with "]", a run of canonical edge
# lines, or a stretch of the divisor line from a space to a space, is one
# JSON list: "e u v\ne x y\n" reads "[0 ,u,v  ,x,y ]" and " x y" reads
# "[0,x,y]", one comma per space of the text
_ITEMS = bytes.maketrans(b" \ne", b",  ")


def _items(data: bytes, lo: int, hi: int) -> list:
    # the numbers of data[lo:hi], whole edge lines or a stretch of the
    # divisor line that starts and ends at a space (or at its end)
    items = json.loads("".join(("[0", data[lo:hi].translate(_ITEMS).decode("ascii"), "]")))
    del items[0]
    return items


def _parse_canonical(data: bytes):
    r"""(n, ends, divisor) for text in exactly the shape serialize() writes,
    None for anything else.

    With the digits and minus signs deleted, the text must read
    "n \n" + "e  \n" * m + "d " + " " * (n - 1) + "\n", and every "e" and
    "d" must start its line.  The C JSON decoder then reads the numbers a
    run at a time and rejects an empty or malformed one: the divisor line
    in runs that end at a space, straight into the Divisor, then the edge
    lines in runs of whole lines.  Each run's endpoints are range- and
    loop-checked and go straight into one array, so no per-edge Python
    object outlives its run.
    """
    hdr = data.find(b"\n")
    if data[:2] != b"n " or not data[2:hdr].isdigit() or data[-1:] != b"\n":
        return None
    n = int(data[2:hdr])
    skel = data.translate(None, _DIGITS)
    m, odd = divmod(len(skel) - n - 5, 4)
    if (not 1 <= n <= _MAX_VERTICES or m < 0 or odd
            or data.count(b"\ne ") != m or data.count(b"\nd ") != 1
            or skel != b"".join((b"n \n", b"e  \n" * m, b"d ", b" " * (n - 1), b"\n"))):
        return None
    del skel
    div = data.rfind(b"\nd ") + 1
    if data.find(b"-", hdr, div) >= 0:
        return None  # the line parser reports it with its line number
    ends = array("i")
    try:
        # a run of entries ends just after a space, the last just after the
        # newline, so one byte earlier it runs from a space to a space
        # (the last to the newline)
        divisor = Divisor(chain.from_iterable(
            _items(data, lo - 1, hi - 1) for lo, hi in _runs(data, div + 2, len(data), b" ")))
        for lo, hi in _runs(data, hdr + 1, div, b"\n"):
            items = _items(data, lo, hi)
            if max(items) >= n or any(map(eq, islice(items, 0, None, 2),
                                          islice(items, 1, None, 2))):
                return None  # likewise
            ends.fromlist(items)
    except ValueError:  # an empty or malformed number
        return None
    return n, ends, divisor


def _parse_bytes(data: bytes, check_connected: bool):
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as e:
            raise ParseError(f"non-ASCII byte 0x{data[e.start]:02x}",
                             data.count(b"\n", 0, e.start) + 1) from None
    parsed = _parse_canonical(data)
    n, ends, divisor = parsed or _parse_lines(data.decode("ascii"))
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
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as e:
        raise ParseError(f"non-ASCII character {text[e.start]!r}",
                         text.count("\n", 0, e.start) + 1) from None
    return _parse_bytes(data, check_connected)


def parse_file(source: Union[str, BinaryIO, TextIO], *, check_connected: bool = True):
    """Parse a path or an open stream (text or binary)."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            return parse_string(data, check_connected=check_connected)
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return _parse_bytes(data, check_connected)


def serialize(g: Multigraph, f) -> str:
    """Canonical problem-file text for (g, f)."""
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    parts = [f"n {g.n}\n"]
    ends = g._ends
    parts += [f"e {u} {v}\n" for u, v in zip(ends[0::2], ends[1::2])]
    parts.append("d " + " ".join(map(str, f)) + "\n")
    return "".join(parts)
