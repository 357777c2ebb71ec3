import io
import os
import re
import threading

import pytest

import cactusrank as cr
import cactusrank.problemfile

CANON = "n 4\ne 0 1\ne 1 2\ne 2 0\ne 2 3\nd 1 0 2 -1\n"


def test_parse_canonical():
    g, f = cr.parse_string(CANON)
    assert g == cr.Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert tuple(f) == (1, 0, 2, -1)


def test_round_trip_is_byte_exact():
    g, f = cr.parse_string(CANON)
    assert cr.serialize(g, f) == CANON
    g2, f2 = cr.parse_string(cr.serialize(g, f))
    assert g2 == g and f2 == f


def test_parse_triangle_example():
    g, f = cr.parse_string("n 3\ne 0 1\ne 1 2\ne 2 0\nd 1 -2 1\n")
    assert g == cr.Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert tuple(f) == (1, -2, 1)


def test_parse_double_edge():
    g, _ = cr.parse_string("n 2\ne 0 1\ne 0 1\nd 0 0\n")
    assert g.adjacency[0].get(1, 0) == 2


def test_comments_and_blank_lines_ignored():
    text = (
        "# a triangle with a pendant\n"
        "\n"
        "n 4\n"
        "e 0 1\n"
        "# the next two close the cycle\n"
        "e 1 2\n"
        "e 2 0\n"
        "e 2 3\n"
        "\n"
        "d 1 0 2 -1\n"
    )
    g, f = cr.parse_string(text)
    gc, fc = cr.parse_string(CANON)
    assert g == gc and f == fc
    assert type(f) is type(fc) is cr.Divisor


def test_whitespace_tolerated():
    g, f = cr.parse_string("n 2\n  e  0   1\nd   3  -3\n")
    assert g.num_edges == 1
    assert tuple(f) == (3, -3)


def test_single_vertex_file():
    g, f = cr.parse_string("n 1\nd 5\n")
    assert g.n == 1 and g.num_edges == 0
    assert tuple(f) == (5,)


def test_parse_file_path_and_stream(tmp_path):
    p = tmp_path / "prob.txt"
    p.write_text(CANON)
    g1, f1 = cr.parse_file(str(p))
    g2, f2 = cr.parse_file(io.StringIO(CANON))
    g3, f3 = cr.parse_file(io.BytesIO(CANON.encode("ascii")))
    assert g1 == g2 == g3 and f1 == f2 == f3


def test_syntax_errors_report_line_numbers():
    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("e 0 1\nn 2\nd 0 0\n")
    assert exc.value.line == 1
    assert "line 1" in str(exc.value)

    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 2\nn 2\nd 0 0\n")
    assert exc.value.line == 2

    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 2\ne 0 1\nd 0 0\ne 0 1\n")
    assert exc.value.line == 4

    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 2\ne 0 one\nd 0 0\n")
    assert exc.value.line == 2

    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 2\nq 0 1\nd 0 0\n")
    assert exc.value.line == 2

    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 2\ne 0 1\nd 0 \u0661\n")
    assert exc.value.line == 3


def test_missing_pieces():
    with pytest.raises(cr.ParseError):
        cr.parse_string("")
    with pytest.raises(cr.ParseError):
        cr.parse_string("n 2\ne 0 1\n")
    with pytest.raises(cr.ParseError):
        cr.parse_string("e 0 1\nd 0 0\n")


def test_structural_errors_are_graph_errors():
    with pytest.raises(cr.GraphError) as exc:
        cr.parse_string("n 2\ne 0 0\nd 0 0\n")
    assert not isinstance(exc.value, cr.ParseError)
    assert "line 2" in str(exc.value)

    with pytest.raises(cr.GraphError):
        cr.parse_string("n 2\ne 0 5\nd 0 0\n")
    with pytest.raises(cr.GraphError):
        cr.parse_string("n 3\ne 0 1\ne 1 2\nd 0 0\n")


def test_connectivity_check_is_optional():
    text = "n 3\ne 0 1\nd 0 0 0\n"
    with pytest.raises(cr.DisconnectedGraphError):
        cr.parse_string(text)
    g, _ = cr.parse_string(text, check_connected=False)
    assert not g.is_connected()


def _parse_outcome(text):
    try:
        g, f = cr.parse_string(text)
    except Exception as e:  # the exception class and message are the outcome
        return type(e), str(e)
    return g.n, g.edges, tuple(f)


def _per_line(text):
    # CRLF line ends, and tabs for spaces, keep every line number but leave
    # no stretch of canonical edge lines, so every line is read line by line;
    # with tabs, the divisor's entries are also read by int()
    return text.replace("\n", "\r\n"), text.replace(" ", "\t")


def _c_route(monkeypatch):
    """A list that gets the length of every list _items returns: the numbers
    read on the C route, edge endpoints and divisor entries alike."""
    real = cactusrank.problemfile._items
    read = []

    def counted(run):
        items = real(run)
        read.append(len(items))
        return items

    monkeypatch.setattr(cactusrank.problemfile, "_items", counted)
    return read


# (text, whether it has the canonical shape serialize() writes)
AGREE_CASES = [
    (CANON, True),
    ("n 2\ne 0 1\ne 0 1\nd 1 -1\n", True),  # parallel edges
    ("n 1\nd 5\n", True),  # a single vertex
    ("n 3\ne 0 3\ne 1 2\nd 0 0 0\n", False),  # id out of range
    ("n 3\ne 0 -1\ne 1 2\nd 0 0 0\n", False),  # negative id
    ("n 3\ne 0 1\ne 2 2\nd 0 0 0\n", False),  # a loop
    ("n 3\ne 0 1\ne 1 2\nd 0 0\n", False),  # divisor one entry short
    ("n 3\ne 0 1\ne 1 2\nd 0 0 0 0\n", False),  # divisor one entry long
    (CANON.replace("\n", "\r\n"), False),  # CRLF line ends
    ("n 3\ne 0 4294967297\ne 1 2\nd 0 0 0\n", False),  # id beyond 2^32
    ("n 3\ne 0 1\ne 1 2\nd 4294967296 -2147483649 0\n", True),  # chips beyond 2^31
    ("n 3\ne 0 1\ne 1\nd 0 0 0\n", False),  # an edge line one endpoint short
    ("n 3\ne 0 1 \n2 e 1 2\nd 0 0 0\n", False),  # endpoint moved to the next line
    ("n 3\ne 0 \n1e 1 2\nd 0 0 0\n", False),  # endpoint moved before the next "e"
    ("n 3\ne 0 1\ne 1 \n2d 0 0 0\n", False),  # endpoint moved before the "d"
    ("n 4\ne 0 1\ne 1 2\ne 2 3\nd -12 345 -6789 10\n", True),  # multi-digit chips
    ("n 4\ne 0 1\ne 1 2\ne 2 3\nd -123456 -7 0 98765\n", True),  # a long first chip
    ("n 4\ne 0 1\ne 1 2\ne 2 3\nd -12 345 -67-89 10\n", False),  # a minus inside a chip
    ("n 4\ne 0 1\ne 1 2\ne 2 3\nd -12 345 -6789 -\n", False),  # a bare minus, last
]


def _single_edits(text):
    """Every text one edit away: one character overwritten, or one number
    moved anywhere else."""
    atoms = re.findall(r"[0-9-]+|.", text, re.S)
    for i, atom in enumerate(atoms):
        for ch in "0123456789 \n\r\t-+_#end":
            yield "".join(atoms[:i] + [ch] + atoms[i + 1:])
        if atom[0] in "0123456789-":
            rest = atoms[:i] + atoms[i + 1:]
            for j in range(len(rest) + 1):
                yield "".join(rest[:j] + [atom] + rest[j:])


def test_fast_and_slow_paths_agree(monkeypatch):
    # a text has the outcome, value or exception and message, of its
    # line-by-line variants
    read = _c_route(monkeypatch)
    for text, canonical in AGREE_CASES:
        read.clear()
        outcome = _parse_outcome(text)
        # the C route reads every number of exactly the canonical shape
        # and leaves the rest, errors included, to the line-by-line reading
        if canonical:
            n, edges, _ = outcome
            assert sum(read) == 2 * len(edges) + n, text
        crlf, tabs = _per_line(text)
        assert _parse_outcome(crlf) == outcome, crlf
        read.clear()
        assert _parse_outcome(tabs) == outcome, tabs
        assert not read, tabs
    for base in (CANON, "n 2\ne 0 1\ne 0 1\nd 1 -1\n", "n 1\nd 5\n"):
        for text in set(_single_edits(base)):
            outcome = _parse_outcome(text)
            for variant in _per_line(text):
                assert _parse_outcome(variant) == outcome, variant


@pytest.mark.parametrize("chunk", [1, 7])
def test_fast_path_chunk_boundaries(monkeypatch, chunk):
    # the file is read _CHUNK bytes at a time, each read cut just after its
    # last "\n", and the divisor line is split into spans of at least _CHUNK
    # characters that end just after a space.  1 makes every line a run and
    # every chip a span of its own; 7 cuts most reads inside a line, so that
    # most runs start with what the read before left over, and "-12 345 " is
    # one span
    monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    test_fast_and_slow_paths_agree(monkeypatch)


@pytest.mark.parametrize("chunk", [7, None])
def test_c_route_is_taken_per_run(monkeypatch, chunk):
    # a comment on the first line leaves every run of canonical edge lines,
    # and every span of the divisor line, on the C route
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    g, f = cr.generate(cr.GeneratorParams(4096, 512, 8, 1022, 7))
    read = _c_route(monkeypatch)
    assert cr.parse_string("# c\n" + cr.serialize(g, f)) == (g, f)
    assert sum(read) == 2 * g.num_edges + g.n == 13310


@pytest.mark.parametrize("chunk", [1, 7])
def test_line_runs_split_as_splitlines(monkeypatch, chunk):
    monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    texts = ["", "\n", "\n\n\n", "n 2", "n 2\n\ne 0 1\r\n\r\nd 0 0",
             "a\rb\nc\r\n\rd\r", "\r\n\r\r\n\n\r"]
    texts += [f"line one{b}{b}line two {b}x" for b in breaks]
    texts.append("".join(f"{i}{b}" for i, b in enumerate(breaks * 3)))
    texts.append("".join(breaks) + "".join(reversed(breaks)) + "end")
    for text in texts:
        lines = cactusrank.problemfile._lines(io.BytesIO(text.encode("ascii")))
        assert list(lines) == text.splitlines(), repr(text)


def test_fast_path_defers_errors_in_its_last_run(monkeypatch):
    # a path long enough for several runs of the real _CHUNK
    n = 40000
    lines = [f"e {i} {i + 1}\n" for i in range(n - 1)]
    text = "".join([f"n {n}\n", *lines, "d " + " ".join(["0"] * n) + "\n"])
    assert len(text) > 2 * cactusrank.problemfile._CHUNK
    read = _c_route(monkeypatch)
    cr.parse_string(text)
    assert sum(read) == 2 * (n - 1) + n
    for bad, message in ((f"e {n - 2} {n - 2}\n", f"loop edge ({n - 2}, {n - 2})"),
                         (f"e {n - 2} {n}\n", f"edge ({n - 2}, {n}) out of range")):
        broken = text.replace(lines[-1], bad)
        read.clear()
        with pytest.raises(cr.GraphError) as exc:
            cr.parse_string(broken)
        # the last run went by the C route's checks, which left its error to
        # the line-by-line reading of that run
        assert sum(read) == 2 * (n - 1)
        for variant in _per_line(broken):
            with pytest.raises(cr.GraphError) as slow:
                cr.parse_string(variant)
            assert str(exc.value) == str(slow.value)
        # the last edge line is line n of the file
        assert str(exc.value).startswith(f"line {n}: {message}"), exc.value


def test_fast_path_defers_divisor_errors_in_its_last_run(monkeypatch):
    # chips of 15 bytes each make the divisor line span several spans
    n = 40000
    lines = [f"e {i} {i + 1}\n" for i in range(n - 1)]
    chips = [str(-10 ** 13 - i) for i in range(n)]
    head = "".join([f"n {n}\n", *lines, "d "])
    text = head + " ".join(chips) + "\n"
    assert len(text) - len(head) > 2 * cactusrank.problemfile._CHUNK
    read = _c_route(monkeypatch)
    _, f = cr.parse_string(text)
    assert tuple(f) == tuple(map(int, chips))
    assert sum(read) == 2 * (n - 1) + n
    for bad in ("-1-2", "-"):
        broken = head + " ".join(chips[:-1] + [bad]) + "\n"
        read.clear()
        with pytest.raises(cr.ParseError) as exc:
            cr.parse_string(broken)
        # every span but the last went by the C route
        assert 2 * (n - 1) < sum(read) < 2 * (n - 1) + n - 1
        # the divisor line follows the header and n - 1 edge lines
        assert exc.value.line == n + 1
        assert str(exc.value) == f"line {n + 1}: divisor entries must be integers"


def test_non_ascii_byte_reports_first_position():
    for data, line, byte in ((b"\xe9n 2\ne 0 1\nd 0 0\n", 1, 0xE9),
                             (b"n 2\ne 0 1\nd 0 \xff\xfe\n", 3, 0xFF),
                             (b"n 2\ne 0 1\nd 0 0\n" + b" " * 100000 + b"\n\x80", 5, 0x80)):
        with pytest.raises(cr.ParseError) as exc:
            cr.parse_file(io.BytesIO(data))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: non-ASCII byte 0x{byte:02x}"


def test_non_ascii_byte_reported_before_an_earlier_syntax_error(tmp_path, monkeypatch):
    # an unknown directive (ParseError) or an out-of-range edge (GraphError)
    # on line 2; at _CHUNK 1 and 7 the byte on line 4 is in a later run
    path = tmp_path / "prob.txt"
    for chunk in (1, 7, cactusrank.problemfile._CHUNK):
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
        for second in (b"q 0 1", b"e 0 9"):
            data = b"n 3\n" + second + b"\ne 1 2\ne 2 \xe90\nd 0 0 0\n"
            path.write_bytes(data)
            for source in (str(path), io.BytesIO(data)):
                with pytest.raises(cr.ParseError) as exc:
                    cr.parse_file(source)
                assert str(exc.value) == "line 4: non-ASCII byte 0xe9", (chunk, second)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_errors_after_the_divisor_line(monkeypatch, chunk):
    # the divisor line is read once the file is, but an error on it is still
    # reported before one on a later line, and a non-ASCII byte before both
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    for text, message in (
            ("n 2\ne 0 1\nd 0 x\ne 0 1\n", "line 3: divisor entries must be integers"),
            ("n 2\ne 0 1\nd 0 0 0\nq\n", "line 3: divisor has 3 entries, expected 2"),
            ("n 2\ne 0 1\nd 0 0\nd 0 0\n", "line 4: duplicate divisor line"),
            ("n 2\ne 0 1\nd 0 x\n# \xe9\n", "line 4: non-ASCII byte 0xc3")):
        for variant in (text, *_per_line(text)):
            assert _parse_outcome(variant)[1] == message, variant


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_non_ascii_byte_after_edges_on_the_c_route(monkeypatch, chunk):
    # an error before a stretch of canonical edge lines, and a non-ASCII
    # byte after it, in one run at the real _CHUNK
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    data = b"n 3\nq 0 1\ne 0 1\ne 1 2\nd 0 0 \xe9\n"
    with pytest.raises(cr.ParseError) as exc:
        cr.parse_file(io.BytesIO(data))
    assert str(exc.value) == "line 5: non-ASCII byte 0xe9"


@pytest.mark.parametrize("chunk", [1, 7])
def test_clean_runs_after_an_error_are_not_decoded(monkeypatch, chunk):
    # after an error the rest of the file is only checked with isascii():
    # no text past the line in error is decoded.  At _CHUNK 1 and 7 a run
    # holds a line or two, so the text decoded is the runs read
    monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    real = cactusrank.problemfile._text
    given = []

    def counted(run, done):
        text = real(run, done)
        given.append(text)
        return text

    monkeypatch.setattr(cactusrank.problemfile, "_text", counted)
    n = 2000
    text = "".join([f"n {n}\nq 0 1\n", *(f"e {i} {i + 1}\n" for i in range(n - 1)),
                    "d " + " ".join(["0"] * n) + "\n"])
    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string(text)
    assert str(exc.value) == "line 2: unknown directive 'q'"
    assert "".join(given).splitlines() == [f"n {n}", "q 0 1"]


@pytest.mark.parametrize("chunk, n", [(1, 30), (7, 30), (None, 40000)])
def test_error_in_the_last_edge_run(monkeypatch, chunk, n):
    # canonical but for the last edge line: the line-by-line reading's
    # error, with its line number, whatever the run size
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    lines = [f"e {i} {i + 1}\n" for i in range(n - 1)]
    head = f"n {n}\n" + "".join(lines[:-1])
    tail = "d " + " ".join(["0"] * n) + "\n"
    for bad, error, message in (
            (f"e {n - 2} {n - 2}\n", cr.GraphError, f"loop edge ({n - 2}, {n - 2}) not allowed"),
            (f"e {n - 2} {n}\n", cr.GraphError, f"edge ({n - 2}, {n}) out of range for n={n}"),
            (f"e {n - 2} -1\n", cr.GraphError, f"edge ({n - 2}, -1) out of range for n={n}"),
            (f"e {n - 2}\n", cr.ParseError, "edge line takes two endpoints"),
            (f"e {n - 2} 1x\n", cr.ParseError, "edge endpoints must be integers")):
        with pytest.raises(error) as exc:
            cr.parse_string(head + bad + tail)
        assert str(exc.value) == f"line {n}: {message}"


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_canonical_but_for_the_final_newline(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    for text in (CANON, "n 2\ne 0 1\ne 0 1\nd 1 -1\n", "n 1\nd 5\n"):
        assert _parse_outcome(text[:-1]) == _parse_outcome(text)
        for variant in _per_line(text + " "):
            assert _parse_outcome(text + " ") == _parse_outcome(variant)


def test_stream_read_from_its_position():
    # a seekable binary stream is parsed from where it stands, whichever
    # way its lines are read
    for text in (CANON, CANON.replace("\n", "\r\n"), "n 2\ne 0 1\nd 0 -\n"):
        stream = io.BytesIO(b"n 9\nd 1 2\n" + text.encode("ascii"))
        stream.seek(10)
        try:
            outcome = cr.parse_file(stream)
        except cr.ParseError as e:
            outcome = str(e)
        try:
            expected = cr.parse_string(text)
        except cr.ParseError as e:
            expected = str(e)
        assert outcome == expected


class _Unseekable(io.RawIOBase):
    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


def test_unseekable_streams():
    for text in (CANON, CANON.replace("\n", "\r\n")):
        data = text.encode("ascii")
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        with os.fdopen(r, "rb") as pipe:
            assert not pipe.seekable()
            from_pipe = cr.parse_file(pipe)
        raw = _Unseekable(data)
        assert not raw.seekable()
        assert from_pipe == cr.parse_file(raw) == cr.parse_string(CANON)


def test_path_naming_a_pipe(tmp_path):
    # a path that opens as an unseekable stream is read whole first
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(CANON,), daemon=True)
    writer.start()
    try:
        assert cr.parse_file(str(path)) == cr.parse_string(CANON)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_non_ascii_byte_on_the_line_of_a_syntax_error(monkeypatch, tmp_path, chunk, brk):
    # lines end where str.splitlines() ends them, for a non-ASCII byte too,
    # through every entry point and whatever the run size
    if chunk:
        monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)

    def text(chip):
        return brk.join(["n 2", "# comment", "e 0 1", f"d 0 {chip}", ""])

    with pytest.raises(cr.ParseError) as syntax:
        cr.parse_string(text("x"))
    assert str(syntax.value) == "line 4: divisor entries must be integers"
    data = text("\xff").encode("latin-1")
    path = tmp_path / "prob.txt"
    path.write_bytes(data)
    for source in (str(path), io.BytesIO(data), _Unseekable(data)):
        with pytest.raises(cr.ParseError) as exc:
            cr.parse_file(source)
        assert str(exc.value) == "line 4: non-ASCII byte 0xff"
    # str input is read as its UTF-8 bytes, a lone surrogate's included
    for chip, byte in (("\xe9", 0xC3), ("\ud800", 0xED)):
        for parse in (cr.parse_string, lambda t: cr.parse_file(io.StringIO(t))):
            with pytest.raises(cr.ParseError) as exc:
                parse(text(chip))
            assert str(exc.value) == f"line 4: non-ASCII byte 0x{byte:02x}"


def test_vertex_count_beyond_the_id_range():
    # edge ids are stored as C ints, so larger vertex counts are refused at
    # the header rather than at the first edge
    with pytest.raises(cr.ParseError) as exc:
        cr.parse_string("n 3000000000\ne 0 2999999999\nd 0 0\n")
    assert exc.value.line == 1


def test_serialize_rejects_length_mismatch():
    g = cr.Multigraph(2, [(0, 1)])
    with pytest.raises(cr.GraphError):
        cr.serialize(g, [1, 2, 3])
