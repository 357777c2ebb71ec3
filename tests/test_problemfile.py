import io
import re

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
    assert g.multiplicity(0, 1) == 2


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
    assert g1 == g2 and f1 == f2


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
    except Exception as e:  # the exception class is part of the outcome
        return type(e)
    return g.n, g.edges, tuple(f)


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


def test_fast_and_slow_paths_agree():
    for text, canonical in AGREE_CASES:
        # a leading comment forces the line-by-line parser
        assert _parse_outcome(text) == _parse_outcome("# forced slow path\n" + text), text
        # the fast path takes exactly the canonical shape and leaves the
        # rest, errors included, to the line parser
        fast = cactusrank.problemfile._parse_canonical(text.encode("ascii"))
        assert (fast is not None) == canonical, text
    for base in (CANON, "n 2\ne 0 1\ne 0 1\nd 1 -1\n", "n 1\nd 5\n"):
        for text in set(_single_edits(base)):
            assert _parse_outcome(text) == _parse_outcome("# forced slow path\n" + text), text


@pytest.mark.parametrize("chunk", [1, 7])
def test_fast_path_chunk_boundaries(monkeypatch, chunk):
    # the fast path decodes its edge lines in runs of _CHUNK bytes, each
    # extended to the end of its line, and its divisor line in runs that end
    # at a space; the line parser reads its text and its divisor line in runs
    # too.  1 makes every line and every chip a run of its own; 7 puts two of
    # the 6-byte lines "e u v\n" in one run, and "-12 345 " in one
    monkeypatch.setattr(cactusrank.problemfile, "_CHUNK", chunk)
    test_fast_and_slow_paths_agree()


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
        assert list(cactusrank.problemfile._lines(text)) == text.splitlines(), repr(text)


def test_fast_path_defers_errors_in_its_last_run():
    # a path long enough for several runs of the real _CHUNK
    n = 40000
    lines = [f"e {i} {i + 1}\n" for i in range(n - 1)]
    text = "".join([f"n {n}\n", *lines, "d " + " ".join(["0"] * n) + "\n"])
    assert len(text) > 2 * cactusrank.problemfile._CHUNK
    assert cactusrank.problemfile._parse_canonical(text.encode("ascii")) is not None
    for bad, message in ((f"e {n - 2} {n - 2}\n", f"loop edge ({n - 2}, {n - 2})"),
                         (f"e {n - 2} {n}\n", f"edge ({n - 2}, {n}) out of range")):
        broken = text.replace(lines[-1], bad)
        assert cactusrank.problemfile._parse_canonical(broken.encode("ascii")) is None
        with pytest.raises(cr.GraphError) as exc:
            cr.parse_string(broken)
        with pytest.raises(cr.GraphError) as slow:
            cactusrank.problemfile._parse_lines(broken)
        # the last edge line is line n of the file
        assert str(exc.value) == str(slow.value)
        assert str(exc.value).startswith(f"line {n}: {message}"), exc.value


def test_fast_path_defers_divisor_errors_in_its_last_run():
    # chips of 15 bytes each make the divisor line span several runs
    n = 40000
    lines = [f"e {i} {i + 1}\n" for i in range(n - 1)]
    chips = [str(-10 ** 13 - i) for i in range(n)]
    head = "".join([f"n {n}\n", *lines, "d "])
    text = head + " ".join(chips) + "\n"
    assert len(text) - len(head) > 2 * cactusrank.problemfile._CHUNK
    _, f = cr.parse_string(text)
    assert tuple(f) == tuple(map(int, chips))
    assert cactusrank.problemfile._parse_canonical(text.encode("ascii")) is not None
    for bad in ("-1-2", "-"):
        broken = head + " ".join(chips[:-1] + [bad]) + "\n"
        assert cactusrank.problemfile._parse_canonical(broken.encode("ascii")) is None
        with pytest.raises(cr.ParseError) as exc:
            cr.parse_string(broken)
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
