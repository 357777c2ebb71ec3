import hashlib
from itertools import islice

import pytest

import cactusrank as cr
from cactusrank import BlockKind
from cactusrank.cli import main
from cactusrank import generator
from cactusrank.generator import SplitMix64, _draws

from .helpers import block_decomposition, cli_peak_rss_mb


def test_splitmix64_reference_stream():
    # published reference output for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = SplitMix64(2**64 - 1)
    assert r.next_u64() == 0xE4D971771B652C20


def test_splitmix64_pinned_stream():
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1, 2**64 + 5])
def test_batched_stream_matches_scalar(seed):
    # 20,000 draws cross every batch-size step (16 .. 4096, 8176 draws in
    # all) and several full 4096-draw batches; 2^64 - 1 wraps on the first
    # step, 2^64 + 5 is masked to 5
    r = SplitMix64(seed)
    assert list(islice(_draws(seed), 20_000)) == [r.next_u64() for _ in range(20_000)]


# sha256 of serialize(*generate(params)), pinned so that any change to the
# stream or the construction, on any version or platform, shows; fields are
# (vertices, cycles, max_cycle_len, divisor_degree, seed)
PINNED = [
    ((1, 0, 2, -4, 0), "d913f605eede0ed5cc242b2bb7cd4ddf4971c8cada36db6a31f1d30a3c99da37"),
    ((25, 0, 8, 0, 3), "fa0b034be6c138d00be2aa8db3a78f04c7b2b1459d97e83c2ece00c9fbcbe0ed"),
    ((2, 1, 2, 0, 0), "a1a13cdf743bbc47a9c562c3804446980d777d5cf196d9d6da3496285f3c42a8"),
    ((30, 4, 6, 2, 5), "ec65ce02d13c928e2624fbc837986ee887d41ff5c55ab708f0733cebca0857b0"),
    ((512, 64, 8, 47, 3), "ed170d3035e2b0b6c57ea81ceba8695e34bc55ef0e3cde154eb5da04c847aead"),
    ((12, 4, 8, 10, 5), "a9bfeff96b779bf7231707d73919d71dcba33e37c746bb62a29a338930c3ca8c"),
    # criterion 6's family at 2^16
    ((2**16, 2**13, 8, 2**14 - 2, 101),
     "8ca32b1f14a9e10b99310803b64641fc7006a220d481c4e1c1f6efc3486cad7f"),
]


@pytest.mark.parametrize("fields, digest", PINNED)
def test_generate_pinned_digest(fields, digest):
    text = cr.serialize(*cr.generate(cr.GeneratorParams(*fields)))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("fields, digest", PINNED)
def test_gen_command_pinned_digest(fields, digest, capsys):
    names = ("--vertices", "--cycles", "--max-cycle-len", "--divisor-degree", "--seed")
    argv = ["gen"]
    for name, value in zip(names, fields):
        argv += (name, str(value))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_generate_deterministic():
    params = cr.GeneratorParams(vertices=40, cycles=5, divisor_degree=3, seed=99)
    g1, f1 = cr.generate(params)
    g2, f2 = cr.generate(params)
    assert cr.serialize(g1, f1) == cr.serialize(g2, f2)


def test_generate_structure():
    for seed in range(12):
        params = cr.GeneratorParams(
            vertices=30, cycles=4, max_cycle_len=6, divisor_degree=2, seed=seed
        )
        g, f = cr.generate(params)
        assert g.n == 30
        assert g.is_connected()
        assert cr.is_cactus(g)
        assert cr.genus(g) == 4
        assert f.degree == 2
        dec = block_decomposition(g)
        cyc_lens = [
            len(b.vertices) for b in dec.blocks if b.kind is BlockKind.CYCLE
        ]
        assert len(cyc_lens) == 4
        assert all(2 <= k <= 6 for k in cyc_lens)


def test_generate_tree_when_no_cycles():
    g, f = cr.generate(cr.GeneratorParams(vertices=25, seed=3))
    assert g.num_edges == g.n - 1
    assert cr.genus(g) == 0
    assert f.degree == 0


def test_generate_single_vertex():
    g, f = cr.generate(cr.GeneratorParams(vertices=1, divisor_degree=-4, seed=0))
    assert g.n == 1 and g.num_edges == 0
    assert f.degree == -4


def test_generate_two_cycle_only():
    g, _ = cr.generate(cr.GeneratorParams(vertices=2, cycles=1, max_cycle_len=2))
    assert g.n == 2
    assert g.adjacency[0].get(1, 0) == 2


def test_negative_divisor_degree_supported():
    _, f = cr.generate(cr.GeneratorParams(vertices=10, divisor_degree=-7, seed=1))
    assert f.degree == -7


def test_params_validation():
    with pytest.raises(ValueError):
        cr.GeneratorParams(vertices=0)
    with pytest.raises(ValueError):
        cr.GeneratorParams(vertices=5, cycles=-1)
    with pytest.raises(ValueError):
        cr.GeneratorParams(vertices=5, max_cycle_len=1)
    with pytest.raises(ValueError):
        cr.GeneratorParams(vertices=3, cycles=4)


def test_params_are_read_as_plain_ints():
    # a non-integer field fails here, naming the field, not deep in generate()
    for fields, name in (((5.0, 1), "vertices"), ((5, 1.5), "cycles"),
                         ((5, 1, 8, 0, "0"), "seed")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            cr.GeneratorParams(*fields)
    np = pytest.importorskip("numpy")
    params = cr.GeneratorParams(np.int64(5), True, np.int32(4), np.int8(-1), np.uint64(7))
    assert params == cr.GeneratorParams(5, 1, 4, -1, 7)
    assert all(type(v) is int for v in vars(params).values())


def test_params_refuse_more_vertices_than_a_graph_holds(monkeypatch, capsys):
    # Multigraph and the problem-file parser cap n at 2^31 - 1 (a C int)
    with pytest.raises(ValueError, match=r"vertices must be in 1\.\.2147483647"):
        cr.GeneratorParams(vertices=2 ** 31)
    assert cr.GeneratorParams(vertices=2 ** 31 - 1).vertices == 2 ** 31 - 1

    def refuse(params):
        raise AssertionError("gen generated past the cap")

    # never generate at that size: the budget loop and the block list
    # would take minutes and gigabytes
    monkeypatch.setattr(generator, "generate", refuse)
    assert main(["gen", "--vertices", str(2 ** 31)]) == 2
    assert capsys.readouterr() == ("", "gen: vertices must be in 1..2147483647\n")


def test_params_refuse_a_divisor_degree_past_the_cap(monkeypatch, capsys):
    # the fix-up loop takes one draw per chip, so the cap bounds gen's time
    for d in (2 ** 31, -(2 ** 31), 10 ** 12):
        with pytest.raises(ValueError, match=r"^divisor_degree must be in -2147483647\.\.2147483647$"):
            cr.GeneratorParams(vertices=1, divisor_degree=d)
    for d in (2 ** 31 - 1, -(2 ** 31 - 1)):
        assert cr.GeneratorParams(vertices=1, divisor_degree=d).divisor_degree == d

    def refuse(params):
        raise AssertionError("gen generated past the cap")

    # validation only: at the cap itself generate() would take minutes
    monkeypatch.setattr(generator, "generate", refuse)
    assert main(["gen", "--vertices", "1", "--divisor-degree", str(2 ** 31)]) == 2
    assert capsys.readouterr() == ("", "gen: divisor_degree must be in -2147483647..2147483647\n")


def test_seed_changes_output():
    a = cr.generate(cr.GeneratorParams(vertices=30, cycles=3, seed=0))
    b = cr.generate(cr.GeneratorParams(vertices=30, cycles=3, seed=1))
    assert cr.serialize(*a) != cr.serialize(*b)


def test_gen_peak_rss():
    # criterion 6's family at 2^20: gen writes each run of lines as it is
    # formatted instead of joining the 21 MB text first, and generate holds
    # the divisor's values twice at most, a tuple and its Divisor copy.
    # Measured 54.5 MB, against 63.8-63.9 MB with the values held three
    # times (list, tuple, Divisor) and 91.4 MB when it joined (2-vCPU Xeon
    # VM, CPython 3.11.7).
    n = 2 ** 20
    peak = cli_peak_rss_mb("gen", "--vertices", str(n), "--cycles", str(n // 8),
                           "--max-cycle-len", "8", "--divisor-degree",
                           str(n // 4 - 2), "--seed", "101")
    assert peak < 60, f"peak RSS {peak:.1f} MB"
