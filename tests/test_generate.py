import pytest

import cactusrank as cr
from cactusrank import BlockKind
from cactusrank.generator import SplitMix64


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
        dec = cr.block_decomposition(g)
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
    assert g.multiplicity(0, 1) == 2


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


def test_seed_changes_output():
    a = cr.generate(cr.GeneratorParams(vertices=30, cycles=3, seed=0))
    b = cr.generate(cr.GeneratorParams(vertices=30, cycles=3, seed=1))
    assert cr.serialize(*a) != cr.serialize(*b)
