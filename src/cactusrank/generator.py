"""Seeded random cactus generator with a pinned, documented PRNG.

Reproducibility contract: the same GeneratorParams always produce the same
graph and divisor, byte for byte after serialization, on any platform.  The
PRNG is splitmix64 (Steele/Lea/Flood): 64-bit state advancing by the constant
0x9E3779B97F4A7C15, output mixed by two xor-shift-multiply rounds.  Bounded
draws use plain modulo; the tiny bias is irrelevant here and keeping the
draw rule trivial makes streams easy to reproduce in other languages.

SplitMix64 is the scalar definition of the stream.  generate() takes the
same values, draw for draw, from _draws(), which computes them a batch at a
time with whole-int operations instead of about fifteen per draw.  The
states of a batch are an arithmetic progression mod 2^64, so one Python int
holds them all, one 128-bit lane per state with the value in the lane's low
64 bits.  Each round xors the int with itself shifted right, masks every
lane back to 64 bits, multiplies by the round's constant and masks again.
No carry crosses a lane: a lane's value and the constant are each below
2^64, so their product stays below 2^128, and a right shift moves a lane's
low bits only into the high half of the lane below, which the next mask
clears.  The batch is unpacked with int.to_bytes into an array of 64-bit
words, of which every other one is a draw.

Construction: cycle lengths start at 2 and grow randomly up to max_cycle_len
while spare vertices last, leftover vertices become pendant edge blocks, the
block list is shuffled, and each block is attached to a uniformly chosen
existing vertex.  The result is connected, has exactly the requested number
of cycle blocks, and uses exactly the requested number of vertices.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat
from operator import index

from .graph import _MAX_VERTICES, Divisor, Multigraph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """The splitmix64 stream, one draw at a time: the definition _draws()
    must match."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)


def _batch(b: int) -> tuple:
    """(b, ones, steps, lanes) for a batch of b draws: in lane i, ones holds
    1, steps holds (i + 1) * _GAMMA and lanes holds 2^64 - 1."""
    def packed(values):
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")
    return b, packed([1] * b), packed(range(1, b + 1)) * _GAMMA, packed([_MASK] * b)


# batch sizes grow, so that a small problem does not compute thousands of
# draws it never takes; past the last size, every batch has the last size
_BATCHES = tuple(map(_batch, (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)))


def _batches(seed: int):
    """The SplitMix64(seed).next_u64() stream, as arrays of b draws each."""
    state = seed & _MASK
    for b, ones, steps, lanes in chain(_BATCHES, repeat(_BATCHES[-1])):
        # lane i: state + (i + 1) * _GAMMA, below 2^77 before the mask
        z = (state * ones + steps) & lanes
        z = ((z ^ (z >> 30)) & lanes) * _MUL1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MUL2 & lanes
        z ^= z >> 31  # the lanes' high halves are not read, so no mask
        words = array("Q")
        words.frombytes(z.to_bytes(16 * b, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield words[0::2]
        state = (state + b * _GAMMA) & _MASK


def _draws(seed: int):
    """An iterator over the SplitMix64(seed).next_u64() stream."""
    return chain.from_iterable(_batches(seed))


# generate() builds the endpoints of this many blocks in a list at a time
_RUN = 1 << 12

# the divisor's fix-up loop takes one draw per chip, so this cap bounds it
# at minutes, not days (about 0.25 us a draw: CPython 3.11, 2-vCPU Xeon VM)
_MAX_DEGREE = 2 ** 31 - 1


@dataclass(frozen=True)
class GeneratorParams:
    vertices: int
    cycles: int = 0
    max_cycle_len: int = 8
    divisor_degree: int = 0
    seed: int = 0

    def __post_init__(self):
        # plain ints, so that generate() meets no float, bool or numpy int
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                object.__setattr__(self, field.name, index(value))
            except TypeError:
                raise ValueError(f"{field.name} must be an integer, got {value!r}") from None
        if not 1 <= self.vertices <= _MAX_VERTICES:
            raise ValueError(f"vertices must be in 1..{_MAX_VERTICES}")
        if abs(self.divisor_degree) > _MAX_DEGREE:
            raise ValueError(f"divisor_degree must be in -{_MAX_DEGREE}..{_MAX_DEGREE}")
        if self.cycles < 0:
            raise ValueError("cycles must be nonnegative")
        if self.max_cycle_len < 2:
            raise ValueError("max_cycle_len must be at least 2")
        # every cycle block consumes at least one fresh vertex
        if self.vertices < 1 + self.cycles:
            raise ValueError(
                f"{self.cycles} cycles need at least {1 + self.cycles} vertices"
            )


def generate(params: GeneratorParams) -> tuple[Multigraph, Divisor]:
    draws = _draws(params.seed)
    draw = draws.__next__
    n = params.vertices
    c = params.cycles
    lens = [2] * c
    budget = n - 1 - c
    pendants = 0
    growable = list(range(c)) if params.max_cycle_len > 2 else []
    for _ in range(budget):
        if growable and draw() % 2 == 0:
            j = draw() % len(growable)
            i = growable[j]
            lens[i] += 1
            if lens[i] == params.max_cycle_len:
                growable[j] = growable[-1]
                growable.pop()
        else:
            pendants += 1
    blocks = lens + [0] * pendants  # 0 marks an edge block
    # zip takes from the range first, so it stops without taking a draw too many
    for i, d in zip(range(len(blocks) - 1, 0, -1), draws):  # Fisher-Yates
        j = d % (i + 1)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    ends = array("i")  # flat endpoint pairs, as Multigraph stores them
    nv = 1
    # a run of blocks' endpoints at a time: a short list takes them faster
    # than the array does, and no list of every endpoint is held at once
    for lo in range(0, len(blocks), _RUN):
        part = []
        for length, d in zip(blocks[lo:lo + _RUN], draws):
            at = d % nv
            if length == 0:
                part += (at, nv)
                nv += 1
            elif length == 2:
                part += (at, nv, at, nv)
                nv += 1
            else:
                last = nv + length - 2
                part += (at, nv)
                for v in range(nv, last):
                    part += (v, v + 1)
                part += (last, at)
                nv = last + 1
        ends.fromlist(part)
    vals = [d % 5 - 2 for d in islice(draws, n)]
    diff = params.divisor_degree - sum(vals)
    step = 1 if diff > 0 else -1
    for d in islice(draws, abs(diff)):
        vals[d % n] += step
    # the list goes before the Divisor is made: Divisor(list) would gather
    # the values in a tuple and copy that, three copies at once
    vals = tuple(vals)
    return Multigraph._from_ends(n, ends), Divisor(vals)
