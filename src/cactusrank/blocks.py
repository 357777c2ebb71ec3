"""Block structure of cactus graphs.

A cactus is a connected graph in which every block (maximal subgraph with no
cut vertex) is a single edge or a simple cycle; equivalently, no edge lies on
two distinct simple cycles.  One depth-first scan recognizes the property,
extracts every block with its cyclic vertex order, and yields the blocks in
an order that is already a valid elimination scheme: each block is
contracted into its attachment vertex only after everything hanging below
it is gone.

The scan, engine._scan, lives beside its main consumer, so that a rank
call does not load this module.  It works on the graph's linked half-edge
arrays and yields each block as it finishes, as a kind and a tuple or list
of vertices.  is_cactus reads that stream and build_bes makes records of
it; the rank engine folds each block in as it arrives, so no scheme is
stored.  A graph that is not a cactus raises where the scan finds a second
cycle through an edge, and a disconnected one once the scan is exhausted: a
consumer must read the stream to its end.  The tests check build_bes
against a scheme validator of their own, in tests/helpers.py.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .engine import _scan
from .graph import Multigraph, NotCactusError


class BlockKind(enum.Enum):
    EDGE = "edge"
    CYCLE = "cycle"


class Block(NamedTuple):
    """A bridge edge or a simple cycle.

    For a cycle, vertices are listed in cyclic order (consecutive entries are
    adjacent, and the last wraps to the first).  A parallel-edge pair is a
    cycle of length 2.
    """

    kind: BlockKind
    vertices: tuple[int, ...]


class BesStep(NamedTuple):
    block: Block
    attach: int


class BlockEliminationScheme(NamedTuple):
    """Ordered contractions: replaying steps shrinks the graph to root alone.

    At each step the block must be free in the current graph, meaning every
    vertex of the block except the attachment has all of its incident edges
    inside the block.
    """

    steps: tuple[BesStep, ...]
    root: int


def is_cactus(g: Multigraph) -> bool:
    """True iff every block of g is an edge or a simple cycle.  O(n + m)."""
    try:
        for _ in _scan(g):
            pass
    except NotCactusError:
        return False
    return True


def _blocks(g: Multigraph) -> tuple[Block, ...]:
    kinds = (BlockKind.EDGE, BlockKind.CYCLE)
    return tuple(Block(kinds[kind], tuple(vs)) for kind, vs in _scan(g))


def build_bes(g: Multigraph) -> BlockEliminationScheme:
    """A valid elimination scheme for a cactus, deterministic for a given
    vertex/edge ordering.  Raises NotCactusError otherwise."""
    steps = tuple(BesStep(b, b.vertices[0]) for b in _blocks(g))
    return BlockEliminationScheme(steps, 0)
