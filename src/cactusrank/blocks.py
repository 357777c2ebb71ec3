"""Block elimination schemes of cactus graphs, as records.

A cactus is a connected graph in which every block (maximal subgraph with no
cut vertex) is a single edge or a simple cycle.  The block scan, graph._scan,
checks the whole graph and then yields the blocks in reverse discovery order
of a spanning tree grown in edge order, which is already a valid elimination
scheme: each block is contracted into its attachment vertex only after
everything hanging below it is gone.  build_bes records that stream; the
rank engine reads the scan itself.  The tests check build_bes against a scheme
validator of their own, in tests/helpers.py.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graph import Multigraph, _scan


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


def _blocks(g: Multigraph) -> tuple[Block, ...]:
    kinds = (BlockKind.EDGE, BlockKind.CYCLE)
    return tuple(Block(kinds[kind], tuple(vs)) for kind, vs in _scan(g))


def build_bes(g: Multigraph) -> BlockEliminationScheme:
    """A valid elimination scheme for a cactus, deterministic for a given
    vertex/edge ordering.  Raises NotCactusError otherwise."""
    steps = tuple(BesStep(b, b.vertices[0]) for b in _blocks(g))
    return BlockEliminationScheme(steps, 0)
