"""Closed-form ranks on trees and cycles, plus the per-block operators.

On a tree the rank of a divisor is its degree (or -1 below zero).  On a
cycle of length k the only interesting case is degree zero, where the divisor
is equivalent to zero exactly when the weighted position sum

    1*f_1 + 2*f_2 + ... + (k-1)*f_{k-1}  (mod k)

vanishes; such divisors are called good, the rest bad.  Positions run along
the cycle with the attachment vertex last (position k, coefficient 0 mod k).
The congruence does not depend on where the labeling starts or on direction,
since the degree-zero condition absorbs both.

contract_divisor and zero_part split a divisor across a free block: the sum
of the block moves onto the attachment, and the block keeps a balanced
remainder of degree zero.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .graph import Divisor, GraphError, Multigraph
from .blocks import Block, _block_edges, _free_block_shape


class Goodness(enum.Enum):
    GOOD = "good"
    BAD = "bad"


def _cycle_length(f: Sequence[int]) -> int:
    k = len(f)
    if k < 2:
        raise GraphError("cycle length must be at least 2")
    return k


def cycle_goodness(f: Sequence[int]) -> Goodness:
    """Classify a degree-0 divisor on a cycle, entries in cycle order with
    the attachment last."""
    k = _cycle_length(f)
    if sum(f) != 0:
        raise GraphError("goodness is defined only for degree-0 divisors")
    acc = 0
    for i in range(k - 1):
        acc = (acc + (i + 1) * f[i]) % k
    return Goodness.GOOD if acc == 0 else Goodness.BAD


def cycle_rank(f: Sequence[int]) -> int:
    """Rank of any divisor on a cycle: -1 below degree 0, good/bad at 0,
    degree-1 above."""
    _cycle_length(f)
    d = sum(f)
    if d <= -1:
        return -1
    if d == 0:
        return 0 if cycle_goodness(f) is Goodness.GOOD else -1
    return d - 1


def tree_rank(g: Multigraph, f: Sequence[int]) -> int:
    """Rank of a divisor on a tree: the degree, floored at -1."""
    if not g.is_connected() or g.num_edges != g.n - 1:
        raise GraphError("tree_rank requires a tree")
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    d = sum(f)
    return d if d >= 0 else -1


def _check_free(g: Multigraph, block: Block, attach: int) -> None:
    if len(set(block.vertices)) != len(block.vertices):
        raise GraphError("block vertices must be distinct")
    if not all(isinstance(v, int) and 0 <= v < g.n for v in block.vertices):
        raise GraphError("block vertex out of range")
    vs, kind = block.vertices, block.kind
    if not _free_block_shape(g.adjacency, g.degrees, vs, attach, kind, _block_edges(kind, vs)):
        raise GraphError(f"block is not free at vertex {attach}")


def contract_divisor(g: Multigraph, f: Sequence[int], block: Block, attach: int) -> Divisor:
    """Divisor after contracting a free block into its attachment: the
    attachment collects the block's total, the other block vertices drop out.

    The result lives on the contracted graph; its entries follow the
    surviving vertices of g in ascending original id.  Degree is preserved.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    _check_free(g, block, attach)
    gone = set(block.vertices)
    gone.discard(attach)
    total = sum(f[v] for v in block.vertices)
    out = []
    for v in range(g.n):
        if v in gone:
            continue
        out.append(total if v == attach else f[v])
    return Divisor(out)


def zero_part(g: Multigraph, f: Sequence[int], block: Block, attach: int) -> Divisor:
    """Balanced remainder of f on a free block: equal to f away from the
    attachment, with the attachment entry set so the total is zero.

    Entries follow block.vertices order, so for a cycle block stored with
    the attachment first, rotating the result by one gives the attachment-last
    vector that cycle_goodness expects.
    """
    if len(f) != g.n:
        raise GraphError("divisor length mismatch")
    _check_free(g, block, attach)
    vals = [f[v] for v in block.vertices]
    ai = block.vertices.index(attach)
    vals[ai] = -(sum(vals) - vals[ai])
    return Divisor(vals)
