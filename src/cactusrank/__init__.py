"""Divisor rank on cactus graphs.

A fast block-elimination rank engine for cacti, closed forms for trees and
cycles, an independent brute-force chip-firing oracle for cross-checking,
a problem-file format, and a seeded generator.  See the cli module (or the
cactusrank console script) for the command-line surface.
"""

from .graph import (
    Divisor,
    DisconnectedGraphError,
    FiringVector,
    GraphError,
    Multigraph,
    apply_firing,
    canonical_divisor,
    degree,
    genus,
    index_divisor,
    is_effective,
    laplacian_row,
)
from .blocks import (
    BesStep,
    Block,
    BlockDecomposition,
    BlockEliminationScheme,
    BlockKind,
    NotCactusError,
    block_decomposition,
    build_bes,
    is_cactus,
    validate_bes,
)
from .blockrank import (
    Goodness,
    contract_divisor,
    cycle_goodness,
    cycle_rank,
    tree_rank,
    zero_part,
)
from .engine import RankResult, TraceStep, rank
from .oracle import (
    OracleLimitError,
    ReducedDivisor,
    is_l_effective,
    oracle_rank,
    q_reduce,
    rr_check,
)
from .problemfile import ParseError, parse_file, parse_string, serialize
from .generate import GeneratorParams, SplitMix64, generate

__version__ = "0.1.0"

__all__ = [
    "Divisor", "DisconnectedGraphError", "FiringVector", "GraphError",
    "Multigraph", "apply_firing", "canonical_divisor", "degree", "genus",
    "index_divisor", "is_effective", "laplacian_row",
    "BesStep", "Block", "BlockDecomposition", "BlockEliminationScheme",
    "BlockKind", "NotCactusError", "block_decomposition", "build_bes",
    "is_cactus", "validate_bes",
    "Goodness", "contract_divisor", "cycle_goodness", "cycle_rank",
    "tree_rank", "zero_part",
    "RankResult", "TraceStep", "rank",
    "OracleLimitError", "ReducedDivisor", "is_l_effective", "oracle_rank",
    "q_reduce", "rr_check",
    "ParseError", "parse_file", "parse_string", "serialize",
    "GeneratorParams", "SplitMix64", "generate",
    "__version__",
]
