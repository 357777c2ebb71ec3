import inspect

import cactusrank as cr

PUBLIC = {
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
}


def test_public_api_is_pinned():
    assert set(cr.__all__) == PUBLIC
    assert len(cr.__all__) == len(PUBLIC)
    for name in cr.__all__:
        assert getattr(cr, name, None) is not None, name
    # one way into the engine: a graph, a divisor and the trace switch
    P = inspect.Parameter
    params = inspect.signature(cr.rank).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("g", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("f", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("trace", P.KEYWORD_ONLY, False),
    ]
