import inspect

import pytest

import cactusrank as cr

from .helpers import run_fresh

PUBLIC = {
    "Divisor", "DisconnectedGraphError", "GraphError", "Multigraph",
    "canonical_divisor", "degree", "genus",
    "BesStep", "Block", "BlockEliminationScheme", "BlockKind",
    "NotCactusError", "build_bes", "is_cactus",
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


def test_names_load_on_first_use():
    # a fresh interpreter: no earlier test has loaded any submodule
    out = run_fresh("""
import sys
import cactusrank as cr
from cactusrank.cli import main
print(sorted(m for m in sys.modules if m.startswith("cactusrank.")))
from cactusrank.generator import SplitMix64
assert cr.generate is cr.generator.generate
assert main(["gen", "--vertices", "3", "--cycles", "1"]) == 0
assert cr.generate is cr.generator.generate
ns = {}
exec("from cactusrank import *", ns)
assert set(cr.__all__) <= set(ns) and ns["generate"] is cr.generate
import cactusrank.blocks, cactusrank.oracle
assert cactusrank.blocks.Multigraph is cr.Multigraph
assert cactusrank.oracle.OracleLimitError is cr.OracleLimitError
assert set(cr.__all__) <= set(dir(cr))
try:
    cr.no_such_name
except AttributeError as e:
    print(e)
""")
    lines = out.splitlines()
    assert lines[0] == "['cactusrank.cli', 'cactusrank.graph', 'cactusrank.problemfile']"
    assert lines[-1] == "module 'cactusrank' has no attribute 'no_such_name'"


def test_records_are_named_tuples():
    step = cr.TraceStep(0, "cycle", 1, "good", -2, 3)
    edge = cr.Block(cr.BlockKind.EDGE, (0, 1))
    records = [
        (cr.RankResult(3), (3, None)),
        (step, (0, "cycle", 1, "good", -2, 3, None)),
        (cr.ReducedDivisor((1, 0, 2), 0), ((1, 0, 2), 0)),
        (edge, (cr.BlockKind.EDGE, (0, 1))),
        (cr.BesStep(edge, 0), (edge, 0)),
        (cr.BlockEliminationScheme((cr.BesStep(edge, 0),), 0), (((edge, 0),), 0)),
    ]
    for rec, fields in records:
        twin = type(rec)(*fields)
        assert rec == twin == fields and hash(rec) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = 1
    assert cr.RankResult._fields == ("rank", "trace")
    assert cr.TraceStep._fields == ("index", "kind", "attach", "goodness",
                                    "adjustment", "degree_after", "branch")
    assert cr.RankResult(3).trace is None and step.branch is None
    assert cr.ReducedDivisor((1, 0, 2), 0).degree == 3
    assert repr(cr.RankResult(3)) == "RankResult(rank=3, trace=None)"
    assert repr(edge) == "Block(kind=<BlockKind.EDGE: 'edge'>, vertices=(0, 1))"
    rank, trace = cr.rank(cr.Multigraph(1, []), [2])
    assert (rank, trace) == (2, None)
