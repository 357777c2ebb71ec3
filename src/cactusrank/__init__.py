"""Divisor rank on cactus graphs.

A fast block-elimination rank engine for cacti, an independent
brute-force chip-firing oracle for cross-checking, a problem-file format,
and a seeded generator.  See the cli module (or the cactusrank console
script) for the command-line surface.

Importing the package loads none of its modules.  Each public name below
loads the submodule that defines it on first use (PEP 562), so a caller,
the command line included, pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, under the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("graph", "Divisor DisconnectedGraphError GraphError Multigraph "
                  "NotCactusError OracleLimitError canonical_divisor degree "
                  "genus is_cactus"),
        ("blocks", "BesStep Block BlockEliminationScheme BlockKind build_bes"),
        ("engine", "RankResult TraceStep rank"),
        ("oracle", "ReducedDivisor is_l_effective oracle_rank q_reduce "
                   "rr_check"),
        ("problemfile", "ParseError parse_file parse_string serialize"),
        ("generator", "GeneratorParams SplitMix64 generate"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
