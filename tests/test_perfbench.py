"""The benchmark's traced child, perfbench/layers.py, on two tiny problems:
every cactusrank name it reads must still resolve, and its answers must be
the library's."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cactusrank as cr

from .helpers import CHILD_ENV

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.parametrize("fields", [(12, 4, 8, 8, 3), (64, 8, 8, 7, 1)])
def test_layers_child_reports_the_library_answers(tmp_path, fields):
    params = cr.GeneratorParams(*fields)
    g, f = cr.generate(params)
    path = tmp_path / "problem.txt"
    path.write_text(cr.serialize(g, f), encoding="ascii")
    # as the benchmark runs it: python3 perfbench/layers.py FILE PARAMS_JSON
    proc = subprocess.run(
        [sys.executable, str(LAYERS), str(path), json.dumps(dataclasses.asdict(params))],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rank"] == cr.rank(g, f).rank
    # past its n <= 12 guard the oracle refuses, and layers.py reports None
    assert out["oracle"] == (cr.oracle_rank(g, f) if g.n <= 12 else None)
    assert out["regenerated_same"] is True
    assert out["counts"]["blocks.cycles"] == cr.genus(g)
