"""The program's rows against the benchmark's stored references (bench/ref).

Each workload of bench/run.py and each of its field sets runs in-process
through cli.main, and its output is checked with the benchmark's own
comparison, at its tolerance.
"""

import gzip
import sys
from pathlib import Path

import pytest

from xyquench import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))  # run imports calibrate
import run  # noqa: E402


@pytest.mark.parametrize("seed", range(run.VARIANTS))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_rows_match_the_benchmark_references(tmp_path, workload, seed):
    # The surface references hold C = 0 on every row (ROADMAP item 4a), so on
    # that workload this checks the grid and the zeros, not a concurrence.
    out = tmp_path / "rows.csv"
    assert cli.main([*run.workload_argv(workload, seed), "--out", str(out)]) == 0
    reference = gzip.decompress(run.reference_path(workload, seed).read_bytes()).decode()
    ok, _, where = run.compare(out.read_text(), reference, run.REF_TOL)
    assert ok, where
