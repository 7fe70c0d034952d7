"""The benchmark's tracer against the current library.

`bench/tracer.py` reads layer functions by name; a rename in the library
must fail here, not first in `python3 bench/run.py --trace 1`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run():
    """bench/run.py as a module. The fresh copy of the package that
    `run.import_library()` imports leaves `sys.modules` with the test (see
    the repository's `conftest.py`)."""
    sys.path.insert(0, str(BENCH))
    try:
        import run

        yield run
    finally:
        sys.path.remove(str(BENCH))


def _traced_metrics(run, workload, ops, workdir):
    cp = run.import_library()
    tracer = run.Tracer()
    tracer.install()
    setup = run.WORKLOADS[workload][0]
    for op in setup(cp, 7, workdir)[:ops]:
        for call in op:
            _, ok = call()
            assert ok
    return {k: v for k, (v, unit) in tracer.metrics().items()}


# check-all is the only workload that reaches the polyhedra predicates,
# theorems and epigraph; one of its operations checks all eight theorems.
@pytest.mark.parametrize(
    "workload, ops", [("visibility", 5), ("ngon", 2), ("check-all", 1)]
)
def test_tracer_reports_every_metric(bench_run, workload, ops, tmp_path):
    metrics = _traced_metrics(bench_run, workload, ops, tmp_path)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    # run.py adds the tracing overhead itself, from two timed passes
    assert set(metrics) == names - {"trace.overhead_s"}
    if workload == "visibility":
        assert metrics["intgeom.sight_blocked.calls"] > 0
        assert metrics["intgeom.segment_in_polygon.calls"] > 0
    if workload == "check-all":
        assert metrics["polyhedra.extreme_points.calls"] > 0
        assert metrics["epigraph.chord_find.calls"] > 0
        assert metrics["theorems.reports"] > 0
