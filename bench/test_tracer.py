"""Self-tests of the outside-in tracer.

Run from the root of a checkout: python3 -m pytest -q bench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def cp():
    return run.import_library()


def test_no_original_reachable_after_install(cp):
    original = cp.polyhedra.extreme_points
    tracer = Tracer()
    tracer.install()
    for module in tracer._modules():
        assert all(value is not original for value in vars(module).values())
    # The home module, the package re-export and a `from .x import f` site
    # all reach the same wrapper.
    assert cp.extreme_points is cp.polyhedra.extreme_points
    assert cp.cli.extreme_points is cp.polyhedra.extreme_points
    assert cp.polyhedra.extreme_points.__wrapped__ is original


def test_check_installed_finds_a_leak(cp):
    tracer = Tracer()
    tracer.install()
    cp.theorems.extreme_points = cp.polyhedra.extreme_points.__wrapped__
    with pytest.raises(RuntimeError, match="convexprofile.theorems.extreme_points"):
        tracer.check_installed()


def test_counts_repeat_and_self_time_adds_up(cp, tmp_path):
    def traced_counts():
        lib = run.import_library()
        tracer = Tracer()
        tracer.install()
        ops = run.setup_polytope(lib, 3, tmp_path)
        for (call,) in ops[:3]:
            _, ok = call()
            assert ok
        metrics = tracer.metrics()
        return tracer, {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    tracer, first = traced_counts()
    _, second = traced_counts()
    assert first == second
    assert first["linprog.calls"] > 0
    # Per operation: the polytope, again inside hull_equal, and the face.
    assert first["polyhedra.extreme_points.calls"] == 3 * 3
    assert not tracer._children and not tracer._names
    assert all(s.self_s >= 0 for s in tracer.stats.values())
