"""CLI fuzzing: every geometry document, however malformed, ends in exit 0,
1 or 2 with the documented output, never in a traceback.

The documents come from `test_geometry_io`'s strategies: arbitrary JSON,
valid documents of every kind with up to three edits, and valid documents
whose rational fields are redrawn, which mostly still load and so reach
the commands' geometry.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from convexprofile.cli import run
from test_geometry_io import VALID_DOCS, json_values, mutated_docs, rationals

COMMANDS = ["classify", "convexity", "kernel", "extremes", "reconstruct", "render"]

# A hole-free polygon, the one kind `kernel` takes, and a rational past the
# float range, which the renderer must refuse rather than crash on.
DOCS = VALID_DOCS + [
    {"kind": "polygon",
     "outer": [["0", "0"], ["2", "0"], ["2", "1"], ["1", "1"], ["1", "2"],
               ["0", "2"]]},
]
LEAVES = rationals | st.just("1" + "0" * 400)


@st.composite
def redrawn_docs(draw):
    """A valid document with each rational field kept or redrawn."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))

    def redraw(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in list(items):
            if isinstance(value, (dict, list)):
                redraw(value)
            elif key not in ("kind", "dim") and draw(st.booleans()):
                node[key] = draw(LEAVES)

    redraw(doc)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert isinstance(error, dict) and {"error", "message"} <= set(error)
        return
    assert err == ""
    results = json.loads(out)["results"]
    counterexamples = [
        r for r in results
        if (r.get("hypothesis"), r.get("conclusion")) == ("satisfied", "fails")
    ]
    assert bool(counterexamples) == (code == 1)


def _run_every_command(workdir, doc):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [command, str(path)]
        if command == "reconstruct":
            argv += ["--samples", "4"]
        if command == "render":
            argv += ["--svg", str(workdir / "out.svg")]
        _check_exit(argv)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(redrawn_docs())
def test_redrawn_documents_end_in_a_documented_exit(workdir, doc):
    _run_every_command(workdir, doc)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mutated_docs() | json_values)
def test_malformed_documents_end_in_a_documented_exit(workdir, doc):
    _run_every_command(workdir, doc)
