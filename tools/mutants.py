"""Run the recorded mutants of `tools/mutants.json` against their tests.

Each mutant names a module, an exact snippet of it, a replacement and the
tier-1 test ids that must fail once the snippet is replaced. The tree
(`src/`, `tests/`, `bench/` and the pytest configuration) is copied to a
temporary directory; the named tests are first run there unmutated and
must pass. Then each mutant in turn is written into the copy, its tests are
run under a timeout, and the module is put back.

A mutant is killed when pytest reports a failing test (exit status 1). It
survives when the tests pass, hangs when they outlive the timeout, and is
stale when its snippet does not occur exactly once or pytest cannot run the
named ids. The script exits 1 if any mutant is not killed.

Usage, from anywhere (standard library only):

    python tools/mutants.py            # every mutant
    python tools/mutants.py ID [ID...] # the mutants with these ids
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "bench", "conftest.py", "pyproject.toml")
TIMEOUT_S = 600


def _pytest(copy, tests):
    """pytest's exit status on the test ids in the copy, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def _module_path(copy, module):
    return copy / "src" / Path(*module.split(".")).with_suffix(".py")


def _verdict(copy, mutant):
    path = _module_path(copy, mutant["module"])
    original = path.read_text()
    if original.count(mutant["snippet"]) != 1:
        return "stale: the snippet does not occur exactly once"
    path.write_text(original.replace(mutant["snippet"], mutant["replacement"]))
    try:
        status = _pytest(copy, mutant["tests"])
    finally:
        path.write_text(original)
    if status is None:
        return f"hang: the tests ran past {TIMEOUT_S} s"
    if status == 0:
        return "survived"
    if status == 1:
        return "killed"
    return f"stale: pytest exited {status} (an id it cannot run?)"


def main(argv):
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in TREE:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / name)
        baseline = sorted({t for m in mutants for t in m["tests"]})
        status = _pytest(copy, baseline)
        if status != 0:
            print(f"baseline: the named tests, unmutated, gave pytest status {status}")
            return 1
        bad = 0
        for mutant in mutants:
            verdict = _verdict(copy, mutant)
            bad += verdict != "killed"
            print(f"{mutant['id']}: {verdict}", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
