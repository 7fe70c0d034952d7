"""Test isolation shared by `tests/` and `bench/`."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _restore_package_modules():
    """Put back the `convexprofile` modules each test started with.

    `bench/run.py`'s `import_library()` imports a fresh copy of the package,
    and the tracer rebinds that copy's functions. Left in `sys.modules`, the
    copy would serve every later import, so a test would mix its classes and
    functions with those its module bound at collection: an error class it
    does not catch, a monkeypatch the copy never reads.
    """
    saved = {k: v for k, v in sys.modules.items()
             if k.split(".", 1)[0] == "convexprofile"}
    yield
    for k in [k for k in sys.modules if k.split(".", 1)[0] == "convexprofile"]:
        del sys.modules[k]
    sys.modules.update(saved)
