"""Make ``repro`` and ``perfbench`` importable, and keep in-process tests
off the user's cache: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True, scope="session")
def private_cache_root(tmp_path_factory):
    """The code cache is created lazily from REPRO_CACHE_DIR the first
    time a function is compiled, so set it before any test runs."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if previous is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
