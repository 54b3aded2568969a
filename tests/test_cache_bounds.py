"""Size bounds on the three code-path caches.

A long-lived host (sweep driver, fuzz campaign, REPL) must not grow
memory or disk without bound, so every cache on the compile/execute path
is LRU-capped and counts its evictions:

* the persistent on-disk :class:`CodeCache` (``CodeCache(cap=...)``,
  mtime-LRU, touched on every hit),
* the in-process codegen memo (``codegen._CODE_MEMO_CAP``), and
* the per-invocation gather-window cache in the vector runtime
  (``veccodegen._WINDOW_CAP``).

All three default caps are constants; the tests pass a small ``cap`` or
shrink the in-process bounds with ``monkeypatch`` to force evictions.
"""

from __future__ import annotations

import os

from repro.frontend.codegen import compile_source
from repro.interp import codegen, veccodegen
from repro.interp.interpreter import Interpreter
from repro.runtime.profile_store import CODE_CACHE_CAP_DEFAULT, CodeCache


#: Three store keys; keys are sha256 hex digests.
A, B, C = ("a" * 64, "b" * 64, "c" * 64)


def _stamp(cache, key, mtime):
    path = cache._path_for(key)
    os.utime(path, (mtime, mtime))


def test_code_cache_evicts_oldest_beyond_cap(tmp_path):
    cache = CodeCache(root=tmp_path, cap=2)
    assert cache.store(A, "source a")
    _stamp(cache, A, 1_000_000)
    assert cache.store(B, "source b")
    _stamp(cache, B, 1_000_100)
    assert cache.store(C, "source c")  # evicts A (oldest mtime)
    assert cache.evictions == 1
    assert cache.load(A) is None
    assert cache.load(B) == "source b"
    assert cache.load(C) == "source c"
    assert len(cache.entries()) == 2


def test_code_cache_hit_refreshes_lru_rank(tmp_path):
    cache = CodeCache(root=tmp_path, cap=2)
    cache.store(A, "source a")
    _stamp(cache, A, 1_000_000)
    cache.store(B, "source b")
    _stamp(cache, B, 1_000_100)
    assert cache.load(A) == "source a"  # touch: A is now newest
    cache.store(C, "source c")
    assert cache.load(A) == "source a"
    assert cache.load(B) is None  # B was the LRU entry
    assert cache.evictions == 1


def test_code_cache_info_reports_evictions(tmp_path):
    assert CodeCache(root=tmp_path).info()["cap"] == CODE_CACHE_CAP_DEFAULT
    cache = CodeCache(root=tmp_path, cap=1)
    cache.store(A, "a")
    _stamp(cache, A, 1_000_000)
    cache.store(B, "b")
    info = cache.info()
    assert info["cap"] == 1
    assert info["evictions"] == 1
    assert info["entries"] == 1


def _run_jit(source):
    machine = Interpreter(compile_source(source), backend="jit")
    machine.run("main")


def test_codegen_memo_respects_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(codegen, "_CODE_MEMO_CAP", 2)
    # The memo fills whether the disk cache hits or misses; a private disk
    # cache keeps this test's sources out of the shared one.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    before = codegen._CODE_MEMO_STATS["evictions"]
    for salt in (101, 202, 303, 404):
        _run_jit(
            "int main() { int i; int acc; acc = 0;"
            f"  for (i = 0; i < 50; i = i + 1) {{ acc = acc + i * {salt}; }}"
            "  return acc & 255; }"
        )
    assert len(codegen._CODE_MEMO) <= 2
    assert codegen._CODE_MEMO_STATS["evictions"] > before


VEC_TWO_ARRAY_SOURCE = """
int N = 256;
int A[256];
int GAP[8];
int B[256];
int C[256];
int main() { int i;
  for (i = 0; i < N; i = i + 1) { A[i] = i * 3; B[i] = i * 5; }
  for (i = 0; i < N; i = i + 1) { C[i] = A[i] + B[i]; }
  return C[200] & 255; }
"""


def test_vec_gather_window_cap_evicts(monkeypatch):
    """With the window cache capped at one entry, a kernel gathering two
    non-adjacent arrays must evict between them (and still be correct —
    eviction only costs a re-conversion)."""
    monkeypatch.setattr(veccodegen, "_WINDOW_CAP", 1)
    before = veccodegen._WINDOW_STATS["evictions"]
    machine = Interpreter(compile_source(VEC_TWO_ARRAY_SOURCE),
                          backend="vec")
    result = machine.run("main")
    jit = Interpreter(compile_source(VEC_TWO_ARRAY_SOURCE), backend="jit")
    assert result == jit.run("main")
    assert veccodegen._WINDOW_STATS["evictions"] > before
