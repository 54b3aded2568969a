"""Replay the shipped quarantine corpus as a regression suite.

Semantics (see ``src/repro/fuzz/corpus.py``): every entry under
``fuzz_corpus/`` must *pass* every oracle on the current
pipeline. A freshly quarantined, still-broken case therefore fails CI
until the underlying bug is fixed; after the fix, the entry stays on as
a guard against the bug coming back. Delete an entry only when the
construct it exercises has left the language.
"""

import pathlib
import re

import pytest

from repro.errors import ReproError
from repro.fuzz.corpus import (CORPUS_SCHEMA, QuarantineCase, corpus_root,
                               load_case, load_cases, replay_case, store_case)
from repro.fuzz.genprog import GEN_VERSION

REPO_CORPUS = pathlib.Path(__file__).resolve().parents[1] / "fuzz_corpus"


def _repo_cases():
    return load_cases(REPO_CORPUS)


def _case_params():
    cases = _repo_cases()
    if not cases:
        return [pytest.param(None, id="corpus-empty",
                             marks=pytest.mark.skip(
                                 reason="no quarantined cases shipped"))]
    return [pytest.param(case, id=case.case_id) for case in cases]


@pytest.mark.parametrize("case", _case_params())
def test_quarantined_case_stays_fixed(case):
    report = replay_case(case)
    assert report.ok, (
        f"quarantined case {case.case_id} (oracle {case.oracle}) "
        f"reproduces again: {report.describe()}\n"
        f"originally: {case.detail}"
    )


def test_repo_corpus_entries_are_well_formed():
    for case in _repo_cases():
        assert case.oracle in ("verifier", "backends", "transforms",
                               "crosscheck", "execution")
        assert case.source.strip()
        assert case.gen_version, "entries must record the grammar version"
        path = REPO_CORPUS / f"{case.case_id}.json"
        assert path.is_file(), "filename must match the case id"


# -- store/load plumbing -------------------------------------------------------


def _sample_case():
    return QuarantineCase(
        seed=7, profile="affine", oracle="backends",
        detail="jit diverges from closure (transform=off)",
        source="int main() { return 0; }",
        original_source="int main() { int i; i = 0; return i; }",
        failures=[{"oracle": "backends", "detail": "jit diverges"}],
    )


def test_store_load_round_trip(tmp_path):
    case = _sample_case()
    path = store_case(case, tmp_path)
    assert path == tmp_path / "affine-s7-backends.json"

    by_id = load_case("affine-s7-backends", root=tmp_path)
    by_filename = load_case("affine-s7-backends.json", root=tmp_path)
    by_path = load_case(str(path))
    for loaded in (by_id, by_filename, by_path):
        assert loaded.seed == 7
        assert loaded.profile == "affine"
        assert loaded.oracle == "backends"
        assert loaded.source == case.source
        assert loaded.original_source == case.original_source
        assert loaded.failures == case.failures
        assert loaded.fingerprint == case.fingerprint
        assert loaded.gen_version == GEN_VERSION

    assert [c.case_id for c in load_cases(tmp_path)] == ["affine-s7-backends"]


def test_load_tolerates_junk_files(tmp_path):
    """Files that are not entries (``*.json``) are not cases: notes, and
    the temporary file of a write that was killed before its rename."""
    store_case(_sample_case(), tmp_path)
    (tmp_path / "README.md").write_text("# notes\n")
    (tmp_path / ".affine-s8-backends.json.x1y2.tmp").write_text('{"sch')
    assert [c.case_id for c in load_cases(tmp_path)] == ["affine-s7-backends"]
    assert load_case("missing-entirely", root=tmp_path) is None


@pytest.mark.parametrize("text", ['{"schema": 1, "seed": 7, "pro',
                                  '{"a": 1}', '[1, 2]', "\udcff"],
                         ids=["truncated", "no-source", "not-an-object",
                              "non-utf8"])
def test_damaged_entry_raises_naming_the_file(tmp_path, text):
    """A stored case that does not parse, or lacks its fields, must fail
    loudly: skipping it would shrink the regression suite unnoticed."""
    store_case(_sample_case(), tmp_path)
    path = tmp_path / "affine-s8-backends.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ReproError, match=re.escape(str(path))):
        load_cases(tmp_path)
    with pytest.raises(ReproError, match=re.escape(str(path))):
        load_case("affine-s8-backends", root=tmp_path)


def test_store_replaces_an_entry_in_one_step(tmp_path):
    """``store_case`` publishes through a temporary file and a rename: the
    directory never holds a partial entry or a leftover temporary."""
    first = store_case(_sample_case(), tmp_path)
    case = _sample_case()
    case.detail = "a newer detail"
    assert store_case(case, tmp_path) == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
    assert load_case(first.stem, root=tmp_path).detail == "a newer detail"


def test_corpus_root_resolution(monkeypatch, tmp_path):
    assert corpus_root(tmp_path) == tmp_path
    monkeypatch.setenv("REPRO_FUZZ_CORPUS", str(tmp_path / "env"))
    assert corpus_root() == tmp_path / "env"
    assert corpus_root(tmp_path) == tmp_path  # explicit beats env
    monkeypatch.delenv("REPRO_FUZZ_CORPUS")
    assert corpus_root() == pathlib.Path("fuzz_corpus")


def test_load_cases_missing_directory_is_empty(tmp_path):
    assert load_cases(tmp_path / "does-not-exist") == []


def test_schema_version_is_stamped(tmp_path):
    path = store_case(_sample_case(), tmp_path)
    import json
    assert json.loads(path.read_text())["schema"] == CORPUS_SCHEMA
