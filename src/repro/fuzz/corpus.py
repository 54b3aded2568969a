"""The quarantine corpus: minimized reproducers for oracle disagreements.

Layout: one JSON file per case under the corpus root (default
``fuzz_corpus/`` in the working directory; ``REPRO_FUZZ_CORPUS`` places
it for the CLI and the tools, and the library calls take a ``root=``):

``fuzz_corpus/<profile>-s<seed>-<oracle>.json``
    ``schema``            corpus layout version
    ``case_id``           the file stem; stable triage handle
    ``seed`` / ``profile``  the generator pair that produced the program
    ``gen_version``       generator grammar version (a stale reproducer
                          is recognizable when the grammar has moved on)
    ``oracle`` / ``detail`` the primary disagreement
    ``failures``          every oracle failure of the original program
    ``source``            the *minimized* reproducer (what replay runs)
    ``original_source``   the unshrunk generated program
    ``fingerprint``       pipeline fingerprint(s) of the code that
                          disagreed (see ``passes.pass_manager``)
    ``created``           unix timestamp (informational only)

The corpus is a regression suite: ``tests/test_fuzz_corpus.py`` replays
every entry and asserts the oracles now *pass* — a freshly quarantined,
still-broken case therefore fails CI until the underlying bug is fixed,
and after the fix the entry keeps guarding against regression.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from ..errors import ReproError
from ..runtime.profile_store import publish
from .harness import run_oracles

CORPUS_SCHEMA = 1


def corpus_root(override=None):
    """The quarantine directory: explicit override, ``REPRO_FUZZ_CORPUS``,
    or ``./fuzz_corpus``."""
    if override is not None:
        return pathlib.Path(override)
    env = os.environ.get("REPRO_FUZZ_CORPUS")
    if env:
        return pathlib.Path(env)
    return pathlib.Path("fuzz_corpus")


class QuarantineCase:
    """One minimized reproducer with its provenance."""

    __slots__ = ("seed", "profile", "oracle", "detail", "source",
                 "original_source", "failures", "fingerprint",
                 "gen_version", "created")

    def __init__(self, seed, profile, oracle, detail, source,
                 original_source=None, failures=None, fingerprint=None,
                 gen_version=None, created=None):
        from ..passes.pass_manager import pipeline_fingerprint
        from .genprog import GEN_VERSION

        self.seed = seed
        self.profile = profile
        self.oracle = oracle
        self.detail = detail
        self.source = source
        self.original_source = original_source or source
        self.failures = list(failures or [])
        self.fingerprint = fingerprint if fingerprint is not None else (
            f"{pipeline_fingerprint(False)}|{pipeline_fingerprint(True)}"
        )
        self.gen_version = gen_version if gen_version is not None \
            else GEN_VERSION
        self.created = created if created is not None else time.time()

    @property
    def case_id(self):
        return f"{self.profile}-s{self.seed}-{self.oracle}"

    def to_dict(self):
        return {
            "schema": CORPUS_SCHEMA,
            "case_id": self.case_id,
            "seed": self.seed,
            "profile": self.profile,
            "gen_version": self.gen_version,
            "oracle": self.oracle,
            "detail": self.detail,
            "failures": self.failures,
            "source": self.source,
            "original_source": self.original_source,
            "fingerprint": self.fingerprint,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            seed=data["seed"],
            profile=data["profile"],
            oracle=data["oracle"],
            detail=data.get("detail", ""),
            source=data["source"],
            original_source=data.get("original_source"),
            failures=data.get("failures"),
            fingerprint=data.get("fingerprint"),
            gen_version=data.get("gen_version"),
            created=data.get("created"),
        )

    def __repr__(self):
        return f"<QuarantineCase {self.case_id}>"


def store_case(case, root=None):
    """Write one case to the corpus (atomically, so a killed campaign
    leaves the old entry or the new one); returns the path written."""
    path = corpus_root(root) / f"{case.case_id}.json"
    publish(path, json.dumps(case.to_dict(), indent=1, sort_keys=True) + "\n")
    return path


def load_cases(root=None):
    """Every case in the corpus, sorted by case id; a missing directory
    is an empty corpus. Raises :class:`ReproError` for a damaged entry."""
    directory = corpus_root(root)
    cases = []
    try:
        paths = sorted(directory.glob("*.json"))
    except OSError:
        return []
    for path in paths:
        case = _load_path(path)
        if case is not None:
            cases.append(case)
    return cases


def load_case(name, root=None):
    """One case by id, filename, or path; ``None`` when absent. Raises
    :class:`ReproError` for a damaged entry."""
    candidate = pathlib.Path(name)
    if candidate.is_file():
        return _load_path(candidate)
    directory = corpus_root(root)
    stem = name[:-5] if name.endswith(".json") else name
    return _load_path(directory / f"{stem}.json")


def _load_path(path):
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        return QuarantineCase.from_dict(json.loads(data))
    except (ValueError, KeyError, TypeError) as error:
        raise ReproError(
            f"damaged quarantine case {path}: {type(error).__name__}: {error}"
        ) from None


def replay_case(case, fuel=None):
    """Re-run every oracle on a case's minimized reproducer.

    Returns the fresh :class:`~repro.fuzz.harness.OracleReport`; the case
    is *fixed* when the report is ok, and still *reproduces* otherwise.
    """
    from .harness import DEFAULT_FUEL

    return run_oracles(case.source, name=case.case_id,
                       fuel=fuel if fuel is not None else DEFAULT_FUEL)
