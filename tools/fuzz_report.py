#!/usr/bin/env python
"""Quarantine-corpus state report for the differential fuzzer.

Prints every case in the corpus (default ``fuzz_corpus/``, override with
``REPRO_FUZZ_CORPUS`` or argv[1]) grouped by oracle and profile, with the
pipeline fingerprint and grammar version each case was quarantined
under, and flags entries whose grammar version no longer matches the
current generator (the reproducer still replays — ``source`` is stored
verbatim — but the ``(seed, profile)`` pair will no longer regenerate
it).

Informational only: exit status is 0 unless an entry is damaged (it
does not parse or lacks a field), which exits 1 naming the file. The
*gate* on corpus entries is ``tests/test_fuzz_corpus.py``, which replays
every case and fails while any still reproduces. Run via ``make
fuzz-report``.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.fuzz.corpus import corpus_root, load_cases  # noqa: E402
from repro.fuzz.genprog import GEN_VERSION  # noqa: E402


def main():
    root = corpus_root(sys.argv[1] if len(sys.argv) > 1 else None)
    try:
        cases = load_cases(root)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"quarantine corpus: {root} — {len(cases)} case(s)")
    if not cases:
        print("  empty: no oracle disagreement is currently quarantined")
        return 0

    by_oracle = {}
    by_profile = {}
    for case in cases:
        by_oracle[case.oracle] = by_oracle.get(case.oracle, 0) + 1
        by_profile[case.profile] = by_profile.get(case.profile, 0) + 1
    print("  by oracle:  " + "  ".join(
        f"{oracle}={count}" for oracle, count in sorted(by_oracle.items())))
    print("  by profile: " + "  ".join(
        f"{profile}={count}"
        for profile, count in sorted(by_profile.items())))
    print()

    for case in cases:
        stale = "" if case.gen_version == GEN_VERSION \
            else f"  [grammar {case.gen_version}, current {GEN_VERSION}]"
        print(f"{case.case_id}{stale}")
        print(f"  detail:      {case.detail}")
        print(f"  fingerprint: {case.fingerprint}")
        print(f"  minimized:   {len(case.source.splitlines())} line(s) "
              f"(from {len(case.original_source.splitlines())})")
        for failure in case.failures[1:]:
            print(f"  also:        [{failure.get('oracle', '?')}] "
                  f"{failure.get('detail', '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
