#!/usr/bin/env python
"""Transform-pipeline report and soundness gate over the bundled suites.

Two halves, each with its own gate (the untransformed crosscheck gates
``repro figures``):

1. the **unlock figure** — every benchmark compiled with the structural
   transforms (fission / peeling / fusion) off and on, post-transform
   verdicts joined back to original loops via provenance; gated on the
   transforms actually firing (a pass that silently stops applying would
   otherwise look "sound" forever);
2. the **re-verification** — the full static-vs-dynamic crosscheck with
   ``REPRO_TRANSFORM=1``, gated on ``unsound-static-doall == 0``: every
   ``STATIC_DOALL`` the transforms manufacture must survive the dynamic
   conflict check.

Exit status 0 only if both gates hold. Run via ``make transform-report``.
"""

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

# Before any repro import that might construct a framework object: the
# crosscheck half must profile the *transformed* programs.
os.environ["REPRO_TRANSFORM"] = "1"

from repro.analysis.depend import VERDICT_DOALL  # noqa: E402
from repro.bench import SuiteRunner  # noqa: E402
from repro.reporting import (  # noqa: E402
    crosscheck_suites,
    format_crosscheck,
    format_transform_figure,
    transform_suites,
)


def main():
    failures = 0

    report = transform_suites()
    print(format_transform_figure(report))
    print()
    before = report.counts_before()[VERDICT_DOALL]
    after = report.counts_after()[VERDICT_DOALL]
    if not report.transform_log:
        print("FAIL: no transform fired on any bundled benchmark")
        failures += 1
    elif after <= before:
        print(f"FAIL: transforms no longer unlock parallelism "
              f"({before} proved DOALL before, {after} after)")
        failures += 1
    else:
        print(f"ok: transforms raise proved DOALL {before} -> {after} "
              f"({len(report.unlocked)} loop(s) unlocked)")
    print()

    # The SuiteRunner below profiles with REPRO_TRANSFORM=1 (set above,
    # picked up by Loopapalooza's transform=None default), so the join
    # covers the post-transform loop population.
    crosscheck = crosscheck_suites(SuiteRunner())
    print(format_crosscheck(crosscheck))
    print()
    if crosscheck.unsound:
        print(f"FAIL: {len(crosscheck.unsound)} post-transform STATIC_DOALL "
              f"loop(s) conflicted dynamically")
        failures += 1
    else:
        print(f"ok: every post-transform STATIC_DOALL survives the dynamic "
              f"crosscheck ({len(crosscheck.rows)} loops)")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
