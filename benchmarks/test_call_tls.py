"""Extension bench: function-call/continuation TLS potential per suite
(the paper's §I note that its taxonomy also covers call-level TLS).

Run: ``pytest benchmarks/test_call_tls.py -s``
"""

from repro.bench import suite_programs
from repro.core.call_tls import estimate_call_tls

from conftest import publish


def test_call_tls_per_suite(runner, artifact_dir):
    def sweep():
        rows = []
        for suite in ("specint2000", "specint2006", "eembc",
                      "specfp2000", "specfp2006"):
            for program in suite_programs(suite):
                report = estimate_call_tls(runner.instance(program).profile())
                if report.sites:
                    rows.append((
                        program.full_name, report.speedup,
                        report.call_coverage,
                    ))
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows

    rows = sweep()
    lines = [
        "Extension — function-call/continuation TLS limit per benchmark",
        f"{'benchmark':36s}{'speedup':>10s}{'in-call time':>14s}",
    ]
    for name, speedup, coverage in rows:
        lines.append(f"{name:36s}{speedup:>9.2f}x{coverage * 100:>13.1f}%")
    publish(artifact_dir, "call_tls.txt", "\n".join(lines))
    # Consistent with the paper's focus on loops: call-level TLS alone is
    # marginal on these suites.
    assert all(speedup < 2.0 for _, speedup, _ in rows)
    assert rows, "some benchmarks must expose tracked call sites"
