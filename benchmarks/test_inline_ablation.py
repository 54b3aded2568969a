"""Ablation: how much of the fn0 -> fn2 gap is "just inlining"?

The study keeps calls visible because real compilers cannot inline
everything — that is why the ``fn`` axis exists. This ablation compiles
each call-heavy benchmark twice (with and without the optional inliner)
and compares the *strictest* configuration, where calls serialize loops:
inlining dissolves part of the constraint, but serial input phases and
true dependences keep the rest.

Run: ``pytest benchmarks/test_inline_ablation.py -s``
"""

from repro.bench import suite_programs
from repro.core import LPConfig, Loopapalooza
from repro.reporting import geomean

from conftest import publish

# The call-heavy members of the suites (TRAIT_CALLS).
CANDIDATES = [
    ("eembc", "rgbcmy"),
    ("eembc", "aifirf"),
    ("specfp2000", "mesa_like"),
    ("specfp2006", "milc_like"),
    ("specfp2006", "povray_like"),
    ("specint2000", "eon_like"),
    ("specint2000", "gap_like"),
]

STRICT = LPConfig("pdoall", 1, 2, 0)   # fn0: calls serialize
LIBERAL = LPConfig("pdoall", 1, 2, 2)  # fn2: calls allowed


def test_inlining_dissolves_part_of_fn_gap(runner, artifact_dir):
    def sweep():
        rows = []
        for suite, name in CANDIDATES:
            program = [p for p in suite_programs(suite) if p.name == name][0]
            plain = runner.instance(program)
            inlined = Loopapalooza(
                program.source, f"{program.full_name}+inline",
                fuel=50_000_000, inline=True,
            )
            rows.append((
                program.full_name,
                plain.evaluate(STRICT).speedup,
                inlined.evaluate(STRICT).speedup,
                plain.evaluate(LIBERAL).speedup,
            ))
        return rows

    rows = sweep()
    lines = [
        "Ablation — inlining vs the fn axis (pdoall reduc1-dep2)",
        f"{'benchmark':28s}{'fn0':>9s}{'fn0+inline':>12s}{'fn2':>9s}",
    ]
    for name, strict, strict_inlined, liberal in rows:
        lines.append(
            f"{name:28s}{strict:>8.2f}x{strict_inlined:>11.2f}x"
            f"{liberal:>8.2f}x"
        )
    fn0 = geomean(r[1] for r in rows)
    fn0_inline = geomean(r[2] for r in rows)
    fn2 = geomean(r[3] for r in rows)
    lines.append(
        f"{'GEOMEAN':28s}{fn0:>8.2f}x{fn0_inline:>11.2f}x{fn2:>8.2f}x"
    )
    publish(artifact_dir, "ablation_inline.txt", "\n".join(lines))

    # Inlining must recover a real part of the fn gap on these benchmarks...
    assert fn0_inline > fn0 * 1.3
    # ...approaching what fn2 achieves without inlining (the helpers here
    # are small; real codes' un-inlinable calls are why fn2 matters).
    assert fn0_inline > fn2 * 0.5
