"""Loop kernels: the Fig. 3 numeric benchmarks' DOALL loops, isolated.

Each kernel here is one innermost DOALL loop pattern lifted from a
numeric-suite benchmark — same body shape, same intrinsics — widened
until the loop is >99% of the program's dynamic instructions. They are
inputs for the vector tier's tests.

Every kernel must vectorize (plan status "vectorized"), which
tests/test_veccodegen.py enforces, so the kernels keep exercising the
vector path.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Inner trip count. Large enough that kernel setup (trip computation,
#: guard, arange) amortizes to noise; comfortably under the planner's
#: _MAX_VEC_TRIP so every kernel takes the vector path.
TRIP = 1 << 17

#: Outer repetitions: the inner loop re-enters, so per-invocation costs
#: (bookkeeping, cache effects) are averaged over several invocations.
REPS = 4


@dataclass(frozen=True)
class LoopKernel:
    name: str
    derived_from: str  # the fig3 numeric benchmark whose loop this is
    description: str
    source: str


def _program(body, decls, step="i = i + 1", trip=TRIP):
    # The inner bound is a global scalar, so every kernel exercises the
    # runtime-computed trip path (the planner proves the count from the
    # live bound register and guards it).
    return (
        f"int N = {trip};\n"
        f"{decls}\n"
        "int main() { int r; int i;\n"
        f"  for (r = 0; r < {REPS}; r = r + 1) {{\n"
        f"    for (i = 0; i < N; {step}) {{ {body} }}\n"
        "  }\n"
        "  return 0; }\n"
    )


def loop_kernels():
    """The loop kernels, in a stable order."""
    n = TRIP
    return [
        LoopKernel(
            "noise_fill", "specfp2000/swim_like",
            "initialization fill from the deterministic noise intrinsic",
            _program("V[i] = noise_f64(i + r) - 0.5;",
                     f"float V[{n}];"),
        ),
        LoopKernel(
            "stencil_sweep", "specfp2000/swim_like",
            "shallow-water five-point stencil: new grid from old grid",
            _program("W[i] = 0.25 * (U[i - 1] + U[i + 1] + U[i - 64]"
                     " + U[i + 64]) + 0.5 * V[i];",
                     f"float W[{n + 128}]; float U[{n + 128}];"
                     f" float V[{n + 128}];",
                     step="i = i + 1", trip=n).replace(
                         "for (i = 0;", "for (i = 64;"),
        ),
        LoopKernel(
            "match_distance", "specfp2000/art_like",
            "L1 match distance: fabs of an elementwise difference",
            _program("Y[i] = fabs(W[i] - P[i]);",
                     f"float Y[{n}]; float W[{n}]; float P[{n}];"),
        ),
        LoopKernel(
            "clamp_shade", "specfp2000/mesa_like",
            "shading clamp: fmin/fmax pipeline over a lit intensity",
            _program("C[i] = fmin(fmax(L[i] * 0.8 + 0.1, 0.0), 1.0);",
                     f"float C[{n}]; float L[{n}];"),
        ),
        LoopKernel(
            "sparsity_init", "specfp2000/equake_like",
            "sparse-value init: noise from masked indices, index rescale",
            _program("V[i] = noise_f64((i * 69069 + 12345) % 4096) - 0.5;"
                     " C[i] = (i * 69069 + r) % 420;",
                     f"float V[{n}]; int C[{n}];"),
        ),
        LoopKernel(
            "energy_sqrt", "specfp2006/sphinx_like",
            "per-bin magnitude: sqrt over non-negative energies",
            _program("S[i] = sqrt(E[i] * E[i] + 1.0);",
                     f"float S[{n}]; float E[{n}];"),
        ),
        LoopKernel(
            "link_cmul", "specfp2006/milc_like",
            "lattice link update: in-place complex multiply per site",
            _program("float nr = LR[i] * GR[i] - LI[i] * GI[i];"
                     " float ni = LR[i] * GI[i] + LI[i] * GR[i];"
                     " LR[i] = nr; LI[i] = ni;",
                     f"float LR[{n}]; float LI[{n}];"
                     f" float GR[{n}]; float GI[{n}];"),
        ),
        LoopKernel(
            "hash_fill", "eembc/fft_bfly",
            "integer avalanche-hash table fill",
            _program("H[i] = hash_i32(i * 7 + r);",
                     f"int H[{n}];"),
        ),
        LoopKernel(
            "pixel_threshold", "eembc/dither",
            "integer clamp and absolute error per pixel",
            _program("D[i] = imin(imax(P[i] - 128, 0 - 64), 64)"
                     " + iabs(Q[i] - 128);",
                     f"int D[{n}]; int P[{n}]; int Q[{n}];"),
        ),
        LoopKernel(
            "strided_copy", "eembc/matrix",
            "strided scale-copy (stride-2 affine accesses)",
            _program("B[i] = A[i] * 3 + 1;",
                     f"int A[{n * 2}]; int B[{n * 2}];",
                     step="i = i + 2", trip=n * 2),
        ),
    ]


def find_kernel(name):
    for kernel in loop_kernels():
        if kernel.name == name:
            return kernel
    raise KeyError(name)
