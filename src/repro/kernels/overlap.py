"""Overlapping-seed kernels: where greedy first-fit leaves savings behind.

The legacy pipeline commits each store-seed group first-come-first-served
at the widest width whose tree cost clears the threshold.  These kernels
are built so the *full-width* VL4 tree is (barely) profitable but a VL2
half is far better — the paper-faithful greedy driver takes the full
tree and never looks back, while plan selection (``module-greedy``/
``module-exhaustive``) weighs the enumerated halves against it and
wins.  They drive the plan-select ablation figure and the selection
property tests.

The recipe: lanes 0-1 are clean consecutive work; lanes 2-3 use strided
addresses, so their loads gather (+1/lane each operand) at VL4.  Full
width saves −8 on ALU/store groups but pays +8 gather ⇒ total just at
−4 with splat constants free; the clean half alone is −6 (or two
disjoint halves −6 each), strictly better.
"""

from __future__ import annotations

from .catalog import Kernel

OVERLAP_SHARED_HALF = Kernel(
    name="overlap-shared-half",
    origin="plan-select ablation (goSLP-motivated, PAPERS.md)",
    description=(
        "VL4 store seed whose lanes 2-3 load at strides: the full tree "
        "is profitable (-4) so greedy first-fit takes it, but the clean "
        "VL2 half alone is -6; selection keeps the half and rejects "
        "the gather-heavy remainder."
    ),
    source="""
long A[1024], B[8192], C[16384];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) + (C[i + 0] << 2);
    A[i + 1] = (B[i + 1] << 1) + (C[i + 1] << 2);
    A[i + 2] = (B[7*i + 40] << 1) + (C[9*i + 80] << 2);
    A[i + 3] = (B[3*i + 60] << 1) + (C[5*i + 20] << 2);
}
""",
)

OVERLAP_DISJOINT_HALVES = Kernel(
    name="overlap-disjoint-halves",
    origin="plan-select ablation (goSLP-motivated, PAPERS.md)",
    description=(
        "Both VL2 halves are clean (-6 each) but mutually far apart, so "
        "the VL4 tree gathers across them (-4 total); greedy first-fit "
        "commits the full tree, selection takes both halves (-12)."
    ),
    source="""
long A[1024], B[8192], C[16384];
void kernel(long i) {
    A[i + 0] = (B[i + 0] << 1) + (C[i + 0] << 2);
    A[i + 1] = (B[i + 1] << 1) + (C[i + 1] << 2);
    A[i + 2] = (B[i + 512] << 1) + (C[i + 512] << 2);
    A[i + 3] = (B[i + 513] << 1) + (C[i + 513] << 2);
}
""",
)

#: the overlapping-seed workloads of the plan-select ablation
OVERLAP_KERNELS: list[Kernel] = [
    OVERLAP_SHARED_HALF,
    OVERLAP_DISJOINT_HALVES,
]

__all__ = [
    "OVERLAP_DISJOINT_HALVES",
    "OVERLAP_KERNELS",
    "OVERLAP_SHARED_HALF",
]
