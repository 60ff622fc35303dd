"""Module-wide kernels: overlapping-seed payoffs behind a decoy, under
one shared selection budget.

Plan selection spends one shared selection budget
(``Budget.max_select_subsets``, metered through the
:class:`~repro.robustness.budget.ModuleMeter`) across the module.  These
kernels put a *decoy* — a clean, unambiguous seed family whose
candidates charge that budget without needing selection — ahead of one
or more *payoff* bodies built on the :mod:`repro.kernels.overlap`
recipe (full VL4 tree barely profitable at −4, the clean VL2 half −6).
The legacy greedy first-fit driver commits each payoff's VL4 tree;
``module-greedy`` sorts the pooled candidates by projected savings, so
payoff halves are considered (and picked) while the budget lasts —
goSLP's global packing, demonstrated on a tight budget.

The suite drives ``benchmarks/bench_ablation_module_select.py`` and the
module-selection property tests; like the overlap kernels it is **not**
part of ``ALL_KERNELS`` (these are selection microbenchmarks, not paper
workloads).

``MODULE_SELECT_BUDGET`` is the shared ``max_select_subsets`` value the
ablation uses: small enough to run dry mid-module, large enough that
module-greedy still reaches a payoff half in every kernel.
"""

from __future__ import annotations

from .catalog import Kernel

#: the shared plan-selection budget (``Budget.max_select_subsets``)
#: the module-select ablation runs under
MODULE_SELECT_BUDGET = 5

#: a clean VL4 seed family: full width and both halves are all
#: acceptable, so each of them could charge the shared budget
_DECOY = """
long D[1024], E[8192], F[16384];
void decoy(long i) {
    D[i + 0] = (E[i + 0] << 1) + (F[i + 0] << 2);
    D[i + 1] = (E[i + 1] << 1) + (F[i + 1] << 2);
    D[i + 2] = (E[i + 2] << 1) + (F[i + 2] << 2);
    D[i + 3] = (E[i + 3] << 1) + (F[i + 3] << 2);
}
"""

#: the overlap-shared-half payoff body: the VL4 tree is (barely)
#: profitable at -4, the clean VL2 half alone is -6
_PAYOFF_BODY = """
    {A}[{i} + 0] = ({B}[{i} + 0] << 1) + ({C}[{i} + 0] << 2);
    {A}[{i} + 1] = ({B}[{i} + 1] << 1) + ({C}[{i} + 1] << 2);
    {A}[{i} + 2] = ({B}[7*{i} + 40] << 1) + ({C}[9*{i} + 80] << 2);
    {A}[{i} + 3] = ({B}[3*{i} + 60] << 1) + ({C}[5*{i} + 20] << 2);
"""


def _payoff(arrays: tuple[str, str, str], index: str = "i") -> str:
    a, b, c = arrays
    return _PAYOFF_BODY.format(A=a, B=b, C=c, i=index)


MODULE_BUDGET_SKEW = Kernel(
    name="module-budget-skew",
    origin="module-select ablation (goSLP global packing, PAPERS.md)",
    description=(
        "Two functions: a clean decoy seed family first, then an "
        "overlapping-seed payoff.  Greedy first-fit commits the "
        "payoff's VL4 tree (-4); module-greedy considers the payoff's "
        "-6 half before the shared selection budget runs dry."
    ),
    source=_DECOY + """
long A[1024], B[8192], C[16384];
void kernel(long i) {
""" + _payoff(("A", "B", "C")) + """}
""",
)

MODULE_BUDGET_TWIN = Kernel(
    name="module-budget-twin",
    origin="module-select ablation (goSLP global packing, PAPERS.md)",
    description=(
        "A decoy followed by two payoff functions: module-greedy picks "
        "the payoff halves in savings order while the shared budget "
        "lasts (the first payoff's under MODULE_SELECT_BUDGET); greedy "
        "first-fit commits both VL4 trees."
    ),
    source=_DECOY + """
long A[1024], B[8192], C[16384];
void pay_one(long i) {
""" + _payoff(("A", "B", "C")) + """}

long G[1024], H[8192], K[16384];
void kernel(long i) {
""" + _payoff(("G", "H", "K")) + """}
""",
)

MODULE_CROSS_BLOCK = Kernel(
    name="module-cross-block",
    origin="module-select ablation (goSLP global packing, PAPERS.md)",
    description=(
        "One function, two blocks: the decoy seeds sit in the entry "
        "block, the payoff stores inside a loop body.  Module-wide "
        "pooling spends the shared selection budget in savings order "
        "and reaches the loop body's -6 half within it."
    ),
    source="""
long D[1024], E[8192], F[16384];
long A[1024], B[8192], C[16384];
void kernel(long i) {
    D[i + 0] = (E[i + 0] << 1) + (F[i + 0] << 2);
    D[i + 1] = (E[i + 1] << 1) + (F[i + 1] << 2);
    D[i + 2] = (E[i + 2] << 1) + (F[i + 2] << 2);
    D[i + 3] = (E[i + 3] << 1) + (F[i + 3] << 2);
    for (long j = i; j < i + 1; j = j + 1) {
""" + _payoff(("A", "B", "C"), index="j") + """    }
}
""",
)

#: the module-wide selection workloads (excluded from ``ALL_KERNELS``)
MODULEWIDE_KERNELS: list[Kernel] = [
    MODULE_BUDGET_SKEW,
    MODULE_BUDGET_TWIN,
    MODULE_CROSS_BLOCK,
]

__all__ = [
    "MODULE_BUDGET_SKEW",
    "MODULE_BUDGET_TWIN",
    "MODULE_CROSS_BLOCK",
    "MODULE_SELECT_BUDGET",
    "MODULEWIDE_KERNELS",
]
