"""Ablation — greedy first-fit vs module-wide plan selection under a
shared selection budget.

The module-wide kernels put a budget-soaking decoy block ahead of one
or more overlapping-seed payoff blocks.  With one shared
``max_select_subsets`` budget, ``module-greedy`` sorts the pooled
candidates by projected savings and picks a payoff half while the
budget lasts, where the legacy driver commits each payoff block's
full-width tree: -24 vs -22 on module-budget-skew and
module-cross-block, -28 vs -26 on module-budget-twin.
"""

from repro.experiments.figures import ablation_module_select
from repro.kernels import MODULEWIDE_KERNELS

from conftest import emit_table


def build_table():
    return ablation_module_select()


def test_ablation_module_select(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit_table(table)

    cost = {
        (row["kernel"], row["plan-select"]): row["static-cost"]
        for row in table.rows
    }
    strict_wins = 0
    for kernel in MODULEWIDE_KERNELS:
        legacy = cost[(kernel.name, "legacy")]
        module = cost[(kernel.name, "module-greedy")]
        exhaustive = cost[(kernel.name, "module-exhaustive")]
        # module-wide selection never loses to first-fit, and the
        # module DFS never loses to the module greedy pass
        assert module <= legacy
        assert exhaustive <= module
        if module < legacy:
            strict_wins += 1
    # the acceptance bar: under the shared budget, module-wide
    # selection strictly beats first-fit somewhere
    assert strict_wins >= 1
