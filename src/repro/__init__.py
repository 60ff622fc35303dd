"""repro — Look-ahead SLP (LSLP) auto-vectorization, reproduced.

A from-scratch Python implementation of *"Look-ahead SLP:
auto-vectorization in the presence of commutative operations"* (Porpodas,
Rocha, Goes — CGO 2018): a typed SSA IR, a mini C-like frontend, scalar
analyses and optimizations, the bottom-up SLP vectorizer with the paper's
LSLP extensions (multi-nodes over commutative chains and look-ahead
operand reordering), a cost model, vector code generation, an IR
interpreter with simulated-cycle accounting, the paper's kernels, and a
harness regenerating every evaluation figure.

Quickstart::

    from repro import compile_kernel_source, compile_function
    from repro import VectorizerConfig, verify_function, print_function

    module = compile_kernel_source('''
        long A[1024], B[1024], C[1024];
        void kernel(long i) {
            A[i + 0] = (B[i + 0] << 1) & (C[i + 0] << 2);
            A[i + 1] = (C[i + 1] << 3) & (B[i + 1] << 4);
        }
    ''')
    func = module.get_function("kernel")
    result = compile_function(func, VectorizerConfig.lslp())
    print(print_function(func))          # vectorized IR
    print(result.static_cost)            # -6, as in the paper's Figure 2
"""

from .costmodel import (
    skylake_like,
    target_by_name,
    TargetCostModel,
    TargetDescription,
)
from .frontend import compile_kernel_source, lower_program
from .interp import (
    compare_runs,
    Interpreter,
    MemoryImage,
    run_on_fresh_memory,
)
from .ir import (
    Function,
    IRBuilder,
    Module,
    parse_module,
    print_function,
    print_module,
    verify_function,
    verify_module,
)
from .opt import compile_function, compile_module, CompileResult
from .slp import VectorizationReport, VectorizerConfig

__version__ = "1.0.0"

__all__ = [
    "compare_runs",
    "compile_function",
    "compile_kernel_source",
    "compile_module",
    "CompileResult",
    "Function",
    "Interpreter",
    "IRBuilder",
    "lower_program",
    "MemoryImage",
    "Module",
    "parse_module",
    "print_function",
    "print_module",
    "run_on_fresh_memory",
    "skylake_like",
    "target_by_name",
    "TargetCostModel",
    "TargetDescription",
    "VectorizationReport",
    "VectorizerConfig",
    "verify_function",
    "verify_module",
    "__version__",
]
