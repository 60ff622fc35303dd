"""repro.ir — a small typed SSA IR with use-def chains.

This package is the substrate everything else builds on: LLVM-flavoured
types, values, instructions, basic blocks, functions and modules, plus a
builder, a textual printer/parser pair, and a verifier.
"""

from .basicblock import BasicBlock
from .call import Call
from .cfg import (
    DominatorInfo,
    predecessors,
    reachable_blocks,
    reverse_post_order,
)
from .cloning import (
    clone_function,
    clone_instruction,
    discard_blocks,
    discard_body,
    map_value,
    matches_clone,
)
from .controlflow import Br, CondBr, Phi
from .builder import IRBuilder, UndefVector
from .function import Function, Module
from .instructions import (
    BINARY_OPCODE_NAMES,
    BinaryOperator,
    Cmp,
    COMMUTATIVE_OPCODES,
    ExtractElement,
    GetElementPtr,
    InsertElement,
    Instruction,
    Load,
    Ret,
    Select,
    ShuffleVector,
    Splat,
    Store,
    UnaryOperator,
    binary_opcode_info,
)
from .parser import IRParseError, parse_function, parse_module
from .printer import (
    ensure_names,
    print_block,
    print_function,
    print_instruction,
    print_module,
)
from .types import (
    F32,
    F64,
    FloatType,
    I1,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VOID,
    VectorType,
    VoidType,
    parse_type,
    scalar_of,
    vector_of,
)
from .values import (
    Argument,
    Constant,
    GlobalArray,
    Use,
    User,
    Value,
    constants_equal,
)
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "Argument", "BasicBlock", "Br", "Call", "clone_function",
    "clone_instruction", "CondBr", "discard_blocks", "discard_body",
    "DominatorInfo", "map_value", "matches_clone", "Phi", "predecessors",
    "reachable_blocks", "reverse_post_order", "BINARY_OPCODE_NAMES", "BinaryOperator",
    "Cmp", "COMMUTATIVE_OPCODES", "Constant", "constants_equal",
    "ensure_names", "ExtractElement", "F32", "F64", "FloatType", "Function",
    "GetElementPtr", "GlobalArray", "I1", "I8", "I16", "I32", "I64",
    "InsertElement", "Instruction", "IntType", "IRBuilder", "IRParseError",
    "Load", "Module", "parse_function", "parse_module", "parse_type",
    "PointerType", "print_block", "print_function", "print_instruction",
    "print_module", "Ret", "scalar_of", "Select", "ShuffleVector", "Splat",
    "Store", "Type", "UnaryOperator", "UndefVector", "Use", "User", "Value",
    "vector_of", "VectorType", "VerificationError", "verify_function",
    "verify_module", "VOID", "VoidType", "binary_opcode_info",
]
