"""Unified function-signature DSL with a first-order-logic backend.

Parse and print normalized signatures, normalize raw per-language
documentation strings, compile signatures to logic formulas, and answer
wildcard and cross-language-equivalence queries over a fact store.
"""

__version__ = "0.1.0"  # before the submodules: a KB row snapshot names it

from .model import (
    UNK,
    Const,
    EquivIn,
    FunctionKey,
    ModelError,
    NotGround,
    Param,
    Signature,
    Wildcard,
    function_key,
    is_ground,
)
from .dsl import MixedWildcardParams, ParseError, parse_signature, print_signature
from .normalizer import Dialect, DialectParseError, normalize
from .logic import (
    App,
    ArityMismatch,
    Atom,
    Formula,
    UnsupportedHead,
    Var,
    alpha_eq,
    beta_apply,
    compile_signature,
    expand_equiv,
    print_formula,
    validate_formula,
)
from .kb import (
    Binding,
    EquivStore,
    FactStore,
    KeyConflict,
    LineError,
    SourceNotFound,
    answer,
    answer_equiv,
    brute_force_answer,
    dump_facts,
    fact_text,
    ingest_signature,
    load_kb,
    load_links,
    reconstruct_signature,
)

__all__ = [
    "UNK",
    "Const",
    "EquivIn",
    "FunctionKey",
    "ModelError",
    "NotGround",
    "Param",
    "Signature",
    "Wildcard",
    "function_key",
    "is_ground",
    "MixedWildcardParams",
    "ParseError",
    "parse_signature",
    "print_signature",
    "Dialect",
    "DialectParseError",
    "normalize",
    "App",
    "ArityMismatch",
    "Atom",
    "Formula",
    "UnsupportedHead",
    "Var",
    "alpha_eq",
    "beta_apply",
    "compile_signature",
    "expand_equiv",
    "print_formula",
    "validate_formula",
    "Binding",
    "EquivStore",
    "FactStore",
    "KeyConflict",
    "LineError",
    "SourceNotFound",
    "answer",
    "answer_equiv",
    "brute_force_answer",
    "dump_facts",
    "fact_text",
    "ingest_signature",
    "load_kb",
    "load_links",
    "reconstruct_signature",
]
