"""Deciding and certifying determinism properties of regular expressions and
block automata: one-unambiguity (the BKW test), k-block determinism and
k-lookahead determinism, together with the witness families separating them.
"""

from .automaton import (
    BlockAutomaton,
    Transition,
    accepts,
    determinize,
    distinguishing_word,
    enumerate_words,
    equivalent,
    expand_blocks,
    from_json,
    is_deterministic,
    isomorphic,
    minimize,
    standardize,
    to_dot,
    to_json,
    trim,
)
from .bkw import (
    BkwTrace,
    OrbitDecomposition,
    bkw_test,
    bkw_to_json,
    certify_k_block_language,
    consistent_symbols,
    is_one_unambiguous,
    minimal_dfa,
    orbit_automaton,
    orbit_decomposition,
    orbit_property,
    s_cut,
)
from .determinism import (
    CheckResult,
    is_k_block_deterministic,
    is_k_block_deterministic_expression,
    is_k_lookahead_deterministic,
    is_k_lookahead_deterministic_expression,
    marked_language_oracle,
    min_lookahead,
)
from .glushkov import (
    GlushkovAutomaton,
    alphabetic_image,
    check_glushkov_shape,
    glushkov,
    glushkov_to_json,
)
from .syntax import (
    BlockSymbol,
    Concat,
    Empty,
    Epsilon,
    ExprSyntaxError,
    Literal,
    MarkedExpression,
    Position,
    PositionTable,
    RegexAst,
    Star,
    Union,
    ast_from_json,
    ast_to_json,
    base_language,
    drop,
    is_trimmed,
    language,
    mark,
    parse,
    positions,
    to_text,
    width,
)
from .transform import (
    ExpandedSymbol,
    chi,
    eliminable,
    eliminate,
    eliminate_set,
    is_block_complete,
    phi,
    phi_inverse,
)
from .witnesses import WitnessSpec, build, verify

__all__ = [name for name in dir() if not name.startswith("_")]
