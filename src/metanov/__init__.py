"""metanov: exact computer algebra for metabelian weakly-Novikov varieties.

Normal forms and multiplication tables for the two free algebras (with and
without right symmetry), a brute-force T-ideal dimension oracle over Q and
GF(p), identity checking, nilpotency indices, and a classification of
multilinear subvariety identities.
"""

from .fields import GF, QQ, parse_field
from .magma import (
    Atom,
    MagmaPoly,
    Node,
    associator,
    circle,
    commutator,
    enumerate_words,
    evaluate,
    expand_sugar,
    substitute,
    tch,
    v,
    x,
)
from .multisets import md_from_list
from .wlc import WlcElement, WlcMonomial, canonicalize_L, wlc_basis, wlc_mul
from .wn import (
    WnBasisElement,
    WnElement,
    canonicalize as wn_canonicalize,
    wn_basis,
    wn_mul,
)
from .oracle import (
    IdentitySet,
    RelationMatrix,
    load_identity_file,
    membership,
    preset,
    quotient_basis,
    quotient_dimension,
    relation_rows,
)
from .engine import (
    CheckReport,
    Classification,
    NilpotencyIndex,
    check_identity,
    classify_multilinear,
    left_nilpotency_index,
    nilpotency_profile,
    operator_word_apply,
)
from .exprs import ParseError, parse_expr, parse_identity, render

__all__ = [
    "GF", "QQ", "parse_field",
    "Atom", "Node", "MagmaPoly",
    "associator", "commutator", "circle", "tch", "expand_sugar",
    "enumerate_words", "evaluate", "substitute", "x", "v",
    "md_from_list",
    "WlcMonomial", "WlcElement", "canonicalize_L", "wlc_mul", "wlc_basis",
    "WnBasisElement", "WnElement", "wn_canonicalize", "wn_mul", "wn_basis",
    "IdentitySet", "RelationMatrix", "preset", "load_identity_file",
    "relation_rows", "quotient_dimension", "quotient_basis", "membership",
    "CheckReport", "Classification", "NilpotencyIndex",
    "check_identity", "left_nilpotency_index", "nilpotency_profile",
    "classify_multilinear", "operator_word_apply",
    "ParseError", "parse_expr", "parse_identity", "render",
]

__version__ = "0.1.0"
