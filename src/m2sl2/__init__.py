"""Canonical rewriting, generic-matrix identity checking, and well-order
reduction for the 2-graded pair (2x2 integer matrices, trace-zero part)."""

from .errors import (
    CannotExtendError,
    EngineError,
    GradeMismatchError,
    InvalidProfileError,
    NotEmbeddableError,
    ParseError,
    ResourceBoundError,
    ZeroPolynomialError,
)
from .freealg import (
    ONE,
    CanonicalMonomial,
    LieBracket,
    LieVar,
    QPoly,
    enumerate_basis,
    identity_generators,
    lie_to_words,
    monomial_to_obj,
    normalize,
    reduce_word,
    subst_words,
)
from .genmat import (
    GMatrix2,
    IndependenceReport,
    eval_word,
    evaluate,
    independence_report,
    is_graded_weak_identity,
)
from .intlinalg import IntRowLattice, bezout, ext_gcd
from .orders import (
    MonotoneInjection,
    Profile,
    cmp_total,
    minimal_elements,
    pwo_leq,
    push_profile,
    rename_monomial,
    total_key,
    xi,
    xi_inv,
)
from .parsing import parse, parse_poly
from .reduction import (
    ChainReport,
    LeadingData,
    ReducerTriple,
    apply_reducer,
    chain_demo,
    factorize_embedding,
    leading,
    membership_bounded,
    reduce_by,
)
from .ring import MultiPoly

__all__ = [name for name in dir() if not name.startswith("_")]
