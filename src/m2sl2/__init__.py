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
    commutator,
    enumerate_basis,
    identity_generators,
    lie_to_poly,
    lie_to_words,
    monomial_from_obj,
    monomial_to_obj,
    normalize,
    poly_from_obj,
    reduce_word,
    subst,
    subst_words,
    word,
    y,
    z,
)
from .genmat import (
    GMatrix2,
    IndependenceReport,
    eval_word,
    evaluate,
    generic_y,
    generic_z,
    independence_report,
    is_graded_weak_identity,
)
from .intlinalg import IntRowLattice, bezout, ext_gcd
from .orders import (
    MonotoneInjection,
    Profile,
    apply_renaming,
    cmp_total,
    minimal_elements,
    pwo_leq,
    push_profile,
    rename_monomial,
    total_key,
    xi,
    xi_inv,
)
from .parsing import parse, parse_poly, parse_words
from .reduction import (
    ChainReport,
    LeadingData,
    ReducerTriple,
    apply_reducer,
    chain_demo,
    factorize_embedding,
    leading,
    lift_reducer,
    membership_bounded,
    reduce_by,
    reducer_word,
)
from .ring import MultiPoly, alpha, beta, gamma

__all__ = [name for name in dir() if not name.startswith("_")]
