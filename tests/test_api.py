"""The package's public names: the exported list is pinned, and every
exported name is used by the package itself, by the acceptance tests, or is
kept on purpose as part of the paper's API.

Adding or removing an export is a deliberate change: edit EXPORTS with it.
"""

import ast
from pathlib import Path

import m2sl2

EXPORTS = [
    "CannotExtendError", "CanonicalMonomial", "ChainReport", "EngineError", "GMatrix2",
    "GradeMismatchError", "IndependenceReport", "IntRowLattice", "InvalidProfileError",
    "LeadingData", "LieBracket", "LieVar", "MonotoneInjection", "MultiPoly",
    "NotEmbeddableError", "ONE", "ParseError", "Profile", "QPoly", "ReducerTriple",
    "ResourceBoundError", "ZeroPolynomialError", "apply_reducer", "bezout", "chain_demo",
    "cmp_total", "enumerate_basis", "errors", "eval_word", "evaluate", "ext_gcd",
    "factorize_embedding", "freealg", "genmat", "identity_generators", "independence_report",
    "intlinalg", "is_graded_weak_identity", "leading", "lie_to_words", "membership_bounded",
    "minimal_elements", "monomial_to_obj", "normalize", "orders", "parse", "parse_poly",
    "parsing", "push_profile", "pwo_leq", "reduce_by", "reduce_word",
    "reduction", "rename_monomial", "ring", "subst_words", "total_key", "xi", "xi_inv",
]

# The paper's objects that are exported although no package code calls them:
# the profile map (Profile, xi, xi_inv, push_profile), the bounded Specht
# membership check, the lift N . phi(f) . P of a factorization
# (apply_reducer), and the defining identities with graded substitution.
PAPER_FACING = {
    "Profile", "xi", "xi_inv", "push_profile", "membership_bounded", "apply_reducer",
    "identity_generators", "subst_words",
}


def names_read(paths) -> set[str]:
    """Every name the given files read, and every module they import from."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.module:
                used.add(node.module.rsplit(".", 1)[-1])
    return used


def test_exports_are_pinned():
    assert EXPORTS == sorted(EXPORTS)
    assert sorted(m2sl2.__all__) == EXPORTS


def test_every_export_has_a_use():
    src = Path(m2sl2.__file__).parent
    package = names_read(p for p in src.glob("*.py") if p.name != "__init__.py")
    acceptance = names_read([Path(__file__).with_name("test_acceptance.py")])
    unused = [name for name in EXPORTS
              if name not in package | acceptance | PAPER_FACING]
    assert unused == []
