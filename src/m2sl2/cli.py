"""Command-line front end.

Exit codes: 0 on success (including negative answers like `false` or
`incomparable`), 1 on domain errors (syntax errors, grade mismatches,
non-embeddable pairs, resource caps), 2 on usage errors (argparse).  All
output is deterministic: polynomials print in descending order of the linear
well-order.
"""

import argparse
import json
import sys

from .errors import EngineError, ParseError
from .freealg import QPoly, _capped_basis_size, _interleave, enumerate_basis, monomial_to_obj
from .genmat import evaluate_tree, independence_report
from .orders import cmp_total, minimal_elements, pwo_leq, total_key
from .parsing import coeff_str, parse, parse_poly
from .reduction import chain_demo, factorize_embedding, reduce_by

# Bound but not called here: the benchmark tracer patches these names (ROADMAP item 1).
from .genmat import is_graded_weak_identity  # noqa: F401
from .parsing import parse_words  # noqa: F401


def format_monomial(m) -> str:
    parts = []
    for i, e in enumerate(m.yexp, start=1):
        if e == 1:
            parts.append(f"y{i}")
        elif e > 1:
            parts.append(f"y{i}^{e}")
    parts.extend(f"z{i}" for i in _interleave(m.cseq, m.dseq))
    return "*".join(parts) if parts else "1"


def sorted_terms_desc(f: QPoly):
    return sorted(f.terms.items(), key=lambda mc: total_key(mc[0]), reverse=True)


def format_term(c: int, m) -> str:
    """One signed term, e.g. "+ y1", "- 3*z1*z2" or "+ 1"."""
    body = format_monomial(m)
    if abs(c) != 1:
        body = f"{coeff_str(abs(c))}*{body}"
    return f"{'+' if c > 0 else '-'} {body}"


def format_qpoly(f: QPoly) -> str:
    if f.is_zero():
        return "0"
    return " ".join(format_term(c, m) for m, c in sorted_terms_desc(f))


def poly_obj(f: QPoly) -> list:
    """Polynomial as {"coeff": str, "m": monomial} records, leading term
    first.  Coefficients are strings so arbitrary-precision values survive
    any JSON consumer."""
    return [{"coeff": coeff_str(c), "m": monomial_to_obj(m)} for m, c in sorted_terms_desc(f)]


def _single_monomial(text: str):
    f = parse_poly(text)
    if len(f.terms) != 1:
        raise ValueError(f"expected a single monomial, got {format_qpoly(f)!r}")
    ((m, _),) = f.terms.items()
    return m


def _read_exprs(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(body)
    return out


def _phi_text(phi) -> str:
    if not phi.pairs:
        return "(empty)"
    return ", ".join(f"{s}->{t}" for s, t in phi.pairs)


# --- subcommand handlers ----------------------------------------------------

def cmd_normalize(args) -> int:
    f = parse_poly(args.expr)
    if args.json:
        print(json.dumps(poly_obj(f)))
    else:
        print(format_qpoly(f))
    return 0


def cmd_is_identity(args) -> int:
    # generic evaluation of the parse tree: the oracle sees no reduction
    ok = evaluate_tree(parse(args.expr)).is_zero()
    if args.json:
        print(json.dumps({"identity": ok}))
    else:
        print("true" if ok else "false")
    return 0


def cmd_compare(args) -> int:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    c = cmp_total(a, b)
    out = "<" if c < 0 else ("=" if c == 0 else ">")
    if args.json:
        print(json.dumps({"order": out}))
    else:
        print(out)
    return 0


def cmd_embed(args) -> int:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    phi = pwo_leq(a, b)
    if args.json:
        print(json.dumps({"phi": None if phi is None else phi.to_obj()}))
    else:
        print("incomparable" if phi is None else _phi_text(phi))
    return 0


def cmd_factor(args) -> int:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    triple = factorize_embedding(a, b)
    if args.json:
        print(json.dumps(triple.to_obj()))
    else:
        print(f"phi: {_phi_text(triple.phi)}")
        print(f"N: {format_monomial(triple.n_part)}")
        p = "*".join(f"z{i}" for i in triple.p_word)
        print(f"P: {p if p else '(empty)'}")
    return 0


def cmd_reduce(args) -> int:
    f = parse_poly(args.expr)
    gens = [parse_poly(s) for s in _read_exprs(args.gens)] if args.gens else []
    trace: list | None = [] if (args.trace or args.json) else None
    r = reduce_by(f, gens, trace)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1)
            fh.write("\n")
    if args.json:
        print(json.dumps({"remainder": poly_obj(r), "trace": trace}))
    else:
        print(format_qpoly(r))
    return 0


def _builtin_stream(degree: int, indices: int, order: str):
    monos = enumerate_basis(degree, indices)  # validates the caps at once
    if order == "graded":
        # the enumerator's own order: stream lazily, so --budget bounds the work
        return (QPoly.monomial(m) for m in monos)
    _capped_basis_size(degree, indices)  # sorting holds the whole basis: refuse before
    key = total_key if order == "total" else (lambda m: (m.yexp, m.cseq, m.dseq))
    return [QPoly.monomial(m) for m in sorted(monos, key=key)]


def cmd_chain_demo(args) -> int:
    if args.stream:
        stream = [parse_poly(s) for s in _read_exprs(args.stream)]
    else:
        stream = _builtin_stream(args.degree, args.indices, args.order)
    report = chain_demo(stream, args.budget)
    if args.json:
        print(json.dumps(report.to_obj()))
    else:
        # every line is formatted before the first is printed, so an error prints none
        lines = [f"step {step}: adjoined {format_term(ld.lc, ld.lm)}"
                 for step, ld in report.adjoined]
        if report.truncated:
            lines.append(f"budget exhausted after {report.steps} steps; no stabilization claim")
        else:
            lines.append(f"stabilized at step {report.stabilized_at} ({report.steps} steps seen)")
        print("\n".join(lines))
    return 0


def cmd_independence(args) -> int:
    rep = independence_report(args.degree, args.indices)
    if args.json:
        print(json.dumps(rep.to_obj()))
    else:
        print(f"degree: {rep.degree}")
        print(f"indices: {rep.indices}")
        print(f"monomials: {rep.monomials}")
        print(f"rank: {rep.rank}")
        print(f"full rank: {'yes' if rep.full_rank else 'no'}")
    return 0


def cmd_pwos_min(args) -> int:
    monos = [_single_monomial(s) for s in _read_exprs(args.file)]
    mins = minimal_elements(monos)
    mins.sort(key=total_key)
    if args.json:
        print(json.dumps([monomial_to_obj(m) for m in mins]))
    else:
        for m in mins:
            print(format_monomial(m))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reads only -h and --... tokens as options, so an expression or a path
    may start with a minus sign ("-y1"); subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="m2sl2",
        description="Canonical forms, identity checks, and well-order reduction "
                    "for the 2-graded pair of 2x2 integer matrices and their "
                    "trace-zero part.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="canonical form of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("is-identity", parents=[common],
                       help="does the expression vanish on the graded pair")
    p.add_argument("expr")
    p.set_defaults(func=cmd_is_identity)

    p = sub.add_parser("compare", parents=[common],
                       help="well-order comparison of two monomials")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("embed", parents=[common],
                       help="embedding-order witness between two monomials")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("factor", parents=[common],
                       help="factor the right monomial as N*phi(left)*P")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("reduce", parents=[common],
                       help="remainder modulo a generator file")
    p.add_argument("expr")
    p.add_argument("gens", nargs="?", help="file with one generator expression per line")
    p.add_argument("--trace", metavar="PATH", help="write the reduction trace as JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("chain-demo", parents=[common],
                       help="grow a generator chain from a stream of polynomials")
    p.add_argument("stream", nargs="?", help="file with one expression per line")
    p.add_argument("--degree", type=int, default=8, help="built-in stream degree cap")
    p.add_argument("--indices", type=int, default=3, help="built-in stream index cap")
    p.add_argument("--order", choices=("graded", "lex", "total"), default="graded",
                   help="built-in stream enumeration order")
    p.add_argument("--budget", type=int, default=1_000_000, help="max stream items")
    p.set_defaults(func=cmd_chain_demo)

    p = sub.add_parser("independence", parents=[common],
                       help="rank of the generic evaluation matrix of the basis")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--indices", type=int, default=3)
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("pwos-min", parents=[common],
                       help="embedding-order minimal elements of a monomial file")
    p.add_argument("file")
    p.set_defaults(func=cmd_pwos_min)

    return ap


# Built once per process; parse_args leaves it unchanged, so calls share it.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, ValueError, OSError) as exc:
        if getattr(args, "json", False):
            obj = {"error": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, ParseError):
                obj["offset"] = exc.offset
                obj["expected"] = list(exc.expected)
            print(json.dumps(obj), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
