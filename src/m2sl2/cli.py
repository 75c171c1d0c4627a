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
from .freealg import MAX_BASIS, QPoly, _capped_basis_size, enumerate_basis, monomial_to_obj
from .genmat import _tree_row, independence_report
from .orders import cmp_total, minimal_elements, pwo_leq, total_key
from .parsing import coeff_str, parse, parse_poly
from .reduction import chain_demo, factorize_embedding, reduce_by

# Bound but not called here: the benchmark tracer patches these names (ROADMAP item 1).
from .genmat import is_graded_weak_identity  # noqa: F401
from .parsing import parse_words  # noqa: F401


def format_monomial(m) -> str:
    """The monomial's text, "y1^2*y3*z1*z2" or "1", built in one list."""
    yexp, cseq, dseq = m
    parts = []
    i = 0
    for e in yexp:
        i += 1
        if e:
            parts.append(f"y{i}" if e == 1 else f"y{i}^{e}")
    for c, d in zip(cseq, dseq):  # the z-block c1 d1 c2 d2 ...
        parts.append(f"z{c}")
        parts.append(f"z{d}")
    if len(cseq) > len(dseq):
        parts.append(f"z{cseq[-1]}")
    return "*".join(parts) or "1"


def sorted_terms_desc(f: QPoly):
    return sorted(f.terms.items(), key=lambda mc: total_key(mc[0]), reverse=True)


def format_term(c: int, m) -> str:
    """One signed term, e.g. "+ y1", "- 3*z1*z2" or "+ 1"."""
    if c > 0:
        return "+ " + format_monomial(m) if c == 1 else f"+ {coeff_str(c)}*{format_monomial(m)}"
    return "- " + format_monomial(m) if c == -1 else f"- {coeff_str(-c)}*{format_monomial(m)}"


def format_terms(items) -> str:
    """(monomial, coefficient) pairs, in the order given, as signed terms."""
    return " ".join([format_term(c, m) for m, c in items]) or "0"


def format_qpoly(f: QPoly) -> str:
    return format_terms(sorted_terms_desc(f))


def terms_obj(items) -> list:
    """(monomial, coefficient) pairs, in the order given, as {"coeff": str,
    "m": monomial} records.  Coefficients are strings so arbitrary-precision
    values survive any JSON consumer."""
    return [{"coeff": coeff_str(c), "m": monomial_to_obj(m)} for m, c in items]


def poly_obj(f: QPoly) -> list:
    """Polynomial as terms_obj records, leading term first."""
    return terms_obj(sorted_terms_desc(f))


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
# Each returns its stdout as a list of lines and prints nothing: main writes
# them, in one write, once the command has succeeded, so a failing command
# prints none.

def cmd_normalize(args) -> list[str]:
    f = parse_poly(args.expr)
    return [json.dumps(poly_obj(f)) if args.json else format_qpoly(f)]


def cmd_is_identity(args) -> list[str]:
    # generic evaluation of the parse tree: the oracle sees no reduction.  The
    # matrix is zero exactly when its first row is, so row 2 is never built
    ok = not any(_tree_row(parse(args.expr)))
    return [json.dumps({"identity": ok}) if args.json else ("true" if ok else "false")]


def cmd_compare(args) -> list[str]:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    c = cmp_total(a, b)
    out = "<" if c < 0 else ("=" if c == 0 else ">")
    return [json.dumps({"order": out}) if args.json else out]


def cmd_embed(args) -> list[str]:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    phi = pwo_leq(a, b)
    if args.json:
        return [json.dumps({"phi": None if phi is None else phi.to_obj()})]
    return ["incomparable" if phi is None else _phi_text(phi)]


def cmd_factor(args) -> list[str]:
    a = _single_monomial(args.left)
    b = _single_monomial(args.right)
    triple = factorize_embedding(a, b)
    if args.json:
        return [json.dumps(triple.to_obj())]
    p = "*".join(f"z{i}" for i in triple.p_word)
    return [f"phi: {_phi_text(triple.phi)}", f"N: {format_monomial(triple.n_part)}",
            f"P: {p or '(empty)'}"]


def cmd_reduce(args) -> list[str]:
    f = parse_poly(args.expr)
    gens = [parse_poly(s) for s in _read_exprs(args.gens)] if args.gens else []
    trace: list | None = [] if (args.trace or args.json) else None
    r = reduce_by(f, gens, trace)  # its terms are in print order: see reduce_by
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1)
            fh.write("\n")
    if args.json:
        return [json.dumps({"remainder": terms_obj(r.terms.items()), "trace": trace})]
    return [format_terms(r.terms.items())]


def _builtin_stream(degree: int, indices: int, order: str, budget: int):
    monos = enumerate_basis(degree, indices)  # validates the caps at once
    if order != "graded" or budget > MAX_BASIS:
        # sorting holds the whole basis, and a budget past the cap may stream
        # it all: refuse before
        _capped_basis_size(degree, indices)
    if order == "graded":
        # the enumerator's own order: stream lazily, so --budget bounds the work
        return (QPoly.monomial(m) for m in monos)
    # a monomial sorts as its (yexp, cseq, dseq) tuple: that is the lex order
    return [QPoly.monomial(m) for m in sorted(monos, key=total_key if order == "total" else None)]


def cmd_chain_demo(args) -> list[str]:
    if args.stream:
        stream = [parse_poly(s) for s in _read_exprs(args.stream)]
    else:
        stream = _builtin_stream(args.degree, args.indices, args.order, args.budget)
    report = chain_demo(stream, args.budget)
    if args.json:
        return [json.dumps(report.to_obj())]
    lines = [f"step {step}: adjoined {format_term(ld.lc, ld.lm)}" for step, ld in report.adjoined]
    if report.truncated:
        return lines + [f"budget exhausted after {report.steps} steps; no stabilization claim"]
    return lines + [f"stabilized at step {report.stabilized_at} ({report.steps} steps seen)"]


def cmd_independence(args) -> list[str]:
    rep = independence_report(args.degree, args.indices)
    if args.json:
        return [json.dumps(rep.to_obj())]
    return [f"degree: {rep.degree}", f"indices: {rep.indices}", f"monomials: {rep.monomials}",
            f"rank: {rep.rank}", f"full rank: {'yes' if rep.full_rank else 'no'}"]


def cmd_pwos_min(args) -> list[str]:
    monos = [_single_monomial(s) for s in _read_exprs(args.file)]
    mins = minimal_elements(monos)
    mins.sort(key=total_key)
    if args.json:
        return [json.dumps([monomial_to_obj(m) for m in mins])]
    return [format_monomial(m) for m in mins]


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
    """Run one command line and return its exit code: 0 with the handler's
    lines, each ended by a newline, written to stdout in one write; 1 for a
    domain error, with one error line on stderr, the handler having
    returned no lines; 2 for a usage error, from argparse."""
    args = _PARSER.parse_args(argv)
    try:
        sys.stdout.write("".join([line + "\n" for line in args.func(args)]))
        return 0
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
