"""Shared random generators and independent oracles for the test suite.

The brute-force checks here deliberately avoid the package's own profile
helpers: they recompute slot counts straight from the monomial components so
that agreement actually means something.
"""

import random
import re
from collections import Counter
from itertools import combinations, combinations_with_replacement, groupby, zip_longest
from typing import NamedTuple

from m2sl2 import (
    CanonicalMonomial,
    CannotExtendError,
    GMatrix2,
    IntRowLattice,
    LieBracket,
    LieVar,
    MonotoneInjection,
    MultiPoly,
    NotEmbeddableError,
    ParseError,
    Profile,
    QPoly,
    ResourceBoundError,
    apply_reducer,
    cmp_total,
    evaluate,
    ext_gcd,
    factorize_embedding,
    leading,
    monomial_to_obj,
    normalize,
    pwo_leq,
    push_profile,
    ReducerTriple,
    reduce_word,
    rename_monomial,
    total_key,
    xi,
    xi_inv,
)
import m2sl2.parsing as caps  # read for the cap constants alone, at call time


# --- letters, ring variables and JSON records ---------------------------------

def y(i: int) -> tuple:
    return ("y", i)


def z(i: int) -> tuple:
    return ("z", i)


def word(*letters) -> tuple:
    return tuple(letters)


def ring_var(family: str, i: int) -> MultiPoly:
    """The ring variable family_i, as its one-term dict, the term written
    out in ring's layout: (alpha exponents by index, beta indices, gamma
    indices)."""
    terms = {"alpha": ((0,) * (i - 1) + (1,), (), ()), "beta": ((), (i,), ()),
             "gamma": ((), (), (i,))}
    return MultiPoly({terms[family]: 1})


def alpha(i: int) -> MultiPoly:
    return ring_var("alpha", i)


def beta(i: int) -> MultiPoly:
    return ring_var("beta", i)


def gamma(i: int) -> MultiPoly:
    return ring_var("gamma", i)


def entries(g: GMatrix2) -> tuple:
    return (g.e11, g.e12, g.e21, g.e22)


def monomial_from_obj(obj: dict) -> CanonicalMonomial:
    """Read back a {"y", "c", "d"} record that monomial_to_obj wrote."""
    return CanonicalMonomial.make(obj["y"], obj["c"], obj["d"])


def expected_y_product(indices) -> GMatrix2:
    """Closed form for a product of generic diagonal matrices."""
    prod = MultiPoly.const(1)
    for i in indices:
        prod = prod * alpha(i)
    return GMatrix2(prod, MultiPoly(), MultiPoly(),
                    prod * (-1) ** len(indices))


def expected_z_product(indices) -> GMatrix2:
    """Alternating beta/gamma products decided purely by position parity."""
    upper, lower = MultiPoly.const(1), MultiPoly.const(1)
    for pos, i in enumerate(indices, start=1):
        if pos % 2:
            upper, lower = upper * beta(i), lower * gamma(i)
        else:
            upper, lower = upper * gamma(i), lower * beta(i)
    zero = MultiPoly()
    if len(indices) % 2 == 0:
        return GMatrix2(upper, zero, zero, lower)
    return GMatrix2(zero, upper, lower, zero)


# --- independent evaluation oracle -------------------------------------------

def _mat_mul(a, b):
    """Product of two 2x2 matrices given as (e11, e12, e21, e22) tuples."""
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def raw_evaluate_tree(node) -> GMatrix2:
    """An oracle_parse tree's generic evaluation through its raw words,
    after the word cap: the oracle for genmat._tree_row's matrix."""
    oracle_word_count(node)
    return evaluate(oracle_words(node))


def product_eval_word(w) -> GMatrix2:
    """A word's generic evaluation as the letter-by-letter product of general
    2x2 matrices over the alpha/beta/gamma ring, with Y_i = diag(a_i, -a_i)
    and Z_i = [[0, b_i], [c_i, 0]] built here from the ring's variables."""
    zero, one = MultiPoly(), MultiPoly.const(1)
    acc = (one, zero, zero, one)
    for fam, idx in w:
        if fam == "y":
            letter = (alpha(idx), zero, zero, -alpha(idx))
        else:
            letter = (zero, beta(idx), gamma(idx), zero)
        acc = _mat_mul(acc, letter)
    return GMatrix2(*acc)


def product_evaluate(weighted_words) -> GMatrix2:
    """The sum of coeff * product_eval_word(word) over (coeff, word) pairs."""
    acc = [MultiPoly()] * 4
    for c, w in weighted_words:
        acc = [x + e * c for x, e in zip(acc, entries(product_eval_word(w)))]
    return GMatrix2(*acc)


def monomial_row(m: CanonicalMonomial) -> dict:
    """m's generic evaluation flattened to a sparse integer row, from the
    letter-by-letter product of its word: columns are (entry position,
    ring term) pairs, with positions e11, e12, e21, e22 as 0..3."""
    return {(pos, term): c for pos, poly in enumerate(entries(product_eval_word(m.word())))
            for term, c in poly.terms.items()}


def three_dict_word_entries(w) -> tuple:
    """A word's one row-1 entry (position, term, sign), followed through the
    word with one count dict per family (y -> alpha, c-slot z -> beta,
    d-slot z -> gamma), each sorted on its own, then written out in ring's
    term layout: the alpha exponents by index, and each slot index repeated
    as often as it was counted.  An unknown family raises as it is read;
    indices below 1 are checked after the loop."""
    ys: dict[int, int] = {}
    cs: dict[int, int] = {}
    ds: dict[int, int] = {}
    nz = flips = 0
    for fam, idx in w:
        if fam == "y":
            ys[idx] = ys.get(idx, 0) + 1
            flips += nz & 1
        elif fam == "z":
            slot = ds if nz & 1 else cs
            slot[idx] = slot.get(idx, 0) + 1
            nz += 1
        else:
            raise ValueError(f"unknown letter family {fam!r}")
    y_items, c_items, d_items = sorted(ys.items()), sorted(cs.items()), sorted(ds.items())
    if any(items and items[0][0] < 1 for items in (y_items, c_items, d_items)):
        raise ValueError("letter index must be >= 1")
    alphas = tuple(ys.get(i, 0) for i in range(1, y_items[-1][0] + 1)) if y_items else ()
    term = (alphas, *(tuple(i for i, e in items for _ in range(e)) for items in (c_items, d_items)))
    return nz & 1, term, -1 if flips & 1 else 1


def rand_monomial(rng: random.Random, max_degree=8, max_index=5, variant=None) -> CanonicalMonomial:
    if variant is None:
        variant = rng.choice((1, 2))
    yexp = [0] * max_index
    if variant == 1:
        for _ in range(rng.randint(0, max_degree)):
            yexp[rng.randrange(max_index)] += 1
        return CanonicalMonomial.make(yexp)
    zlen = rng.randint(1, max_degree)
    for _ in range(rng.randint(0, max_degree - zlen)):
        yexp[rng.randrange(max_index)] += 1
    cs = sorted(rng.randint(1, max_index) for _ in range((zlen + 1) // 2))
    ds = sorted(rng.randint(1, max_index) for _ in range(zlen // 2))
    return CanonicalMonomial.make(yexp, cs, ds)


def rand_word(rng: random.Random, max_len=8, max_index=4):
    n = rng.randint(0, max_len)
    return tuple(
        (rng.choice("yz"), rng.randint(1, max_index)) for _ in range(n)
    )


def rand_zword(rng: random.Random, max_len=6, max_index=4):
    n = rng.randint(0, max_len)
    return tuple(("z", rng.randint(1, max_index)) for _ in range(n))


def rand_qpoly(rng: random.Random, max_terms=4, max_degree=6, max_index=4) -> QPoly:
    acc = QPoly()
    for _ in range(rng.randint(1, max_terms)):
        m = rand_monomial(rng, max_degree, max_index)
        acc = acc + QPoly.monomial(m, rng.choice((-3, -2, -1, 1, 2, 3)))
    return acc


def rand_injection(rng: random.Random, n: int, spread=4) -> MonotoneInjection:
    """A random strictly increasing map defined on 1..n."""
    targets = sorted(rng.sample(range(1, n + spread + 1), n)) if n else []
    return injection_onto(targets)


def injection_onto(targets) -> MonotoneInjection:
    """The injection mapping 1..n onto the given strictly increasing targets."""
    return MonotoneInjection(tuple(enumerate(targets, start=1)))


def reference_covering(phi: MonotoneInjection, indices) -> MonotoneInjection:
    """MonotoneInjection.covering, found by search: every index not yet a
    source, in ascending order, gets the index itself when that keeps the
    pairs strictly increasing in both columns, else the least target that
    does, searched over the target column from 1 past every target in use,
    or CannotExtendError when none does.  The injection is built, and so
    validated, once all are placed: an index below 1 fails there."""
    pairs = list(phi.pairs)

    def monotone(candidate) -> bool:
        ordered = sorted(candidate)
        return all(s < s2 and t < t2 for (s, t), (s2, t2) in zip(ordered, ordered[1:]))

    for i in sorted(set(indices) - {s for s, _ in pairs}):
        column = range(1, max([i] + [t for _, t in pairs]) + 2)
        legal = [t for t in column if monotone(pairs + [(i, t)])]
        if not legal:
            raise CannotExtendError(f"no room to extend injection at index {i}")
        pairs.append((i, i if i in legal else legal[0]))
    return MonotoneInjection(tuple(sorted(pairs)))


def rand_lie(rng: random.Random, grade: int, depth: int, max_index=4):
    if depth <= 0 or (rng.random() < 0.35):
        fam = "y" if grade == 0 else "z"
        return LieVar((fam, rng.randint(1, max_index)))
    if grade == 0:
        ga, gb = rng.choice(((0, 0), (1, 1)))
    else:
        ga, gb = rng.choice(((0, 1), (1, 0)))
    return LieBracket(
        rand_lie(rng, ga, depth - 1, max_index),
        rand_lie(rng, gb, depth - 1, max_index),
    )


def inflate(rng: random.Random, m: CanonicalMonomial, spread=3, extra=3):
    """A random monomial that m embeds into (built by push-and-pad)."""
    p = xi(m)
    length = max(len(p.u1), len(p.u2), len(p.u3))
    phi = rand_injection(rng, length, spread)
    pushed = push_profile(p, phi, "both")
    size = length + spread + extra + 1
    u1 = list(pushed.u1) + [0] * (size - len(pushed.u1))
    for _ in range(rng.randint(0, extra)):
        u1[rng.randrange(size)] += 1
    if p.variant == 1:
        return xi_inv(Profile(1, _trim(u1)))
    u2 = list(pushed.u2) + [0] * (size - len(pushed.u2))
    u3 = list(pushed.u3) + [0] * (size - len(pushed.u3))
    e2 = rng.randint(0, extra)
    delta = sum(u2) - sum(u3)  # 0 or 1
    new_delta = rng.choice((0, 1)) if delta + e2 >= 1 else 0
    e3 = delta + e2 - new_delta
    for _ in range(e2):
        u2[rng.randrange(size)] += 1
    for _ in range(e3):
        u3[rng.randrange(size)] += 1
    return xi_inv(Profile(2, _trim(u1), _trim(u2), _trim(u3)))


def _trim(seq):
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def monomial_indices(m: CanonicalMonomial) -> set:
    idx = {i for i, e in enumerate(m.yexp, start=1) if e}
    idx.update(m.cseq)
    idx.update(m.dseq)
    return idx


# --- independent embedding oracle -------------------------------------------

def monomial_rows(m: CanonicalMonomial):
    n = max(
        len(m.yexp),
        max(m.cseq, default=0),
        max(m.dseq, default=0),
    )
    rows = []
    for i in range(1, n + 1):
        rows.append((
            m.yexp[i - 1] if i <= len(m.yexp) else 0,
            sum(1 for c in m.cseq if c == i),
            sum(1 for d in m.dseq if d == i),
        ))
    return rows


def format_oracle(m: CanonicalMonomial) -> str:
    """The command line's text of a monomial, read off its word: each run of
    one y-letter as a power (y_i^e, or y_i when e is 1), each z-letter on its
    own, joined by "*"; "1" for the empty word."""
    parts = []
    for (kind, i), run in groupby(m.word()):
        if kind == "y":
            e = len(list(run))
            parts.append(f"y{i}" if e == 1 else f"y{i}^{e}")
        else:
            parts.extend(f"z{i}" for _ in run)
    return "*".join(parts) or "1"


def format_term_oracle(c: int, m: CanonicalMonomial) -> str:
    """One signed term as the command line prints it: the sign, then the
    coefficient's digits and "*" unless it is 1 or -1, then the monomial."""
    return ("+ " if c > 0 else "- ") + ("" if abs(c) == 1 else f"{abs(c)}*") + format_oracle(m)


def brute_embed(a: CanonicalMonomial, b: CanonicalMonomial) -> bool:
    """Exhaustive search over all monotone injections, zero tail included."""
    if bool(a.cseq) != bool(b.cseq):
        return False
    ra = monomial_rows(a)
    rb = monomial_rows(b) + [(0, 0, 0)] * len(ra)
    for combo in combinations(range(len(rb)), len(ra)):
        if all(
            ra[j][k] <= rb[combo[j]][k]
            for j in range(len(ra))
            for k in range(3)
        ):
            return True
    return False


def seq_embed(u, v, leq):
    """Greedy leftmost embedding of sequence u into sequence v.

    Returns the 1-based positions used, or None.  Greedy is complete here:
    any embedding can be pushed left position by position without breaking
    later choices, so failure of the greedy scan means no embedding exists.
    """
    pos: list[int] = []
    p = 0
    for x in u:
        p += 1
        while p <= len(v) and not leq(x, v[p - 1]):
            p += 1
        if p > len(v):
            return None
        pos.append(p)
    return tuple(pos)


def greedy_witness(a: CanonicalMonomial, b: CanonicalMonomial):
    """The leftmost embedding of a's rows into b's rows plus a zero tail, as
    (source, target) pairs, or None; rows come from monomial_rows."""
    if bool(a.cseq) != bool(b.cseq):
        return None
    ra = monomial_rows(a)
    rb = monomial_rows(b) + [(0, 0, 0)] * len(ra)
    emb = seq_embed(ra, rb, lambda x, y: all(p <= q for p, q in zip(x, y)))
    return None if emb is None else tuple(enumerate(emb, start=1))


def assert_witness_valid(a: CanonicalMonomial, b: CanonicalMonomial, phi: MonotoneInjection):
    """Check a claimed embedding witness entry by entry."""
    ra = monomial_rows(a)
    rb = monomial_rows(b)

    def at(rows, i):
        return rows[i - 1] if i <= len(rows) else (0, 0, 0)

    sources = [s for s, _ in phi.pairs]
    assert sources == list(range(1, len(ra) + 1)), "witness must cover the padded support"
    for s, t in phi.pairs:
        assert all(at(ra, s)[k] <= at(rb, t)[k] for k in range(3)), (a, b, phi)


# --- independent order oracle ----------------------------------------------

def _cmp_rightmost(u, v) -> int:
    """The highest index where two count sequences differ decides; missing
    entries read as 0."""
    for k in range(max(len(u), len(v)) - 1, -1, -1):
        a = u[k] if k < len(u) else 0
        b = v[k] if k < len(v) else 0
        if a != b:
            return -1 if a < b else 1
    return 0


def oracle_cmp_total(a: CanonicalMonomial, b: CanonicalMonomial) -> int:
    """The linear well-order straight from its definition: variant 1 (pure y)
    below variant 2; within variant 2 the z-count decides, then the d-slot
    counts u3, the c-slot counts u2, the y-exponents u1, each right to left.
    Slot counts come from monomial_rows, not from the package's profiles."""
    va, vb = (2 if a.cseq else 1), (2 if b.cseq else 1)
    if va != vb:
        return -1 if va < vb else 1
    za, zb = len(a.cseq) + len(a.dseq), len(b.cseq) + len(b.dseq)
    if za != zb:
        return -1 if za < zb else 1
    ra, rb = monomial_rows(a), monomial_rows(b)
    for col in (2, 1, 0):
        c = _cmp_rightmost([r[col] for r in ra], [r[col] for r in rb])
        if c:
            return c
    return 0


# --- profiles, exhaustively --------------------------------------------------

def v1_profiles(support: int, entry_cap: int):
    """Every variant-1 profile with given support bound and entry cap."""
    out = []

    def rec(prefix):
        if len(prefix) == support:
            out.append(Profile(1, _trim(prefix)))
            return
        for v in range(entry_cap + 1):
            rec(prefix + (v,))

    rec(())
    # trimming collapses duplicates
    seen = {}
    for p in out:
        seen[p.u1] = p
    return list(seen.values())


def v2_profiles(support: int, entry_cap: int):
    """Every valid variant-2 profile within the caps."""
    vecs = [v.u1 for v in v1_profiles(support, entry_cap)]
    out = []
    for u1 in vecs:
        for u2 in vecs:
            if sum(u2) < 1:
                continue
            for u3 in vecs:
                if sum(u2) - sum(u3) in (0, 1):
                    out.append(Profile(2, u1, u2, u3))
    return out


# --- the lemma suites ---------------------------------------------------------

def single_term(f: QPoly):
    ((m, c),) = f.terms.items()
    return c, m


def check_comp(rng, count):
    """Renaming a monomial then profiling equals profiling then pushing."""
    from m2sl2 import rename_monomial

    for _ in range(count):
        m = rand_monomial(rng)
        phi = rand_injection(rng, rng.randint(0, 6))
        for mode in ("both", "y_only", "z_only"):
            renamed = rename_monomial(m, phi, mode)
            # built without re-validation; the validating constructor agrees
            assert CanonicalMonomial(renamed.yexp, renamed.cseq, renamed.dseq) == renamed
            left = xi(renamed)
            right = push_profile(xi(m), phi, mode)
            assert left == right, (m, phi, mode)


def check_mult(rng, count):
    """Left multiplication by a pure-y monomial is monotone."""
    for _ in range(count):
        m = rand_monomial(rng, variant=1)
        a = rand_monomial(rng)
        b = rand_monomial(rng)
        if cmp_total(a, b) > 0:
            a, b = b, a
        mp = QPoly.monomial(m)
        _, pa = single_term(mp * QPoly.monomial(a))
        _, pb = single_term(mp * QPoly.monomial(b))
        assert cmp_total(pa, pb) <= 0, (m, a, b)


def check_mult1(rng, count):
    """Pure-y monomials absorb: M <= M*N."""
    for _ in range(count):
        m = rand_monomial(rng, variant=1)
        n = rand_monomial(rng, variant=1)
        _, prod = single_term(QPoly.monomial(m) * QPoly.monomial(n))
        assert cmp_total(m, prod) <= 0, (m, n)


def check_mult2(rng, count):
    """Pure-z words absorb on the right, with sign +1 throughout."""
    for _ in range(count):
        w1 = rand_zword(rng, max_len=5)
        w2 = rand_zword(rng, max_len=5)
        if not w1:
            continue
        s1, m1 = reduce_word(w1)
        s12, m12 = reduce_word(w1 + w2)
        assert s1 == 1 and s12 == 1
        assert cmp_total(m1, m12) <= 0, (w1, w2)


def check_mult3a(rng, count):
    """Right multiplication by a pure-y monomial is monotone (up to sign)."""
    for _ in range(count):
        p = rand_monomial(rng)
        q = rand_monomial(rng)
        if cmp_total(p, q) > 0:
            p, q = q, p
        m = rand_monomial(rng, variant=1)
        mp = QPoly.monomial(m)
        _, pm = single_term(QPoly.monomial(p) * mp)
        _, qm = single_term(QPoly.monomial(q) * mp)
        assert cmp_total(pm, qm) <= 0, (p, q, m)


def check_mult3b(rng, count):
    """Right multiplication by a pure-z word is monotone."""
    for _ in range(count):
        p = rand_monomial(rng)
        q = rand_monomial(rng)
        if cmp_total(p, q) > 0:
            p, q = q, p
        w = rand_zword(rng, max_len=5)
        nw = normalize([(1, w)])
        if nw.is_zero():
            continue
        _, pn = single_term(QPoly.monomial(p) * nw)
        _, qn = single_term(QPoly.monomial(q) * nw)
        assert cmp_total(pn, qn) <= 0, (p, q, w)


def check_mult4(rng, count):
    """Renaming by one shared injection preserves strict order, in every mode.

    The injection is extended over the union of both supports up front; two
    separate extensions would not be a single letter substitution and can
    collapse distinct monomials.
    """
    from m2sl2 import rename_monomial

    done = 0
    while done < count:
        a = rand_monomial(rng)
        b = rand_monomial(rng)
        c = cmp_total(a, b)
        if c == 0:
            continue
        if c > 0:
            a, b = b, a
        phi = rand_injection(rng, rng.randint(0, 6))
        phi = phi.covering(monomial_indices(a) | monomial_indices(b) | {1})
        for mode in ("both", "y_only", "z_only"):
            ra = rename_monomial(a, phi, mode)
            rb = rename_monomial(b, phi, mode)
            assert cmp_total(ra, rb) < 0, (a, b, phi, mode)
        done += 1


def reducer_word(triple: ReducerTriple, m: CanonicalMonomial) -> tuple:
    """The literal word N . phi(m) . P, before any reduction."""
    renamed = rename_monomial(m, triple.phi, "both")
    return triple.n_part.word() + renamed.word() + tuple(("z", i) for i in triple.p_word)


def lift_reducer(f: QPoly, target: CanonicalMonomial) -> QPoly:
    """Lift f so its leading monomial becomes `target` exactly, through the
    package's factorize_embedding and apply_reducer.

    Requires lm(f) <=' target.  Renaming preserves the strict order between
    monomials and the outer factors move every non-leading term strictly
    below the lifted leading term, so lm of the result is the target and the
    leading coefficient is lc(f).
    """
    return apply_reducer(factorize_embedding(leading(f).lm, target), f)


def check_mult5(rng, count):
    """factorize_embedding reconstructs the target with sign +1."""
    for _ in range(count):
        m = rand_monomial(rng, max_degree=6, max_index=4)
        target = inflate(rng, m)
        triple = factorize_embedding(m, target)
        sign, got = reduce_word(reducer_word(triple, m))
        assert sign == 1 and got == target, (m, target, triple)


def check_mult6(rng, count):
    """lift_reducer hits the target leading monomial with the old coefficient."""
    for _ in range(count):
        f = rand_qpoly(rng, max_terms=4, max_degree=5, max_index=4)
        if f.is_zero():
            continue
        ld = leading(f)
        target = inflate(rng, ld.lm)
        g = lift_reducer(f, target)
        gld = leading(g)
        assert gld.lm == target and gld.lc == ld.lc, (f, target, g)


# --- reference reduction loop ------------------------------------------------

def reference_bezout(values: list[int]) -> tuple[int, list[int]]:
    """bezout with every zero special-cased: a leading value's coefficient
    is its sign (0 for 0), and a zero met while the gcd is still 0 gets 0.
    The package folds ext_gcd from d = 0 instead; the coefficients, which
    reduce traces print as beta, must come out the same."""
    if not values:
        raise ValueError("bezout of an empty list")
    d = abs(values[0])
    coeffs = [1 if values[0] >= 0 else -1]
    if values[0] == 0:
        coeffs = [0]
    for v in values[1:]:
        if d == 0 and v == 0:
            coeffs.append(0)
            continue
        g, x, y = ext_gcd(d, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        d = g
    if d == 0:
        raise ValueError("bezout of all zeros")
    return d, coeffs


def word_renaming(f: QPoly, phi: MonotoneInjection, mode: str = "both") -> QPoly:
    """A polynomial renamed on words: phi is extended once over the indices of
    the renamed letter families in all of f's words, each letter index of
    each word is mapped through that extension, and the renamed word goes
    back through reduce_word, whose sign must be +1 (y letters still stand
    before z letters).  In mode "both" this is apply_reducer with N = 1 and
    an empty P."""
    fams = {"both": "yz", "y_only": "y", "z_only": "z"}[mode]
    words = {m: m.word() for m in f.terms}
    image = dict(phi.covering({i for w in words.values() for fam, i in w if fam in fams}).pairs)
    acc: dict = {}
    for m, c in f.terms.items():
        sign, r = reduce_word(tuple((fam, image[i] if fam in fams else i)
                                    for fam, i in words[m]))
        assert sign == 1, (m, phi, mode)
        acc[r] = acc.get(r, 0) + c
    return QPoly(acc)


def push_counts(u, image) -> tuple[int, ...]:
    """Push a trimmed count sequence along the image, a dict or an index
    table: result[image[i]] = u[i]."""
    if not u:
        return ()
    out = [0] * image[len(u)]  # u ends on a nonzero entry, whose image is the top
    for i, e in enumerate(u, start=1):
        if e:
            out[image[i] - 1] = e
    return tuple(out)


def rename_parts(m: CanonicalMonomial, image, mode: str) -> tuple:
    """m's (yexp, cseq, dseq) with the letter indices of the families the
    mode moves renamed through an image covering them: a dict, where a
    missing index raises KeyError, or a witness table of embedders
    (table[i] the image of i).  Each family is pushed on its own, with no
    N or P joined: the renaming the package's lift kernel
    (orders._lift_terms) performs together with N and P.

    Strict monotonicity keeps slot sequences sorted and never merges
    exponents, so the three tuples are canonical and no sign appears."""
    yexp, cseq, dseq = m.yexp, m.cseq, m.dseq
    if mode != "z_only":
        yexp = push_counts(yexp, image)
    if mode != "y_only":
        cseq = tuple([image[i] for i in cseq])
        dseq = tuple([image[i] for i in dseq])
    return yexp, cseq, dseq


def mono_mul(ay: tuple, ac: tuple, ad: tuple,
             by: tuple, bc: tuple, bd: tuple) -> tuple[int, CanonicalMonomial]:
    """The product of the canonical monomials with parts (ay, ac, ad) and
    (by, bc, bd), as (sign, monomial), one pair at a time: moving b's
    y-letters past a's z-block costs (-1)^(zlen(a) * ydeg(b)), the
    y-exponents add, and b's c- and d-slot letters join a's slot classes,
    swapped when zlen(a) is odd.  b's slot tuples may come in any order.
    The oracle that QPoly's product (freealg._mono_mul_into) folds per
    pair."""
    if len(ac) == len(ad):  # zlen(a) is even
        sign = 1
    else:
        bc, bd, sign = bd, bc, (-1 if sum(by) & 1 else 1)
    yexp = _trim(e + f for e, f in zip_longest(ay, by, fillvalue=0))
    return sign, CanonicalMonomial(yexp, tuple(sorted(ac + bc)), tuple(sorted(ad + bd)))


def pairwise_product(a: QPoly, b: QPoly) -> tuple[dict, int]:
    """a * b as a term dict, folded one pair at a time through mono_mul, and
    how many times a term came back after it had cancelled: a term that
    cancels is dropped, and one that comes back goes to the end."""
    acc: dict = {}
    cancelled, comebacks = set(), 0
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            sign, m = mono_mul(m1.yexp, m1.cseq, m1.dseq, m2.yexp, m2.cseq, m2.dseq)
            comebacks += m in cancelled and m not in acc
            n = acc.get(m, 0) + sign * c1 * c2
            if n:
                acc[m] = n
            else:
                del acc[m]
                cancelled.add(m)
    return acc, comebacks


def word_product(a: QPoly, b: QPoly) -> QPoly:
    """a * b through words: each pair of terms concatenates the two canonical
    words and reduce_word (by way of normalize) canonicalizes the result.
    QPoly.__mul__ computes the same polynomial in closed form."""
    return normalize([(c1 * c2, m1.word() + m2.word())
                      for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()])


def product_apply_reducer(triple, f: QPoly) -> QPoly:
    """The lift N . phi(f) . P as two products of whole words: N times the
    word-renamed f, then times the word P, each product canonicalized through
    reduce_word.  The package's apply_reducer computes the same polynomial in
    closed form, term by term."""
    out = word_product(QPoly.monomial(triple.n_part), word_renaming(f, triple.phi))
    if triple.p_word:
        out = word_product(out, normalize([(1, tuple(("z", i) for i in triple.p_word))]))
    return out


def counter_fit(big, small) -> tuple:
    """The sorted multiset big - small through Counter arithmetic; small must
    lie inside big."""
    rest = Counter(big)
    rest.subtract(small)
    if any(n < 0 for n in rest.values()):
        raise NotEmbeddableError("phi(m) does not fit under the target")
    return tuple(sorted(rest.elements()))


def reference_factorize(m: CanonicalMonomial, target: CanonicalMonomial, phi=None):
    """factorize_embedding the plain way: build phi(m) with rename_monomial
    (phi extended with covering over m's indices), subtract its y-exponents
    from the target's, and take the slot deficits with counter_fit.  Same
    arguments, result and NotEmbeddableError messages as the package's."""
    if phi is None:
        phi = pwo_leq(m, target)
        if phi is None:
            raise NotEmbeddableError("source monomial does not embed into the target")
    pm = rename_monomial(m, phi, "both")
    ny = [t - e for t, e in zip_longest(target.yexp, pm.yexp, fillvalue=0)]
    if any(e < 0 for e in ny):
        raise NotEmbeddableError("phi(m) does not fit under the target")
    extra_c = counter_fit(target.cseq, pm.cseq)
    extra_d = counter_fit(target.dseq, pm.dseq)
    if len(pm.cseq) == len(pm.dseq):
        first, second = extra_c, extra_d
    else:
        first, second = extra_d, extra_c
    if len(first) - len(second) not in (0, 1):
        raise NotEmbeddableError("slot deficits cannot interleave into a word")
    p_word = [0] * (len(first) + len(second))
    p_word[0::2], p_word[1::2] = first, second
    return ReducerTriple(phi, CanonicalMonomial.make(ny), tuple(p_word))


def reference_reduce(f: QPoly, gens, trace: list | None = None) -> QPoly:
    """reduce_by written the plain way: every step takes max() over all terms
    by total_key and updates whole QPoly values, so it shares no sorted
    worklist and no in-place term update with the package's loop.  Each
    step factors through reference_factorize and lifts through
    product_apply_reducer, so neither shares code with the package's _lift.
    Same arguments, result and trace records as reduce_by."""
    lead = [max(g.terms, key=total_key) for g in gens]
    remainder = QPoly()
    work = f
    while not work.is_zero():
        lm = max(work.terms, key=total_key)
        lc = work.terms[lm]
        usable = [k for k in range(len(gens)) if pwo_leq(lead[k], lm) is not None]
        r = lc
        if usable:
            d, betas = reference_bezout([gens[k].terms[lead[k]] for k in usable])
            q, r = divmod(lc, d)
            subtrahend = QPoly()
            for k, b in zip(usable, betas):
                if not (q and b):
                    continue
                triple = reference_factorize(lead[k], lm)
                subtrahend = subtrahend + product_apply_reducer(triple, gens[k]) * b
                if trace is not None:
                    rec = {"against": k, "beta": str(b), "q": str(q)}
                    rec.update(triple.to_obj())
                    trace.append(rec)
            work = work - subtrahend * q
        if r:
            frozen = QPoly.monomial(lm, r)
            remainder = remainder + frozen
            work = work - frozen
            if trace is not None:
                trace.append({"frozen": {"coeff": str(r), "m": monomial_to_obj(lm)}})
    return remainder


# --- independent enumeration oracle ------------------------------------------

def reference_basis(max_degree: int, max_index: int) -> list[CanonicalMonomial]:
    """enumerate_basis's monomials in its order, by nested loops: degree d
    ascending, then y-degree from d down to 0, then the y-exponent vectors
    in ascending lexicographic order, then the c-slot and the d-slot
    multisets, c-slots outermost."""
    idx = range(1, max_index + 1)
    out = []
    for d in range(max_degree + 1):
        for ydeg in range(d, -1, -1):
            for yv in recursive_exponent_vectors(max_index, ydeg):
                for cs in combinations_with_replacement(idx, (d - ydeg + 1) // 2):
                    for ds in combinations_with_replacement(idx, (d - ydeg) // 2):
                        out.append(CanonicalMonomial(_trim(yv), cs, ds))
    return out


def recursive_exponent_vectors(slots: int, total: int):
    """All tuples of `slots` nonnegative ints summing to `total`, first entry
    ascending outermost: the recursive enumeration freealg used to run."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in recursive_exponent_vectors(slots - 1, total - first):
            yield (first,) + rest


# --- reference scanner --------------------------------------------------------

LOOP_KINDS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
}


def loop_tokenize(text: str) -> list[tuple]:
    """A character-by-character scanner with named operator kinds
    (LOOP_KINDS), returning (kind, value, pos) tuples: the oracle for
    parsing.tokenize.  It reads runs of isdigit() characters with int(), so
    a digit int() cannot read (such as '\u00b2') raises ValueError here,
    where tokenize raises ParseError."""
    cap = 10_000  # the package's MAX_LETTER_INDEX
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in LOOP_KINDS:
            toks.append((LOOP_KINDS[ch], ch, i))
            i += 1
            continue
        if ch in ("y", "z"):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"letter {ch!r} needs an index", i + 1, ("digits",))
            digits = text[i + 1:j].lstrip("0") or "0"
            if len(digits) > len(str(cap)) or int(digits) > cap:
                raise ParseError(f"letter index above {cap}", i + 1, (f"index <= {cap}",))
            idx = int(digits)
            if idx < 1:
                raise ParseError("letter index must be >= 1", i + 1, ("index >= 1",))
            toks.append(("VAR", (ch, idx), i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ())
    toks.append(("EOF", None, n))
    return toks


# --- reference parser ----------------------------------------------------------
# The three-pass front end the package had before its one-pass parser: a full
# token list, a tree of single letters and integers, a word-count walk, and an
# expansion of its own.  It shares no code with m2sl2.parsing, whose caps it
# reads when called, so a test that patches a cap patches both.

class Token(NamedTuple):
    kind: str  # "VAR", "INT", "EOF", or the operator character itself
    value: object
    pos: int


_ORACLE_TOKEN = re.compile(r"(?P<space>\s+)|(?P<op>[-+*^()\[\],])|(?P<var>[yz]\d*)"
                           r"|(?P<int>\d+)|(?P<other>.)", re.S)


def oracle_tokenize(text: str) -> list[Token]:
    """The input's tokens, ending in EOF; raises the first lexical error."""
    toks: list[Token] = []
    for match in _ORACLE_TOKEN.finditer(text):
        group = match.lastgroup
        if group == "space":
            continue
        lexeme, i = match[group], match.start()
        if group == "op":
            toks.append(Token(lexeme, lexeme, i))
        elif group == "var":
            ch, cap = lexeme[0], caps.MAX_LETTER_INDEX
            if len(lexeme) == 1:
                raise ParseError(f"letter {ch!r} needs an index", i + 1, ("digits",))
            digits = lexeme[1:].lstrip("0") or "0"
            if len(digits) > len(str(cap)) or int(digits) > cap:
                raise ParseError(f"letter index above {cap}", i + 1, (f"index <= {cap}",))
            idx = int(digits)
            if idx < 1:
                raise ParseError("letter index must be >= 1", i + 1, ("index >= 1",))
            toks.append(Token("VAR", (ch, idx), i))
        elif group == "int":
            if len(lexeme) > caps.MAX_COEFF_DIGITS:
                raise ParseError(f"integer longer than {caps.MAX_COEFF_DIGITS} digits", i,
                                 (f"at most {caps.MAX_COEFF_DIGITS} digits",))
            toks.append(Token("INT", int(lexeme), i))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", i, ())
    toks.append(Token("EOF", None, len(text)))
    return toks


# oracle nodes: ("int", n) | ("var", letter) | ("pow", node, k)
#               ("mul", [nodes]) | ("add", [(sign, node), ...]) | ("br", a, b)

def _describe(t: Token) -> str:
    if t.kind == "EOF":
        return "input ended"
    if t.kind == "VAR":
        return f"got {t.value[0]}{t.value[1]}"
    return f"got {t.value!r}"


class OracleParser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.k = 0
        self.depth = 0
        self.powered = False  # did the last factor read end in an exponent

    def peek(self) -> Token:
        return self.toks[self.k]

    def take(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def close(self, kind: str, what: str) -> None:
        t = self.peek()
        if t.kind != kind:
            caret = () if self.powered else ("'^'",)
            raise ParseError(_describe(t), t.pos, ("'*'", "'+'", "'-'", *caret, what))
        self.take()

    def expr(self):
        items = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
            items.append((sign, self.term()))
        return ("add", items)

    def term(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        node = ("mul", factors) if len(factors) > 1 else factors[0]
        if sign < 0:
            node = ("mul", [("int", -1), node])
        return node

    def factor(self):
        node = self.atom()
        self.powered = self.peek().kind == "^"
        if self.powered:
            self.take()
            t = self.peek()
            if t.kind != "INT":
                raise ParseError(_describe(t), t.pos, ("nonnegative integer exponent",))
            node = ("pow", node, self.take().value)
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "VAR":
            self.take()
            return ("var", t.value)
        if t.kind == "INT":
            self.take()
            return ("int", t.value)
        if t.kind not in ("(", "["):
            raise ParseError(_describe(t), t.pos, ("'y'", "'z'", "integer", "'('", "'['"))
        self.take()
        self.depth += 1
        if self.depth > caps.MAX_NESTING:
            raise ParseError(f"nesting deeper than {caps.MAX_NESTING} levels", t.pos, ())
        if t.kind == "(":
            node = self.expr()
            self.close(")", "')'")
        else:
            a = self.expr()
            self.close(",", "','")
            b = self.expr()
            self.close("]", "']'")
            node = ("br", a, b)
        self.depth -= 1
        return node


def oracle_parse(text: str):
    """The oracle's tree of a text; raises ParseError only, never the word
    cap (oracle_word_count checks that)."""
    p = OracleParser(oracle_tokenize(text))
    node = p.expr()
    p.close("EOF", "end of input")
    return node


def oracle_word_count(node) -> int:
    """How many words oracle_words(node) returns, from the tree alone; raises
    ResourceBoundError once any list the expansion builds (a node's, or a
    partial product's) would pass the word cap."""
    cap = caps.MAX_WORDS

    def check(n):
        if n > cap:
            raise ResourceBoundError(f"expression expands to more than {cap} words")
        return n

    kind = node[0]
    if kind == "int":
        n = 1 if node[1] else 0
    elif kind == "var":
        n = 1
    elif kind == "pow":
        b, k = oracle_word_count(node[1]), node[2]
        n = b ** k if b <= 1 else b ** min(k, cap.bit_length())
    elif kind == "mul":
        n = 1
        for sub in node[1]:
            n = check(n * oracle_word_count(sub))
    elif kind == "add":
        n = sum(oracle_word_count(sub) for _, sub in node[1])
    else:
        n = 2 * oracle_word_count(node[1]) * oracle_word_count(node[2])
    return check(n)


def _words_times(left, right):
    return [(c0 * c1, w0 + w1) for c0, w0 in left for c1, w1 in right]


def oracle_words(node) -> list[tuple[int, tuple]]:
    """The raw weighted words of an oracle tree, left operand outermost and
    AB's words before BA's in a bracket; a power of one word is built in one
    step after charging its letters and coefficient bits to the power caps,
    summed over the tree in the order the words are built."""
    spent = [0, 0]

    def power(base, k):
        if k == 0:
            return [(1, ())]
        if not base:
            return []
        if len(base) > 1:
            out = base
            for _ in range(k - 1):
                out = _words_times(out, base)
            return out
        ((c, w),) = base
        spent[0] += len(w) * k
        spent[1] += abs(c).bit_length() * k if abs(c) > 1 else 0
        if spent[0] > caps.MAX_POWER_LETTERS:
            raise ResourceBoundError(
                f"powers of single words build more than {caps.MAX_POWER_LETTERS} letters")
        if spent[1] > caps.MAX_POWER_BITS:
            raise ResourceBoundError("powers of single words build coefficients of more "
                                     f"than {caps.MAX_POWER_BITS} bits")
        return [(c ** k, w * k if w else w)]

    def expand(node):
        kind = node[0]
        if kind == "int":
            return [(node[1], ())] if node[1] else []
        if kind == "var":
            return [(1, (node[1],))]
        if kind == "pow":
            return power(expand(node[1]), node[2])
        if kind == "mul":
            out = [(1, ())]
            for sub in node[1]:
                out = _words_times(out, expand(sub))
            return out
        if kind == "add":
            return [(sign * c, w) for sign, sub in node[1] for c, w in expand(sub)]
        a, b = expand(node[1]), expand(node[2])
        return _words_times(a, b) + [(-c0 * c1, w1 + w0) for c0, w0 in a for c1, w1 in b]

    return expand(node)


# --- reference membership -----------------------------------------------------

def product_membership_bounded(f: QPoly, generators, max_degree: int,
                               max_index: int | None = None,
                               max_candidates: int = 100_000) -> bool:
    """membership_bounded built from word products: each candidate is
    N * word_renaming(g, phi) * P through word_product, with P a normalized
    z-word, and the degree filter reads the product.  Both count the same
    candidates, so both raise exactly when the count passes max_candidates,
    whatever order each enumerates them in."""
    if f.is_zero():
        return True
    if f.degree > max_degree:
        raise ValueError("f exceeds the degree bound")
    gens = [g for g in generators if not g.is_zero()]
    if max_index is None:
        src_max = max([f.max_index] + [g.max_index for g in gens], default=1)
        max_index = max(1, src_max) + max_degree
    cap = max_index

    def vec(poly: QPoly) -> dict:
        return {(m.yexp, m.cseq, m.dseq): c for m, c in poly.terms.items()}

    lattice = IntRowLattice()
    count = 0
    for g in gens:
        gdeg_min = min(m.degree for m in g.terms)
        src = sorted({i for m in g.terms for _, i in m.word()})
        for targets in combinations(range(1, cap + 1), len(src)):
            phi = MonotoneInjection(tuple(zip(src, targets)))
            gp = word_renaming(g, phi)
            if gp.degree > max_degree:
                continue
            room = max_degree - gdeg_min
            for n_mon in (CanonicalMonomial.make(yv) for d in range(room + 1)
                          for yv in recursive_exponent_vectors(cap, d)):
                room_p = room - n_mon.degree
                left = word_product(QPoly.monomial(n_mon), gp)
                for olen in range(0, room_p + 1):
                    elens = [e for e in (olen - 1, olen) if 0 <= e <= room_p - olen]
                    for elen in elens:
                        for och in combinations_with_replacement(range(1, cap + 1), olen):
                            for ech in combinations_with_replacement(range(1, cap + 1), elen):
                                p_word = [0] * (olen + elen)
                                p_word[0::2], p_word[1::2] = och, ech
                                prod = left
                                if p_word:
                                    prod = word_product(left, normalize(
                                        [(1, tuple(("z", i) for i in p_word))]
                                    ))
                                if prod.is_zero() or prod.degree > max_degree:
                                    continue
                                count += 1
                                if count > max_candidates:
                                    raise ResourceBoundError(
                                        f"membership enumeration exceeded {max_candidates} products"
                                    )
                                lattice.add(vec(prod))
    return lattice.contains(vec(f))
