"""Shared random generators and independent oracles for the test suite.

The brute-force checks here deliberately avoid the package's own profile
helpers: they recompute slot counts straight from the monomial components so
that agreement actually means something.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, zip_longest

from m2sl2 import (
    CanonicalMonomial,
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
    bezout,
    cmp_total,
    evaluate,
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
from m2sl2.parsing import to_words, word_count


# --- letters, ring variables and JSON records ---------------------------------

def y(i: int) -> tuple:
    return ("y", i)


def z(i: int) -> tuple:
    return ("z", i)


def word(*letters) -> tuple:
    return tuple(letters)


def ring_var(family: str, i: int) -> MultiPoly:
    """The ring variable family_i, as its one-term dict."""
    return MultiPoly({(((family, i), 1),): 1})


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
    return GMatrix2(prod, MultiPoly.zero(), MultiPoly.zero(),
                    prod * (-1) ** len(indices))


def expected_z_product(indices) -> GMatrix2:
    """Alternating beta/gamma products decided purely by position parity."""
    upper, lower = MultiPoly.const(1), MultiPoly.const(1)
    for pos, i in enumerate(indices, start=1):
        if pos % 2:
            upper, lower = upper * beta(i), lower * gamma(i)
        else:
            upper, lower = upper * gamma(i), lower * beta(i)
    zero = MultiPoly.zero()
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
    """A parse tree's generic evaluation through its raw words, after the
    word cap: the oracle for genmat.evaluate_tree."""
    word_count(node)
    return evaluate(to_words(node))


def product_eval_word(w) -> GMatrix2:
    """A word's generic evaluation as the letter-by-letter product of general
    2x2 matrices over the alpha/beta/gamma ring, with Y_i = diag(a_i, -a_i)
    and Z_i = [[0, b_i], [c_i, 0]] built here from the ring's variables."""
    zero, one = MultiPoly.zero(), MultiPoly.const(1)
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
    acc = [MultiPoly.zero()] * 4
    for c, w in weighted_words:
        acc = [x + e * c for x, e in zip(acc, entries(product_eval_word(w)))]
    return GMatrix2(*acc)


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
    acc = QPoly.zero()
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
    worklist and no in-place term update with the package's loop.  Same
    arguments, result and trace records as reduce_by."""
    lead = [max(g.terms, key=total_key) for g in gens]
    remainder = QPoly.zero()
    work = f
    while not work.is_zero():
        lm = max(work.terms, key=total_key)
        lc = work.terms[lm]
        usable = [k for k in range(len(gens)) if pwo_leq(lead[k], lm) is not None]
        r = lc
        if usable:
            d, betas = bezout([gens[k].terms[lead[k]] for k in usable])
            q, r = divmod(lc, d)
            subtrahend = QPoly.zero()
            for k, b in zip(usable, betas):
                if not (q and b):
                    continue
                triple = factorize_embedding(lead[k], lm)
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


# --- reference membership -----------------------------------------------------

def product_membership_bounded(f: QPoly, generators, max_degree: int,
                               max_index: int | None = None,
                               max_candidates: int = 100_000) -> bool:
    """membership_bounded built from word products: each candidate is
    N * word_renaming(g, phi) * P through word_product, with P a normalized
    z-word, and the degree filter reads the product.  The enumeration order,
    and so the point where max_candidates is passed, is the package's."""
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
