"""Leading-term reduction against the embedding order.

The linear well-order picks leading terms; the embedding order decides which
generators may reduce a given leading monomial.  Whenever lm(g) <=' M with
witness phi, the monomial M factors exactly as

    M  =  N . phi(g's leading monomial) . P         (sign +1)

with N pure-y on the left and P a pure-z word on the right, so g lifts to a
reducer with leading term exactly M and unchanged leading coefficient.

Everything the loop needs from a generator is built once: a record
(_record) of its leading data and its tail, g minus its leading term, and
beside it the embedding data of its leading monomial
(CanonicalMonomial._embedding), its key for the embedding order.  reduce_by
builds the records and keys once per call; chain_demo builds them when it
adjoins a generator and keeps them for the rest of the stream.  At each step
one call of orders.embedders over the keys returns the generators whose
leading monomial embeds into M, with their witnesses; the loop holds no
comparison of the embedding order of its own.

One reduction step renames once, traced or not: _lift does the whole step.
It reads N's y-exponents and P's two halves straight off the witness, which
embedders builds over all of lm(g)'s indices, extends the witness once, over
g's cached index support (QPoly._index_support, which the tail shares), and
lifts the tail's terms, with none of the checks a caller's injection needs.
It returns the factorization with the lifted terms, so a trace record is
ReducerTriple._trusted over those parts, and no step goes through the public
factorize_embedding and apply_reducer, which compute the same parts with
those checks, for the factor command, membership_bounded and outside
callers.  Only the tail is lifted: lm(g) lifts to M itself, whose
coefficient the Euclidean division below settles, and the renaming is
injective, so no tail term lands on M.  The lift is a closed-form map on
each term, with no word product, written once (_lift_terms): rename along
the extension, then multiply by N and P through the canonical product of
freealg (_mono_mul).
Coefficients live in Z, so a reduction step is Euclidean division of the
leading coefficient by the gcd of the usable reducers' leading coefficients;
a nonzero residue freezes into the remainder and reduction continues on the
strictly smaller tail.  Strict descent in a well-order terminates.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from .errors import NotEmbeddableError, ResourceBoundError, ZeroPolynomialError
from .freealg import (
    CanonicalMonomial,
    QPoly,
    _interleave,
    _mono_mul,
    _trim,
    enumerate_basis,
    monomial_to_obj,
    normalize,  # unused here; the benchmark's tracer wraps reduction.normalize
)
from .intlinalg import IntRowLattice, bezout
from .orders import (
    MonotoneInjection,
    _rename,
    embedders,
    pwo_leq,
    rename_monomial,
    total_key,
)
from .parsing import coeff_str


@dataclass(frozen=True)
class LeadingData:
    lc: int
    lm: CanonicalMonomial

    def to_obj(self) -> dict:
        return {"coeff": coeff_str(self.lc), "m": monomial_to_obj(self.lm)}


def leading(f: QPoly) -> LeadingData:
    """Leading coefficient and monomial under the linear well-order."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    lm = max(f.terms, key=total_key)
    return LeadingData(f.terms[lm], lm)


@dataclass(frozen=True, init=False)
class ReducerTriple:
    """A factorization M_big = N . phi(M) . P with sign +1.

    N is pure-y; P is the pure-z word (as an index tuple) whose letters fill
    the slot classes left short after pushing M along phi.  The triple keeps
    them in the form the lift reads: N's y-exponents (n_yexp) and P's
    letters at even and at odd positions, counted from 0 (p_even, p_odd).
    n_part and p_word rebuild N and P on demand, for trace records, the
    factor command and tests.  The constructor takes N and P and refuses an
    N with odd letters, which the stored exponents could not keep.
    """

    phi: MonotoneInjection
    n_yexp: tuple[int, ...]
    p_even: tuple[int, ...]
    p_odd: tuple[int, ...]

    def __init__(self, phi: MonotoneInjection, n_part: CanonicalMonomial, p_word: tuple[int, ...]):
        if n_part.cseq:
            raise ValueError("N must be pure-y")
        # a list P is stored as tuples too, so the triple hashes and lifts
        vars(self).update(phi=phi, n_yexp=n_part.yexp,
                          p_even=tuple(p_word[0::2]), p_odd=tuple(p_word[1::2]))

    @classmethod
    def _trusted(cls, phi, n_yexp, p_even, p_odd) -> "ReducerTriple":
        """Build from the stored parts as they are, with no check and no
        dataclass __init__: factorize_embedding's result, and the record of
        a traced reduction step, built from the parts _lift returns."""
        t = object.__new__(cls)
        vars(t).update(phi=phi, n_yexp=n_yexp, p_even=p_even, p_odd=p_odd)
        return t

    @property
    def n_part(self) -> CanonicalMonomial:
        return CanonicalMonomial._trusted(self.n_yexp, (), ())

    @property
    def p_word(self) -> tuple[int, ...]:
        return tuple(_interleave(self.p_even, self.p_odd))

    def to_obj(self) -> dict:
        return {
            "phi": self.phi.to_obj(),
            "N": monomial_to_obj(self.n_part),
            "P": list(self.p_word),
        }


def _fit(big: tuple, small: tuple) -> tuple[int, ...]:
    """The multiset big - small of a sorted tuple and an iterable, sorted:
    each letter of small is taken out of big; small must lie inside big."""
    out = list(big)
    for x in small:
        try:
            out.remove(x)
        except ValueError:  # x is not left in big
            raise NotEmbeddableError("phi(m) does not fit under the target") from None
    return tuple(out)


def factorize_embedding(m: CanonicalMonomial, target: CanonicalMonomial,
                        phi: MonotoneInjection | None = None) -> ReducerTriple:
    """Factor target = N . phi(m) . P, given m <=' target.

    N carries the y-exponents that phi(m) leaves missing from the target; the
    c- and d-slot letters of the target that phi(m) does not use make up P,
    interleaved so that they land in the right slot classes after the z-block
    of phi(m).  No sign appears: N adds no even letter to the right of an odd
    one, and P only appends.  `phi` defaults to the witness pwo_leq(m,
    target); a caller that already holds it passes it.

    phi(m)'s rows are renamed straight through phi's pairs, which a pwo_leq
    witness has for every index 1..max_index of m; only a caller's phi that
    falls short is extended, as rename_monomial extends it.  No phi(m)
    monomial is built: the y deficit comes from one pass over phi(m)'s
    exponents, and the slot deficits from _fit.  The triple keeps phi as
    given, N as its exponents and P as its two halves (see ReducerTriple),
    so neither N's monomial nor P's word is built here.
    """
    if phi is None:
        phi = pwo_leq(m, target)
        if phi is None:
            raise NotEmbeddableError("source monomial does not embed into the target")
    try:
        py, pc, pd = _rename(m, dict(phi.pairs), "both")
    except KeyError:  # phi lacks one of m's indices
        pm = rename_monomial(m, phi, "both")
        py, pc, pd = pm.yexp, pm.cseq, pm.dseq
    ny = list(target.yexp)
    for i, e in enumerate(py):
        # py is trimmed: past the target's exponents lies py's nonzero top,
        # which cannot fit
        if i >= len(ny) or ny[i] < e:
            raise NotEmbeddableError("phi(m) does not fit under the target")
        ny[i] -= e
    first, second = _fit(target.cseq, pc), _fit(target.dseq, pd)
    if len(pc) != len(pd):
        # the z-block of phi(m) ends on a c-slot, so P starts with a d-letter
        first, second = second, first
    if len(first) - len(second) not in (0, 1):
        raise NotEmbeddableError("slot deficits cannot interleave into a word")
    return ReducerTriple._trusted(phi, _trim(ny), first, second)


def apply_reducer(triple: ReducerTriple, f: QPoly) -> QPoly:
    """N . phi(f) . P as a canonical polynomial, in closed form.

    Each term of f is renamed along phi, then multiplied through
    freealg._mono_mul by the canonical monomial with N's y-exponents, P's
    even-position letters (from 0) as c-slots and its odd-position letters
    as d-slots, all three read off the triple as they are kept: no word
    product, no slicing and no intermediate monomial.  phi is extended once,
    over f's index support, which f computes on its first lift and keeps,
    so the renaming acts as one letter substitution; extending term by term
    could merge terms (phi 1->2 sends both y1*y2 and y1*y3 to y2*y3 under
    separate extensions).  Renaming along one injection is injective and N
    and P are fixed, so no two terms merge and every coefficient carries
    over unchanged.

    The reduction loop does not call it: _lift is its unchecked form.
    membership_bounded passes whole generators.
    """
    ny, p_even, p_odd = triple.n_yexp, triple.p_even, triple.p_odd
    if p_even and min(p_even + p_odd) < 1:  # P's odd half is empty when its even one is
        raise ValueError("letter index must be >= 1")
    image = dict(triple.phi.covering(f._index_support()).pairs)
    return QPoly._trusted(_lift_terms(f.terms, image, ny, p_even, p_odd))


def _lift_terms(terms: dict, image: dict, ny: tuple, p_even: tuple, p_odd: tuple) -> dict:
    """N . phi(t) . P for each term t of `terms`, as a new dict in the same
    order: each monomial renamed through `image` (a dict covering its
    indices), then multiplied by N's y-exponents `ny` and P's halves.  The
    lift of apply_reducer and of _lift."""
    out: dict[CanonicalMonomial, int] = {}
    for m, c in terms.items():
        # unpacked first: passing *_rename(...) made the lift about 10% slower
        yexp, cseq, dseq = _rename(m, image, "both")
        # N is pure-y and P pure-z, so N.phi(t).P has sign +1 and the monomial
        # of phi(t).(N P); only that product's sign, (-1)^(zlen * deg N), differs
        out[_mono_mul(yexp, cseq, dseq, ny, p_even, p_odd)[1]] = c
    return out


def _lift(m: CanonicalMonomial, target: CanonicalMonomial, phi: MonotoneInjection,
          tail: QPoly) -> tuple:
    """One reduction step, traced or not: the lifted tail's terms and the
    factorization they were lifted by, (terms, n_yexp, p_even, p_odd).  That
    is apply_reducer(t, tail).terms and t's stored parts, for
    t = factorize_embedding(m, target, phi), in one step and with no check:
    phi must be the witness pwo_leq(m, target), as orders.embedders returns
    it.  A trace record is ReducerTriple._trusted(phi, n_yexp, p_even,
    p_odd).to_obj().

    Such a witness maps every index 1..max_index of m and puts each row of
    m under a row of the target, so the y-deficits are >= 0, the slots fit,
    the deficits interleave and P's letters are >= 1: none of
    factorize_embedding's refusals can occur.  N's exponents are read off
    the witness, the target's less m's at the indices phi maps them to;
    P's halves are _fit's, swapped when m's z-length is odd.  phi is
    extended over the tail's kept index support, and its pairs are read once
    when the extension is phi itself.  The tail of a one-term generator is
    empty, and the step still returns its factorization.
    """
    image = dict(phi.pairs)
    ny = list(target.yexp)
    # m.yexp ends on a nonzero exponent, so every index it lists maps inside ny
    for i, e in enumerate(m.yexp, start=1):
        ny[image[i] - 1] -= e
    # map, not a list comprehension: about 2% of an untraced reduce_by on 3.11
    first, second = (_fit(target.cseq, map(image.__getitem__, m.cseq)),
                     _fit(target.dseq, map(image.__getitem__, m.dseq)))
    if len(m.cseq) != len(m.dseq):
        first, second = second, first
    ext = phi.covering(tail._index_support())
    if ext is not phi:
        image = dict(ext.pairs)
    ny = _trim(ny)
    return _lift_terms(tail.terms, image, ny, first, second), ny, first, second


def reduce_by(f: QPoly, generators, trace: list | None = None) -> QPoly:
    """Remainder of f under the generator family.

    At each step the usable generators are those whose leading monomial
    embeds into lm(f), found by one orders.embedders call over the keys
    built here, the embedding data of each generator's leading monomial.
    Their lifted combination realizes the gcd d of their leading
    coefficients at lm(f); Euclidean division lc(f) = q*d + r subtracts q
    times that combination and freezes any nonzero residue r into the
    remainder.  Each step strictly lowers the working leading monomial,
    and the well-order guarantees termination.  The loop walks a list sorted
    by total_key: each term's order key is computed once, when the term
    enters the working polynomial, and no polynomial is copied per step.

    The remainder's terms are in strictly descending total_key order, the
    order in which they were frozen, so a caller may print them as they are
    (cli's reduce does).  Each step lifts a generator's tail in one call of
    _lift, straight off the embedding witness, traced or not.

    When `trace` is a list, subtraction records
    {"against", "beta", "q", "phi", "N", "P"}, whose factorization is the
    one _lift returns, and freeze records {"frozen": {"coeff", "m"}} are
    appended in execution order.  The trace only records: the remainder is
    the same, term for term.
    """
    recs, keys = [], []
    for g in generators:
        if g.is_zero():
            raise ZeroPolynomialError("generators must be nonzero")
        ld = leading(g)
        recs.append(_record(g, ld))
        keys.append(ld.lm._embedding())
    return _reduce(f, recs, keys, trace)


def _record(g: QPoly, ld: LeadingData) -> tuple:
    """What the reduction loop reads of a nonzero generator g with leading
    data ld when g is usable, built once: (ld, tail).

    The tail is g minus its leading term; it keeps g's index support, so
    _lift extends a witness over the same indices as for g.  Which
    generators are usable is decided on their keys, kept beside the records
    (see _reduce), so the record holds nothing of the embedding order.
    """
    tail = QPoly._trusted({m: c for m, c in g.terms.items() if m != ld.lm})
    tail._support = g._index_support()
    return ld, tail


def _reduce(f: QPoly, recs: list, keys: list, trace: list | None = None) -> QPoly:
    """The reduce_by loop, given each generator's record (see _record) and,
    at the same position of `keys`, the embedding data of its leading
    monomial.

    `work` maps each live term to its coefficient; `keyed` holds
    (total_key(m), m) for every monomial inserted when it entered `work`,
    sorted ascending, so its last entry is the leading term.  total_key is
    injective, so two entries tie only when their monomials are equal, and
    CanonicalMonomial needs no `<`.  An entry whose monomial has since
    cancelled out of `work` is stale and skipped when popped (lazy
    deletion); a monomial never re-enters after it was the leading term,
    because every later term lies strictly below it.

    At each step one orders.embedders call over the keys gives the usable
    generators and their witnesses, in ascending position, and the loop
    compares no embeddings itself.  Only the tail of a usable generator is
    lifted and subtracted: its leading term would land on lm, whose
    coefficient ends at the residue r, and lm leaves `work` anyway.  So a
    one-term generator, whose tail is empty, costs no factorization and no
    lift, unless `trace` records them.  Every other step calls _lift once
    and folds the lifted terms straight into `work`; with a trace, the
    step's record reads the factorization _lift returns, as a
    ReducerTriple, and there is no other branch.
    """
    work = dict(f.terms)
    keyed = sorted([(total_key(m), m) for m in work])
    rem: dict[CanonicalMonomial, int] = {}
    while keyed:
        lm = keyed.pop()[1]
        lc = work.get(lm)
        if lc is None:
            continue
        # (generator index, leading data, tail, embedding witness)
        usable = [(k, *recs[k], phi) for k, phi in embedders(lm, keys)]
        if usable:
            d, betas = bezout([ld.lc for _, ld, _, _ in usable])
            q, r = divmod(lc, d)
            if q:
                for (k, ld, tail, phi), beta in zip(usable, betas):
                    if not beta or not tail.terms and trace is None:
                        continue
                    # lm(g) lifts onto lm, whose coefficient ends at r: lift the tail alone
                    lifted, ny, first, second = _lift(ld.lm, lm, phi, tail)
                    if trace is not None:
                        trace.append({"against": k, "beta": coeff_str(beta), "q": coeff_str(q),
                                      **ReducerTriple._trusted(phi, ny, first, second).to_obj()})
                    scale = beta * q
                    for m, c in lifted.items():
                        c *= scale
                        n = work.get(m)
                        if n is None:
                            work[m] = -c
                            insort(keyed, (total_key(m), m))
                        elif n == c:
                            del work[m]
                        else:
                            work[m] = n - c
        else:
            r = lc
        work.pop(lm, None)
        if r:
            rem[lm] = r
            if trace is not None:
                trace.append({"frozen": {"coeff": coeff_str(r), "m": monomial_to_obj(lm)}})
    return QPoly._trusted(rem)


@dataclass
class ChainReport:
    adjoined: list  # (step, LeadingData) for each generator the chain gained
    steps: int
    truncated: bool
    generators: list

    @property
    def stabilized_at(self) -> int | None:
        if self.truncated:
            return None
        return self.adjoined[-1][0] if self.adjoined else 0

    def to_obj(self) -> list:
        out = [{"step": step, "lt": ld.to_obj()} for step, ld in self.adjoined]
        tail: dict = {"stabilized_at": self.stabilized_at}
        if self.truncated:
            tail["truncated"] = True
        out.append(tail)
        return out


def chain_demo(stream, budget: int = 1_000_000) -> ChainReport:
    """Feed polynomials; adjoin every nonzero remainder to the generator list.

    Reports which steps grew the chain.  On a fully consumed stream the last
    growth step is where the chain stabilized; when the budget truncates the
    stream no stabilization claim is made.  On a stream of unit monomials a
    monomial is adjoined exactly when no adjoined one embeds into it, and
    adjoined ones are never revisited, so the well-partial-order property
    bounds how long the chain can grow.  Each generator's record (_record:
    leading data, tail) and key (its leading monomial's embedding data) are
    built once, when it is adjoined, and kept for the rest of the stream.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    gens: list[QPoly] = []
    recs: list[tuple] = []
    keys: list[tuple] = []
    adjoined: list[tuple[int, LeadingData]] = []
    steps = 0
    truncated = False
    for fpoly in stream:
        if steps >= budget:
            truncated = True
            break
        steps += 1
        r = _reduce(fpoly, recs, keys)
        if not r.is_zero():
            gens.append(r)
            ld = leading(r)
            recs.append(_record(r, ld))
            keys.append(ld.lm._embedding())
            adjoined.append((steps, ld))
    return ChainReport(adjoined, steps, truncated, gens)


def membership_bounded(f: QPoly, generators, max_degree: int,
                       max_index: int | None = None,
                       max_candidates: int = 100_000) -> bool:
    """Truncated membership test for the one-sided closure of the generators.

    Enumerates lifts N . phi(g) . P (apply_reducer) over all monotone
    injections phi of g's index support into 1..cap and every canonical
    monomial of degree <= max_degree - deg g with indices <= cap, read as its
    pure-y part N and its pure-z block P, so each lift's degree
    deg N + deg g + len P stays within max_degree; then asks whether f lies
    in the Z-row-span of their coefficient vectors.  A True answer is a
    certificate; a False answer only says the truncated family misses f,
    because the cap and the degree bound cut the enumeration off.  This is a
    bounded check, not a decision procedure.
    """
    if max_index is not None and max_index < 1:
        raise ValueError("need max_index >= 1")
    if f.is_zero():
        return True
    if f.degree > max_degree:
        raise ValueError("f exceeds the degree bound")
    gens = [g for g in generators if not g.is_zero()]
    if max_index is None:
        src_max = max([f.max_index] + [g.max_index for g in gens], default=1)
        max_index = max(1, src_max) + max_degree

    def vec(poly: QPoly) -> dict:
        return {(m.yexp, m.cseq, m.dseq): c for m, c in poly.terms.items()}

    lattice = IntRowLattice()
    count = 0
    for g in gens:
        # a lift adds deg N + len P to every term of g and cancels none, so
        # its degree is deg N + deg g + len P: the monomials stop at `room`
        room = max_degree - g.degree
        if room < 0:
            continue
        src = g._index_support()
        for targets in combinations(range(1, max_index + 1), len(src)):
            phi = MonotoneInjection(tuple(zip(src, targets)))
            for m in enumerate_basis(room, max_index):
                count += 1
                if count > max_candidates:
                    raise ResourceBoundError(
                        f"membership enumeration exceeded {max_candidates} products"
                    )
                lift = apply_reducer(ReducerTriple._trusted(phi, m.yexp, m.cseq, m.dseq), g)
                lattice.add(vec(lift))
    return lattice.contains(vec(f))
