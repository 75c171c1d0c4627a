"""Leading-term reduction against the embedding order.

The linear well-order picks leading terms; the embedding order decides which
generators may reduce a given leading monomial.  Whenever lm(g) <=' M with
witness phi, the monomial M factors exactly as

    M  =  N . phi(g's leading monomial) . P         (sign +1)

with N pure-y on the left and P a pure-z word on the right, so g lifts to a
reducer with leading term exactly M and unchanged leading coefficient.

Everything the loop needs from a generator is built once, in one record per
generator (_record): its leading data, the embedding header of its leading
monomial (the variant flag, the slot counts and the y-degree that the cheap
reject of the embedding order compares) and its tail, g minus its leading
term.  reduce_by builds the records once per call; chain_demo builds one when
it adjoins a generator and keeps it for the rest of the stream.  At each step
a generator whose kept header already rules out lm(g) <=' M is skipped
without a pwo_leq call.

One reduction step renames once: factorize_embedding reads N and P off lm(g)
renamed straight through the witness, which pwo_leq builds over all of
lm(g)'s indices, and apply_reducer extends the witness once, over g's cached
index support (QPoly._index_support, which the tail shares), for the tail's
terms.  Only the tail is lifted: lm(g) lifts to M itself, whose coefficient
the Euclidean division below settles, and the renaming is injective, so no
tail term lands on M.  The lift is a closed-form map on each term, with no
word product: rename along the extension, then multiply by N and P through
the canonical product of freealg (_mono_mul).
Coefficients live in Z, so a reduction step is Euclidean division of the
leading coefficient by the gcd of the usable reducers' leading coefficients;
a nonzero residue freezes into the remainder and reduction continues on the
strictly smaller tail.  Strict descent in a well-order terminates.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, zip_longest

from .errors import NotEmbeddableError, ResourceBoundError, ZeroPolynomialError
from .freealg import (
    CanonicalMonomial,
    QPoly,
    _exponent_vectors,
    _interleave,
    _mono_mul,
    _trim,
    monomial_to_obj,
    normalize,  # unused here; the benchmark's tracer wraps reduction.normalize
)
from .intlinalg import IntRowLattice, bezout
from .orders import (
    MonotoneInjection,
    _header,
    _rename,
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


@dataclass(frozen=True)
class ReducerTriple:
    """A factorization M_big = N . phi(M) . P with sign +1.

    N is pure-y; P is the pure-z word (as an index tuple) whose letters fill
    the slot classes left short after pushing M along phi.
    """

    phi: MonotoneInjection
    n_part: CanonicalMonomial
    p_word: tuple[int, ...]

    def to_obj(self) -> dict:
        return {
            "phi": self.phi.to_obj(),
            "N": monomial_to_obj(self.n_part),
            "P": list(self.p_word),
        }


def _fit(big: tuple, small: tuple) -> tuple[int, ...]:
    """The multiset big - small of two sorted tuples, sorted, by one merge;
    small must lie inside big."""
    out = []
    j, n = 0, len(small)
    for x in big:
        if j < n and small[j] == x:
            j += 1
        else:
            out.append(x)
    if j < n:  # small[j] matched nothing in big
        raise NotEmbeddableError("phi(m) does not fit under the target")
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
    monomial is built, and the slot deficits are one merge over the sorted
    slot tuples.  The triple keeps phi as given.
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
    ny = [t - e for t, e in zip_longest(target.yexp, py, fillvalue=0)]
    if any(e < 0 for e in ny):
        raise NotEmbeddableError("phi(m) does not fit under the target")
    extra_c = _fit(target.cseq, pc)
    extra_d = _fit(target.dseq, pd)
    if len(pc) == len(pd):
        first, second = extra_c, extra_d
    else:
        # the z-block of phi(m) ends on a c-slot, so P starts with a d-letter
        first, second = extra_d, extra_c
    if len(first) - len(second) not in (0, 1):
        raise NotEmbeddableError("slot deficits cannot interleave into a word")
    n_part = CanonicalMonomial._trusted(_trim(ny), (), ())
    return ReducerTriple(phi, n_part, tuple(_interleave(first, second)))


def apply_reducer(triple: ReducerTriple, f: QPoly) -> QPoly:
    """N . phi(f) . P as a canonical polynomial, in closed form.

    Each term of f is renamed along phi, then multiplied through
    freealg._mono_mul by the canonical monomial with N's y-exponents, P's
    even-position letters (from 0) as c-slots and its odd-position letters
    as d-slots: no word product and no intermediate monomial.  phi is
    extended once, over f's index support, which f computes on its first
    lift and keeps, so the renaming acts as one letter substitution;
    extending term by term could merge terms (phi 1->2 sends both y1*y2 and
    y1*y3 to y2*y3 under separate extensions).  Renaming along one injection
    is injective and N and P are fixed, so no two terms merge and every
    coefficient carries over unchanged.

    The reduction loop passes a generator's tail (see _record), which keeps
    the generator's index support, so the extension is the one the whole
    generator would get.  An empty tail, such as every unit-monomial
    generator's, is returned at once.
    """
    if not f.terms:
        return f
    p = triple.p_word
    if p and min(p) < 1:
        raise ValueError("letter index must be >= 1")
    image = dict(triple.phi.covering(f._index_support()).pairs)
    ny, p_even, p_odd = triple.n_part.yexp, p[0::2], p[1::2]
    out: dict[CanonicalMonomial, int] = {}
    for m, c in f.terms.items():
        # unpacked first: passing *_rename(...) made the lift about 10% slower
        yexp, cseq, dseq = _rename(m, image, "both")
        # N is pure-y and P pure-z, so N.phi(t).P has sign +1 and the monomial
        # of phi(t).(N P); only that product's sign, (-1)^(zlen * deg N), differs
        out[_mono_mul(yexp, cseq, dseq, ny, p_even, p_odd)[1]] = c
    return QPoly(out)


def reduce_by(f: QPoly, generators, trace: list | None = None) -> QPoly:
    """Remainder of f under the generator family.

    At each step the usable generators are those whose leading monomial
    embeds into lm(f).  Their lifted combination realizes the gcd d of their
    leading coefficients at lm(f); Euclidean division lc(f) = q*d + r
    subtracts q times that combination and freezes any nonzero residue r into
    the remainder.  Each step strictly lowers the working leading monomial,
    and the well-order guarantees termination.  The loop walks a list sorted
    by total_key: each term's order key is computed once, when the term
    enters the working polynomial, and no polynomial is copied per step.

    When `trace` is a list, subtraction records
    {"against", "beta", "q", "phi", "N", "P"} and freeze records
    {"frozen": {"coeff", "m"}} are appended in execution order.
    """
    recs = []
    for g in generators:
        if g.is_zero():
            raise ZeroPolynomialError("generators must be nonzero")
        recs.append(_record(g, leading(g)))
    return _reduce(f, recs, trace)


def _record(g: QPoly, ld: LeadingData) -> tuple:
    """What the reduction loop reads of a nonzero generator g with leading
    data ld, built once: (variant, c-slots, d-slots, y-degree, ld, tail).

    The first four entries are the embedding header of lm(g)
    (orders._header).  The tail is g minus its leading term; it keeps g's
    index support, so apply_reducer extends a witness over the same indices
    as for g.  A plain tuple, because the loop unpacks one per generator per
    step, and Python 3.11 specializes that unpacking for exact tuples only (a
    NamedTuple made the chain engine about 13% slower).
    """
    tail = QPoly({m: c for m, c in g.terms.items() if m != ld.lm})
    tail._support = g._index_support()
    return (*_header(ld.lm), ld, tail)


def _reduce(f: QPoly, recs: list, trace: list | None = None) -> QPoly:
    """The reduce_by loop, given each generator's record (see _record).

    `work` maps each live term to its coefficient; `keyed` holds
    (total_key(m), m) for every monomial inserted when it entered `work`,
    sorted ascending, so its last entry is the leading term.  total_key is
    injective, so two entries tie only when their monomials are equal, and
    CanonicalMonomial needs no `<`.  An entry whose monomial has since
    cancelled out of `work` is stale and skipped when popped (lazy
    deletion); a monomial never re-enters after it was the leading term,
    because every later term lies strictly below it.

    At each step a generator whose kept header fails the orders._rejects
    comparison against lm's, inlined here, is skipped before pwo_leq is
    called.  Only the tail of a usable generator is lifted and subtracted:
    its leading term would land on lm, whose coefficient ends at the residue
    r, and lm leaves `work` anyway.
    """
    work = dict(f.terms)
    keyed = sorted([(total_key(m), m) for m in work])
    rem: dict[CanonicalMonomial, int] = {}
    while keyed:
        lm = keyed.pop()[1]
        lc = work.get(lm)
        if lc is None:
            continue
        variant, cslots, dslots, ydeg = _header(lm)
        usable = []  # (generator index, leading data, tail, embedding witness)
        for k, (gv, gc, gd, gy, ld, tail) in enumerate(recs):
            # orders._rejects, inlined
            if gv != variant or gc > cslots or gd > dslots or gy > ydeg:
                continue
            phi = pwo_leq(ld.lm, lm)
            if phi is not None:
                usable.append((k, ld, tail, phi))
        if usable:
            d, betas = bezout([ld.lc for _, ld, _, _ in usable])
            q, r = divmod(lc, d)
            if q:
                for (k, ld, tail, phi), beta in zip(usable, betas):
                    if not beta:
                        continue
                    triple = factorize_embedding(ld.lm, lm, phi)
                    # lm(g) lifts onto lm, whose coefficient ends at r: lift the tail alone
                    scale = beta * q
                    for m, c in apply_reducer(triple, tail).terms.items():
                        c *= scale
                        n = work.get(m)
                        if n is None:
                            work[m] = -c
                            insort(keyed, (total_key(m), m))
                        elif n == c:
                            del work[m]
                        else:
                            work[m] = n - c
                    if trace is not None:
                        rec = {"against": k, "beta": coeff_str(beta), "q": coeff_str(q)}
                        rec.update(triple.to_obj())
                        trace.append(rec)
        else:
            r = lc
        work.pop(lm, None)
        if r:
            rem[lm] = r
            if trace is not None:
                trace.append({"frozen": {"coeff": coeff_str(r), "m": monomial_to_obj(lm)}})
    return QPoly(rem)


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
    leading term, embedding header, tail) is built once, when it is
    adjoined, and kept for the rest of the stream.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    gens: list[QPoly] = []
    recs: list[tuple] = []
    adjoined: list[tuple[int, LeadingData]] = []
    steps = 0
    truncated = False
    for fpoly in stream:
        if steps >= budget:
            truncated = True
            break
        steps += 1
        r = _reduce(fpoly, recs)
        if not r.is_zero():
            gens.append(r)
            ld = leading(r)
            recs.append(_record(r, ld))
            adjoined.append((steps, ld))
    return ChainReport(adjoined, steps, truncated, gens)


def membership_bounded(f: QPoly, generators, max_degree: int,
                       max_index: int | None = None,
                       max_candidates: int = 100_000) -> bool:
    """Truncated membership test for the one-sided closure of the generators.

    Enumerates lifts N . phi(g) . P (apply_reducer) over all monotone
    injections phi of g's index support into 1..cap, pure-y left factors N,
    and pure-z right words P, keeping lifts whose degree
    deg N + deg g + len P stays within max_degree, then asks whether f lies
    in the Z-row-span of their coefficient vectors.  A True answer is a
    certificate; a False answer only says the truncated family misses f,
    because the cap and the degree bound cut the enumeration off.  This is a
    bounded check, not a decision procedure.
    """
    if f.is_zero():
        return True
    if f.degree > max_degree:
        raise ValueError("f exceeds the degree bound")
    gens = [g for g in generators if not g.is_zero()]
    if max_index is None:
        src_max = max([f.max_index] + [g.max_index for g in gens], default=1)
        max_index = max(1, src_max) + max_degree
    slots = range(1, max_index + 1)

    def vec(poly: QPoly) -> dict:
        return {(m.yexp, m.cseq, m.dseq): c for m, c in poly.terms.items()}

    lattice = IntRowLattice()
    count = 0
    for g in gens:
        # a lift adds deg N + len P to every term of g and cancels none, so
        # its degree is deg N + deg g + len P: the loops stop at `room`
        room = max_degree - g.degree
        if room < 0:
            continue
        src = g._index_support()
        for targets in combinations(slots, len(src)):
            phi = MonotoneInjection(tuple(zip(src, targets)))
            for n_mon in (CanonicalMonomial.make(yv) for d in range(room + 1)
                          for yv in _exponent_vectors(max_index, d)):
                room_p = room - n_mon.degree
                for olen in range(room_p + 1):
                    for elen in [e for e in (olen - 1, olen) if 0 <= e <= room_p - olen]:
                        for och in combinations_with_replacement(slots, olen):
                            for ech in combinations_with_replacement(slots, elen):
                                count += 1
                                if count > max_candidates:
                                    raise ResourceBoundError(
                                        f"membership enumeration exceeded {max_candidates} products"
                                    )
                                p_word = tuple(_interleave(och, ech))
                                lattice.add(vec(apply_reducer(ReducerTriple(phi, n_mon, p_word), g)))
    return lattice.contains(vec(f))
