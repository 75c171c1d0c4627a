"""Leading-term reduction against the embedding order.

The linear well-order picks leading terms; the embedding order decides which
generators may reduce a given leading monomial.  Whenever lm(g) <=' M with
witness phi, the monomial M factors exactly as

    M  =  N . phi(g's leading monomial) . P         (sign +1)

with N pure-y on the left and P a pure-z word on the right, so g lifts to a
reducer with leading term exactly M and unchanged leading coefficient.

Everything the loop needs from a generator is built once: a record
(_record) of its leading data and its tail, g minus its leading term,
compiled against the leading monomial (orders._compile), and beside it
the embedding data of its leading monomial
(CanonicalMonomial._embedding), its key for the embedding order, filed
at the generator's position in an index of the keys (orders.file_key).
reduce_by builds the records and the index once per call; chain_demo
files each generator when it adjoins it, reading its leading data off the
remainder's first term, and keeps both for the rest of the stream.  At
each step one call of orders.embedders over the index returns the
generators whose leading monomial embeds into M, in ascending position,
with their witnesses as plain index tables (table[i] the image of index
i).

The factorization has one core, _factor, with no check: N's y-exponents
are the target's less phi(m)'s, and P's halves are the slot letters of the
target that phi(m) leaves over (_fit).  The public factorize_embedding
calls it with phi extended over m's indices and refuses each way m can
fail to fit; a traced reduction step calls it with the witness table,
which cannot fail, for its record's N and P.  Both lifts, the step _lift
and the public apply_reducer, go through the one renaming kernel,
orders._lift_terms, which writes N . phi(t) . P for each term in one
closed-form pass; the step runs the record's program straight off the
target and the witness table, so it builds no N.  Only a generator's tail is
lifted: lm(g) lifts to M itself, whose coefficient the Euclidean division
below settles, and the renaming is injective, so no tail term lands on M.
A traced step records phi as the witness table's pairs and N and P from
_factor, so a step, traced or not, builds no MonotoneInjection unless the
tail reaches past the witness.

Coefficients live in Z, so a reduction step is Euclidean division of the
leading coefficient by the gcd of the usable reducers' leading coefficients,
taken once per distinct set of usable reducers within one reduce_by call
or one chain_demo stream; a nonzero residue freezes into the remainder and
reduction continues on the strictly smaller tail.  Strict descent in a well-order terminates.
"""

from bisect import insort
from collections import namedtuple
from itertools import combinations
from types import SimpleNamespace

from .errors import NotEmbeddableError, ResourceBoundError, ZeroPolynomialError
from .freealg import (
    ONE,
    CanonicalMonomial,
    QPoly,
    _interleave,
    _monomial,
    _rebuild,
    _trim,
    enumerate_basis,
    monomial_to_obj,
    normalize,  # unused here; the benchmark's tracer wraps reduction.normalize
)
from .intlinalg import IntRowLattice, bezout
from .orders import (
    MonotoneInjection,
    _compile,
    _lift_terms,
    _monomial_need,
    embedders,
    file_key,
    pwo_leq,
    total_key,
)
from .parsing import coeff_str


class LeadingData(namedtuple("LeadingData", "lc lm")):
    __slots__ = ()

    def to_obj(self) -> dict:
        return {"coeff": coeff_str(self.lc), "m": monomial_to_obj(self.lm)}


def leading(f: QPoly) -> LeadingData:
    """Leading coefficient and monomial under the linear well-order."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    lm = max(f.terms, key=total_key)
    return LeadingData(f.terms[lm], lm)


class ReducerTriple(namedtuple("ReducerTriple", "phi n_part p_word")):
    """A factorization M_big = N . phi(M) . P with sign +1.

    N is pure-y; P is the pure-z word (as an index tuple) whose letters fill
    the slot classes left short after pushing M along phi.  An N with odd
    letters is refused, and a P given as a list is kept as a tuple, so the
    triple hashes; copy, deepcopy and pickle rebuild through the check.
    """

    __slots__ = ()

    def __new__(cls, phi: MonotoneInjection, n_part: CanonicalMonomial, p_word: tuple):
        if n_part.cseq:
            raise ValueError("N must be pure-y")
        return super().__new__(cls, phi, n_part, tuple(p_word))

    __reduce__ = _rebuild

    def to_obj(self) -> dict:
        return {
            "phi": self.phi.to_obj(),
            "N": monomial_to_obj(self.n_part),
            "P": list(self.p_word),
        }


def _fit(big: tuple, small: tuple, image) -> tuple[int, ...]:
    """The multiset big - image(small) for a sorted tuple big, sorted: the
    image of each letter of small is taken out of big, and must be in it."""
    if not small:
        return big
    out = [*big]
    for i in small:
        try:
            out.remove(image[i])
        except ValueError:  # image[i] is not left in big
            raise NotEmbeddableError("phi(m) does not fit under the target") from None
    return tuple(out)


def _factor(m: CanonicalMonomial, target: CanonicalMonomial, image) -> tuple:
    """The parts (N's y-exponents, P's even-position letters, P's
    odd-position letters) of target = N . phi(m) . P, with no check: the
    one factorization core of factorize_embedding and a traced step's
    record.
    `image` is phi as a witness table of embedders (table[i] the image of
    i) or as a dict covering m's indices.

    N's exponents are the target's less m's at the indices the image maps
    them to; a zero exponent of m is skipped, because a caller's phi may
    leave its index out.  P's halves are the slot letters of the target
    that phi(m) leaves over (_fit), swapped when m's z-length is odd,
    because P's letters then start on a d-slot.  Where m does not embed
    under the image the result is not a factorization: N may have a
    negative exponent, an index may fall past the target's exponents
    (IndexError), _fit may refuse, or the halves may not interleave.
    """
    (my, mc, md), (ty, tc, td) = m, target
    ny = list(ty)
    for i, e in enumerate(my, start=1):
        if e:
            ny[image[i] - 1] -= e
    first, second = _fit(tc, mc, image), _fit(td, md, image)
    if len(mc) != len(md):
        first, second = second, first
    return _trim(ny), first, second


def factorize_embedding(m: CanonicalMonomial, target: CanonicalMonomial,
                        phi: MonotoneInjection | None = None) -> ReducerTriple:
    """Factor target = N . phi(m) . P, given m <=' target.

    N carries the y-exponents that phi(m) leaves missing from the target; the
    c- and d-slot letters of the target that phi(m) does not use make up P,
    interleaved so that they land in the right slot classes after the z-block
    of phi(m).  No sign appears: N adds no even letter to the right of an odd
    one, and P only appends.  `phi` defaults to the witness pwo_leq(m,
    target); a caller that already holds it passes it.

    phi is extended with covering over m's indices, as rename_monomial
    extends it (a pwo_leq witness already maps them all, and is kept as it
    is), and _factor computes the parts through the extension read as a
    dict.  Each way m can fail to fit under the target is refused here, with
    NotEmbeddableError.  The triple keeps phi as given.
    """
    if phi is None:
        phi = pwo_leq(m, target)
        if phi is None:
            raise NotEmbeddableError("source monomial does not embed into the target")
    image = dict(phi.covering(_monomial_need(m, "both")).pairs)
    try:
        ny, first, second = _factor(m, target, image)
    except IndexError:  # a y-exponent of phi(m) lies past the target's
        raise NotEmbeddableError("phi(m) does not fit under the target") from None
    if min(ny, default=0) < 0:
        raise NotEmbeddableError("phi(m) does not fit under the target")
    if len(first) - len(second) not in (0, 1):
        raise NotEmbeddableError("slot deficits cannot interleave into a word")
    return ReducerTriple(phi, _monomial((ny, (), ())), tuple(_interleave(first, second)))


def apply_reducer(triple: ReducerTriple, f: QPoly) -> QPoly:
    """N . phi(f) . P as a canonical polynomial, in closed form.

    f's terms are compiled against ONE (orders._compile) and each is lifted
    in one pass of orders._lift_terms: renamed along phi, with N's
    y-exponents added, P's even-position letters (from 0) joined to its
    c-slots and its odd-position letters to its d-slots: no word product
    and no intermediate monomial.  P's halves are split off and sorted
    once per call, as the kernel reads them: a caller's P word may leave
    them unsorted.  phi is extended once, over f's index support, so the
    renaming acts as one letter substitution; extending term by term could
    merge terms (phi 1->2 sends both y1*y2 and y1*y3 to y2*y3 under
    separate extensions).  Renaming along one injection is injective and N
    and P are fixed, so no two terms merge and every coefficient carries
    over unchanged.

    The reduction loop does not call it: _lift is its unchecked form, and
    membership_bounded runs the same kernel on each generator's program.
    """
    p = triple.p_word
    if p and min(p) < 1:
        raise ValueError("letter index must be >= 1")
    image = dict(triple.phi.covering(f._index_support()).pairs)
    return QPoly._trusted(_lift_terms(_compile(ONE, f.terms), triple.n_part.yexp, image,
                                      tuple(sorted(p[0::2])), tuple(sorted(p[1::2]))))


def _lift(m: CanonicalMonomial, prog: tuple, target: CanonicalMonomial, table: list) -> dict:
    """One reduction step, with no check: the lifted terms of a generator's
    tail as a dict.  That is apply_reducer(t, tail).terms for
    t = factorize_embedding(m, target, MonotoneInjection.from_table(table)),
    where m is the generator's leading monomial, table the witness table of
    m <=' target from orders.embedders, and prog the record's program (see
    _record).

    Such a witness maps every index 1..max_index of m and puts each row of
    m under a row of the target, so no refusal can occur.  The kernel adds
    the compiled deltas to the target's y-exponents and joins the target's
    slot letters left over by phi(m) (_fit), so the step builds no N.
    The table is the renaming's image when the support ends within its
    sources; a support reaching past them extends the witness with
    covering, holes included, as apply_reducer does.
    """
    (_, mc, md), (ty, tc, td) = m, target
    sup, terms = prog
    image = table if sup[-1] < len(table) else dict(
        MonotoneInjection.from_table(table).covering(sup).pairs)
    return _lift_terms(terms, ty, image, _fit(tc, mc, table), _fit(td, md, table))


def reduce_by(f: QPoly, generators, trace: list | None = None) -> QPoly:
    """Remainder of f under the generator family.

    At each step the usable generators are those whose leading monomial
    embeds into lm(f), found by one orders.embedders call over the index
    built here, which files the embedding data of each generator's leading
    monomial at the generator's position.
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
    {"against", "beta", "q", "phi", "N", "P"}, whose factorization _factor
    reads off the witness, and freeze records {"frozen": {"coeff", "m"}} are
    appended in execution order.  The trace only records: the remainder is
    the same, term for term.
    """
    recs, index = [], {}
    for g in generators:
        if g.is_zero():
            raise ZeroPolynomialError("generators must be nonzero")
        ld = leading(g)
        file_key(index, ld.lm._embedding(), len(recs))
        recs.append(_record(g, ld))
    return _reduce(f, recs, index, {}, trace)


def _record(g: QPoly, ld: LeadingData) -> tuple:
    """What the reduction loop reads of a nonzero generator g with leading
    data ld when g is usable, built once: (ld, prog).

    prog is None when g's tail, g minus its leading term, is empty, so a
    one-term generator builds no support and no program.  Otherwise it is
    (g's index support, the tail compiled against ld.lm), which _lift runs;
    the support is read only where the tail reaches past a witness.  Which
    generators are usable is decided on their keys, filed in an index
    beside the records (see _reduce), so the record holds nothing of the
    embedding order.
    """
    tail = {m: c for m, c in g.terms.items() if m != ld.lm}
    return ld, ((g._index_support(), _compile(ld.lm, tail)) if tail else None)


def _reduce(f: QPoly, recs: list, index: dict, gcds: dict, trace: list | None = None) -> QPoly:
    """The reduce_by loop, given each generator's record (see _record), the
    embedding data of its leading monomial filed in `index` at the record's
    position (orders.file_key), and the caller's gcd table `gcds` (see
    below).

    `work` maps each live term to its coefficient; `keyed` holds
    (total_key(m), m) for every monomial inserted when it entered `work`,
    sorted ascending, so its last entry is the leading term.  total_key is
    injective, so two entries tie only when their monomials are equal, and
    the sort never compares monomials, whose own tuple order is not the
    well-order.  An entry whose monomial has since
    cancelled out of `work` is stale and skipped when popped (lazy
    deletion); a monomial never re-enters after it was the leading term,
    because every later term lies strictly below it.

    At each step one orders.embedders call over the index gives the usable
    generators and their witness tables, in ascending position, and the
    loop compares no embeddings itself.  The gcd of the usable leading
    coefficients and their Bezout coefficients, (d, betas), depend only on
    which generators are usable, and few such sets occur: `gcds` keeps them
    by the tuple of positions, so bezout runs once per distinct set in the
    table's life.  The table is valid while the generator at each position,
    and so its leading coefficient, stays the same: reduce_by passes a
    fresh one per call, and chain_demo one per stream, whose generators are
    only ever appended.  Only the tail of a usable generator is lifted and
    subtracted: its leading term would land on lm, whose
    coefficient ends at the residue r, and lm leaves `work` anyway.  So a
    one-term generator, whose record holds no program, costs no lift, and
    no factorization unless `trace` records it.  Every other step calls
    _lift once and folds the lifted terms straight into `work`.  With a
    trace, each step's record has the fields of ReducerTriple.to_obj, read
    off the witness table and _factor's parts, with no injection or triple
    built.

    Terms freeze into the remainder in strictly descending total_key
    order, each the leading term of `work` when it froze, so the
    remainder's first term is its leading term.
    """
    work = dict(f.terms)
    keyed = sorted([(total_key(m), m) for m in work])
    rem: dict[CanonicalMonomial, int] = {}
    while keyed:
        lm = keyed.pop()[1]
        lc = work.get(lm)
        if lc is None:
            continue
        hits = embedders(lm._embedding(), index)  # (generator position, witness table)
        if hits:
            usable = tuple([k for k, _ in hits])
            gcd = gcds.get(usable)
            if gcd is None:
                gcd = gcds[usable] = bezout([recs[k][0].lc for k in usable])
            d, betas = gcd
            q, r = divmod(lc, d)
            if q:
                for (k, table), beta in zip(hits, betas):
                    ld, prog = recs[k]
                    if not beta:
                        continue
                    if trace is not None:  # ReducerTriple.to_obj's fields, read off the parts
                        ny, first, second = _factor(ld.lm, lm, table)
                        trace.append({"against": k, "beta": coeff_str(beta), "q": coeff_str(q),
                                      "phi": [[i, table[i]] for i in range(1, len(table))],
                                      "N": monomial_to_obj(_monomial((ny, (), ()))),
                                      "P": _interleave(first, second)})
                    if prog is None:
                        continue
                    scale = beta * q
                    # lm(g) lifts onto lm, whose coefficient ends at r: lift the tail alone
                    for m, c in _lift(ld.lm, prog, lm, table).items():
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


class ChainReport(SimpleNamespace):
    def __init__(self, adjoined: list, steps: int, truncated: bool, generators: list):
        # adjoined: (step, LeadingData) for each generator the chain gained
        super().__init__(adjoined=adjoined, steps=steps, truncated=truncated, generators=generators)

    def __reduce__(self):  # copy, deepcopy and pickle go through __init__
        return (type(self), (self.adjoined, self.steps, self.truncated, self.generators), vars(self))

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
    built once, when it is adjoined, the key filed in the index at the
    record's position (orders.file_key), and both are kept for the rest of
    the stream, as is the gcd table of every usable set met (see _reduce).  The
    leading data is the remainder's first term, which _reduce froze first.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    gens: list[QPoly] = []
    recs: list[tuple] = []
    index: dict = {}
    gcds: dict[tuple, tuple] = {}  # (d, betas) of each usable set met in the stream
    adjoined: list[tuple[int, LeadingData]] = []
    steps = 0
    truncated = False
    for fpoly in stream:
        if steps >= budget:
            truncated = True
            break
        steps += 1
        r = _reduce(fpoly, recs, index, gcds)
        if r.terms:
            gens.append(r)
            lm = next(iter(r.terms))
            ld = LeadingData(r.terms[lm], lm)
            file_key(index, ld.lm._embedding(), len(recs))
            recs.append(_record(r, ld))
            adjoined.append((steps, ld))
    return ChainReport(adjoined, steps, truncated, gens)


def membership_bounded(f: QPoly, generators, max_degree: int,
                       max_index: int | None = None,
                       max_candidates: int = 100_000) -> bool:
    """Truncated membership test for the one-sided closure of the generators.

    Enumerates lifts N . phi(g) . P over all monotone injections phi of g's
    index support into 1..cap and every canonical monomial of degree
    <= max_degree - deg g with indices <= cap, read as its pure-y part N
    and its pure-z block P, so each lift's degree deg N + deg g + len P
    stays within max_degree; then asks whether f lies in the Z-row-span of
    their coefficient vectors, each a lift's term dict.  Each generator is
    compiled against ONE once, and each lift runs its program
    (orders._lift_terms), as apply_reducer does.  A True answer is a
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

    lattice = IntRowLattice()
    count = 0
    for g in gens:
        # a lift adds deg N + len P to every term of g and cancels none, so
        # its degree is deg N + deg g + len P: the monomials stop at `room`
        room = max_degree - g.degree
        if room < 0:
            continue
        src, prog = g._index_support(), _compile(ONE, g.terms)
        for targets in combinations(range(1, max_index + 1), len(src)):
            image = dict(zip(src, targets))
            for ny, pc, pd in enumerate_basis(room, max_index):
                count += 1
                if count > max_candidates:
                    raise ResourceBoundError(
                        f"membership enumeration exceeded {max_candidates} products"
                    )
                lattice.add(_lift_terms(prog, ny, image, pc, pd))
    return lattice.contains(f.terms)
