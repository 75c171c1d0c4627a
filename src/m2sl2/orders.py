"""Profiles and the two orders that drive the reduction engine.

A canonical monomial maps to a profile (xi): pure-y monomials give a
variant-1 profile (just the exponent sequence u1), monomials with odd letters
give a variant-2 profile (u1 plus the two slot-count sequences u2 and u3 for
the c- and d-slots).  Profiles, xi, xi_inv and push_profile are the paper's
profile map.  The per-index counts have one source, the rows of the
monomial's embedding data (CanonicalMonomial._embedding): xi reads its u2
and u3 there, and so do the embedding kernel and the renaming's index
cover, so the engine never builds a Profile.  The two orders:

* total_key / cmp_total is a linear well-order.  Finite-support integer
  sequences compare by their highest differing index (right to left);
  variant 1 sits below variant 2; within variant 2 the total z-count decides
  first, then u3, then u2, then u1.  total_key encodes this as a plain tuple
  read straight off the monomial's fields, so sorting, max() and bisect
  need no comparator.  It is injective: distinct monomials get distinct
  keys.  (A monomial's own tuple order is not this order.)

* pwo_leq is the Higman-style embedding order: u <= v when some strictly
  increasing index map phi puts every (y-exponent, c-slot count, d-slot
  count) row of u under the row of v at the matching index, componentwise
  with the same phi for all three columns.  Pure-y monomials only compare
  with pure-y ones, whose rows are (e, 0, 0).  The right operand carries an
  implicit infinite zero tail.  This order is a well partial order, which
  is what makes the ascending-chain machinery downstream
  (reduction.chain_demo) terminate.  It is decided in one kernel,
  embedders, which tests one monomial's embedding data
  (CanonicalMonomial._embedding) against an index of others', all built by
  the caller and kept as long as it needs them.  The index (file_key,
  key_index) is the one key layout: a dict from a bucket header (variant,
  c-slot count, d-slot count, row count) to that bucket's keys in
  ascending y-degree, so one header compared rejects a whole bucket and a
  bucket is walked only up to the target's y-degree; the header reject
  and the greedy row scan are written there and nowhere else.  Its
  witness is a plain index table (table[i] the image of index i, table[0]
  = 0), and a MonotoneInjection is built from it (from_table) only where a
  caller needs one.  The reduction loop calls it once per step, over the
  index of every generator's key; pwo_leq is its one-key case, and
  minimal_elements calls it once per item, on the item's own key.

Renaming endomorphisms act through one kernel, _lift_terms: for target =
N . phi(lm) . P it writes N . phi(t) . P for each term t of a program
compiled against lm (_compile), adding t's y-deltas against lm, pushed
through an image (a dict, or a witness table of embedders), to the
target's exponents and joining phi(t)'s slot letters to those phi(lm)
leaves over, so N is never built.  The reduction step compiles each
generator's tail once; apply_reducer and rename_monomial compile against
ONE, where the target's exponents are N's.  rename_monomial extends the
injection with covering once per call, over every index the call moves
(_monomial_need), and lifts the part of the monomial its mode moves, with
N and P empty in mode "both" and, in the one-family modes, the part the
mode keeps as N or as P's halves.
push_profile is that renaming conjugated by the profile bijection,
xi(rename_monomial(xi_inv(p))), so it covers the same indices and refuses
the same injections.
"""

from bisect import insort
from collections import namedtuple
from itertools import zip_longest

from .errors import CannotExtendError, InvalidProfileError
from .freealg import ONE, CanonicalMonomial, _monomial, _rebuild, _trim

RENAME_MODES = ("both", "y_only", "z_only")


class Profile(namedtuple("Profile", "variant u1 u2 u3")):
    """Finite-support count sequences attached to a canonical monomial.

    The constructor validates, keeping each sequence as a tuple (a list is
    read as the tuple of its items); copy, deepcopy and pickle rebuild
    through it."""

    __slots__ = ()

    def __new__(cls, variant: int, u1: tuple = (), u2: tuple = (), u3: tuple = ()):
        u1, u2, u3 = tuple(u1), tuple(u2), tuple(u3)
        if variant not in (1, 2):
            raise InvalidProfileError(f"variant must be 1 or 2, got {variant}")
        for seq in (u1, u2, u3):
            if any(e < 0 for e in seq):
                raise InvalidProfileError("profile entries must be >= 0")
            if seq and seq[-1] == 0:
                raise InvalidProfileError("trailing zeros must be trimmed")
        if variant == 1:
            if u2 or u3:
                raise InvalidProfileError("variant 1 carries only u1")
        else:
            c, d = sum(u2), sum(u3)
            if c < 1:
                raise InvalidProfileError("variant 2 needs at least one c-slot")
            if c - d not in (0, 1):
                raise InvalidProfileError("c-slot count minus d-slot count must be 0 or 1")
        return super().__new__(cls, variant, u1, u2, u3)

    __reduce__ = _rebuild


def xi(m: CanonicalMonomial) -> Profile:
    """The profile of a canonical monomial.  Bijective onto valid profiles.

    u2 and u3 are the c- and d-slot columns of m's embedding rows,
    trimmed: the rows run to m's largest index, which may be a y-index."""
    if not m.cseq:
        return Profile(1, m.yexp)
    _, cs, ds = zip(*m._embedding()[4])
    return Profile(2, m.yexp, _trim(cs), _trim(ds))


def _expand_counts(u) -> tuple[int, ...]:
    out = []
    for i, n in enumerate(u, start=1):
        out.extend([i] * n)
    return tuple(out)


def xi_inv(p: Profile) -> CanonicalMonomial:
    if p.variant == 1:
        return CanonicalMonomial(p.u1)
    return CanonicalMonomial(p.u1, _expand_counts(p.u2), _expand_counts(p.u3))


# --- the linear well-order --------------------------------------------------

def total_key(m: CanonicalMonomial) -> tuple:
    """Sort key for the linear well-order, as a plain tuple.

    On a trimmed count sequence like yexp, "highest differing index decides"
    is (length, entries read right to left).  Slot sequences are sorted and,
    at equal z-count, of equal length, so comparing them reversed is the same
    rule on their slot counts.
    """
    y, c, d = m
    yk = (len(y), y[::-1])
    if not c:
        return (1, yk)
    return (2, len(c) + len(d), d[::-1], c[::-1], yk)


def cmp_total(a: CanonicalMonomial, b: CanonicalMonomial) -> int:
    """Linear well-order on canonical monomials: -1, 0, or 1."""
    ka, kb = total_key(a), total_key(b)
    return (ka > kb) - (ka < kb)


# --- monotone injections ----------------------------------------------------

class MonotoneInjection(namedtuple("MonotoneInjection", "pairs")):
    """A strictly increasing partial map on positive indices.

    Stored as explicit (source, target) pairs sorted by source; both columns
    strictly increase.  Extension past the stored support picks the smallest
    target compatible with monotonicity, so greedily built witnesses can be
    applied to polynomials mentioning extra indices.  The constructor
    validates; copy, deepcopy and pickle rebuild through it.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple = ()):
        last_s, last_t = 0, 0
        for s, t in pairs:
            if s <= last_s or t <= last_t:
                raise ValueError("pairs must strictly increase in source and target")
            last_s, last_t = s, t
        return super().__new__(cls, pairs)

    __reduce__ = _rebuild

    @classmethod
    def from_table(cls, table) -> "MonotoneInjection":
        """The injection i -> table[i] on 1..len(table) - 1, from an index
        table whose entries strictly increase from table[0] = 0, as the
        witness tables of embedders do; so its pairs strictly increase in
        both columns by construction, and it is built without
        re-validation."""
        return tuple.__new__(cls, (tuple(enumerate(table[1:], start=1)),))

    def covering(self, indices) -> "MonotoneInjection":
        """Extend to cover every index in the collection `indices`.

        New images take the smallest value that keeps both columns strictly
        increasing; a hole whose neighbouring targets leave no room raises
        CannotExtendError.  With nothing to extend, self is returned.
        """
        need = sorted(set(indices) - {s for s, _ in self.pairs})
        if not need:
            return self
        assigned = dict(self.pairs)
        for i in need:
            lo = max((t for s, t in assigned.items() if s < i), default=0)
            hi = min((t for s, t in assigned.items() if s > i), default=None)
            # prefer the identity-like image, fall back to the smallest legal one
            cand = max(lo + 1, i)
            if hi is not None and cand >= hi:
                cand = lo + 1
            if hi is not None and cand >= hi:
                raise CannotExtendError(f"no room to extend injection at index {i}")
            assigned[i] = cand
        return MonotoneInjection(tuple(sorted(assigned.items())))

    def to_obj(self) -> list:
        return [[s, t] for s, t in self.pairs]

    def __repr__(self):
        body = ", ".join(f"{s}->{t}" for s, t in self.pairs)
        return f"MonotoneInjection({body})"


# --- the embedding order ----------------------------------------------------

def file_key(index: dict, key: tuple, pos: int) -> None:
    """File `key`, the embedding data of the monomial at position `pos`, in
    an index of embedders: under its bucket header (variant, c-slot count,
    d-slot count, row count), as (y-degree, pos, rows), kept in ascending
    y-degree.  Positions are distinct, so they break ties and rows are
    never compared."""
    variant, cslots, dslots, ydeg, rows = key
    insort(index.setdefault((variant, cslots, dslots, len(rows)), []), (ydeg, pos, rows))


def key_index(keys) -> dict:
    """The index of embedders over a list of keys, each filed at its
    position in the list."""
    index: dict = {}
    for pos, key in enumerate(keys):
        file_key(index, key, pos)
    return index


def embedders(target: tuple, index: dict) -> list[tuple[int, list[int]]]:
    """The keys filed in `index` (file_key) that embed into a monomial b,
    given b's embedding data as `target`, as (position, witness) pairs in
    ascending position; the one embedding kernel.

    Each key, and `target`, is the embedding data of some monomial
    (CanonicalMonomial._embedding: variant, c-slot count, d-slot count,
    y-degree, rows), built by the caller, so data it already keeps is not
    built again.  An embedding puts each row of a under a distinct row
    of b, so it keeps every column sum of a at or below b's, and it puts
    a's last row, which is nonzero because rows stop at a's largest index,
    at or past a's row count: past b's rows only zero rows fit, into b's
    implicit infinite zero tail, so a key with more rows than b never
    embeds.  So a bucket whose header differs in variant or exceeds b's in
    a count is rejected once for all its keys, and a bucket is walked only
    while its keys' y-degree stays at or below b's: most keys fail there,
    before any row is read.  A key that passes is scanned
    greedily: each row of a takes the leftmost row of b left unused that
    covers it entrywise, and a scan that runs out of b's rows fails, since
    a's last row is nonzero.  Greedy is complete here: any embedding can
    be pushed left row by row without breaking later choices, so failure of
    the greedy scan means no embedding exists.  The witness is an index
    table: table[i] is the row of b (counted from 1) that row i of a took,
    and table[0] is 0, so it maps 1..len(rows) of a strictly increasingly
    and indexes like the image dict of a renaming.  No MonotoneInjection
    is built; a caller that needs one converts the table with
    MonotoneInjection.from_table.  Hits are found bucket by bucket and
    sorted by position when there are two or more.
    """
    variant, cslots, dslots, ydeg, rb = target
    nb = len(rb)
    out = []
    for (av, ac, ad, an), bucket in index.items():
        if av != variant or ac > cslots or ad > dslots or an > nb:
            continue
        for ay, k, ra in bucket:
            if ay > ydeg:
                break
            pos = [0]  # the witness table; pos[i] is the row that row i of a took
            p = 0  # rows of b used up so far
            for ya, ca, da in ra:
                while p < nb:
                    yb, cb, db = rb[p]
                    p += 1
                    if ya <= yb and ca <= cb and da <= db:
                        break
                else:  # out of b's rows, with a's nonzero last row still to place
                    break
                pos.append(p)
            else:
                out.append((k, pos))
    if len(out) > 1:
        out.sort()
    return out


def pwo_leq(a: CanonicalMonomial, b: CanonicalMonomial) -> MonotoneInjection | None:
    """Embedding-order test a <=' b; returns a witness injection or None.

    The one-key case of embedders, on a's embedding data.  Monomials
    of different variants never compare.  The witness maps the indices
    1..max_index of a strictly increasingly into those of b so that each
    (y-exponent, c-slot count, d-slot count) row of a sits entrywise under
    its image row; indices of b beyond its support count as zero rows.
    Pure-y rows are (e, 0, 0), so one scan serves both variants.  The
    kernel's witness table is converted here, with from_table.
    """
    hits = embedders(b._embedding(), key_index([a._embedding()]))
    return MonotoneInjection.from_table(hits[0][1]) if hits else None


# --- renaming endomorphisms -------------------------------------------------

def _compile(lm: CanonicalMonomial, terms: dict) -> tuple:
    """The lift program of `terms` against lm, which _lift_terms runs: per
    term t, in order, (t's c-slots, t's d-slots, swap, deltas, top, t's
    coefficient).  deltas are t's y-exponents less lm's as nonzero
    (index, delta) pairs; top is the last pair's index if its delta is
    positive, else 0.  swap is whether t's z-length parity differs from
    lm's (a z-free t is even): the letters phi(lm) leaves over follow lm's
    z-block in the target and t's in the lift, so they keep their slot
    class exactly when the parities agree."""
    ly, lc, ld = lm
    odd = len(lc) != len(ld)
    out = []
    for (ty, tc, td), c in terms.items():
        d = tuple([(i, b - a) for i, (a, b)
                   in enumerate(zip_longest(ly, ty, fillvalue=0), start=1) if a != b])
        out.append((tc, td, (len(tc) != len(td)) != odd, d,
                    d[-1][0] if d and d[-1][1] > 0 else 0, c))
    return tuple(out)


def _lift_terms(prog: tuple, base: tuple, image, left_c: tuple, left_d: tuple) -> dict:
    """N . phi(t) . P for each term t of a program compiled against lm
    (_compile), as a dict in the program's order, one closed-form pass per
    term, with no check: the one code that pushes indices through an image.
    For target = N . phi(lm) . P, `base` is the target's y-exponents and
    left_c, left_d its c- and d-slot letters that phi(lm) leaves over, each
    sorted (against ONE: N's exponents and P's halves); `image`, a dict or
    a witness table (table[i] the image of i), covers lm's and the terms'
    indices.

    N.phi(t).P has sign +1 and the monomial of phi(t).(N P).  Its
    y-exponents are base plus t's deltas pushed along the image: a positive
    top delta may run past base, a negative one may empty its last index,
    which is trimmed.  Its slot classes are t's, mapped through the image
    (which keeps them sorted), each joined by one class of leftovers,
    swapped where the program says so, and sorted.  Each monomial is built
    once."""
    out: dict[CanonicalMonomial, int] = {}
    for cs, ds, swap, deltas, top, c in prog:
        if deltas:
            y = [*base]
            if top:  # a positive top delta: its index maps to the new top
                y += [0] * (image[top] - len(y))
            for i, e in deltas:
                y[image[i] - 1] += e
            while y and not y[-1]:  # a negative top delta emptied the last index
                y.pop()
            y = tuple(y)
        else:
            y = base
        if cs:
            pc, pd = (left_d, left_c) if swap else (left_c, left_d)
            cs = [image[i] for i in cs]
            ds = [image[i] for i in ds]
            if pc:
                cs = sorted([*cs, *pc])
            if pd:
                ds = sorted([*ds, *pd])
            out[_monomial((y, tuple(cs), tuple(ds)))] = c
        elif swap:
            out[_monomial((y, left_d, left_c))] = c
        else:
            out[_monomial((y, left_c, left_d))] = c
    return out


def _monomial_need(m: CanonicalMonomial, mode: str) -> set[int]:
    """Indices the renaming has to cover: those whose embedding row
    has a y-exponent (unless z_only) or a slot count (unless y_only).  One
    shared extension per operation: extending per component would let the
    u2 and u3 pushes drift apart."""
    push_y, push_z = mode != "z_only", mode != "y_only"
    return {i for i, (e, c, d) in enumerate(m._embedding()[4], start=1)
            if (push_y and e) or (push_z and (c or d))}


def push_profile(p: Profile, phi: MonotoneInjection, mode: str = "both") -> Profile:
    """The profile-side action matching rename on monomials: the renaming
    conjugated by the profile bijection, xi(rename_monomial(xi_inv(p)))."""
    return xi(rename_monomial(xi_inv(p), phi, mode))


def rename_monomial(m: CanonicalMonomial, phi: MonotoneInjection, mode: str = "both") -> CanonicalMonomial:
    """Rename letter indices along phi, extended with covering over the
    indices the mode moves (_monomial_need): the y-letters in y_only mode,
    the odd letters in z_only mode, both in mode "both".

    The moved part goes through _lift_terms; the part the mode keeps rides
    along as N (m's y-exponents, in z_only mode) or as P's halves (m's slot
    classes, in y_only mode), which the lift joins to it unrenamed: m is its
    y-part times its z-block, so this is the lift N . phi(part) . P.
    Strict monotonicity keeps slot sequences sorted and never merges
    exponents, so no sign appears."""
    if mode not in RENAME_MODES:
        raise ValueError(f"mode must be one of {RENAME_MODES}")
    image = dict(phi.covering(_monomial_need(m, mode)).pairs)
    y, c, d = m
    part, n, left_c, left_d = {"both": (m, (), (), ()),
                                   "y_only": (_monomial((y, (), ())), (), c, d),
                                   "z_only": (_monomial(((), c, d)), y, (), ())}[mode]
    (r,) = _lift_terms(_compile(ONE, {part: 1}), n, image, left_c, left_d)
    return r


# --- antichains -------------------------------------------------------------

def minimal_elements(monomials) -> list[CanonicalMonomial]:
    """The <='-minimal elements of a finite set (duplicates collapsed), in
    first-seen order: one embedders call per item over the index of every
    item's key, with the item's own key as the target, so each item's
    embedding data is built once; an item is minimal when the only item
    embedding into it is itself."""
    items = list(dict.fromkeys(monomials))
    keys = [m._embedding() for m in items]
    index = key_index(keys)
    return [m for i, m in enumerate(items) if [k for k, _ in embedders(keys[i], index)] == [i]]
