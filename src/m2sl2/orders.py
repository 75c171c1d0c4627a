"""Profiles and the two orders that drive the reduction engine.

A canonical monomial maps to a profile (xi): pure-y monomials give a
variant-1 profile (just the exponent sequence u1), monomials with odd letters
give a variant-2 profile (u1 plus the two slot-count sequences u2 and u3 for
the c- and d-slots).  Profiles, xi, xi_inv and push_profile are the paper's
profile map.  The per-index counts have one source, the rows of the
monomial's cached embedding data (CanonicalMonomial._embedding): xi reads
its u2 and u3 there, and so do the embedding kernel and the renaming's
index cover, so the engine never builds a Profile.  The two orders:

* total_key / cmp_total is a linear well-order.  Finite-support integer
  sequences compare by their highest differing index (right to left);
  variant 1 sits below variant 2; within variant 2 the total z-count decides
  first, then u3, then u2, then u1.  total_key encodes this as a plain tuple
  read straight off the monomial, so sorting, max() and bisect need no
  comparator.  It is injective: distinct monomials get distinct keys.

* pwo_leq is the Higman-style embedding order: u <= v when some strictly
  increasing index map phi puts every (y-exponent, c-slot count, d-slot
  count) row of u under the row of v at the matching index, componentwise
  with the same phi for all three columns.  Pure-y monomials only compare
  with pure-y ones, whose rows are (e, 0, 0).  The right operand carries an
  implicit infinite zero tail.  This order is a well partial order, which
  is what makes the ascending-chain machinery downstream
  (reduction.chain_demo) terminate.  It is decided in one kernel,
  embedders, which tests one monomial against a list of embedding data
  (CanonicalMonomial._embedding, built once per monomial): the column-sum
  reject and the greedy row scan are written there and nowhere else.  The
  reduction loop calls it once per step, over the kept data of every
  generator; pwo_leq is its one-key case, and minimal_elements calls it
  once per item.

Renaming endomorphisms act through one kernel.  rename_monomial extends
the injection with covering once per call, over every index the call
touches (_monomial_need), reads the extension as a dict, and pushes the
y-exponents and slot indices through it (_push_counts, _rename).
push_profile is that renaming conjugated by the profile bijection,
xi(rename_monomial(xi_inv(p))), so it covers the same indices and refuses
the same injections.  The reduction step (reduction._lift, traced or not)
calls the kernel itself: it reads N and P through the witness's pairs with
no extension, extends once over the generator's kept index support, then
renames each tail term and adds N's y-exponents and P's letters.  The
public factorize_embedding and apply_reducer call it the same way.
"""

from dataclasses import dataclass

from .errors import CannotExtendError, InvalidProfileError
from .freealg import CanonicalMonomial, _new, _set, _trim

RENAME_MODES = ("both", "y_only", "z_only")


@dataclass(frozen=True)
class Profile:
    """Finite-support count sequences attached to a canonical monomial."""

    variant: int
    u1: tuple[int, ...] = ()
    u2: tuple[int, ...] = ()
    u3: tuple[int, ...] = ()

    def __post_init__(self):
        if self.variant not in (1, 2):
            raise InvalidProfileError(f"variant must be 1 or 2, got {self.variant}")
        for seq in (self.u1, self.u2, self.u3):
            if any(e < 0 for e in seq):
                raise InvalidProfileError("profile entries must be >= 0")
            if seq and seq[-1] == 0:
                raise InvalidProfileError("trailing zeros must be trimmed")
        if self.variant == 1:
            if self.u2 or self.u3:
                raise InvalidProfileError("variant 1 carries only u1")
        else:
            c, d = sum(self.u2), sum(self.u3)
            if c < 1:
                raise InvalidProfileError("variant 2 needs at least one c-slot")
            if c - d not in (0, 1):
                raise InvalidProfileError("c-slot count minus d-slot count must be 0 or 1")


def xi(m: CanonicalMonomial) -> Profile:
    """The profile of a canonical monomial.  Bijective onto valid profiles.

    u2 and u3 are the c- and d-slot columns of m's cached embedding rows,
    trimmed: the rows run to m's largest index, which may be a y-index."""
    if not m.cseq:
        return Profile(1, m.yexp)
    _, cs, ds = zip(*(m._emb or m._embedding())[4])
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
    y = (len(m.yexp), m.yexp[::-1])
    if not m.cseq:
        return (1, y)
    return (2, len(m.cseq) + len(m.dseq), m.dseq[::-1], m.cseq[::-1], y)


def cmp_total(a: CanonicalMonomial, b: CanonicalMonomial) -> int:
    """Linear well-order on canonical monomials: -1, 0, or 1."""
    ka, kb = total_key(a), total_key(b)
    return (ka > kb) - (ka < kb)


# --- monotone injections ----------------------------------------------------

@dataclass(frozen=True)
class MonotoneInjection:
    """A strictly increasing partial map on positive indices.

    Stored as explicit (source, target) pairs sorted by source; both columns
    strictly increase.  Extension past the stored support picks the smallest
    target compatible with monotonicity, so greedily built witnesses can be
    applied to polynomials mentioning extra indices.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last_s, last_t = 0, 0
        for s, t in self.pairs:
            if s <= last_s or t <= last_t:
                raise ValueError("pairs must strictly increase in source and target")
            last_s, last_t = s, t

    @classmethod
    def _trusted(cls, pairs: tuple) -> "MonotoneInjection":
        """Build without re-validation, for pairs that strictly increase in
        both columns by construction (the witnesses of embedders)."""
        phi = _new(cls)
        _set(phi, "pairs", pairs)
        return phi

    def covering(self, indices) -> "MonotoneInjection":
        """Extend to cover every index in the collection `indices`.

        New images take the smallest value that keeps both columns strictly
        increasing; a hole whose neighbouring targets leave no room raises
        CannotExtendError.  When the sources are exactly 1..n and every
        index lies in 1..n, as for a pwo_leq witness and the indices of the
        monomial it was found for, there is nothing to extend, and self is
        returned before any set is built.
        """
        if (self.pairs and self.pairs[-1][0] == len(self.pairs) and indices
                and min(indices) > 0 and max(indices) <= len(self.pairs)):
            return self  # positive, strictly increasing sources ending at n are 1..n
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

def embedders(b: CanonicalMonomial, keys) -> list[tuple[int, MonotoneInjection]]:
    """The keys that embed into b, as (position in keys, witness) pairs in
    ascending position; the one embedding kernel.

    Each key is the embedding data of some monomial a
    (CanonicalMonomial._embedding: variant, c-slot count, d-slot count,
    y-degree, rows).  An embedding puts each row of a under a distinct row
    of b, so it keeps every column sum of a at or below b's: a key whose
    variant differs or one of whose sums exceeds b's is rejected before any
    row is read, and most keys fail there.  A key that passes is scanned
    greedily: each row of a takes the leftmost row of b left unused that
    covers it entrywise, and past b's rows only a zero row fits, into b's
    implicit infinite zero tail.  Greedy is complete here: any embedding can
    be pushed left row by row without breaking later choices, so failure of
    the greedy scan means no embedding exists.  The witness maps 1..len(rows)
    of a to the rows taken; its targets strictly increase by construction,
    so it is built without re-validation.
    """
    variant, cslots, dslots, ydeg, rb = b._emb or b._embedding()
    nb = len(rb)
    out = []
    for k, (av, ac, ad, ay, ra) in enumerate(keys):
        if av != variant or ac > cslots or ad > dslots or ay > ydeg:
            continue
        pos: list[int] = []
        p = 0  # rows of b (and of its zero tail) used up so far
        for ya, ca, da in ra:
            while p < nb:
                yb, cb, db = rb[p]
                p += 1
                if ya <= yb and ca <= cb and da <= db:
                    break
            else:
                if ya or ca or da:  # only zero rows fit into the tail
                    break
                p += 1
            pos.append(p)
        else:
            out.append((k, MonotoneInjection._trusted(tuple(enumerate(pos, start=1)))))
    return out


def pwo_leq(a: CanonicalMonomial, b: CanonicalMonomial) -> MonotoneInjection | None:
    """Embedding-order test a <=' b; returns a witness injection or None.

    The one-key case of embedders, on a's cached embedding data.  Monomials
    of different variants never compare.  The witness maps the indices
    1..max_index of a strictly increasingly into those of b so that each
    (y-exponent, c-slot count, d-slot count) row of a sits entrywise under
    its image row; indices of b beyond its support count as zero rows.
    Pure-y rows are (e, 0, 0), so one scan serves both variants.
    """
    hits = embedders(b, [a._emb or a._embedding()])
    return hits[0][1] if hits else None


# --- renaming endomorphisms -------------------------------------------------

def _push_counts(u, image: dict[int, int]) -> tuple[int, ...]:
    """Push a trimmed count sequence along the image dict: result[image[i]] = u[i]."""
    if not u:
        return ()
    out = [0] * image[len(u)]  # u ends on a nonzero entry, whose image is the top
    for i, e in enumerate(u, start=1):
        if e:
            out[image[i] - 1] = e
    return tuple(out)


def _rename(m: CanonicalMonomial, image: dict[int, int], mode: str) -> tuple:
    """m's (yexp, cseq, dseq) with the letter indices renamed through an
    image dict covering them; a missing index raises KeyError.

    Strict monotonicity keeps slot sequences sorted and never merges
    exponents, so the three tuples are canonical and no sign appears."""
    yexp, cseq, dseq = m.yexp, m.cseq, m.dseq
    if mode != "z_only":
        yexp = _push_counts(yexp, image)
    if mode != "y_only":
        cseq = tuple([image[i] for i in cseq])
        dseq = tuple([image[i] for i in dseq])
    return yexp, cseq, dseq


def _monomial_need(m: CanonicalMonomial, mode: str) -> set[int]:
    """Indices the renaming has to cover: those whose cached embedding row
    has a y-exponent (unless z_only) or a slot count (unless y_only).  One
    shared extension per operation: extending per component would let the
    u2 and u3 pushes drift apart."""
    push_y, push_z = mode != "z_only", mode != "y_only"
    return {i for i, (e, c, d) in enumerate((m._emb or m._embedding())[4], start=1)
            if (push_y and e) or (push_z and (c or d))}


def push_profile(p: Profile, phi: MonotoneInjection, mode: str = "both") -> Profile:
    """The profile-side action matching rename on monomials: the renaming
    conjugated by the profile bijection, xi(rename_monomial(xi_inv(p)))."""
    return xi(rename_monomial(xi_inv(p), phi, mode))


def rename_monomial(m: CanonicalMonomial, phi: MonotoneInjection, mode: str = "both") -> CanonicalMonomial:
    """Rename letter indices along phi, extended over m's indices."""
    if mode not in RENAME_MODES:
        raise ValueError(f"mode must be one of {RENAME_MODES}")
    image = dict(phi.covering(_monomial_need(m, mode)).pairs)
    return CanonicalMonomial._trusted(*_rename(m, image, mode))


# --- antichains -------------------------------------------------------------

def minimal_elements(monomials) -> list[CanonicalMonomial]:
    """The <='-minimal elements of a finite set (duplicates collapsed), in
    first-seen order: one embedders call per item, which is minimal when
    the only item embedding into it is itself."""
    items = list(dict.fromkeys(monomials))
    keys = [m._emb or m._embedding() for m in items]
    return [m for i, m in enumerate(items) if [k for k, _ in embedders(m, keys)] == [i]]
