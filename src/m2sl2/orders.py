"""Profiles and the two orders that drive the reduction engine.

A canonical monomial maps to a profile (xi): pure-y monomials give a
variant-1 profile (just the exponent sequence u1), monomials with odd letters
give a variant-2 profile (u1 plus the two slot-count sequences u2 and u3 for
the c- and d-slots).  Profiles, xi, xi_inv and push_profile are the paper's
profile map; the orders below read the same counts straight off the monomial,
so the engine never builds a Profile.  The two orders:

* total_key / cmp_total is a linear well-order.  Finite-support integer
  sequences compare by their highest differing index (right to left);
  variant 1 sits below variant 2; within variant 2 the total z-count decides
  first, then u3, then u2, then u1.  total_key encodes this as a plain tuple
  read straight off the monomial, so sorting and max() need no comparator;
  neg_total_key negates it, so a heapq min-heap pops the largest first.

* pwo_leq is the Higman-style embedding order: u <= v when some strictly
  increasing index map phi puts every (y-exponent, c-slot count, d-slot
  count) row of u under the row of v at the matching index, componentwise
  with the same phi for all three columns.  Pure-y monomials only compare
  with pure-y ones, whose rows are (e, 0, 0).  The right operand carries an
  implicit infinite zero tail.  The rows and column sums come from the
  embedding data each monomial builds once (CanonicalMonomial._embedding).
  This order is a well partial order, which is what makes the
  ascending-chain machinery downstream (reduction.chain_demo) terminate.

Renaming endomorphisms act through one kernel.  rename_monomial and
push_profile each extend the injection with covering once per call, over
every index the call touches, read the extension as a dict, and push counts
and slot indices through it (_push_counts, _rename).  The reduction step
calls the kernel itself: factorize_embedding renames through the witness's
pairs with no extension, and apply_reducer extends once over the generator's
kept index support, then adds N's y-exponents and P's letters.
"""

from dataclasses import dataclass

from .errors import CannotExtendError, InvalidProfileError
from .freealg import CanonicalMonomial

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

    def to_obj(self) -> dict:
        return {"v": self.variant, "u1": list(self.u1), "u2": list(self.u2), "u3": list(self.u3)}


def _counts(seq) -> tuple[int, ...]:
    if not seq:
        return ()
    out = [0] * max(seq)
    for i in seq:
        out[i - 1] += 1
    return tuple(out)


def xi(m: CanonicalMonomial) -> Profile:
    """The profile of a canonical monomial.  Bijective onto valid profiles."""
    if not m.cseq:
        return Profile(1, m.yexp)
    return Profile(2, m.yexp, _counts(m.cseq), _counts(m.dseq))


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


def neg_total_key(m: CanonicalMonomial) -> tuple:
    """total_key with every integer negated, so it sorts in reverse order.

    heapq is a min-heap; keyed by this, it pops the largest monomial first.
    Negation reverses every comparison because no comparison of two keys of
    distinct monomials reaches a prefix case: each sequence in the key comes
    after the component that fixes its length (len(yexp), and the z-count
    for cseq and dseq).
    """
    y = (-len(m.yexp), tuple([-e for e in m.yexp[::-1]]))
    if not m.cseq:
        return (-1, y)
    return (-2, -len(m.cseq) - len(m.dseq), tuple([-i for i in m.dseq[::-1]]),
            tuple([-i for i in m.cseq[::-1]]), y)


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

    def covering(self, indices) -> "MonotoneInjection":
        """Extend to cover every index in `indices`.

        New images take the smallest value that keeps both columns strictly
        increasing; a hole whose neighbouring targets leave no room raises
        CannotExtendError.
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

def pwo_leq(a: CanonicalMonomial, b: CanonicalMonomial) -> MonotoneInjection | None:
    """Embedding-order test a <=' b; returns a witness injection or None.

    Monomials of different variants never compare.  The witness maps the
    indices 1..max_index of a strictly increasingly into those of b so that
    each (y-exponent, c-slot count, d-slot count) row of a sits entrywise
    under its image row; indices of b beyond its support count as zero rows.
    Pure-y rows are (e, 0, 0), so one scan serves both variants.  Both
    operands' counts and rows come from their cached embedding data.
    """
    ea = a._emb or a._embedding()
    eb = b._emb or b._embedding()
    if _rejects(ea, eb):
        return None
    return _scan(ea[4], eb[4])


def _rejects(ea: tuple, eb: tuple) -> bool:
    """The variants differ or a column sum of a's rows exceeds b's, so a
    cannot embed into b (ea, eb: CanonicalMonomial._embedding data).

    An embedding puts each row of a under a distinct row of b, so it keeps
    every column sum of a at or below b's: the c- and d-slot counts and the
    y-degree.  Most pairs fail here, before any row is scanned.
    """
    return ea[0] != eb[0] or ea[1] > eb[1] or ea[2] > eb[2] or ea[3] > eb[3]


def _scan(ra: tuple, rb: tuple) -> MonotoneInjection | None:
    """Greedy leftmost embedding of the rows ra into the rows rb, followed by
    an infinite zero tail; the witness injection or None.

    Greedy is complete here: any embedding can be pushed left row by row
    without breaking later choices, so failure of the greedy scan means no
    embedding exists.
    """
    nb = len(rb)
    pos: list[int] = []
    p = 0  # rows of rb (and of its zero tail) used up so far
    for ya, ca, da in ra:
        while p < nb:
            yb, cb, db = rb[p]
            p += 1
            if ya <= yb and ca <= cb and da <= db:
                break
        else:
            if ya or ca or da:  # only zero rows fit into the tail
                return None
            p += 1
        pos.append(p)
    return MonotoneInjection(tuple(enumerate(pos, start=1)))


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


def _nonzero_positions(u):
    return [i for i, e in enumerate(u, start=1) if e]


def _check_mode(mode: str) -> None:
    if mode not in RENAME_MODES:
        raise ValueError(f"mode must be one of {RENAME_MODES}")


def _monomial_need(m: CanonicalMonomial, mode: str) -> set[int]:
    """Indices the renaming has to cover.  One shared extension per operation:
    extending per component would let the u2 and u3 pushes drift apart."""
    need: set[int] = set()
    if mode != "z_only":
        need.update(_nonzero_positions(m.yexp))
    if mode != "y_only":
        need.update(m.cseq)
        need.update(m.dseq)
    return need


def push_profile(p: Profile, phi: MonotoneInjection, mode: str = "both") -> Profile:
    """The profile-side action matching rename on monomials."""
    _check_mode(mode)
    push_y, push_z = mode != "z_only", mode != "y_only"  # u2, u3 are empty in variant 1
    need: set[int] = set(_nonzero_positions(p.u1)) if push_y else set()
    if push_z:
        need.update(_nonzero_positions(p.u2))
        need.update(_nonzero_positions(p.u3))
    image = dict(phi.covering(need).pairs)
    u1, u2, u3 = p.u1, p.u2, p.u3
    if push_y:
        u1 = _push_counts(u1, image)
    if push_z:
        u2, u3 = _push_counts(u2, image), _push_counts(u3, image)
    return Profile(p.variant, u1, u2, u3)


def rename_monomial(m: CanonicalMonomial, phi: MonotoneInjection, mode: str = "both") -> CanonicalMonomial:
    """Rename letter indices along phi, extended over m's indices."""
    _check_mode(mode)
    image = dict(phi.covering(_monomial_need(m, mode)).pairs)
    return CanonicalMonomial._trusted(*_rename(m, image, mode))


# --- antichains -------------------------------------------------------------

def minimal_elements(monomials) -> list[CanonicalMonomial]:
    """The <='-minimal elements of a finite set (duplicates collapsed)."""
    items = list(dict.fromkeys(monomials))
    out = []
    for m in items:
        if not any(other != m and pwo_leq(other, m) is not None for other in items):
            out.append(m)
    return out
