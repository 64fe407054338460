"""Symmetric covers and oversemigroups of prescribed multiplicity.

Sets are integer bitmasks over [0, F] (everything above F is a member),
so closures and mirrors are a few shifts.  A symmetric cover has a
closed form (Rosales & Branco, Pacific J. Math. 209, 2003): for m >= 3,
some symmetric U of multiplicity m contains T iff T has an odd gap
F' >= 2m - 1.  Symmetry sends the gap m - 1 of U to its member
F(U) - m + 1 >= m, so F(U) is such a gap of T.  Conversely, for F' the
largest odd gap of T, the witness is

    U = T ∪ {x in (F'/2, F'] : F' - x not in T} ∪ (F', oo).

Closed: an adjoined x and b in T with x + b <= F' sum to an adjoined
member, since F' - x - b in T would put F' - x in T.  Symmetric: exactly
one of x and F' - x lies in U.  Multiplicity m: each adjoined x is above
F'/2 >= m - 1/2.  A symmetric T is its own witness, as F' = F(T).  The
exhaustive gap-subset DFS is the oracle behind
``oversemigroups_with_multiplicity``.

The census decides the third entries of each pair (m1, m2) in one mask:
the m3 outside <m1, m2> that share no prime with gcd(m1, m2).  The
census counts its bits.  For every m1 the census cuts the mask to the
gaps of each witness family of m1 ({0} and runs linear in m1, checked by
sums of runs on every call) that has m2 as a member, a pigeonhole that
leaves exactly DELTA with the paper's families; the criterion decides
what is left.  The cover witness and the families pass one check of
symmetry, ``_is_symmetric_mask``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import DomainError, InvariantViolation, UnsupportedMultiplicity
from .semigroup import NumericalSemigroup, from_generators, profile

#: The four triples not contained in any symmetric semigroup of equal multiplicity.
DELTA: tuple[tuple[int, int, int], ...] = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9))
#: The largest census bound; the census does about bound**3 / 64 mask work.
CENSUS_MAX_BOUND = 2000


@dataclass(frozen=True)
class CoverQuery:
    """Ask whether ``base`` lies in a symmetric semigroup of multiplicity ``target_mult``."""

    base: NumericalSemigroup
    target_mult: int


@dataclass(frozen=True)
class CoverVerdict:
    """Whether a symmetric cover exists, and the witness.

    ``covered`` is the odd-gap criterion; ``witness`` is the cover built
    from the base's largest odd gap F' (see the module docstring), the
    base itself when it is symmetric.  ``search_count`` is the number of
    gaps below F' that the witness adjoins: 0 when the base is uncovered
    or itself symmetric.
    """

    covered: bool
    witness: NumericalSemigroup | None
    search_count: int


@dataclass(frozen=True)
class DeltaReport:
    """The census up to ``bound``: ``triples_examined`` embedding-dimension-3
    triples, of which ``triples_searched`` lie in no witness family (with
    the paper's families, exactly the DELTA triples within ``bound``) and
    were decided by the criterion; ``flagged`` are the uncovered ones."""

    bound: int
    flagged: tuple[tuple[int, int, int], ...]
    expected: tuple[tuple[int, int, int], ...]
    triples_examined: int
    triples_searched: int

    @property
    def matches(self) -> bool:
        return self.flagged == self.expected


def _member_mask(s: NumericalSemigroup) -> int:
    """Membership mask of s over [0, F(s)], filled class by class from the
    Apéry set in O(F); 0 for <1>, whose range is empty."""
    m, frob = s.multiplicity, s.frobenius
    bits = bytearray(b"0" * (frob + 1))  # bits[x] is "1" iff x is a member
    for a in s.apery:
        bits[a::m] = b"1" * len(range(a, frob + 1, m))
    return int(bits[::-1], 2) if bits else 0


def _iter_cover_masks(base: NumericalSemigroup) -> Iterator[int]:
    """Yield membership masks over [0, F(base)] of every oversemigroup of the
    same multiplicity, in lexicographic order of the adjoined gap subsets."""
    gaps = profile(base).gaps
    full = (1 << (base.frobenius + 1)) - 1
    base_mask = _member_mask(base)
    window = gaps[base.multiplicity - 1 :]  # the gaps below m are exactly 1..m-1

    # Preorder DFS on an explicit stack of (mask, forced, next index, end
    # index) frames.  Children adjoin window[i] for next <= i < end; a node
    # with forced positions may only adjoin gaps up to the smallest of them.
    # The base itself is closed, so the root starts with no forced positions.
    yield base_mask
    stack = [(base_mask, 0, 0, len(window))]
    while stack:
        mask, forced, i, end = stack[-1]
        if i == end:
            stack.pop()
            continue
        stack[-1] = (mask, forced, i + 1, end)
        x = window[i]
        child = mask | (1 << x)
        child_forced = (forced | (child << x)) & full & ~child
        if child_forced:
            limit = (child_forced & -child_forced).bit_length() - 1
            stack.append((child, child_forced, i + 1, bisect_right(window, limit, i + 1)))
        else:
            yield child
            stack.append((child, 0, i + 1, len(window)))


def _semigroup_from_mask(mask: int, upto: int, mult: int) -> NumericalSemigroup:
    """The semigroup of multiplicity ``mult`` with members ``mask`` in
    [0, upto].  A nonzero Apéry element w is a minimal generator unless
    w - v is a nonzero member for a nonzero Apéry element v, so the others
    are the bits of the nonzero members shifted by each such v.  With the
    shift by ``mult`` the same sums show the mask closed under addition
    (each member is its class's Apéry element plus a multiple of
    ``mult``); InvariantViolation if one is missing."""
    bits = format(mask, "b")[::-1]  # bits[x] == "1" iff x <= upto is a member
    apery = []
    for r in range(mult):
        k = bits[r::mult].find("1")
        apery.append(r + k * mult if k >= 0 else upto + 1 + (r - upto - 1) % mult)
    reach = max(*apery, upto)
    nonzero = (mask | -(1 << (upto + 1))) & ((2 << reach) - 2)  # the members in [1, reach]
    sums = (nonzero | 1) << mult
    for v in apery:
        if v:
            sums |= nonzero << v
    missing = sums & ~mask & ((1 << (upto + 1)) - 1)
    if missing:
        x = (missing & -missing).bit_length() - 1
        raise InvariantViolation(f"members up to {upto} are not closed: {x} is a missing sum")
    gens = [w for w in sorted(apery) if w and not sums >> w & 1]
    return NumericalSemigroup((mult, *gens), tuple(apery))


def _require_multiplicity(s: NumericalSemigroup, m: int) -> None:
    if m != s.multiplicity:
        raise UnsupportedMultiplicity(
            f"requested multiplicity {m}, but {s} has multiplicity {s.multiplicity}"
        )


def oversemigroups_with_multiplicity(
    s: NumericalSemigroup, m: int
) -> list[NumericalSemigroup]:
    """Every semigroup containing s with multiplicity m, s first, by the
    exhaustive search.  Only m = multiplicity(s) is supported; anything else
    raises UnsupportedMultiplicity."""
    _require_multiplicity(s, m)
    return [_semigroup_from_mask(mask, s.frobenius, m) for mask in _iter_cover_masks(s)]


def _largest_odd_gap(s: NumericalSemigroup) -> int:
    """The largest odd gap of s, or -1 if it has none.  Class r holds the
    gaps r, r + m, ..., apery[r] - m: for m odd one of its last two gaps is
    odd, and for m even only the odd classes hold odd gaps."""
    m, apery = s.multiplicity, s.apery
    if m % 2:
        return max(-1, *(a - m if (a - m) % 2 else a - 2 * m for a in apery))
    return max(-1, *(a - m for a in apery[1::2]))


def has_symmetric_cover(s: NumericalSemigroup) -> bool:
    """Whether a symmetric semigroup of multiplicity m(s) contains s: for
    m >= 3, iff s has an odd gap F' >= 2m - 1.  O(m) on the Apéry set."""
    m = s.multiplicity
    return m < 3 or _largest_odd_gap(s) >= 2 * m - 1


def _adjoin(mask: int, x: int, full: int) -> int:
    """<S, x> for the semigroup S with members ``mask``: the union of the
    kx + S, with strides x, 2x, 4x, ..."""
    while x < full.bit_length():
        mask |= (mask << x) & full
        x <<= 1
    return mask


def _cover_mask(low: int, f: int) -> int:
    """Members over [0, f] of T ∪ {x in (f/2, f] : f - x not in T}, for the
    members ``low`` of T over [0, f]."""
    mirror = int(format(low, f"0{f + 1}b")[::-1], 2)  # bit x iff f - x is a member
    return low | ((1 << (f + 1)) - (1 << (f // 2 + 1))) & ~mirror


def symmetric_cover(q: CoverQuery) -> CoverVerdict:
    """Decide by the odd-gap criterion whether a symmetric semigroup of
    multiplicity ``target_mult`` contains the base, and build the witness
    from the base's largest odd gap F': the base, each x in (F'/2, F'] with
    F' - x not in the base, and everything above F'.  The module docstring
    proves it closed, symmetric and of multiplicity m; each is checked
    before it is returned, with InvariantViolation if it fails."""
    base = q.base
    _require_multiplicity(base, q.target_mult)
    if not has_symmetric_cover(base):
        return CoverVerdict(False, None, 0)
    m, f = base.multiplicity, _largest_odd_gap(base)
    if f < 0:  # N = <1> has no odd gap and is its own witness
        return CoverVerdict(True, base, 0)
    low = _member_mask(base) & ((1 << (f + 1)) - 1)
    mask = _cover_mask(low, f)
    witness = _semigroup_from_mask(mask, f, m)  # checks the closure
    if low & ~mask or not _is_symmetric_mask(mask, m, f):  # above the base, and symmetric
        raise InvariantViolation(f"{witness} is no symmetric cover of {base} of multiplicity {m}")
    return CoverVerdict(True, witness, (mask & ~low).bit_count())


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _third_entries(m1: int, bound: int) -> Iterator[tuple[int, int]]:
    """For each m2 in (m1, bound) that m1 does not divide, m2 and the mask of
    the m3 in (m2, bound] that complete the embedding-dimension-3 triples
    with gcd 1: m3 outside <m1, m2> and sharing no prime with
    d = gcd(m1, m2).  <m1, m2> is m2 adjoined to the multiples of m1,
    and the numbers sharing a prime with d are the multiples of the
    divisors > 1 of d, which are the divisors of m1 that divide m2."""
    full = (2 << bound) - 1
    divisors = [(q, _adjoin(1, q, full)) for q in range(2, m1 + 1) if m1 % q == 0]
    multiples = divisors[-1][1]  # of q = m1
    for m2 in range(m1 + 1, bound):
        if m2 % m1:
            taken = _adjoin(multiples, m2, full)
            for q, mask in divisors:
                if m2 % q == 0:
                    taken |= mask
            yield m2, (full ^ taken) >> (m2 + 1) << (m2 + 1)


def verify_delta(bound: int, jobs: int = 1) -> DeltaReport:
    """Flag every embedding-dimension-3 triple within ``bound`` that has no
    symmetric cover, and compare against the known four.

    The triples are counted off each pair's third-entry mask, not listed.
    A witness family of m1 that has m2 as a member contains the triple
    unless m3 is one of its gaps, so the mask is cut to the gaps of every
    such family (its runs are checked on each call); the bits left, the
    DELTA triples, go to the odd-gap criterion.  ``jobs`` is accepted and
    ignored: the census runs in one process, up to CENSUS_MAX_BOUND.
    """
    if bound < 3:
        raise DomainError(f"bound must be at least 3, got {bound}")
    if bound > CENSUS_MAX_BOUND:
        raise DomainError(f"bound must be at most {CENSUS_MAX_BOUND}, got {bound}")
    examined = searched = 0
    flagged = []
    for m1 in range(3, bound - 1):
        family_gaps = [(2 << frob) - 1 ^ mask for mask, frob in _family_masks(m1)]
        for m2, third in _third_entries(m1, bound):
            examined += third.bit_count()
            for gaps in family_gaps:
                if not gaps >> m2 & 1:  # a member, as is everything above the family's F
                    third &= gaps
            for m3 in _bits(third):
                searched += 1
                if not has_symmetric_cover(from_generators((m1, m2, m3))):
                    flagged.append((m1, m2, m3))
    expected = tuple(t for t in DELTA if t[2] <= bound)
    return DeltaReport(bound, tuple(flagged), expected, examined, searched)


def _is_symmetric_mask(mask: int, m: int, frob: int) -> bool:
    """Whether the closed set with members ``mask`` over [0, frob] and all
    above frob is symmetric of multiplicity m and Frobenius number frob:
    its members up to m are {0, m}, frob is a gap and (frob + 1) / 2
    members lie below it.  Needs frob >= 0."""
    low = (mask | -(2 << frob)) & (2 << m) - 1  # the members up to m
    return low == 1 | 1 << m and not mask >> frob & 1 and 2 * mask.bit_count() == frob + 1


def _symmetric_mask(runs: list[tuple[int, int]], m1: int, frob: int) -> int:
    """Membership mask over [0, frob] of the runs [a, b] in ``runs`` and all
    above frob.  Raises InvariantViolation unless the set is closed (two
    runs sum to the run [a + c, b + d], so the check is exact) and is
    symmetric of multiplicity m1 and Frobenius number frob."""
    mask = sums = 0
    for a, b in runs:
        mask |= (2 << b) - (1 << a) & (2 << frob) - 1
    for (a, b), (c, d) in combinations_with_replacement(runs, 2):
        if a + c <= frob:
            sums |= (2 << min(b + d, frob)) - (1 << a + c)
    if sums & ~mask or not _is_symmetric_mask(mask, m1, frob):
        raise InvariantViolation(f"runs {runs} are not symmetric of multiplicity {m1}, F = {frob}")
    return mask


def _family_masks(m1: int) -> list[tuple[int, int]]:
    """Membership mask over [0, F] and Frobenius number F of each witness
    family of m1 >= 3: {0} and runs linear in m1, checked on every call by
    ``_symmetric_mask``.  All four for m1 >= 4, the first two for m1 = 3,
    where the last two formulas are not closed (3 + 3 = 6 is missing)."""
    families = [
        ([(0, 0), (m1, 2 * m1 - 2)], 2 * m1 - 1),
        ([(0, 0), (m1, m1), (m1 + 2, 2 * m1)], 2 * m1 + 1),
        ([(0, 0), (m1, m1), (2 * m1 - 1, 3 * m1 - 4), (3 * m1 - 2, 4 * m1 - 4)], 4 * m1 - 3),
        ([(0, 0), (m1, m1 + 1), (m1 + 4, 2 * m1 + 2)], 2 * m1 + 3),
    ]
    return [(_symmetric_mask(runs, m1, f), f) for runs, f in families[: 2 if m1 == 3 else 4]]


def witness_families(m1: int) -> list[NumericalSemigroup]:
    """The four symmetric families of multiplicity m1 >= 5, one of which
    contains each embedding-dimension-3 triple of that multiplicity: runs,
    not generators, checked by run sums to be symmetric with Frobenius
    number 2*m1 - 1, 2*m1 + 1, 4*m1 - 3 and 2*m1 + 3.  The census cuts by
    the same runs down to m1 = 3, where they leave DELTA."""
    if m1 < 5:
        raise DomainError(f"witness families are defined for multiplicity >= 5, got {m1}")
    return [_semigroup_from_mask(mask, frob, m1) for mask, frob in _family_masks(m1)]
