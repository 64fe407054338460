"""Search for oversemigroups of prescribed multiplicity and symmetric covers.

Given a base semigroup T of multiplicity m, every oversemigroup U of the
same multiplicity is T plus some subset of the gaps of T lying in
[m, F(T)], subject to additive closure.  Candidate sets are carried as
integer bitmasks over [0, F(T)] (everything above F(T) is a member), so
closure checks are a handful of shifts on arbitrary-precision ints.

The search is a depth-first walk adjoining gaps in increasing order.  At
each node the set of *forced* positions (sums of two nonzero members that
are not themselves members) is maintained incrementally; a branch that has
skipped past its smallest forced position can never close up and is
pruned.  Leaves with no forced positions are exactly the oversemigroups of
multiplicity m, visited in lexicographic order of the adjoined gap list.

The census certifies first and searches second.  A triple with m1 >= 5
that lies in one of the four symmetric families of ``witness_families``
(the paper's constructive proof) is covered, by exact membership; only
the remaining triples, m1 in {3, 4} and any triple no family contains, go
through the search.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from math import gcd
from typing import Iterator

from .errors import DomainError, InvariantViolation, UnsupportedMultiplicity
from .semigroup import NumericalSemigroup, from_generators, is_symmetric, profile

#: The four triples not contained in any symmetric semigroup of equal multiplicity.
DELTA: tuple[tuple[int, int, int], ...] = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9))


@dataclass(frozen=True)
class CoverQuery:
    """Ask whether ``base`` lies in a symmetric semigroup of multiplicity ``target_mult``."""

    base: NumericalSemigroup
    target_mult: int


@dataclass(frozen=True)
class CoverVerdict:
    """Outcome of a symmetric cover search.

    ``search_count`` is the witness's 1-based rank in the search order of
    ``oversemigroups_with_multiplicity(base, m)``; when the base is
    uncovered, it is the number of such oversemigroups.
    """

    covered: bool
    witness: NumericalSemigroup | None
    search_count: int


@dataclass(frozen=True)
class DeltaReport:
    bound: int
    flagged: tuple[tuple[int, int, int], ...]
    expected: tuple[tuple[int, int, int], ...]
    triples_examined: int
    triples_searched: int

    @property
    def matches(self) -> bool:
        return self.flagged == self.expected


def _iter_cover_masks(base: NumericalSemigroup) -> Iterator[int]:
    """Yield membership masks over [0, F(base)] of every oversemigroup of the
    same multiplicity, in lexicographic order of the adjoined gap subsets."""
    gaps = profile(base).gaps
    full = (1 << (base.frobenius + 1)) - 1
    base_mask = full ^ sum(1 << x for x in gaps)
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


def _mask_frobenius(mask: int, upto: int) -> int:
    inverted = ~mask & ((1 << (upto + 1)) - 1)
    return inverted.bit_length() - 1 if inverted else -1


def _mask_is_symmetric(mask: int, upto: int) -> bool:
    frob = _mask_frobenius(mask, upto)
    if frob < 0:
        return True
    genus = frob + 1 - (mask & ((1 << (frob + 1)) - 1)).bit_count()
    return 2 * genus == frob + 1


def _semigroup_from_mask(mask: int, upto: int, mult: int) -> NumericalSemigroup:
    gens = [x for x in range(mult, upto + 1) if mask >> x & 1]
    gens.extend(range(upto + 1, upto + mult + 1))
    return from_generators(gens)


def _require_multiplicity(s: NumericalSemigroup, m: int) -> None:
    if m != s.multiplicity:
        raise UnsupportedMultiplicity(
            f"requested multiplicity {m}, but {s} has multiplicity {s.multiplicity}"
        )


def oversemigroups_with_multiplicity(
    s: NumericalSemigroup, m: int
) -> list[NumericalSemigroup]:
    """The complete finite list of semigroups U containing s with
    multiplicity(U) = m, including s itself.

    Only m = multiplicity(s) is supported; anything else raises
    UnsupportedMultiplicity.
    """
    _require_multiplicity(s, m)
    if s.frobenius < 0:
        return [s]
    frob = s.frobenius
    return [_semigroup_from_mask(mask, frob, m) for mask in _iter_cover_masks(s)]


def symmetric_cover(q: CoverQuery) -> CoverVerdict:
    """Decide whether some symmetric semigroup of multiplicity ``target_mult``
    contains the base; stops at the first witness found by the ordered search."""
    base = q.base
    _require_multiplicity(base, q.target_mult)
    if base.frobenius < 0:
        return CoverVerdict(True, base, 1)
    frob = base.frobenius
    count = 0
    for mask in _iter_cover_masks(base):
        count += 1
        if _mask_is_symmetric(mask, frob):
            return CoverVerdict(True, _semigroup_from_mask(mask, frob, base.multiplicity), count)
    return CoverVerdict(False, None, count)


def candidate_triples(bound: int) -> list[tuple[int, int, int]]:
    """Triples 3 <= m1 < m2 < m3 <= bound with gcd 1 and embedding dimension
    exactly 3 (m2 not a multiple of m1, m3 outside <m1, m2>).

    When gcd(m1, m2) = 1, the least member of <m1, m2> congruent to m3 mod
    m1 is k*m2 with k = m3 * m2^-1 mod m1, an O(1) test.  Otherwise every
    m3 coprime to gcd(m1, m2) lies outside <m1, m2>."""
    out = []
    for m1 in range(3, bound - 1):
        for m2 in range(m1 + 1, bound):
            if m2 % m1 == 0:
                continue
            m3s = range(m2 + 1, bound + 1)
            d = gcd(m1, m2)
            if d > 1:
                out.extend((m1, m2, m3) for m3 in m3s if gcd(d, m3) == 1)
            else:
                inv = pow(m2, -1, m1)
                out.extend((m1, m2, m3) for m3 in m3s if m3 * inv % m1 * m2 > m3)
    return out


def _triple_is_uncovered(triple: tuple[int, int, int]) -> bool:
    base = from_generators(triple)
    frob = base.frobenius
    return not any(_mask_is_symmetric(mask, frob) for mask in _iter_cover_masks(base))


def _uncertified(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The triples, sorted by m1, that no witness family of their multiplicity
    contains; every triple with m1 < 5 is kept.  Each m1's families are
    built once."""
    out = []
    for m1, group in groupby(triples, key=lambda t: t[0]):
        families = witness_families(m1) if m1 >= 5 else []
        out.extend(t for t in group if not any(t[1] in s and t[2] in s for s in families))
    return out


def verify_delta(bound: int, jobs: int = 1) -> DeltaReport:
    """Flag every embedding-dimension-3 triple within ``bound`` that has no
    symmetric cover, and compare against the known four.

    A triple that a witness family contains is covered by that family; every
    other triple is decided by the exhaustive cover search.  ``jobs`` > 1
    runs those searches in a process pool; each triple is independent and
    the flagged list is sorted, so results do not depend on scheduling.
    """
    if bound < 3:
        raise DomainError(f"bound must be at least 3, got {bound}")
    triples = candidate_triples(bound)
    searched = _uncertified(triples)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            uncovered = list(pool.map(_triple_is_uncovered, searched, chunksize=16))
    else:
        uncovered = list(map(_triple_is_uncovered, searched))
    flagged = [t for t, bad in zip(searched, uncovered) if bad]
    expected = tuple(t for t in DELTA if t[2] <= bound)
    return DeltaReport(bound, tuple(sorted(flagged)), expected, len(triples), len(searched))


def witness_families(m1: int) -> list[NumericalSemigroup]:
    """The four symmetric families covering every uncontained triple of
    multiplicity m1 >= 5, each checked symmetric with its stated Frobenius
    number (2*m1 - 1, 2*m1 + 1, 4*m1 - 3, 2*m1 + 3) before being returned."""
    if m1 < 5:
        raise DomainError(f"witness families are defined for multiplicity >= 5, got {m1}")
    families: list[tuple[list[int], int]] = [
        (list(range(m1, 2 * m1 - 1)), 2 * m1 - 1),
        ([m1, *range(m1 + 2, 2 * m1)], 2 * m1 + 1),
        ([m1, 2 * m1 - 1, *range(2 * m1 + 1, 3 * m1 - 3), 3 * m1 - 2], 4 * m1 - 3),
        ([m1, m1 + 1, *range(m1 + 4, 2 * m1)], 2 * m1 + 3),
    ]
    out = []
    for gens, frob in families:
        s = from_generators(gens)
        if not is_symmetric(s) or s.frobenius != frob:
            raise InvariantViolation(
                f"family {sorted(set(gens))} should be symmetric with "
                f"Frobenius {frob}, got F={s.frobenius}, symmetric={is_symmetric(s)}"
            )
        out.append(s)
    return out
