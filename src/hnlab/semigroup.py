"""Exact invariants of numerical semigroups.

A numerical semigroup S is a subset of the nonnegative integers that is
closed under addition, contains 0, and has finite complement (the *gaps*).
Everything here is exact integer arithmetic; the central data structure is
the Apéry set of S with respect to its multiplicity m: the least element of
S in each residue class mod m.  Membership, the Frobenius number, the gap
list and all derived invariants read off the Apéry set directly.

Conventions for the degenerate case S = N (generated by 1): the Frobenius
number is -1, the gap list is empty, and S counts as symmetric and
irreducible with type 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable

from .errors import (
    DomainError,
    EmptyInput,
    FrobeniusCapExceeded,
    InvalidGenerator,
    NonCofinite,
    NotMember,
)

_INF = float("inf")


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup, held as its unique minimal generating system.

    ``apery`` is the Apéry set with respect to the multiplicity: ``apery[r]``
    is the least element congruent to r mod ``multiplicity``.  Instances are
    immutable and safe to share between threads.
    """

    minimal_gens: tuple[int, ...]
    apery: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.minimal_gens[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_gens)

    @cached_property
    def frobenius(self) -> int:
        return max(self.apery) - self.multiplicity

    @cached_property
    def genus(self) -> int:
        # apery[r] // m counts the gaps in residue class r.
        m = self.multiplicity
        return sum(a // m for a in self.apery)

    def contains(self, n: int) -> bool:
        """Membership test: n is in S iff n >= apery[n mod multiplicity].
        An n that is no int, or is a bool, raises DomainError."""
        if type(n) is not int:
            raise DomainError(f"membership needs an integer, got {n!r}")
        if n < 0:
            return False
        return n >= self.apery[n % self.multiplicity]

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.minimal_gens) + ">"


@dataclass(frozen=True)
class GapProfile:
    """Gap-side invariants: Frobenius number, gaps, genus, n = #{s in S : s < F}."""

    frobenius: int
    gaps: tuple[int, ...]
    genus: int
    n_below: int


@dataclass(frozen=True)
class TraitReport:
    """Summary of the semigroup traits used in classification."""

    multiplicity: int
    embedding_dimension: int
    symmetric: bool
    irreducible: bool
    pseudo_frobenius: tuple[int, ...]
    type: int
    almost_symmetric: bool


#: Shortest leading run that _apery_round_robin adjoins by the window fill.
#: Timed on <m, 2m - L, ..., 2m - 1> for m = 8..1000 (2-vCPU Xeon guest,
#: Python 3.11): the fill ran 0.9-2.1x as fast as the round robin at
#: L = 6 and at least 1.3x from L = 7 on, but 0.7-0.8x at L = 5 once
#: m >= 200 and 3-10x slower at L = 2.
_RUN_FILL_MIN = 6


def _apery_round_robin(gens: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apéry set of <gens> with respect to ``gens[0]``, and the generators
    that were not already in the semigroup of those before them.

    Round-robin algorithm of Böcker & Lipták (Algorithmica 48, 2007): each
    new generator g walks every cycle r -> r+g (mod m) of the residue table
    once, starting from the cycle's least entry, O(m) per kept generator.
    A generator with g >= dist[g mod m] already lies in the semigroup of the
    earlier ones and is skipped in O(1), so for sorted input the kept
    generators are the minimal system.

    A leading run gens[1..L] = a..b of at least _RUN_FILL_MIN consecutive
    integers is adjoined at once (cf. García-Sánchez & Rosales, Pacific J.
    Math. 191, 1999, on semigroups generated by intervals), in O(m + m/(L-1))
    steps.  The sums of j run elements are exactly the window
    [j*a, j*a + j*(L-1)], and each class takes the first value met, scanning
    j = 1, 2, ... and each window upwards.  That first hit y is the least
    member of <m, a..b> in its class: no earlier window meets the class, a
    multiple of m added only raises a sum, and a smaller later sum would be at
    most y - m, which lies below that later window's start (j+1)*a because a
    first hit is among the m lowest values of its window, y < j*a + m.  The
    scan stops after the first window that spans m classes, so every class is
    set once.  A run element g is kept iff g < 2a and dist[g mod m] == g:
    otherwise g is a sum of two run elements, or g - m is a member.  None of
    this needs a < m or a sorted list.
    """
    m = gens[0]
    dist: list[int | float] = [_INF] * m
    dist[0] = 0
    kept = [m]
    rest, run = gens[1:], 1
    while run < len(rest) and rest[run] == rest[0] + run:
        run += 1
    if run >= _RUN_FILL_MIN:
        a, b = rest[0], rest[0] + run - 1
        _fill_run(dist, m, a, b)
        kept += [g for g in range(a, min(b, 2 * a - 1) + 1) if dist[g % m] == g]
        rest = rest[run:]
    for g in rest:
        if g >= dist[g % m]:
            continue
        kept.append(g)
        d = gcd(g, m)
        for p in range(d):
            n = min(dist[p::d])
            if n is _INF:
                continue
            for _ in range(m // d - 1):
                n += g
                r = n % m
                if dist[r] < n:
                    n = dist[r]
                else:
                    dist[r] = n
    return tuple(dist), tuple(kept)  # gcd 1: every class is reached, every entry an int


def _fill_run(dist: list[int | float], m: int, a: int, b: int) -> None:
    """Set every class of ``dist`` to its least sum of elements of a..b (see
    _apery_round_robin); ``dist`` holds only its 0 entry on entry."""
    unset = bytearray(b"\x01") * m
    unset[0] = 0
    lo, width = a, b - a
    while True:
        span = min(width + 1, m)
        r0 = lo % m
        end = r0 + span
        # The window's classes are r0 .. end - 1, wrapping past m - 1.
        for start, stop, base in ((r0, min(end, m), lo - r0), (0, max(end - m, 0), lo - r0 + m)):
            r = unset.find(1, start, stop)
            while r >= 0:
                dist[r] = base + r
                unset[r] = 0
                r = unset.find(1, r + 1, stop)
        if span == m:
            return
        lo += a
        width += b - a


def from_generators(
    gens: Iterable[int], max_frobenius: int | None = None
) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens``, reduced to its minimal system.

    The minimal system of a numerical semigroup is unique, so this is
    idempotent: feeding back ``minimal_gens`` reproduces the same object.
    Raises DomainError on a ``max_frobenius`` that is no int, EmptyInput on
    an empty list, InvalidGenerator on an entry that is not a positive
    integer or exceeds ``max_frobenius`` (before the Apéry pass), NonCofinite
    when gcd != 1, and FrobeniusCapExceeded when the pass finds F beyond it.
    """
    if max_frobenius is not None and type(max_frobenius) is not int:  # a bool is refused too
        raise DomainError(f"max_frobenius must be an integer, got {max_frobenius!r}")
    raw = tuple(gens)
    if not raw:
        raise EmptyInput("at least one generator is required")
    for g in raw:
        if not isinstance(g, int) or isinstance(g, bool) or g < 1:
            raise InvalidGenerator(f"generator {g!r} is not a positive integer")
        if max_frobenius is not None and g > max_frobenius:
            raise InvalidGenerator(f"generator {g} exceeds the cap of {max_frobenius}")
    canon = tuple(sorted(set(raw)))
    if gcd(*canon) != 1:
        raise NonCofinite(
            f"gcd of generators is {gcd(*canon)}; a numerical semigroup needs gcd 1"
        )
    apery, minimal = _apery_round_robin(canon)
    s = NumericalSemigroup(minimal, apery)
    if max_frobenius is not None and s.frobenius > max_frobenius:
        raise FrobeniusCapExceeded(
            f"Frobenius number {s.frobenius} exceeds the cap of {max_frobenius}"
        )
    return s


def apery_set(s: NumericalSemigroup, n: int) -> tuple[int, ...]:
    """Apéry set of s with respect to an arbitrary nonzero element n.

    Returns the n least elements, one per residue class mod n; the identity
    F(S) = max(apery) - n holds for every n in S.  Raises NotMember when
    n is not a nonzero element of s, a non-int or bool n included.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1 or not s.contains(n):
        raise NotMember(f"{n} is not a nonzero element of {s}")
    # n is in s, so <n, minimal_gens> = s and the skip test stays valid.
    return _apery_round_robin((n, *s.minimal_gens))[0]


def profile(s: NumericalSemigroup) -> GapProfile:
    """Compute the gap-side profile of s exactly.

    For S = N this yields frobenius -1 and no gaps.  ``n_below`` counts, in
    each residue class mod m, the members a, a + m, ... below F from the
    class's Apéry element a: O(m), and independent of the genus identity
    g + n = F + 1.
    """
    m = s.multiplicity
    frob = s.frobenius
    gaps: list[int] = []
    for r, a in enumerate(s.apery):
        gaps.extend(range(r, a, m))  # the gaps in class r lie below its Apéry element
    gaps.sort()
    n_below = sum(max(0, -((a - frob) // m)) for a in s.apery)
    return GapProfile(frob, tuple(gaps), len(gaps), n_below)


def is_symmetric(s: NumericalSemigroup) -> bool:
    """True iff genus = (F + 1)/2; equivalently x in S <=> F - x not in S.

    False whenever F is even and S != N, since a symmetric semigroup has odd
    Frobenius number.
    """
    return 2 * s.genus == s.frobenius + 1


def is_irreducible(s: NumericalSemigroup) -> bool:
    """True iff genus = ceil((F + 1)/2), the numeric irreducibility criterion."""
    return s.genus == (s.frobenius + 2) // 2


def pseudo_frobenius(s: NumericalSemigroup) -> tuple[int, ...]:
    """Gaps x with x + s' in S for every nonzero s' in S.

    Each such x has x + m in the Apéry set Ap(S, m), so they are the values
    w - m for w != 0 in Ap(S, m) with w - m + g in S for every minimal
    generator g != m (Rosales & García-Sánchez, Numerical Semigroups, Prop.
    2.20); sums of members stay members.  As w - m + g > 0, each test is one
    index: ap[(w + g) % m] <= w + g - m.
    """
    m, ap, gens = s.multiplicity, s.apery, s.minimal_gens[1:]
    return tuple(sorted(w - m for w in ap if w and all(ap[(w + g) % m] <= w + g - m for g in gens)))


def traits(s: NumericalSemigroup) -> TraitReport:
    """Full trait report: multiplicity, embedding dimension, symmetry,
    irreducibility, pseudo-Frobenius set, type, and almost symmetry
    (2*genus = frobenius + type)."""
    pf = pseudo_frobenius(s)
    return TraitReport(
        multiplicity=s.multiplicity,
        embedding_dimension=s.embedding_dimension,
        symmetric=is_symmetric(s),
        irreducible=is_irreducible(s),
        pseudo_frobenius=pf,
        type=len(pf),
        almost_symmetric=2 * s.genus == s.frobenius + len(pf),
    )
