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
from math import gcd
from typing import Iterable

from .errors import (
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

    @property
    def frobenius(self) -> int:
        return max(self.apery) - self.multiplicity

    @property
    def genus(self) -> int:
        # apery[r] // m counts the gaps in residue class r.
        m = self.multiplicity
        return sum(a // m for a in self.apery)

    def contains(self, n: int) -> bool:
        """Membership test: n is in S iff n >= apery[n mod multiplicity]."""
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


def _apery_by_relaxation(
    gens: tuple[int, ...], modulus: int, max_frobenius: int | None = None
) -> tuple[int, ...]:
    """Least element of <gens> in each class mod ``modulus``, by round-robin
    relaxation of the cyclic residue graph (edges r -> r+g mod modulus of
    weight g).  Each full pass costs O(modulus * len(gens)).

    If the values imply a Frobenius number beyond ``max_frobenius`` the
    relaxation is aborted; unconverged passes beyond cap//modulus + 3 can
    only occur in that regime.
    """
    dist: list[int | float] = [_INF] * modulus
    dist[0] = 0
    pass_limit = None if max_frobenius is None else max_frobenius // modulus + 3
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        if pass_limit is not None and passes > pass_limit:
            raise FrobeniusCapExceeded(
                f"Frobenius number exceeds the cap of {max_frobenius}"
            )
        for r in range(modulus):
            d = dist[r]
            if d is _INF:
                continue
            for g in gens:
                nr = (r + g) % modulus
                nd = d + g
                if nd < dist[nr]:
                    dist[nr] = nd
                    changed = True
    out = tuple(int(d) for d in dist)
    if max_frobenius is not None and max(out) - modulus > max_frobenius:
        raise FrobeniusCapExceeded(
            f"Frobenius number {max(out) - modulus} exceeds the cap of {max_frobenius}"
        )
    return out


def from_generators(
    gens: Iterable[int], max_frobenius: int | None = None
) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens``, reduced to its minimal system.

    The minimal system of a numerical semigroup is unique, so this is
    idempotent: feeding back ``minimal_gens`` reproduces the same object.
    Raises EmptyInput on an empty list, InvalidGenerator on an entry that is
    not a positive integer, and NonCofinite when gcd != 1.
    """
    raw = tuple(gens)
    if not raw:
        raise EmptyInput("at least one generator is required")
    for g in raw:
        if not isinstance(g, int) or isinstance(g, bool) or g < 1:
            raise InvalidGenerator(f"generator {g!r} is not a positive integer")
    canon = tuple(sorted(set(raw)))
    if gcd(*canon) != 1:
        raise NonCofinite(
            f"gcd of generators is {gcd(*canon)}; a numerical semigroup needs gcd 1"
        )
    m = canon[0]
    apery = _apery_by_relaxation(canon, m, max_frobenius)

    def member(n: int) -> bool:
        return n >= 0 and n >= apery[n % m]

    minimal = []
    for g in canon:
        # g is redundant iff it is a sum of two nonzero elements.
        redundant = any(member(s) and member(g - s) for s in range(m, g - m + 1))
        if not redundant:
            minimal.append(g)
    return NumericalSemigroup(tuple(minimal), apery)


def apery_set(s: NumericalSemigroup, n: int) -> tuple[int, ...]:
    """Apéry set of s with respect to an arbitrary nonzero element n.

    Returns the n least elements, one per residue class mod n; the identity
    F(S) = max(apery) - n holds for every n in S.  Raises NotMember when
    n is not in s.
    """
    if n < 1 or not s.contains(n):
        raise NotMember(f"{n} is not a nonzero element of {s}")
    return _apery_by_relaxation(s.minimal_gens, n)


def profile(s: NumericalSemigroup) -> GapProfile:
    """Compute the gap-side profile of s exactly.

    For S = N this yields frobenius -1 and no gaps.  ``n_below`` is counted
    by direct membership scan, independently of the identity g + n = F + 1.
    """
    m = s.multiplicity
    frob = s.frobenius
    gaps: list[int] = []
    for r, a in enumerate(s.apery):
        gaps.extend(a - k * m for k in range(1, a // m + 1))
    gaps.sort()
    n_below = sum(1 for x in range(0, max(frob, 0)) if s.contains(x))
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

    It suffices to test x + g for each minimal generator g, since sums of
    members stay members.
    """
    gens = s.minimal_gens
    return tuple(
        x for x in profile(s).gaps if all(s.contains(x + g) for g in gens)
    )


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
