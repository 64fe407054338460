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
F'/2 >= m - 1/2.  A symmetric T is its own witness, as F' = F(T).
``oversemigroups_with_multiplicity`` walks the tree of numerical semigroups
with decomposition numbers (Fromentin & Hivert, Math. Comp. 85, 2016).

The census counts its triples per m1 in closed form, in one walk of the
squarefree divisors of m1 (factored once per process): a Möbius sum for
the gcd, less the members of <m1, m2> above m2, two of whose terms sum
in closed form and the rest by floor sums.  A witness family of m1 ({0}
and runs linear in m1, checked by sums of runs) that holds both m2 and
m3 contains the triple, so only the triples no family holds need the
criterion.  A certificate checked once per process
(``family_certificate``: for each m3 up to one past the largest F, the
m2 below it that no family holding m3 has, listed at finitely many m1,
and a crossing-point lemma on the run table) lists them, the same at
every bound: none for m1 >= 5, and exactly DELTA with the paper's
families.  The cover witness and the families pass one check of
symmetry, ``_is_symmetric_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from math import gcd
from typing import Iterator

from .errors import DomainError, InvariantViolation, UnsupportedMultiplicity
from .semigroup import NumericalSemigroup, from_generators

#: The four triples not contained in any symmetric semigroup of equal multiplicity.
DELTA: tuple[tuple[int, int, int], ...] = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9))
#: The largest census bound: the count takes O(bound log bound) floor sums,
#: the only work that grows with the bound.
CENSUS_MAX_BOUND = 2000

Form = tuple[int, int]  # (slope, offset): the integer slope·m1 + offset

#: The witness families of m1 as runs [a, b] (the run [0, 0] among them)
#: and Frobenius number F, every endpoint a linear form in m1.  All four
#: are symmetric of multiplicity m1 for m1 >= 4, the first two for m1 = 3.
_FAMILY_RUNS: tuple[tuple[tuple[tuple[Form, Form], ...], Form], ...] = (
    # {0} ∪ [m1, 2m1 - 2], F = 2m1 - 1
    ((((0, 0), (0, 0)), ((1, 0), (2, -2))), (2, -1)),
    # {0, m1} ∪ [m1 + 2, 2m1], F = 2m1 + 1
    ((((0, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 2), (2, 0))), (2, 1)),
    # {0, m1} ∪ [2m1 - 1, 3m1 - 4] ∪ [3m1 - 2, 4m1 - 4], F = 4m1 - 3
    ((((0, 0), (0, 0)), ((1, 0), (1, 0)), ((2, -1), (3, -4)), ((3, -2), (4, -4))), (4, -3)),
    # {0} ∪ [m1, m1 + 1] ∪ [m1 + 4, 2m1 + 2], F = 2m1 + 3
    ((((0, 0), (0, 0)), ((1, 0), (1, 1)), ((1, 4), (2, 2))), (2, 3)),
)


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


@dataclass(frozen=True)
class FamilyCertificate:
    """The triples of embedding dimension 3 with gcd 1 that no witness
    family holds, at any m1 and bound, in lexicographic order; the exact
    checks of ``family_certificate`` passed at m1 = 3 .. ``k0`` + 1."""

    k0: int
    leftover: tuple[tuple[int, int, int], ...]


def _member_mask(s: NumericalSemigroup) -> int:
    """Membership mask of s over [0, F(s)], filled class by class from the
    Apéry set in O(F); 0 for <1>, whose range is empty."""
    m, frob = s.multiplicity, s.frobenius
    bits = bytearray(b"0" * (frob + 1))  # bits[x] is "1" iff x is a member
    for a in s.apery:
        bits[a::m] = b"1" * len(range(a, frob + 1, m))
    return int(bits[::-1], 2) if bits else 0


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
    if m != s.multiplicity:
        raise UnsupportedMultiplicity(
            f"requested multiplicity {m}, but {s} has multiplicity {s.multiplicity}"
        )


def _preorder_rank(mirror: int, full: int) -> int:
    """The rank |A| + 2^(F+1) - R - (R & -R) of A ⊆ [0, F] in lexicographic order
    of ascending tuples, for R = ``mirror`` (bit F - x for x in A) and ``full`` =
    2^(F+1) - 1: x counts itself and 2^(F-y) sets per y skipped before it."""
    return (mirror.bit_count() - mirror - (mirror & -mirror)) & full


def oversemigroups_with_multiplicity(s: NumericalSemigroup, m: int) -> list[NumericalSemigroup]:
    """Every semigroup containing s with multiplicity m = multiplicity(s), else
    UnsupportedMultiplicity: s first, then in lexicographic order of the gaps
    of s they adjoin.  A walk down the tree of numerical semigroups (Fromentin
    & Hivert, Math. Comp. 85, 2016): each U but the root {0} ∪ [m, oo) has
    F(U) > m and the parent U ∪ {F(U)}, so V has the children V - {g} for its
    minimal generators g > F(V) that are gaps of s.  Removing g takes 1 from
    the decomposition number dec[g + z] (pairs a <= b of nonzero members with
    a + b = g + z) for each nonzero member z; g + m enters the Apéry set, and
    is a new minimal generator (all are <= g + m) iff dec[g + m] was 1."""
    _require_multiplicity(s, m)
    frob = s.frobenius
    top, full = frob + m, (1 << frob + 1) - 1  # dec is read at g + m <= top
    width = (frob + 1).bit_length() or 1  # the root's dec[y] <= F + 1 for y <= 2·top
    field = (1 << width) - 1
    ones = ((1 << (2 * top + 1) * width) - 1) // field  # fields 0 to 2·top, none goes below 0
    # the root's dec[y] = max(0, y // 2 - m + 1) counts the t = 2m, 2m + 2, ... up to y
    steps = ((1 << 2 * (frob + 1) * width) - 1) // ((1 << 2 * width) - 1) << 2 * m * width
    dec, members = steps * ones & ones * field, ones >> (top + m) * width << m * width
    gaps = full & ~_member_mask(s) & -(1 << m)  # the gaps of s above m
    mirror = int(format(gaps, f"0{frob + 1}b")[::-1], 2)  # bit F - x for each gap x
    gens = tuple(range(m, 2 * m))
    stack = [(gens, (0, *gens[1:]), [g for g in gens if gaps >> g & 1], dec, members, mirror)]
    ranked = {}
    while stack:
        gens, apery, kids, dec, members, mirror = stack.pop()
        ranked[_preorder_rank(mirror, full)] = NumericalSemigroup(gens, apery)
        for i, g in enumerate(kids):
            h, r, j, shift = g + m, g % m, gens.index(g), g * width
            new = dec >> h * width & field == 1  # h is a minimal generator of the child
            child_gens = gens[:j] + gens[j + 1 :] + (h,) * new
            child_kids = kids[i + 1 :] + [h] * (new and gaps >> h & 1)
            child = (dec - (members << shift), members ^ 1 << shift, mirror ^ 1 << frob - g)
            stack.append((child_gens, apery[:r] + (h,) + apery[r + 1 :], child_kids, *child))
    return [ranked[rank] for rank in sorted(ranked)]


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
    low = _member_mask(base) & ((1 << (f + 1)) - 1)
    mask = _cover_mask(low, f)
    if low & ~mask or not _is_symmetric_mask(mask, m, f):  # above the base, and symmetric
        raise InvariantViolation(
            f"the cover of {base} at F' = {f} is no symmetric set of multiplicity {m} containing it"
        )
    witness = _semigroup_from_mask(mask, f, m)  # checks the closure
    return CoverVerdict(True, witness, (mask & ~low).bit_count())


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _left_pairs(m1: int, window: int, families: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs m1 < m2 < m3 <= ``window`` that no family holds both of,
    sorted: for each m3, the m2 in (m1, m3) that are gaps of every family
    holding m3.  A family has every number above its Frobenius number as
    a member."""
    members = [mask | -(2 << frob) for mask, frob in families]
    pairs = []
    for m3 in range(m1 + 2, window + 1):
        second = (1 << m3) - (2 << m1)  # (m1, m3)
        for member in members:
            if member >> m3 & 1:
                second &= ~member
        pairs += [(m2, m3) for m2 in _bits(second)]
    return sorted(pairs)


def _dimension_3_triples(m1: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The triples (m1, m2, m3) of ``pairs`` with gcd 1 and embedding
    dimension 3: m1 does not divide m2, and m3 is not in <m1, m2>."""
    return [
        (m1, m2, m3)
        for m2, m3 in pairs
        if m2 % m1 and gcd(m1, m2, m3) == 1 and all((m3 - j * m2) % m1 for j in range(m3 // m2 + 1))
    ]


def verify_delta(bound: int, jobs: int = 1) -> DeltaReport:
    """Flag every embedding-dimension-3 triple within ``bound`` that has no
    symmetric cover, and compare against the known four.

    The triples are counted per m1 in closed form, not listed: the pairs
    with gcd 1 less the members of <m1, m2> above m2, in one walk of the
    squarefree divisors of m1, a table filled on first use and kept for
    the process.  The certificate checked once per process
    (``family_certificate``) lists the triples no witness family holds;
    those within ``bound``, DELTA with the paper's families, go to the
    odd-gap criterion in lexicographic order.  ``jobs`` is accepted and
    ignored: the census runs in one process, up to CENSUS_MAX_BOUND.
    """
    if bound < 3:
        raise DomainError(f"bound must be at least 3, got {bound}")
    if bound > CENSUS_MAX_BOUND:
        raise DomainError(f"bound must be at most {CENSUS_MAX_BOUND}, got {bound}")
    searched = [t for t in family_certificate().leftover if t[2] <= bound]
    examined = sum(_census_count(m1, bound) for m1 in range(3, bound - 1))
    flagged = tuple(t for t in searched if not has_symmetric_cover(from_generators(t)))
    expected = tuple(t for t in DELTA if t[2] <= bound)
    return DeltaReport(bound, flagged, expected, examined, len(searched))


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
    family of m1 >= 3: ``_FAMILY_RUNS`` at m1, checked by
    ``_symmetric_mask``.  All four for m1 >= 4, the first two for m1 = 3,
    where the last two formulas are not closed (3 + 3 = 6 is missing)."""
    masks = []
    for runs, (slope, offset) in _FAMILY_RUNS[: 2 if m1 == 3 else 4]:
        frob = slope * m1 + offset
        ends = [(a * m1 + b, c * m1 + d) for (a, b), (c, d) in runs]
        masks.append((_symmetric_mask(ends, m1, frob), frob))
    return masks


def _crossing_bound(forms: list[Form]) -> int:
    """The least integer m1 from which no two of ``forms``, each also ±1,
    with different slopes cross: forms of slope s exceed those of slope
    t < s once s·m1 + (least offset) - 1 > t·m1 + (greatest offset) + 1.
    Neighbouring slopes suffice, as that order is transitive."""
    forms = sorted(forms)
    high = dict(forms)  # slope -> greatest offset, slopes ascending
    low = dict(reversed(forms))  # slope -> least offset
    slopes = list(high)
    return max((high[t] - low[s] + 2) // (s - t) + 1 for t, s in zip(slopes, slopes[1:]))


@cache
def family_certificate() -> FamilyCertificate:
    """Certify the witness families for every m1 >= 3 at once: each is
    symmetric of multiplicity m1 with its stated F, and the pairs
    m1 < m2 < m3 they leave are the same at every bound, none for m1 >= 5.
    ``_FAMILY_RUNS`` is a constant, so the checks run once per process, on
    first use, and the certificate is shared; a failed check raises and is
    not cached, so every later call checks again.

    Every set the checks build (the runs, their sums, the members above F,
    the window (m1, F_max + 1] and, for each m3, the gaps of the families
    that hold it) is a union of runs between forms of one list, each also
    ±1: m1, each F and run endpoint of ``_FAMILY_RUNS``, and the sum of
    any two of these.  Two forms of equal slope keep their difference, and
    two of different slopes compare the same way past their crossing
    point.  K0 is the ``_crossing_bound`` of the list (at least 5), 15
    with the paper's families.  For m1 >= K0 each comparison the checks
    make (closure, the members up to m1, F a gap, the largest F, the
    families that hold each m3, a common gap of them below m3) has one
    outcome, and 2·|mask| - (F + 1) is one linear function of m1.  So
    exact checks at m1 = 3 .. K0 + 1, two points from K0 on, hold for
    every m1 >= 3.  The window F_max + 1 is enough: every family holds
    every m3 from it on, so a pair (m2, F_max + 1) left means m2 is a gap
    of every family, and without one the pairs left at the window are the
    pairs left at every bound.  The leftover is the pairs left at m1 in
    {3, 4} that form triples of embedding dimension 3 with gcd 1.  Raises
    InvariantViolation if a check fails."""
    forms = [(1, 0)]  # m1
    for runs, frob in _FAMILY_RUNS:
        forms += [frob, *(end for run in runs for end in run)]
    forms += [(s + t, u + v) for (s, u), (t, v) in combinations_with_replacement(forms, 2)]
    k0 = max(5, _crossing_bound(forms))
    leftover = []
    for m1 in range(3, k0 + 2):
        masks = _family_masks(m1)
        window = max(frob for _, frob in masks) + 1
        pairs = _left_pairs(m1, window, masks)
        if pairs and m1 >= 5:
            raise InvariantViolation(f"the witness families of {m1} leave pairs up to {window}")
        if any(m3 == window for _, m3 in pairs):
            raise InvariantViolation(f"the witness families of {m1} leave pairs above {window}")
        leftover += _dimension_3_triples(m1, pairs)
    return FamilyCertificate(k0, tuple(leftover))


def witness_families(m1: int) -> list[NumericalSemigroup]:
    """The four symmetric families of multiplicity m1 >= 5, one of which
    contains each embedding-dimension-3 triple of that multiplicity: runs,
    not generators, checked by run sums to be symmetric with Frobenius
    number 2*m1 - 1, 2*m1 + 1, 4*m1 - 3 and 2*m1 + 3.  The census
    certifies the same runs at every m1 >= 3 (``family_certificate``)."""
    if m1 < 5:
        raise DomainError(f"witness families are defined for multiplicity >= 5, got {m1}")
    return [_semigroup_from_mask(mask, frob, m1) for mask, frob in _family_masks(m1)]
