"""Oversemigroup enumeration against a brute-force subset oracle and the
exhaustive gap-subset search, and the symmetric-cover criterion and the
witness families against the same search."""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from functools import cache
from itertools import accumulate, combinations, groupby
from math import gcd
from typing import Iterable, Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import family_masks, family_runs, oracle_oversemigroups
from test_semigroup import POPULATION

from hnlab import (
    CoverQuery,
    DELTA,
    DeltaReport,
    DomainError,
    InvariantViolation,
    UnsupportedMultiplicity,
    from_generators,
    has_symmetric_cover,
    is_symmetric,
    oversemigroups_with_multiplicity,
    profile,
    symmetric_cover,
    verify_delta,
    witness_families,
)
from hnlab import oversemigroups
from hnlab.cli import main
from hnlab.oversemigroups import (
    CENSUS_MAX_BOUND,
    _census_count,
    _census_flagged,
    _census_leftover,
    _dimension_3_triples,
    _family_from_runs,
    _floor_sum,
    _semigroup_from_mask,
    _squarefree_divisors,
)
from hnlab.semigroup import NumericalSemigroup

def members_upto_frobenius(s, frob: int) -> frozenset[int]:
    return frozenset(x for x in range(frob + 1) if s.contains(x))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_cover_masks(base) -> Iterator[int]:
    """The gap-subset DFS, the exhaustive oracle of the listing: membership
    masks over [0, F(base)] of every oversemigroup of the same multiplicity,
    in lexicographic order of the adjoined gap subsets."""
    full = (1 << (base.frobenius + 1)) - 1
    base_mask = sum(1 << x for x in range(base.frobenius + 1) if base.contains(x))
    window = list(_bits(full & ~base_mask & -(1 << base.multiplicity)))  # the gaps above m

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


def in_gap_order(masks: Iterable[int], upto: int) -> list[int]:
    """The membership ``masks`` over [0, upto] in lexicographic order of
    their gaps, the ascending clear bits of each."""
    full = (1 << (upto + 1)) - 1
    return sorted(masks, key=lambda mask: tuple(_bits(full & ~mask)))


def exhaustive_has_symmetric_cover(base) -> bool:
    """The exhaustive oracle: whether the gap-subset DFS lists a symmetric
    oversemigroup, one whose gaps up to F(base) number (F + 1) / 2 for F
    the largest of them."""
    full = (1 << (base.frobenius + 1)) - 1
    return any(
        2 * (full ^ mask).bit_count() == (full ^ mask).bit_length()
        for mask in iter_cover_masks(base)
    )


def plain_set_cover(base) -> tuple[int, frozenset[int]]:
    """The witness on plain sets: F' the largest odd gap, and the members up
    to F' of the base plus each x in (F'/2, F'] with F' - x not in the base."""
    gaps = set(profile(base).gaps)
    f = max((g for g in gaps if g % 2), default=-1)
    members = {x for x in range(f + 1) if x not in gaps}
    return f, frozenset(members | {x for x in range(f + 1) if 2 * x > f and f - x not in members})


ORACLE_BASES = [
    gens
    for gens in (
        [list(c) for c in combinations(range(3, 13), 3)]
        + [[a, b] for a in range(2, 13) for b in range(a + 1, 13)]
    )
    if gcd(*gens) == 1 and profile(from_generators(gens)).frobenius <= 25
]


def test_oracle_population_is_nontrivial():
    assert len(ORACLE_BASES) > 60


def test_enumeration_matches_subset_oracle():
    # the listing is the oracle's sets in lexicographic order of their
    # gaps, all of which lie in [0, F(base)]
    for gens in ORACLE_BASES:
        base = from_generators(gens)
        frob = base.frobenius
        got = [
            members_upto_frobenius(u, frob)
            for u in oversemigroups_with_multiplicity(base, base.multiplicity)
        ]
        expected = sorted(
            oracle_oversemigroups(base),
            key=lambda u: tuple(x for x in range(frob + 1) if x not in u),
        )
        assert got == expected, gens


def test_enumeration_known_values():
    s345 = from_generators([3, 4, 5])
    assert [u.minimal_gens for u in oversemigroups_with_multiplicity(s345, 3)] == [(3, 4, 5)]
    s357 = from_generators([3, 5, 7])
    assert [u.minimal_gens for u in oversemigroups_with_multiplicity(s357, 3)] == [
        (3, 4, 5),
        (3, 5, 7),
    ]
    n = from_generators([1])
    assert oversemigroups_with_multiplicity(n, 1) == [n]


def test_members_rebuild_like_from_generators():
    # a listed oversemigroup is built from its mask; generating it from every
    # member in [m, F + m] gives the same minimal system and Apéry set
    for gens in ORACLE_BASES:
        base = from_generators(gens)
        m, frob = base.multiplicity, base.frobenius
        for u in oversemigroups_with_multiplicity(base, m):
            assert u == from_generators(x for x in range(m, frob + m + 1) if x in u), (gens, u)


def semigroup_from_mask_by_comparison(mask: int, upto: int, mult: int) -> NumericalSemigroup:
    """The pairwise oracle: a nonzero Apéry element w is a minimal generator
    unless w - v is a member for a smaller nonzero Apéry element v."""
    bits = format(mask, "b")[::-1]
    apery = []
    for r in range(mult):
        k = bits[r::mult].find("1")
        apery.append(r + k * mult if k >= 0 else upto + 1 + (r - upto - 1) % mult)
    nz = sorted(w for w in apery if w)
    gens = [w for i, w in enumerate(nz) if not any(w - v >= apery[(w - v) % mult] for v in nz[:i])]
    return NumericalSemigroup((mult, *gens), tuple(apery))


def test_semigroup_from_mask_matches_the_pairwise_oracle():
    # the same pass checks the tree walk against the DFS: the same list, in
    # gap order, with the same minimal generators and Apéry sets
    bases = [b for b in GATE_BASES if b.frobenius <= 26]  # multiplicities 1..10, 21,961 sets
    assert len(bases) > 600
    for base in bases:
        m, frob = base.multiplicity, base.frobenius
        listed = []
        for mask in in_gap_order(iter_cover_masks(base), frob):
            expected = semigroup_from_mask_by_comparison(mask, frob, m)
            assert _semigroup_from_mask(mask, frob, m) == expected, (base, mask)
            listed.append(expected)
        assert oversemigroups_with_multiplicity(base, m) == listed, base
    # the witness families on the one path: their masks from the test's own
    # run table, rebuilt alike, and witness_families the same semigroups
    for m1 in range(3, 301):
        families = []
        for mask, frob in family_masks(m1):
            expected = semigroup_from_mask_by_comparison(mask, frob, m1)
            assert _semigroup_from_mask(mask, frob, m1) == expected, (m1, frob)
            families.append(expected)
        if m1 >= 5:
            assert witness_families(m1) == families, m1


@pytest.mark.parametrize(
    "gens, count",
    [
        ([7, 8], 100),
        ([8, 11], 753),
        ([9, 10], 836),
        ([12, 13, 14], 1469),
        ([13, 14, 15], 3498),
        ([16, 17, 18, 19, 21], 2474),
    ],
)
def test_tree_walk_lists_what_the_dfs_lists(gens, count):
    # bases with F from 41 to 77 and multiplicity up to 16, beyond the
    # pairwise pass above
    base = from_generators(gens)
    m, frob = base.multiplicity, base.frobenius
    expected = [
        semigroup_from_mask_by_comparison(mask, frob, m)
        for mask in in_gap_order(iter_cover_masks(base), frob)
    ]
    assert len(expected) == count
    assert oversemigroups_with_multiplicity(base, m) == expected


def test_semigroup_from_mask_reads_the_apery_set_off_the_mask():
    # the members {0, 4, 6} over [0, 7] are <4,6,9,11>, whose Apéry set
    # (0, 9, 6, 11) holds the least member of each class; adjoining 3
    # leaves 3 + 4 = 7 out of the mask
    mask = sum(1 << x for x in (0, 4, 6))
    s = _semigroup_from_mask(mask, 7, 4)
    assert (s.apery, s.minimal_gens) == ((0, 9, 6, 11), (4, 6, 9, 11))
    with pytest.raises(InvariantViolation, match="7 is a missing sum"):
        _semigroup_from_mask(mask | 1 << 3, 7, 4)


def test_enumeration_results_contain_base_and_keep_multiplicity():
    for gens in ORACLE_BASES[:40]:
        base = from_generators(gens)
        out = oversemigroups_with_multiplicity(base, base.multiplicity)
        assert base in out
        for u in out:
            assert u.multiplicity == base.multiplicity
            assert all(u.contains(g) for g in base.minimal_gens)
            assert set(profile(u).gaps) <= set(profile(base).gaps)


def test_unsupported_multiplicity():
    s = from_generators([3, 4, 5])
    with pytest.raises(UnsupportedMultiplicity):
        oversemigroups_with_multiplicity(s, 4)
    with pytest.raises(UnsupportedMultiplicity):
        symmetric_cover(CoverQuery(s, 2))


@pytest.mark.parametrize("gens, m", [([3, 4, 5], 3.0), ([1], True), ([3, 4, 5], "3"), ([3, 4, 5], None)])
def test_a_multiplicity_that_is_no_int_is_refused(gens, m):
    # 3.0 == 3 and True == 1, so only the type tells them from the base's own
    s = from_generators(gens)
    message = f"requested multiplicity {m!r}, but {s} has multiplicity {s.multiplicity}"
    with pytest.raises(UnsupportedMultiplicity) as listing:
        oversemigroups_with_multiplicity(s, m)
    with pytest.raises(UnsupportedMultiplicity) as cover:
        symmetric_cover(CoverQuery(s, m))
    assert str(listing.value) == str(cover.value) == message


def test_the_in_place_walk_lists_independent_sets():
    # the walk edits one generator list and one Apéry set in place: each
    # listed set must hold its own tuples, and a second listing the same sets
    base = from_generators([12, 13])
    listing = oversemigroups_with_multiplicity(base, 12)
    assert len(listing) == 22436
    assert listing[0] == from_generators(range(12, 24))
    assert listing[-1].minimal_gens == tuple(range(12, 23))
    assert all(type(u.minimal_gens) is tuple and type(u.apery) is tuple for u in listing)
    assert oversemigroups_with_multiplicity(base, 12) == listing


# ── symmetric covers ─────────────────────────────────────────────────────────


def test_cover_known_values():
    v = symmetric_cover(CoverQuery(from_generators([3, 7, 8]), 3))
    assert v.covered and v.witness.minimal_gens == (3, 4)
    assert v.search_count == 1  # F' = F = 5 and 5 - 4 is a gap: 4 is adjoined

    v = symmetric_cover(CoverQuery(from_generators([3, 4, 5]), 3))
    assert not v.covered and v.witness is None and v.search_count == 0

    v = symmetric_cover(CoverQuery(from_generators([4, 5, 11]), 4))
    assert v.covered and v.witness.minimal_gens == (4, 5, 6)

    # a symmetric base is its own witness, at every multiplicity
    for gens in ([4, 5, 6], [2, 9], [1]):
        v = symmetric_cover(CoverQuery(from_generators(gens), gens[0]))
        assert v.covered and v.witness.minimal_gens == tuple(gens) and v.search_count == 0

    # F' = F = 2159: adjoining the 26 gaps x in (F/2, F] with F - x a gap
    # takes one more minimal generator
    v = symmetric_cover(CoverQuery(from_generators([80, 81, 83]), 80))
    assert v.covered and v.witness.minimal_gens == (80, 81, 83, 1081)
    assert v.witness.frobenius == 2159 and v.search_count == 26


def members(*xs: int) -> int:
    return sum(1 << x for x in xs)


# <5,12,13> (F' = 21) with 7 for its mirror 14: symmetric, closed under
# adding 5 and above the base, but 7 + 7 = 14 is missing
NOT_CLOSED = sum(1 << x for x in (0, 5, 7, 10, 12, 13, 15, 17, 18, 19, 20))


def test_a_witness_that_is_no_symmetric_cover_is_caught(monkeypatch, capsys):
    # a construction that hands back a set failing one check each fails the
    # witness check, in the library and through main
    cases = (
        # the base itself: <3,7,8> is covered, but has 2 members up to F' = 5, not 3
        ([3, 7, 8], lambda low, f: low),
        ([5, 12, 13], lambda low, f: NOT_CLOSED),
        # <2,9> over [0, 7]: closed, symmetric, above <4,9,11>, but 2 is below m = 4
        ([4, 9, 11], lambda low, f: members(0, 2, 4, 6)),
        # <3,5,7> (F = 4) over [0, 5]: closed, 3 members, but F' = 5 is a member
        ([3, 7, 8], lambda low, f: members(0, 3, 5)),
        # <5,6,9> over [0, 13]: symmetric of multiplicity 5 and F = 13, but without 7
        ([5, 7, 9], lambda low, f: members(0, 5, 6, 9, 10, 11, 12)),
    )
    build = oversemigroups._cover_masks
    for gens, construction in cases:

        def bad_masks(base, f, construction=construction):
            low = build(base, f)[0]
            return low, construction(low, f)

        monkeypatch.setattr(oversemigroups, "_cover_masks", bad_masks)
        with pytest.raises(InvariantViolation) as caught:
            symmetric_cover(CoverQuery(from_generators(gens), gens[0]))
        # the mask is rejected before a semigroup is built from it, so the
        # message names no ill-formed witness such as <2,9> read as multiplicity 4
        assert "<4,2,9>" not in str(caught.value), gens
        argv = ["sgp", "sym-cover", *map(str, gens), "--mult", str(gens[0]), "--format", "json"]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvariantViolation"


def test_cover_witnesses_beyond_the_search():
    # <40,67,79>: the DFS does not finish; <800,801> (F = 639,199) is
    # symmetric, so it is its own witness; the last three have F up to
    # 972,600, near the default cap of 1,000,000.  Each must take well
    # under a second.
    for gens, witness, adjoined in (
        ([25, 41, 49], (25, 41, 49, 204, 212, 220, 228), 15),
        ([40, 67, 79], (40, 67, 79, 416, 429, 443), 20),
        ([800, 801], (800, 801), 0),
        ([499, 999, 1499], (499, 999, 1499, 186376, 186876, 187376), 373),
        ([997, 1999, 2999], (997, 1999, 2999, 191937, 191938, 192936, 192937, 192938), 434),
        (
            [1297, 2599, 3899],
            (1297, 2599, 3899, 322318, 322319, 322320, 322321, 323619, 323620),
            886,
        ),
        (
            [1597, 3199, 4799],
            (1597, 3199, 4799, *range(486299, 486304), 487901, 487902, 487903, 489503),
            1494,
        ),
    ):
        started = time.perf_counter()
        v = symmetric_cover(CoverQuery(from_generators(gens), gens[0]))
        elapsed = time.perf_counter() - started
        assert v.covered and v.witness.minimal_gens == witness, gens
        assert v.search_count == adjoined, gens
        assert elapsed < 1.0, (gens, elapsed)


def test_cover_verdict_is_consistent_with_enumeration():
    for gens in ORACLE_BASES[:40]:
        base = from_generators(gens)
        verdict = symmetric_cover(CoverQuery(base, base.multiplicity))
        all_covers = oversemigroups_with_multiplicity(base, base.multiplicity)
        symmetric_ones = [u for u in all_covers if is_symmetric(u)]
        assert verdict.covered == bool(symmetric_ones)
        if verdict.covered:
            # a listed symmetric cover, with the largest odd gap as Frobenius number
            assert verdict.witness in symmetric_ones
            assert verdict.witness.frobenius == max(g for g in profile(base).gaps if g % 2)
        else:
            assert verdict.search_count == 0


# Up to three generators almost every base is covered; four-generator bases
# add uncovered ones that are not in DELTA.
FOUR_GENERATORS = [list(c) for c in combinations(range(3, 25), 4) if gcd(*c) == 1]
GATE_BASES = [
    base
    for base in dict.fromkeys(
        from_generators(g) for g in ORACLE_BASES + POPULATION + FOUR_GENERATORS
    )
    if base.frobenius <= 70
]


def test_cover_gate_population_is_nontrivial():
    assert len(GATE_BASES) > 2000
    assert sum(not has_symmetric_cover(b) for b in GATE_BASES) > 10


def test_cover_matches_the_exhaustive_search_up_to_frobenius_70():
    for base in GATE_BASES:
        verdict = symmetric_cover(CoverQuery(base, base.multiplicity))
        covered = exhaustive_has_symmetric_cover(base)
        assert has_symmetric_cover(base) == verdict.covered == covered, base
        if covered:
            f, members = plain_set_cover(base)
            assert verdict.witness.frobenius == f, base
            assert members_upto_frobenius(verdict.witness, f) == members, base
            assert verdict.search_count == len(members) - sum(x in base for x in range(f + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 200), st.lists(st.integers(1, 400), min_size=1, max_size=6))
def test_cover_is_fast_up_to_frobenius_4000(m, offsets):
    gens = [m, *(m + d for d in offsets)]
    assume(gcd(*gens) == 1)
    base = from_generators(gens)
    assume(base.multiplicity == m and base.frobenius <= 4000)
    started = time.perf_counter()
    verdict = symmetric_cover(CoverQuery(base, m))
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, (gens, elapsed)  # about 10 ms at worst on a 2-vCPU Xeon guest
    assert verdict.covered == has_symmetric_cover(base)
    if verdict.covered:
        w = verdict.witness
        assert is_symmetric(w) and w.multiplicity == m
        assert all(g in w for g in base.minimal_gens)
        # closed: the Apéry relaxation of its generators gives the same set
        assert from_generators(w.minimal_gens).apery == w.apery


def test_cover_monotone_in_inclusion():
    # a witness for a larger semigroup of equal multiplicity covers the base
    for gens in ([3, 7, 8], [4, 9, 11], [5, 7, 9], [4, 7, 10]):
        base = from_generators(gens)
        for u in oversemigroups_with_multiplicity(base, base.multiplicity):
            verdict = symmetric_cover(CoverQuery(u, u.multiplicity))
            if verdict.covered:
                assert all(verdict.witness.contains(g) for g in base.minimal_gens)


# ── the uncovered-triple census ──────────────────────────────────────────────


def adjoin(mask: int, x: int, full: int) -> int:
    """<S, x> for the semigroup S with members ``mask``: the union of the
    kx + S, with strides x, 2x, 4x, ..."""
    while x < full.bit_length():
        mask |= (mask << x) & full
        x <<= 1
    return mask


def third_entries(m1: int, bound: int) -> Iterator[tuple[int, int]]:
    """For each m2 in (m1, bound) that m1 does not divide, m2 and the mask of
    the m3 in (m2, bound] that complete the embedding-dimension-3 triples
    with gcd 1: m3 outside <m1, m2> and sharing no prime with
    d = gcd(m1, m2).  <m1, m2> is m2 adjoined to the multiples of m1,
    and the numbers sharing a prime with d are the multiples of the
    divisors > 1 of d, which are the divisors of m1 that divide m2."""
    full = (2 << bound) - 1
    divisors = [(q, adjoin(1, q, full)) for q in range(2, m1 + 1) if m1 % q == 0]
    multiples = divisors[-1][1]  # of q = m1
    for m2 in range(m1 + 1, bound):
        if m2 % m1:
            taken = adjoin(multiples, m2, full)
            for q, mask in divisors:
                if m2 % q == 0:
                    taken |= mask
            yield m2, (full ^ taken) >> (m2 + 1) << (m2 + 1)


def mask_census(bound: int) -> DeltaReport:
    """The per-pair oracle: count each pair's third-entry mask, cut it to the
    gaps of every family of m1 that has m2 as a member, and decide the bits
    left by the criterion."""
    examined = searched = 0
    flagged = []
    for m1 in range(3, bound - 1):
        family_gaps = [(2 << frob) - 1 ^ mask for mask, frob in family_masks(m1)]
        for m2, third in third_entries(m1, bound):
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


def candidate_triples(bound: int) -> Iterator[tuple[int, int, int]]:
    """Yield, in lexicographic order, the triples 3 <= m1 < m2 < m3 <= bound
    with gcd 1 and embedding dimension exactly 3 (m2 not a multiple of m1,
    m3 outside <m1, m2>): the bits of the oracle's third-entry masks."""
    for m1 in range(3, bound - 1):
        for m2, third in third_entries(m1, bound):
            yield from ((m1, m2, m3) for m3 in _bits(third))


def test_candidate_triples_filter():
    triples = list(candidate_triples(30))
    assert (3, 4, 5) in triples
    assert (3, 7, 8) in triples
    assert (3, 6, 9) not in triples  # gcd 3
    assert (3, 6, 7) not in triples  # 6 is a multiple of 3
    assert (3, 4, 7) not in triples  # 7 = 3 + 4 has embedding dimension 2
    assert (4, 8, 9) not in triples  # 8 multiple of 4
    for t in triples:
        assert from_generators(list(t)).embedding_dimension == 3
    # complete both ways, in lexicographic order, at every bound: every
    # gcd-1 triple of embedding dimension 3 is listed, and nothing else
    brute = [
        t
        for t in combinations(range(3, 41), 3)
        if gcd(*t) == 1 and from_generators(t).embedding_dimension == 3
    ]
    for bound in range(3, 41):
        assert list(candidate_triples(bound)) == [t for t in brute if t[2] <= bound], bound


def paper_family_gens(m1: int) -> list[list[int]]:
    """The generators of the witness families of m1, as the paper states
    them: all four for m1 >= 4, the first two for m1 = 3."""
    gens = [
        list(range(m1, 2 * m1 - 1)),
        [m1, *range(m1 + 2, 2 * m1)],
        [m1, 2 * m1 - 1, *range(2 * m1 + 1, 3 * m1 - 3), 3 * m1 - 2],
        [m1, m1 + 1, *range(m1 + 4, 2 * m1)],
    ]
    return gens[:2] if m1 == 3 else gens


@cache
def paper_families(m1: int) -> list[NumericalSemigroup]:
    return [from_generators(gens) for gens in paper_family_gens(m1)]


def mask_families(m1: int) -> list[NumericalSemigroup]:
    """The families of the test's run table, as semigroups."""
    return [semigroup_from_mask_by_comparison(mask, frob, m1) for mask, frob in family_masks(m1)]


def streaming_census(bound: int) -> DeltaReport:
    """The per-triple oracle: list every candidate triple, certify it by the
    families built through ``from_generators``, decide the rest by the criterion."""
    examined = searched = 0
    flagged = []
    for m1, group in groupby(candidate_triples(bound), key=lambda t: t[0]):
        families = paper_families(m1)
        for t in group:
            examined += 1
            if not any(t[1] in s and t[2] in s for s in families):
                searched += 1
                if not has_symmetric_cover(from_generators(t)):
                    flagged.append(t)
    expected = tuple(t for t in DELTA if t[2] <= bound)
    return DeltaReport(bound, tuple(flagged), expected, examined, searched)


@pytest.mark.parametrize("bounds", [range(3, 61), [100], [150]])
def test_census_matches_the_streaming_oracle(bounds):
    for bound in bounds:
        assert verify_delta(bound) == streaming_census(bound), bound


@pytest.mark.parametrize("bounds", [range(3, 61), [100], [150], [400]])
def test_census_matches_the_mask_oracle(bounds):
    for bound in bounds:
        assert verify_delta(bound) == mask_census(bound), bound


def brute_force_third_entries(m1: int, bound: int) -> dict[int, int]:
    """``third_entries`` by enumeration: every i*m1 + j*m2 up to the bound,
    and a gcd per m3."""
    expected = {}
    for m2 in range(m1 + 1, bound):
        if m2 % m1:
            d = gcd(m1, m2)
            members = {
                i * m1 + j * m2
                for j in range(bound // m2 + 1)
                for i in range((bound - j * m2) // m1 + 1)
            }
            third = [n for n in range(m2 + 1, bound + 1) if gcd(d, n) == 1 and n not in members]
            expected[m2] = sum(1 << n for n in third)
    return expected


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.integers(0, 300))
def test_third_entries_match_brute_force(m1, width):
    bound = m1 + 2 + width
    assert dict(third_entries(m1, bound)) == brute_force_third_entries(m1, bound)


def brute_force_gcd_one_pairs(m1: int, bound: int) -> int:
    """The pairs m2 < m3 with m1 not dividing m2 and gcd(m1, m2, m3) = 1,
    by the m3 up to the bound coprime to each gcd(m1, m2)."""
    coprime: dict[int, list[int]] = {}  # g -> the count coprime to g in (m1, x] at x - m1
    pairs = 0
    for m2 in range(m1 + 1, bound):
        if m2 % m1:
            g = gcd(m1, m2)
            if g not in coprime:
                coprime[g] = [0, *accumulate(gcd(n, g) == 1 for n in range(m1 + 1, bound + 1))]
            pairs += coprime[g][-1] - coprime[g][m2 - m1]
    return pairs


def brute_force_members_above(m1: int, bound: int) -> int:
    """The members of <m1, m2> in (m2, bound], every i*m1 + j*m2, summed over
    the m2 in (m1, bound) coprime to m1."""
    full = (2 << bound) - 1
    multiples = sum(1 << n for n in range(0, bound + 1, m1))
    count = 0
    for m2 in range(m1 + 1, bound):
        if gcd(m1, m2) == 1:
            members = 0
            for shift in range(0, bound + 1, m2):
                members |= multiples << shift
            count += ((members & full) >> (m2 + 1)).bit_count()
    return count


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.integers(0, 300))
def test_census_count_matches_brute_force(m1, width):
    # the triples of multiplicity m1 the census counts, against enumeration
    bound = m1 + 2 + width
    expected = sum(third.bit_count() for third in brute_force_third_entries(m1, bound).values())
    assert _census_count(m1, bound) == expected


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 80), st.integers(1, 60), st.integers(-200, 200), st.integers(-2000, 2000))
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40), st.integers(1, 60), st.integers(0, 400))
def test_count_members_matches_brute_force(m1, step, width):
    # the count is the pairs less the members above m2, so small m1 and
    # bounds where many j >= 2 floor sums run check the members' part
    bound = m1 + step + 1 + width
    expected = brute_force_gcd_one_pairs(m1, bound) - brute_force_members_above(m1, bound)
    assert _census_count(m1, bound) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2310), st.integers(2, 6), st.integers(0, 1000))
def test_count_coprime_matches_brute_force(d, a, width):
    # m1 = a*d, with bound (a + 1)*d + 1 + width, so m1 has many squarefree
    # divisors and the Möbius sum over them checks the pairs' part
    m1 = a * d
    assume(m1 >= 3)
    bound = (a + 1) * d + 1 + width
    expected = brute_force_gcd_one_pairs(m1, bound) - brute_force_members_above(m1, bound)
    assert _census_count(m1, bound) == expected


def test_squarefree_divisors_match_the_moebius_recursion():
    # μ from Σ_{d | n} μ(d) = [n = 1] alone, without factoring; the table is
    # a tuple, shared between calls
    mu = [0, 1] + [0] * (CENSUS_MAX_BOUND - 1)
    for d in range(1, CENSUS_MAX_BOUND + 1):
        for n in range(2 * d, CENSUS_MAX_BOUND + 1, d):
            mu[n] -= mu[d]
    for n in range(1, CENSUS_MAX_BOUND + 1):
        divisors = _squarefree_divisors(n)
        assert isinstance(divisors, tuple), n
        assert sorted(divisors) == [(e, mu[e]) for e in range(1, n + 1) if n % e == 0 and mu[e]]
        assert _squarefree_divisors(n) is divisors, n


def test_divisor_table_leaks_nothing_between_bounds():
    _squarefree_divisors.cache_clear()
    cold = verify_delta(36)
    assert (cold.triples_examined, cold.triples_searched) == (3_509, 4)
    _squarefree_divisors.cache_clear()
    assert verify_delta(2000).triples_examined == 1_078_044_064
    assert verify_delta(36) == cold
    assert verify_delta(36) == cold


def test_census_at_bound_300_is_fast():
    # the streaming census takes about 12 s here, so a fallback to listing
    # every triple (O(B^3)) fails; the counting takes well under a second
    started = time.perf_counter()
    report = verify_delta(300)
    elapsed = time.perf_counter() - started
    assert report.flagged == DELTA and report.matches
    assert report.triples_examined == 3_305_042
    assert elapsed < 5.0, elapsed


def test_census_at_the_cap_is_fast():
    # on a 2-vCPU Xeon guest the closed form takes 0.03 to 0.07 s at the cap
    # and the per-pair masks of mask_census 3.5 to 7 s, so a fallback to
    # per-pair work fails
    started = time.perf_counter()
    report = verify_delta(CENSUS_MAX_BOUND)
    elapsed = time.perf_counter() - started
    assert report.triples_examined == 1_078_044_064
    assert report.triples_searched == 4
    assert report.flagged == DELTA and report.matches
    assert elapsed < 2.0, elapsed


# The class cut: the pairs that no witness family holds, split by the
# families holding each m3, fast enough to cut every m1 up to 2000.
def uncertified_pairs(
    m1: int, bound: int, families: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs m1 < m2 < m3 <= bound that no family holds both of, sorted.

    The m3 in (m1, bound] are split into classes by the set P of families
    that have them as members, one family at a time; a class keeps the m2
    that are gaps of every family in P, and is dropped once its lowest m2
    is not below its highest m3.  A family has every number above its
    Frobenius number as a member."""
    window = (2 << bound) - (2 << m1)  # (m1, bound]
    classes = [(window, window)]  # (the m3 of a class, its m2 candidates)
    for mask, frob in families:
        member = (mask | -(2 << frob)) & window
        classes = [
            (third, second)
            for old_third, old_second in classes
            for third, second in (
                (old_third & member, old_second & ~member),
                (old_third & ~member, old_second),
            )
            if second and (second & -second).bit_length() < third.bit_length()
        ]
    return sorted(
        (m2, m3)
        for third, second in classes
        for m3 in _bits(third)
        for m2 in _bits(second & ((1 << m3) - 1))
    )


def cut_triples(bound: int, families) -> list[tuple[int, int, int]]:
    """The cut at ``bound`` and its filter at every m1, by ``families(m1)``:
    the candidate triples in no family, in lexicographic order."""
    return [
        t
        for m1 in range(3, bound - 1)
        for t in _dimension_3_triples(m1, uncertified_pairs(m1, bound, families(m1)))
    ]


def test_pigeonhole_lists_exactly_the_uncertified_triples():
    # Stand-in families with overlapping gaps, so that the window is cut
    # by several, and with gaps shared by all four: the oversemigroups of
    # multiplicity m1 of a few bases, used for every m1.  The cut and its
    # filter keep exactly the candidate triples in no stand-in.
    for gens in ([7, 9, 10], [7, 8], [8, 11, 13, 14], [9, 10]):
        base = from_generators(gens)
        m1, frob = base.multiplicity, base.frobenius
        masks = list(iter_cover_masks(base))
        for picks in (masks[:4], masks[-4:], [masks[0]] * 4, masks[::max(1, len(masks) // 4)][:4]):
            families = [_semigroup_from_mask(mask, frob, m1) for mask in picks]
            stand_ins = [(mask, frob) for mask in picks]
            for bound in (m1 + 2, 2 * m1 + 3, frob + 4):
                expected = [
                    t
                    for t in candidate_triples(bound)
                    if not any(t[1] in s and t[2] in s for s in families)
                ]
                assert cut_triples(bound, lambda m: stand_ins) == expected, (gens, bound)


@pytest.mark.parametrize("bound", [9, 12, 15])
def test_verify_delta_flags_exactly_the_four(bound):
    report = verify_delta(bound)
    assert report.flagged == DELTA
    assert report.expected == DELTA
    assert report.matches


def test_verify_delta_small_bounds():
    assert verify_delta(5).flagged == ((3, 4, 5),)
    assert verify_delta(7).flagged == ((3, 4, 5), (3, 5, 7), (4, 5, 7))
    with pytest.raises(DomainError):
        verify_delta(2)


def test_verify_delta_parallel_matches_serial():
    serial = verify_delta(10)
    parallel = verify_delta(10, jobs=2)
    assert serial == parallel


@pytest.fixture(scope="module")
def covered_upto_30() -> dict[tuple[int, int, int], bool]:
    """The exhaustive oracle: the gap-subset DFS on every candidate triple up to 30."""
    return {t: exhaustive_has_symmetric_cover(from_generators(t)) for t in candidate_triples(30)}


def test_verify_delta_matches_exhaustive_oracle(covered_upto_30):
    for bound in range(3, 31):
        uncovered = [t for t in candidate_triples(bound) if not covered_upto_30[t]]
        assert list(verify_delta(bound).flagged) == uncovered, bound


def test_witness_families_agree_with_the_search(covered_upto_30):
    # every m1 from 3: a family-certified triple is covered by the DFS, and
    # the triples no family certifies are exactly DELTA
    uncertified = []
    for t, covered in covered_upto_30.items():
        if any(t[1] in s and t[2] in s for s in mask_families(t[0])):
            assert covered, t
        else:
            uncertified.append(t)
    assert tuple(uncertified) == DELTA


def test_census_searches_exactly_delta(fresh_leftover, monkeypatch):
    # the criterion decides the four leftover triples once per process, in
    # lexicographic order, however many censuses follow; each bound still
    # searches and flags exactly DELTA within it, from m1 = 3 up
    seen = []

    def recording_criterion(s):
        seen.append(s.minimal_gens)
        return has_symmetric_cover(s)

    monkeypatch.setattr(oversemigroups, "has_symmetric_cover", recording_criterion)
    for bound in [*range(3, 61), 300]:
        report = verify_delta(bound)
        within = tuple(t for t in DELTA if t[2] <= bound)
        assert (report.triples_searched, report.flagged) == (len(within), within), bound
        assert report.flagged == report.expected, bound
    assert seen == list(DELTA)


def test_the_flagged_triples_are_delta_by_the_exhaustive_oracle(covered_upto_30):
    # every uncovered triple up to 30 by the gap-subset search, past the
    # lemma's box m3 < 3·m1 <= 24, is one the census flags
    uncovered = tuple(t for t, covered in covered_upto_30.items() if not covered)
    assert uncovered == _census_flagged() == DELTA
    assert _census_flagged() is _census_flagged()


@pytest.mark.parametrize("bound", ["40", 40.0, True, None])
def test_verify_delta_refuses_a_bound_that_is_no_int(bound):
    with pytest.raises(DomainError, match="bound must be an integer"):
        verify_delta(bound)


# ── the four witness families ────────────────────────────────────────────────


def test_witness_families_small_values():
    s1, s2, s3, s4 = witness_families(5)
    assert s1.minimal_gens == (5, 6, 7, 8) and s1.frobenius == 9
    assert s2.minimal_gens == (5, 7, 8, 9) and s2.frobenius == 11
    assert s3.minimal_gens == (5, 9, 11, 13) and s3.frobenius == 17
    assert s4.minimal_gens == (5, 6, 9) and s4.frobenius == 13


def test_witness_families_verified_through_50():
    for m1 in range(5, 51):
        s1, s2, s3, s4 = witness_families(m1)
        assert [s.frobenius for s in (s1, s2, s3, s4)] == [
            2 * m1 - 1,
            2 * m1 + 1,
            4 * m1 - 3,
            2 * m1 + 3,
        ]
        for s in (s1, s2, s3, s4):
            assert is_symmetric(s)
            assert s.multiplicity == m1


def test_witness_families_match_the_generated_semigroups():
    for m1 in range(5, 151):
        assert witness_families(m1) == paper_families(m1), m1
    for m1 in (3, 4):  # the census's families below 5, by the same formulas
        assert mask_families(m1) == paper_families(m1), m1
        assert all(is_symmetric(s) and s.multiplicity == m1 for s in paper_families(m1)), m1


def test_family_builder_checks_symmetry_and_frobenius():
    s = _family_from_runs([(0, 0), (5, 8)], 5, 9)
    assert members_upto_frobenius(s, 9) == {0, 5, 6, 7, 8} and s.minimal_gens == (5, 6, 7, 8)
    for runs, m1, frob in (
        ([(0, 0), (5, 7)], 5, 9),  # <5, 6, 7>: Frobenius 9 but 4 members below it, not symmetric
        ([(0, 0), (5, 8), (10, 11)], 5, 11),  # <5, 6, 7, 8>: 11 is a member, F is 9
        ([(0, 0), (5, 8)], 5, 7),  # <5, 6, 7, 8> has the gap 9 above 7, which is a member
        ([(0, 0), (3, 3), (5, 5), (7, 8)], 3, 9),  # the third formula at m1 = 3: 3 + 3 missing
        ([(0, 0), (3, 4), (7, 8)], 3, 9),  # the fourth formula at m1 = 3: 3 + 3 missing
        ([(0, 0), (3, 3), (5, 6)], 5, 7),  # <3, 5> is symmetric, but 3 is a member below 5
    ):
        with pytest.raises(InvariantViolation):
            _family_from_runs(runs, m1, frob)
    s = _family_from_runs([(0, 0), (3, 3), (5, 6)], 3, 7)
    assert members_upto_frobenius(s, 7) == {0, 3, 5, 6} and s.minimal_gens == (3, 5)


def brute_force_is_symmetric(runs: list[tuple[int, int]], m1: int, frob: int) -> bool:
    """The runs and everything above frob, as a set: closed, members {0, m1}
    up to m1, frob a gap and (frob + 1) / 2 members up to frob."""
    members = {x for a, b in runs for x in range(a, b + 1) if x <= frob}
    above = set(range(frob + 1, 2 * frob + 2))
    closed = all(x + y in members | above for x in members for y in members if x + y <= frob)
    low = {x for x in members | above if x <= m1}
    return closed and low == {0, m1} and frob not in members and 2 * len(members) == frob + 1


SMALL_SEMIGROUPS = [
    s for s in map(from_generators, POPULATION) if 1 <= s.frobenius <= 40 and s.multiplicity > 1
]


def runs_of(s: NumericalSemigroup) -> list[tuple[int, int]]:
    """The members of s up to its Frobenius number as maximal runs."""
    runs: list[tuple[int, int]] = []
    for x in range(s.frobenius):
        if x in s and runs and runs[-1][1] == x - 1:
            runs[-1] = (runs[-1][0], x)
        elif x in s:
            runs.append((x, x))
    return runs


@st.composite
def run_lists(draw) -> tuple[list[tuple[int, int]], int, int]:
    """(runs, m1, frob) with frob <= 40: the runs of a small semigroup, 0
    among them, with up to two random runs added, and the semigroup's own
    multiplicity and Frobenius number or nearby ones."""
    s = draw(st.sampled_from(SMALL_SEMIGROUPS))
    extra = draw(st.lists(st.tuples(st.integers(1, 44), st.integers(0, 8)), max_size=2))
    m1 = s.multiplicity + draw(st.sampled_from([0, 0, -1, 1]))
    frob = min(40, max(1, s.frobenius + draw(st.sampled_from([0, 0, -2, -1, 1, 2]))))
    return runs_of(s) + [(a, a + n) for a, n in extra], m1, frob


@settings(max_examples=400, deadline=None)
@given(run_lists())
def test_symmetric_mask_matches_the_set_oracle(case):
    runs, m1, frob = case
    try:
        s = _family_from_runs(runs, m1, frob)
    except InvariantViolation:
        assert not brute_force_is_symmetric(runs, m1, frob)
    else:
        assert brute_force_is_symmetric(runs, m1, frob)
        assert (s.multiplicity, s.frobenius) == (m1, frob)
        expected = {x for x in range(frob + 1) if any(a <= x <= b for a, b in runs)}
        assert members_upto_frobenius(s, frob) == expected


def test_symmetric_mask_accepts_exactly_the_symmetric_semigroups():
    assert len(SMALL_SEMIGROUPS) > 500
    for s in SMALL_SEMIGROUPS:
        runs, m1, frob = runs_of(s), s.multiplicity, s.frobenius
        assert brute_force_is_symmetric(runs, m1, frob) == is_symmetric(s), s
        try:
            built = _family_from_runs(runs, m1, frob)
        except InvariantViolation:
            assert not is_symmetric(s), s
        else:
            assert is_symmetric(s) and built == s, s


def test_family_gaps_above_m1_are_linear_and_disjoint():
    for m1 in range(5, 301):
        gaps = [
            {x for x in range(m1 + 1, s.frobenius + 1) if x not in s} for s in witness_families(m1)
        ]
        assert gaps[0] == {2 * m1 - 1}, m1
        assert gaps[1] == {m1 + 1, 2 * m1 + 1}, m1
        assert gaps[3] == {m1 + 2, m1 + 3, 2 * m1 + 3}, m1
        assert not gaps[0] & gaps[1] and not gaps[0] & gaps[3] and not gaps[1] & gaps[3], m1


# ── the run table ────────────────────────────────────────────────────────────


def family_sets(m1: int) -> list[tuple[set[int], int]]:
    """The members up to F and F of each witness family of m1, read off the
    test's run table as plain sets."""
    return [({x for a, b in runs for x in range(a, b + 1)}, f) for runs, f in family_runs(m1)]


def test_families_match_the_set_oracle_past_k0():
    # the test's run table as plain sets, and witness_families the same sets
    for m1 in range(3, 66):
        masks = family_masks(m1)
        assert len(masks) == (2 if m1 == 3 else 4), m1
        if m1 >= 5:
            built = witness_families(m1)
            assert [(members_upto_frobenius(s, s.frobenius), s.frobenius) for s in built] == (
                family_sets(m1)
            ), m1
        for (mask, frob), (members, f) in zip(masks, family_sets(m1)):
            assert frob == f > m1 and max(members) < f, m1
            assert mask == sum(1 << x for x in members), m1
            assert {x + y for x in members for y in members if x + y <= f} <= members, m1
            assert {x for x in members if x <= m1} == {0, m1}, m1
            assert all((x in members) != (f - x in members) for x in range(f + 1)), m1


def test_families_hold_every_pair_up_to_4m1_past_k0():
    # the per-pair cut of mask_census over every pair m2 < m3 <= 4·m1
    for m1 in range(5, 66):
        bound = 4 * m1
        family_gaps = [(2 << frob) - 1 ^ mask for mask, frob in family_masks(m1)]
        for m2 in range(m1 + 1, bound):
            third = (2 << bound) - (2 << m2)  # (m2, bound]
            for gaps in family_gaps:
                if not gaps >> m2 & 1:
                    third &= gaps
            assert third == 0, (m1, m2)


def with_family(index: int, family):
    """The library's run table with the family at ``index`` replaced by
    ``family(m1)``."""
    table = oversemigroups._family_runs
    return lambda m1: tuple(family(m1) if i == index else f for i, f in enumerate(table(m1)))


PERTURBED_TABLES = {
    # family 3's middle run from 2·m1: 2·m1 - 1 a gap, too few members
    "family 3 from 2m1": with_family(
        2,
        lambda m1: (((0, 0), (m1, m1), (2 * m1, 3 * m1 - 4), (3 * m1 - 2, 4 * m1 - 4)), 4 * m1 - 3),
    ),
    # family 4's F one higher: 2·m1 + 4 = m1 + (m1 + 4) is a member
    "family 4 F + 1": with_family(
        3, lambda m1: (((0, 0), (m1, m1 + 1), (m1 + 4, 2 * m1 + 2)), 2 * m1 + 4)
    ),
}


@pytest.mark.parametrize("name", PERTURBED_TABLES)
def test_a_perturbed_run_table_fails_the_witness_families(monkeypatch, name):
    # each family is checked symmetric, on every call; the census does not
    # read the run table
    monkeypatch.setattr(oversemigroups, "_family_runs", PERTURBED_TABLES[name])
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not symmetric"):
            witness_families(5)
    assert verify_delta(40).matches


def test_the_census_does_not_need_family_3():
    # {0, m1} ∪ [2m1 - 1, 3m1 - 4] ∪ [3m1 - 2, 4m1 - 4] holds no triple that
    # families 1, 2 and 4 leave to the criterion: a plain-set check of the
    # pairs up to 6·m1 for m1 < 80
    left = []
    for m1 in range(3, 80):
        bound = 6 * m1
        families = [s for i, s in enumerate(paper_families(m1)) if i != 2]
        gaps = [sum(1 << x for x in range(bound + 1) if x not in s) for s in families]
        for m2, third in third_entries(m1, bound):
            for family_gaps in gaps:
                if not family_gaps >> m2 & 1:
                    third &= family_gaps
            left += [(m1, m2, m3) for m3 in _bits(third)]
    assert tuple(left) == DELTA


# ── the odd-count lemma ──────────────────────────────────────────────────────


def test_odd_members_below_3m1_are_among_the_five_sums():
    # the lemma's premise, by enumeration: the odd members of <m1, m2, m3>
    # in I = [2·m1 - 1, 3·m1 - 1] are among m2, m3, m1 + m2, m1 + m3, m2 + m3
    for m1 in range(3, 25):
        top = 3 * m1 - 1
        full = (2 << top) - 1
        odd = sum(1 << x for x in range(2 * m1 - 1, top + 1, 2))
        for m2, m3 in combinations(range(m1 + 1, 4 * m1 + 3), 2):
            members = 1
            for g in (m1, m2, m3):
                for _ in range(top // g):
                    members = (members | members << g) & full
            sums = sum(1 << x for x in {m2, m3, m1 + m2, m1 + m3, m2 + m3} if x <= top)
            assert members & odd & ~sums == 0, (m1, m2, m3)


def test_the_criterion_flags_only_the_leftover_in_the_lemma_box():
    # every triple the lemma does not rule out, m1 <= 8 and m3 < 3·m1, goes
    # to the criterion; only the leftover is uncovered
    box = [
        (m1, m2, m3)
        for m1 in range(3, 9)
        for m2, m3 in combinations(range(m1 + 1, 3 * m1), 2)
        if gcd(m1, m2, m3) == 1 and from_generators((m1, m2, m3)).embedding_dimension == 3
    ]
    assert len(box) == 198
    flagged = tuple(t for t in box if not has_symmetric_cover(from_generators(t)))
    assert flagged == _census_leftover() == DELTA


def test_uncovered_triples_up_to_60_are_exactly_delta():
    # the lemma's conclusion by brute force, past every box m3 < 3·m1 <= 24
    uncovered = [t for t in candidate_triples(60) if not has_symmetric_cover(from_generators(t))]
    assert tuple(uncovered) == DELTA


@pytest.fixture
def fresh_leftover():
    """Clear the cached leftover and its flagged triples before and after
    the test, so that ones built with a patched ``_dimension_3_triples`` or
    criterion are not kept."""
    _census_leftover.cache_clear()
    _census_flagged.cache_clear()
    yield
    _census_leftover.cache_clear()
    _census_flagged.cache_clear()


def test_the_leftover_is_built_once_per_process(fresh_leftover, monkeypatch):
    # two censuses and two direct calls filter each m1 = 3 .. 8 once, and
    # share one tuple
    calls = []

    def counted_triples(m1: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
        calls.append(m1)
        return _dimension_3_triples(m1, pairs)

    monkeypatch.setattr(oversemigroups, "_dimension_3_triples", counted_triples)
    assert verify_delta(36) == verify_delta(36)
    assert _census_leftover() is _census_leftover()
    assert calls == list(range(3, 9))


def test_a_smaller_leftover_still_leaves_the_criterion_to_decide(
    fresh_leftover, monkeypatch, capsys
):
    # a filter that keeps only m1 = 3 hands the criterion two triples: it
    # flags both, and the census reports the mismatch with DELTA (exit 3)
    def first_only(m1: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
        return _dimension_3_triples(m1, pairs) if m1 == 3 else []

    monkeypatch.setattr(oversemigroups, "_dimension_3_triples", first_only)
    report = verify_delta(40)
    assert (report.flagged, report.triples_searched, report.matches) == (DELTA[:2], 2, False)
    assert main(["delta", "verify", "--bound", "40", "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["match"] is False


@pytest.mark.parametrize("bounds", [range(3, 61), [100], [400], [2000]])
def test_the_census_matches_the_family_cut_at_every_m1(bounds):
    for bound in bounds:
        searched = cut_triples(bound, family_masks)
        flagged = tuple(t for t in searched if not has_symmetric_cover(from_generators(t)))
        report = verify_delta(bound)
        assert (report.flagged, report.triples_searched) == (flagged, len(searched)), bound


def test_witness_families_reject_small_multiplicity():
    for m1 in (3, 4):
        with pytest.raises(DomainError):
            witness_families(m1)


@pytest.mark.parametrize("m1", [5.0, True, "5", None])
def test_witness_families_refuse_an_m1_that_is_no_int(m1):
    with pytest.raises(DomainError, match="m1 must be an integer"):
        witness_families(m1)


def test_invariant_violation_is_importable():
    # witness_families re-verifies each family; a failure raises this type
    assert issubclass(InvariantViolation, Exception)
