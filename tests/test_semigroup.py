"""Core semigroup invariants against brute-force oracles and known values."""

from __future__ import annotations

import pickle
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnlab import (
    DomainError,
    EmptyInput,
    FrobeniusCapExceeded,
    InvalidGenerator,
    NonCofinite,
    NotMember,
    NumericalSemigroup,
    apery_set,
    from_generators,
    is_symmetric,
    profile,
    pseudo_frobenius,
    traits,
)
from hnlab.semigroup import _apery_round_robin

# ── independent oracles ──────────────────────────────────────────────────────


def dp_members(gens: list[int], limit: int) -> set[int]:
    """Dynamic-programming closure of the generators up to ``limit``."""
    member = [False] * (limit + 1)
    member[0] = True
    for n in range(1, limit + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    return {n for n, ok in enumerate(member) if ok}

def oracle_gaps(gens: list[int]) -> list[int]:
    """Gaps by exhaustive closure; the bound grows until a full run of
    ``min(gens)`` consecutive members certifies the cofinite tail."""
    lo = min(gens)
    limit = 4 * max(gens)
    while True:
        members = dp_members(gens, limit)
        if all(x in members for x in range(limit - lo + 1, limit + 1)):
            return [n for n in range(limit + 1) if n not in members]
        limit *= 2

def oracle_apery(gens: list[int], n: int) -> list[int]:
    """Least member per class mod n by scanning the closure."""
    gaps = oracle_gaps(gens)
    bound = (max(gaps) if gaps else 0) + 2 * n + 1
    members = dp_members(gens, bound)
    return [min(x for x in members if x % n == r) for r in range(n)]

def round_robin_oracle(gens: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apéry set of <gens> mod gens[0], and the generators outside the
    semigroup of those before them, adjoined one at a time: each generator
    relaxes every cycle r -> r + g (mod m) twice round, which carries the
    cycle's least entry to every class of the cycle."""
    m = gens[0]
    dist: list[int | None] = [0] + [None] * (m - 1)
    kept = [m]
    for g in gens[1:]:
        if dist[g % m] is not None and dist[g % m] <= g:
            continue
        kept.append(g)
        d = gcd(g, m)
        for r in range(d):
            for _ in range(2 * m // d):
                nxt = (r + g) % m
                if dist[r] is not None and (dist[nxt] is None or dist[r] + g < dist[nxt]):
                    dist[nxt] = dist[r] + g
                r = nxt
    return tuple(dist), tuple(kept)

def reflection_symmetric(gens: list[int]) -> bool:
    gaps = oracle_gaps(gens)
    if not gaps:
        return True
    frob = max(gaps)
    members = dp_members(gens, frob)
    return all((x in members) != (frob - x in members) for x in range(frob + 1))


# All gcd-1 generator subsets of {1..20} of size <= 3; the exhaustive desk
# population used by the property suites.
POPULATION = [
    list(c)
    for size in (1, 2, 3)
    for c in combinations(range(1, 21), size)
    if gcd(*c) == 1
]


# ── construction ─────────────────────────────────────────────────────────────


def test_minimal_generators_known_values():
    assert from_generators([3, 4, 5]).minimal_gens == (3, 4, 5)
    # 7 = 3 + 4 is redundant; the oracle closure confirms membership.
    assert 7 in dp_members([3, 4, 5], 7)
    assert from_generators([3, 4, 5, 7]).minimal_gens == (3, 4, 5)
    assert from_generators([1]).minimal_gens == (1,)
    assert from_generators([5, 3, 4, 3]).minimal_gens == (3, 4, 5)

def test_construction_errors():
    with pytest.raises(NonCofinite):
        from_generators([2, 4])
    with pytest.raises(EmptyInput):
        from_generators([])
    for bad in (0, -2, True, 2.0):
        with pytest.raises(InvalidGenerator):
            from_generators([3, bad, 5])

def test_from_generators_idempotent_on_population():
    # equality, hash and a pickle round trip read the fields only, so the
    # genus and Frobenius number cached on one side change none of them
    for gens in POPULATION:
        s = from_generators(gens)
        again = from_generators(list(s.minimal_gens))
        gaps = profile(s).gaps
        assert (s.genus, s.frobenius) == (len(gaps), max(gaps, default=-1))
        assert again == s and hash(again) == hash(s)
        assert pickle.loads(pickle.dumps(s)) == s == pickle.loads(pickle.dumps(again))

def test_frobenius_cap():
    with pytest.raises(FrobeniusCapExceeded, match="Frobenius number 10199 exceeds the cap of 1000"):
        from_generators([101, 103], max_frobenius=1000)
    # a generator above the cap is refused before the Apéry pass
    with pytest.raises(InvalidGenerator, match="generator 5000 exceeds the cap of 1000"):
        from_generators([3, 5000], max_frobenius=1000)
    # cap above the true Frobenius number F(<a,b>) = ab - a - b is fine
    assert from_generators([101, 103], max_frobenius=11_000).frobenius == 101 * 103 - 101 - 103


@pytest.mark.parametrize("cap", ["9", 5.5, 3.0, True, False, [10]])
def test_a_cap_that_is_no_int_is_refused(cap):
    # "9" raised TypeError from the generator check, and 5.5 was accepted
    with pytest.raises(DomainError, match="^max_frobenius must be an integer, got "):
        from_generators([3, 4], max_frobenius=cap)


# ── Apéry sets ───────────────────────────────────────────────────────────────


def test_apery_examples():
    s = from_generators([3, 4, 5])
    assert oracle_apery([3, 4, 5], 3) == [0, 4, 5]
    assert apery_set(s, 3) == (0, 4, 5)
    assert apery_set(from_generators([1]), 1) == (0,)
    s456 = from_generators([4, 5, 6])
    assert oracle_apery([4, 5, 6], 4) == [0, 5, 6, 11]
    assert apery_set(s456, 4) == (0, 5, 6, 11)
    assert max(apery_set(s456, 4)) - 4 == 7 == s456.frobenius

def test_apery_non_member_rejected():
    s = from_generators([3, 4, 5])
    with pytest.raises(NotMember):
        apery_set(s, 2)
    with pytest.raises(NotMember):
        apery_set(s, 0)
    # n that is no int, even when it equals a member, is no element either
    for n in (2.5, 6.0, "6"):
        with pytest.raises(NotMember):
            apery_set(from_generators([3, 4]), n)
    with pytest.raises(NotMember):
        apery_set(from_generators([1]), True)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, False])
def test_membership_refuses_what_is_no_int(n):
    s = from_generators([3, 4])
    with pytest.raises(DomainError) as err:
        s.contains(n)
    assert str(err.value) == f"membership needs an integer, got {n!r}"
    with pytest.raises(DomainError):
        n in s  # noqa: B015
    assert s.contains(3) and 3 in s and not s.contains(1) and -1 not in s


def test_apery_against_oracle_on_members():
    for gens in ([3, 5, 7], [4, 6, 7], [2, 9], [5, 7, 9, 11]):
        s = from_generators(gens)
        m = s.multiplicity
        # generators, and members that are not generators
        for n in (*gens, 2 * m, m + s.minimal_gens[1], s.frobenius + 1):
            assert list(apery_set(s, n)) == oracle_apery(gens, n)

# Lists whose leading run (after the first generator) is 5, 6, 7 or more
# consecutive integers: the run holds 2a, or multiples of m, or both, and
# some lists go on after it.
RUN_LISTS = [
    [11, 13, 14, 15, 16, 17],
    [11, *range(13, 18), 30],
    [10, *range(11, 17)],
    [13, *range(20, 26), 31],
    [9, *range(10, 17), 40],
    [3, *range(4, 13)],
    [5, *range(6, 14)],
    [7, *range(10, 22)],
    [7, *range(10, 22), 41],
    [37, *range(40, 47), 50, 61, 99],
    [23, *range(24, 60)],
    [61, *range(90, 100), 101, 151],
    [199, *range(210, 241), 251, 307],
    [200, *range(201, 261), 397],
]

def test_leading_runs_match_the_dp_oracle():
    for gens in RUN_LISTS:
        s = from_generators(gens)
        m = s.multiplicity
        assert list(s.apery) == oracle_apery(gens, m), gens
        assert s.minimal_gens == tuple(
            g for i, g in enumerate(gens) if g not in dp_members(gens[:i], g)
        ), gens
        assert from_generators(list(s.minimal_gens)) == s

def test_apery_set_at_and_after_a_leading_run():
    # minimal systems that start with a run of 6 or more, for n at the
    # run's first element (no member is lower), inside it and above it
    for gens in ([20, *range(21, 28), 39], [9, *range(10, 16), 17], [31, *range(32, 52), 60]):
        s = from_generators(gens)
        a, b = gens[0], gens[-2]
        for n in (a, a + 2, b, b + 1, 2 * a + 1, 3 * b, s.frobenius + 1):
            if s.contains(n):
                assert list(apery_set(s, n)) == oracle_apery(gens, n), (gens, n)

def test_leading_runs_match_the_round_robin_oracle():
    # (n, a..b, rest) for n below, inside and above the run, as apery_set
    # and from_generators pass them, and lists no caller passes (a run with
    # 2a in it behind a larger n), where the kept list must still agree
    rng = random.Random(32)
    for _ in range(300):
        a = rng.randint(1, 60)
        b = a + rng.randint(4, 30)
        n = rng.choice([rng.randint(1, a), rng.randint(a, b), rng.randint(b, 3 * b)])
        rest = sorted(rng.sample(range(b + 2, 2 * b + 40), rng.randint(0, 3)))
        gens = (n, *range(a, b + 1), *rest)
        assert _apery_round_robin(gens) == round_robin_oracle(gens), gens
    # unsorted lists: gens[6] - gens[1] == 5 with no run; a run of 5, then
    # a run of 6, each followed by a smaller entry
    for gens in ((11, 20, 30, 21, 22, 23, 25), (11, 13, 14, 15, 16, 17, 12), (9, *range(30, 36), 10)):
        assert _apery_round_robin(gens) == round_robin_oracle(gens), gens

def test_the_analyze_shapes_match_the_round_robin_oracle():
    # (m, 2m - k, ..., 2m - 1): the many-generator `sgp analyze` inputs
    for m in (200, 400, 600, 800, 1000):
        for k in (20, 40, 60):
            gens = (m, *range(2 * m - k, 2 * m))
            s = from_generators(gens)
            assert (s.apery, s.minimal_gens) == round_robin_oracle(gens), (m, k)

def test_apery_definitional_invariants_on_population():
    for gens in POPULATION[:500]:
        s = from_generators(gens)
        m = s.multiplicity
        assert s.apery[0] == 0
        for r, a in enumerate(s.apery):
            assert a % m == r
            assert s.contains(a)
            assert not s.contains(a - m)

def test_minimal_generators_are_not_sums_of_members():
    for gens in POPULATION[:500]:
        s = from_generators(gens)
        for g in s.minimal_gens:
            assert not any(
                s.contains(u) and s.contains(g - u) for u in range(1, g)
            )


# ── profiles ─────────────────────────────────────────────────────────────────


def test_profile_known_values():
    p = profile(from_generators([3, 4, 5]))
    assert (p.frobenius, p.gaps, p.genus, p.n_below) == (2, (1, 2), 2, 1)
    p = profile(from_generators([4, 5, 6]))
    assert p.frobenius == 7 and p.genus == 4
    p = profile(from_generators([4, 6, 7]))
    assert p.frobenius == 9 and p.genus == 5
    # the explicit element lists {0,4,5,6,8,->} and {0,4,6,7,8,10,->}
    s = from_generators([4, 5, 6])
    assert [x for x in range(10) if x in s] == [0, 4, 5, 6, 8, 9]
    s = from_generators([4, 6, 7])
    assert [x for x in range(12) if x in s] == [0, 4, 6, 7, 8, 10, 11]

def test_profile_whole_of_n():
    p = profile(from_generators([1]))
    assert (p.frobenius, p.gaps, p.genus, p.n_below) == (-1, (), 0, 0)

def test_profile_matches_oracle_on_population():
    for gens in POPULATION:
        p = profile(from_generators(gens))
        gaps = oracle_gaps(gens)
        assert list(p.gaps) == gaps
        assert p.frobenius == (max(gaps) if gaps else -1)
        members = dp_members(gens, max(p.frobenius, 0))
        assert p.n_below == sum(1 for x in members if x < p.frobenius)

def test_gap_identities_on_population():
    for gens in POPULATION:
        p = profile(from_generators(gens))
        assert p.genus + p.n_below == p.frobenius + 1
        assert 2 * p.genus >= p.frobenius + 1


# ── symmetry and traits ──────────────────────────────────────────────────────


def test_symmetric_known_values():
    assert is_symmetric(from_generators([3, 4]))
    assert not is_symmetric(from_generators([3, 4, 5]))
    assert is_symmetric(from_generators([4, 5, 6]))
    assert is_symmetric(from_generators([1]))

def test_symmetric_agrees_with_reflection_oracle():
    for gens in POPULATION:
        assert is_symmetric(from_generators(gens)) == reflection_symmetric(gens)

def test_embedding_dimension_two_is_symmetric():
    for a in range(2, 21):
        for b in range(a + 1, 21):
            if gcd(a, b) == 1:
                assert is_symmetric(from_generators([a, b]))

def test_traits_known_values():
    t = traits(from_generators([3, 4, 5]))
    assert (t.multiplicity, t.embedding_dimension) == (3, 3)
    assert not t.symmetric
    assert t.pseudo_frobenius == (1, 2)
    assert t.type == 2
    assert t.almost_symmetric
    t = traits(from_generators([3, 4]))
    assert (t.multiplicity, t.embedding_dimension, t.symmetric, t.type) == (3, 2, True, 1)
    t = traits(from_generators([1]))
    assert t.symmetric and t.irreducible and t.type == 0

def oracle_pseudo_frobenius(s: NumericalSemigroup) -> tuple[int, ...]:
    """Brute-force the defining condition x + t in S for all nonzero t in S,
    quantified over elements up to F + multiplicity."""
    p = profile(s)
    return tuple(
        x
        for x in p.gaps
        if all(
            (x + t) in s
            for t in range(1, p.frobenius + s.multiplicity + 1)
            if t in s
        )
    )

def test_pseudo_frobenius_definition_on_population():
    for gens in POPULATION[:400]:
        s = from_generators(gens)
        assert pseudo_frobenius(s) == oracle_pseudo_frobenius(s)

def test_pseudo_frobenius_definition_on_the_analyze_shapes():
    # many generators: (m, 2m - k, ..., 2m - 1), the shape of the benchmark's
    # many-generator `sgp analyze` inputs, for every k < m
    for m in range(5, 41):
        for k in range(1, m):
            s = from_generators([m, *range(2 * m - k, 2 * m)])
            assert pseudo_frobenius(s) == oracle_pseudo_frobenius(s), (m, k)

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 80), min_size=1, max_size=12))
def test_pseudo_frobenius_definition_on_random_sets(gens):
    if gcd(*gens) != 1:
        gens = gens + [max(gens) + 1]  # gcd(d, max+1) = 1 for any d | max
    s = from_generators(gens)
    assert pseudo_frobenius(s) == oracle_pseudo_frobenius(s)

def test_type_and_almost_symmetry_on_population():
    for gens in POPULATION:
        s = from_generators(gens)
        t = traits(s)
        if t.symmetric and s.frobenius >= 0:
            assert t.type == 1
        assert 2 * s.genus >= s.frobenius + t.type
        assert t.almost_symmetric == (2 * s.genus == s.frobenius + t.type)
        if t.symmetric and s.frobenius >= 0:
            assert t.almost_symmetric

def test_frobenius_in_pseudo_frobenius():
    for gens in POPULATION:
        s = from_generators(gens)
        if s.frobenius >= 0:
            assert s.frobenius in pseudo_frobenius(s)


# ── randomized membership cross-checks ───────────────────────────────────────


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_membership_matches_dp_closure(gens):
    if gcd(*gens) != 1:
        gens = gens + [max(gens) + 1]  # gcd(d, max+1) = 1 for any d | max
    s = from_generators(gens)
    limit = 3 * max(gens)
    canon = sorted(set(gens))
    members = dp_members(canon, limit)
    for n in range(limit + 1):
        assert s.contains(n) == (n in members)
    # minimal system: the generators outside the closure of the smaller ones
    assert s.minimal_gens == tuple(
        g for i, g in enumerate(canon) if g not in dp_members(canon[:i], g)
    )

@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=8))
def test_random_sets_satisfy_gap_identities(gens):
    if gcd(*gens) != 1:
        gens = gens + [max(gens) + 1]
    s = from_generators(gens)
    p = profile(s)
    assert p.genus + p.n_below == p.frobenius + 1
    assert 2 * p.genus >= p.frobenius + 1
    assert is_symmetric(s) == (2 * p.genus == p.frobenius + 1)
