"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a passing run (pytest shows captured output for failures anyway).
All checks are exact; the stated runtime budgets are asserted where given.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import combinations, product
from math import gcd

from oracles import oracle_oversemigroups

from hnlab import (
    DELTA,
    ExponentPair,
    build,
    catalogue_entries,
    check_consistency,
    enumerate_cases,
    from_generators,
    is_symmetric,
    oversemigroups_with_multiplicity,
    profile,
    solve_exponents,
    traits,
    vanishing_check,
    verify_delta,
    verify_example,
    witness_families,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_delta_reproduction():
    with criterion(1, "delta verify --bound 20 flags exactly the four triples (< 60 s)"):
        started = time.perf_counter()
        report = verify_delta(20, jobs=1)
        elapsed = time.perf_counter() - started
        assert report.flagged == DELTA
        assert report.expected == DELTA
        assert report.matches
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_witness_families():
    with criterion(2, "four witness families symmetric with stated Frobenius, m1 in [5, 50] (< 1 s)"):
        started = time.perf_counter()
        for m1 in range(5, 51):
            fams = witness_families(m1)  # raises InvariantViolation on failure
            assert [s.frobenius for s in fams] == [
                2 * m1 - 1, 2 * m1 + 1, 4 * m1 - 3, 2 * m1 + 3,
            ]
            assert all(is_symmetric(s) and s.multiplicity == m1 for s in fams)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_fixed_semigroup_facts():
    with criterion(3, "fixed semigroup facts: F(<4,5,6>)=7, F(<4,6,7>)=9, <3,4> symmetric, <3,4,5> data"):
        assert profile(from_generators([4, 5, 6])).frobenius == 7
        assert profile(from_generators([4, 6, 7])).frobenius == 9
        assert is_symmetric(from_generators([3, 4]))
        s = from_generators([3, 4, 5])
        p, t = profile(s), traits(s)
        assert p.frobenius == 2
        assert p.n_below == 1
        assert t.type == 2
        assert t.almost_symmetric


def test_criterion_4_hn_matrices_and_solver():
    with criterion(4, "the four reference exponent pairs rebuild exactly; solver round-trips all four m"):
        reference = [
            ((1, 1, 1), (2, 1, 1), (3, 4, 5),
             (((3, 0, 0), (0, 1, 1)), ((0, 2, 0), (1, 0, 1)), ((0, 0, 2), (2, 1, 0)))),
            ((1, 1, 1), (3, 1, 1), (3, 5, 7),
             (((4, 0, 0), (0, 1, 1)), ((0, 2, 0), (1, 0, 1)), ((0, 0, 2), (3, 1, 0)))),
            ((2, 2, 1), (1, 1, 1), (4, 5, 7),
             (((3, 0, 0), (0, 1, 1)), ((0, 3, 0), (2, 0, 1)), ((0, 0, 2), (1, 2, 0)))),
            ((3, 2, 1), (1, 1, 1), (4, 7, 9),
             (((4, 0, 0), (0, 1, 1)), ((0, 3, 0), (3, 0, 1)), ((0, 0, 2), (1, 2, 0)))),
        ]
        for a, b, m, gens in reference:
            h = build(ExponentPair(a, b))
            assert h.m == m
            assert tuple((g.plus, g.minus) for g in h.generators) == gens
            solutions = solve_exponents(m)
            assert solutions == [ExponentPair(a, b)]
        # (4, 7, 9) has no pair with b3 = 2: it would need a1 = (7 - 9)/2 < 0
        sole = solve_exponents((4, 7, 9))
        assert len(sole) == 1 and sole[0].b[2] == 1


def test_criterion_5_case_taxonomy():
    with criterion(5, "case taxonomy 1/3/5 labeled records for e=1/2/3 with consistent bookkeeping"):
        expected = {
            1: [("(a)", ((1, 1),))],
            2: [("(b.1)", ((2, 1),)), ("(b.2)", ((1, 2),)), ("(b.3)", ((1, 1), (1, 1)))],
            3: [
                ("(c.1)", ((3, 1),)),
                ("(c.2)", ((1, 3),)),
                ("(c.3)", ((1, 2), (1, 1))),
                ("(c.4)", ((2, 1), (1, 1))),
                ("(c.5)", ((1, 1), (1, 1), (1, 1))),
            ],
        }
        for e, table in expected.items():
            records = enumerate_cases(e)
            assert [(r.label, r.components) for r in records] == table
            for r in records:
                for m1 in (3, 4):
                    rep = check_consistency(r, m1)
                    assert rep.ok
                    assert rep.component_multiplicities == tuple(m1 * s for s, _ in r.components)
                    assert rep.total == m1 * e


def test_criterion_6_catalogue_sweep():
    with criterion(6, "every admissible catalogued example passes weight and gcd checks (< 1 s)"):
        started = time.perf_counter()
        entries = catalogue_entries()
        assert len(entries) == 43
        for spec in entries:
            report = verify_example(spec)
            assert report.gcd_ok, (spec.id, spec.n, spec.m)
            assert report.verdict, (spec.id, spec.n, spec.m)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def _gap_population():
    """All gcd-1 generator subsets of {1..20} with up to four elements."""
    for size in (1, 2, 3, 4):
        for gens in combinations(range(1, 21), size):
            if gcd(*gens) == 1:
                yield gens


def test_criterion_7_property_suites():
    with criterion(7, "property suites (i)-(iv): exhaustive, zero failures (< 5 min)"):
        started = time.perf_counter()

        # (i) + (ii): gap identities and the reflection oracle
        for gens in _gap_population():
            s = from_generators(gens)
            p = profile(s)
            assert p.genus + p.n_below == p.frobenius + 1
            assert 2 * p.genus >= p.frobenius + 1
            frob = p.frobenius
            reflected = all(s.contains(x) != s.contains(frob - x) for x in range(frob + 1))
            assert is_symmetric(s) == reflected, gens

        # (iii) enumeration against the brute-force subset oracle, F <= 25
        bases = [list(c) for c in combinations(range(3, 13), 3)] + [
            [a, b] for a in range(2, 13) for b in range(a + 1, 13)
        ]
        checked = 0
        for gens in bases:
            if gcd(*gens) != 1:
                continue
            base = from_generators(gens)
            if base.frobenius > 25:
                continue
            got = {
                frozenset(x for x in range(base.frobenius + 1) if u.contains(x))
                for u in oversemigroups_with_multiplicity(base, base.multiplicity)
            }
            assert got == oracle_oversemigroups(base), gens
            checked += 1
        assert checked > 60

        # (iv) exhaustive exponent sweep, entries <= 6
        for a in product(range(1, 7), repeat=3):
            for b in product(range(1, 7), repeat=3):
                pair = ExponentPair(a, b)
                h = build(pair)
                (a1, a2, a3), (b1, b2, b3) = a, b
                c1, c2, c3 = pair.c
                det = (c2 * c3 - a2 * b3, c1 * c3 - a3 * b1, c1 * c2 - a1 * b2)
                assert h.m == det
                assert min(h.m) >= 3
                assert vanishing_check(h)

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_census_to_100():
    with criterion(8, "delta verify --bound 100 flags exactly the four triples (< 10 s)"):
        started = time.perf_counter()
        report = verify_delta(100)
        elapsed = time.perf_counter() - started
        assert report.flagged == DELTA
        assert report.matches
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
