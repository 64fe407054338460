"""Ideal construction, multiplier identities, the exponent solver, and verdicts."""

from __future__ import annotations

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_exponent_pairs

from hnlab import (
    DELTA,
    BadMultiplicity,
    Binomial,
    DomainError,
    ExponentPair,
    FrobeniusCapExceeded,
    HNIdeal,
    InvalidGenerator,
    InvariantViolation,
    TheoremOutcome,
    build,
    from_generators,
    has_symmetric_cover,
    normalize,
    solve_exponents,
    theorem_verdict,
    vanishing_check,
)
from hnlab import hn
from hnlab.cli import main

# The four reference matrices: exponents, generators as (plus, minus) vectors
# over (x, y, z), multiplier triple, and value semigroup generators.
REFERENCE = [
    (
        (1, 1, 1), (2, 1, 1),
        (((3, 0, 0), (0, 1, 1)), ((0, 2, 0), (1, 0, 1)), ((0, 0, 2), (2, 1, 0))),
        (3, 4, 5),
    ),
    (
        (1, 1, 1), (3, 1, 1),
        (((4, 0, 0), (0, 1, 1)), ((0, 2, 0), (1, 0, 1)), ((0, 0, 2), (3, 1, 0))),
        (3, 5, 7),
    ),
    (
        (2, 2, 1), (1, 1, 1),
        (((3, 0, 0), (0, 1, 1)), ((0, 3, 0), (2, 0, 1)), ((0, 0, 2), (1, 2, 0))),
        (4, 5, 7),
    ),
    (
        (3, 2, 1), (1, 1, 1),
        (((4, 0, 0), (0, 1, 1)), ((0, 3, 0), (3, 0, 1)), ((0, 0, 2), (1, 2, 0))),
        (4, 7, 9),
    ),
]


def exponent_pairs(limit: int):
    for a in product(range(1, limit + 1), repeat=3):
        for b in product(range(1, limit + 1), repeat=3):
            yield ExponentPair(a, b)


# ── construction ─────────────────────────────────────────────────────────────


@pytest.mark.parametrize("a, b, gens, m", REFERENCE)
def test_reference_matrices(a, b, gens, m):
    h = build(ExponentPair(a, b))
    assert h.m == m
    assert tuple((g.plus, g.minus) for g in h.generators) == gens
    assert h.coprime
    assert h.value_semigroup.minimal_gens == m
    assert vanishing_check(h)


def test_reference_generator_rendering():
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    assert [g.render(("x", "y", "z")) for g in h.generators] == [
        "x^3 - y*z",
        "y^2 - x*z",
        "z^2 - x^2*y",
    ]


def test_non_coprime_multipliers_have_no_value_semigroup():
    h = build(ExponentPair((1, 1, 1), (1, 1, 1)))
    assert h.m == (3, 3, 3)
    assert not h.coprime and h.value_semigroup is None
    assert vanishing_check(h)


def test_build_cross_checks_the_two_multiplier_forms(monkeypatch):
    monkeypatch.setattr(hn, "_multipliers", lambda a, b: (3, 4, 6))
    with pytest.raises(InvariantViolation, match="disagree with expanded form"):
        build(ExponentPair((1, 1, 1), (2, 1, 1)))  # determinantal (3, 4, 5)


def test_exponent_pair_validation():
    with pytest.raises(InvalidGenerator):
        ExponentPair((1, 1), (1, 1, 1))
    with pytest.raises(InvalidGenerator):
        ExponentPair((1, 0, 1), (1, 1, 1))
    for a, b in ((5, (1, 1, 1)), ((1, 1, 1), None)):  # not iterable
        with pytest.raises(InvalidGenerator, match="must have 3 positive entries"):
            ExponentPair(a, b)


def test_exponent_pair_rejects_bool_entries():
    # as from_generators does: True is an int, but not an exponent
    for a, b in (((True, 1, 1), (1, 1, 1)), ((1, 1, 1), (2, 1, False))):
        with pytest.raises(InvalidGenerator, match="must have 3 positive entries"):
            ExponentPair(a, b)
    with pytest.raises(InvalidGenerator):
        from_generators([True, 2])


class _TupleSubclass(tuple):
    pass


@pytest.mark.parametrize(
    "given", [[1, 2, 3], _TupleSubclass((1, 2, 3)), (x for x in (1, 2, 3))], ids=repr
)
def test_exponent_pair_stores_exact_tuples(given):
    pair = ExponentPair(given, [2, 1, 3])
    assert (type(pair.a), type(pair.b)) == (tuple, tuple)
    assert pair == ExponentPair((1, 2, 3), (2, 1, 3))
    a, b = (1, 2, 3), (2, 1, 3)
    pair = ExponentPair(a, b)  # exact tuples are kept as given
    assert pair.a is a and pair.b is b


@pytest.mark.parametrize(
    "bad, shown",
    [
        (5, "5"),
        ((True, 1, 1), "(True, 1, 1)"),
        ([1, 2.5, 1], "(1, 2.5, 1)"),
        ((0, 1, 1), "(0, 1, 1)"),
    ],
)
def test_exponent_pair_refusals_keep_their_messages(bad, shown):
    for a, b in ((bad, (1, 1, 1)), ((1, 1, 1), bad)):
        with pytest.raises(InvalidGenerator) as err:
            ExponentPair(a, b)
        assert str(err.value) == f"exponent triple {shown} must have 3 positive entries"


def test_multiplier_formulas_agree_exhaustively():
    # entries <= 4 here; the acceptance suite sweeps entries <= 6
    for pair in exponent_pairs(4):
        h = build(pair)
        (a1, a2, a3), (b1, b2, b3) = pair.a, pair.b
        c1, c2, c3 = pair.c
        assert h.m == (c2 * c3 - a2 * b3, c1 * c3 - a3 * b1, c1 * c2 - a1 * b2)
        assert min(h.m) >= 3
        assert vanishing_check(h)


# ── the value semigroup off the L-shape ──────────────────────────────────────


def test_value_semigroup_matches_from_generators_exhaustively():
    # every pair with entries 1..5; CI runs entries up to 7 as a process
    coprime = 0
    for pair in exponent_pairs(5):
        h = build(pair)
        if not h.coprime:
            continue
        coprime += 1
        s, oracle = h.value_semigroup, from_generators(sorted(h.m))
        assert s == oracle, (pair, s, oracle)
        assert s.apery == oracle.apery and s.frobenius == oracle.frobenius, pair
    assert coprime == 9672


def test_cap_errors_match_from_generators():
    # same error class and message, generators first in sorted order, then F
    for pair in exponent_pairs(3):
        m = build(pair).m
        if gcd(*m) != 1:
            continue
        for cap in (1, 3, 5, 8, 13, 21, 34, 55):
            try:
                expected = from_generators(sorted(m), cap)
            except DomainError as exc:
                with pytest.raises(type(exc)) as info:
                    build(pair, max_frobenius=cap)
                assert str(info.value) == str(exc), (pair, cap)
            else:
                assert build(pair, max_frobenius=cap).value_semigroup == expected


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda w: w[:-1], "no Apéry table mod 8"),  # a class missed
        (lambda w: [w[0], w[2] + 8, *w[2:]], "no Apéry table mod 8"),  # one class twice
        (lambda w: [8, *w[1:]], "no Apéry table mod 8"),  # 0 missing
        (lambda w: [*w[:-1], w[-1] + 8], "no Apéry table mod 8"),  # the corner moved
        (lambda ws: [w + 8 if w == 20 else w for w in ws], "not closed under 9 and 11"),
    ],
)
def test_a_corrupted_l_shape_is_an_invariant_violation(monkeypatch, capsys, change, message):
    pair = ExponentPair((2, 3, 1), (1, 2, 2))  # m = (9, 8, 11): y has the least weight
    shape = hn._l_shape
    assert shape(9, 11, 3, 3, 2, 2) == [0, 9, 18, 11, 20, 29, 22, 31]
    monkeypatch.setattr(hn, "_l_shape", lambda *args: change(shape(*args)))
    with pytest.raises(InvariantViolation, match=f"the L-shape of <8,9,11> is {message}"):
        build(pair)
    assert main(["hn", "build", "--a", "2,3,1", "--b", "1,2,2", "--format", "json"]) == 3
    assert '"code": "InvariantViolation"' in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["9", 5.5, 3.0, True, False, [10]])
def test_build_refuses_a_cap_that_is_no_int(cap):
    # m = (3, 4, 5) has gcd 1, and m = (12, 12, 12) has no value semigroup to cap
    for pair in (ExponentPair((1, 1, 1), (2, 1, 1)), ExponentPair((2, 2, 2), (2, 2, 2))):
        with pytest.raises(DomainError, match="^max_frobenius must be an integer, got "):
            build(pair, max_frobenius=cap)


def test_the_worst_pair_meets_the_cap_before_any_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the L-shape was built")

    monkeypatch.setattr(hn, "_l_shape", no_table)
    with pytest.raises(FrobeniusCapExceeded) as info:
        build(ExponentPair((1, 1, 1), (999, 999, 998)), max_frobenius=1_000_000)
    assert str(info.value) == "Frobenius number 1992009994 exceeds the cap of 1000000"


def test_embedding_dimension_two_and_ties_reduce_like_from_generators():
    # one-row and one-column L-shapes, which build() never makes, of
    # <3, 6, 7> = <3, 7>, <3, 3, 4> = <3, 4> and <4, 5, 10> = <4, 5>
    for args, gens in (
        ((3, 6, 7, 1, 3, 1, 3), (3, 6, 7)),
        ((3, 3, 4, 1, 3, 1, 3), (3, 3, 4)),
        ((4, 5, 10, 4, 1, 4, 1), (4, 5, 10)),
    ):
        s = hn._value_semigroup(*args, None)
        assert s == from_generators(gens), (args, s)


# ── weight homogeneity ───────────────────────────────────────────────────────


def test_vanishing_check_known_dot_products():
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    # v1 = x^3 - y*z: 3*3 = 4 + 5
    assert 3 * h.m[0] == h.m[1] + h.m[2]
    h4 = build(ExponentPair((3, 2, 1), (1, 1, 1)))
    # D = z^2 - x*y^2 under (4, 7, 9): 18 = 4 + 14
    assert 2 * h4.m[2] == 18 == h4.m[0] + 2 * h4.m[1]


def test_vanishing_check_rejects_corrupted_generator():
    good = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    corrupted = HNIdeal(
        good.exponents,
        (Binomial((3, 0, 0), (0, 2, 1)), good.generators[1], good.generators[2]),
        good.m,
        good.value_semigroup,
    )
    # x^3 against y^2*z under (3,4,5): 9 != 13
    assert not vanishing_check(corrupted)


# ── normalization ────────────────────────────────────────────────────────────


def test_normalize_fixed_point():
    pair = ExponentPair((1, 1, 1), (2, 1, 1))
    assert normalize(pair) == pair


def test_normalize_recovers_sorted_reference():
    # the (m2, m1, m3)-swapped image of the first reference matrix
    swapped = ExponentPair((1, 2, 1), (1, 1, 1))
    assert build(swapped).m == (4, 3, 5)
    assert normalize(swapped) == ExponentPair((1, 1, 1), (2, 1, 1))
    assert build(normalize(swapped)).m == (3, 4, 5)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(1, 6)] * 6))
def test_normalize_sorts_and_is_idempotent(entries):
    pair = ExponentPair(entries[:3], entries[3:])
    out = normalize(pair)
    m = build(out).m
    assert m[0] <= m[1] <= m[2]
    assert sorted(m) == sorted(build(pair).m)
    assert normalize(out) == out


# ── the exponent solver ──────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "m, a, b",
    [
        ((3, 4, 5), (1, 1, 1), (2, 1, 1)),
        ((3, 5, 7), (1, 1, 1), (3, 1, 1)),
        ((4, 5, 7), (2, 2, 1), (1, 1, 1)),
        ((4, 7, 9), (3, 2, 1), (1, 1, 1)),
    ],
)
def test_solver_on_the_four_triples(m, a, b):
    solutions = solve_exponents(m)
    assert solutions == [ExponentPair(a, b)]
    assert build(solutions[0]).m == m


def test_solver_rejects_negative_branch():
    # m1 = 4 allows (a2, b3) = (2, 1) or (1, 2); for (4, 7, 9) the second
    # would need a1 = (m2 - m3)/2 < 0, so only the first is a pair
    solutions = solve_exponents((4, 7, 9))
    assert len(solutions) == 1
    assert solutions[0].a[1] == 2


def test_solver_unsolvable_triple_returns_empty():
    assert solve_exponents((3, 5, 8)) == []  # 2*m2 - m3 = 2 not divisible by 3


def test_solver_range_and_preconditions():
    assert solve_exponents((5, 6, 7)) == [ExponentPair((1, 1, 2), (3, 1, 1))]
    with pytest.raises(DomainError):
        solve_exponents((3, 5, 5))
    with pytest.raises(DomainError):
        solve_exponents((4, 6, 8))  # gcd 2


def test_solver_takes_any_sequence_of_three_ints():
    expected = [ExponentPair((1, 1, 1), (2, 1, 1))]
    assert solve_exponents([3, 4, 5]) == solve_exponents((3, 4, 5)) == expected
    assert solve_exponents(iter((3, 4, 5))) == expected


@pytest.mark.parametrize(
    "m",
    [(3, 4), (3, 4, 5, 7), (3, 4, 5.0), (3.0, 4, 5), ("3", 4, 5), (True, 4, 5), (3, 4, True), 5, None],
)
def test_solver_refuses_what_is_no_triple_of_ints(m):
    with pytest.raises(DomainError, match="must have 3 integer entries"):
        solve_exponents(m)


def test_solver_round_trips_all_buildable_small_triples():
    seen = set()
    for pair in exponent_pairs(6):
        m = build(pair).m
        if not m[0] < m[1] < m[2] or gcd(*m) != 1:
            continue
        solutions = solve_exponents(m)
        assert pair in solutions, (pair, m)
        for sol in solutions:
            assert build(sol).m == m
        seen.add(m)
    assert set(m for m in seen if m in {(3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9)})


def test_solver_matches_the_exhaustive_oracle():
    triples = solved = 0
    for m1 in range(3, 13):
        for m2 in range(m1 + 1, 60):
            for m3 in range(m2 + 1, 60):
                if gcd(m1, m2, m3) != 1:
                    continue
                expected = oracle_exponent_pairs((m1, m2, m3))
                assert [(p.a, p.b) for p in solve_exponents((m1, m2, m3))] == expected, (m1, m2, m3)
                triples, solved = triples + 1, solved + bool(expected)
    assert (triples, solved) == (10973, 3753)


def test_solver_refuses_an_m1_above_the_cap_before_it_reads_m(monkeypatch):
    def no_reading(*args):
        raise AssertionError(f"the solver began its O(m1) reading with pow{args}")

    monkeypatch.setattr(hn, "pow", no_reading, raising=False)  # shadows the builtin in hn
    with pytest.raises(InvalidGenerator, match="^generator 61 exceeds the cap of 60$"):
        solve_exponents((61, 62, 65), max_frobenius=60)
    for cap in (60.0, True, "60"):
        with pytest.raises(DomainError, match="max_frobenius must be an integer"):
            solve_exponents((61, 62, 65), max_frobenius=cap)
    monkeypatch.undo()
    assert solve_exponents((5, 6, 7), max_frobenius=5) == solve_exponents((5, 6, 7))


def test_hypothesis_holds_iff_the_pair_normalizes_to_a_delta_solution():
    # the census lemma at every bound and one pair per m: the paper's
    # hypothesis holds exactly on the pairs whose normal form solves DELTA
    assert tuple(m for *_, m in REFERENCE) == DELTA
    solutions = {ExponentPair(a, b) for a, b, _, _ in REFERENCE}
    holds = 0
    for pair in exponent_pairs(6):
        ok = theorem_verdict(build(pair), 1).hypothesis_ok
        assert ok == (normalize(pair) in solutions), pair
        holds += ok
    assert holds == 6 * len(solutions)  # each solution under the six orders of m


# ── classification verdicts ──────────────────────────────────────────────────


def test_verdict_prime_for_e1():
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    v = theorem_verdict(h, 1)
    assert v.hypothesis_ok
    assert v.outcome is TheoremOutcome.PRIME
    assert v.possible_cases == ("(a)",)


def test_verdict_open_for_e3():
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    v = theorem_verdict(h, 3)
    assert v.outcome is TheoremOutcome.PRIME_OR_NON_CI
    assert v.possible_cases == ("(c.1)", "(c.2)", "(c.3)", "(c.4)", "(c.5)")


def test_verdict_on_all_four_reference_ideals():
    for a, b, _, m in REFERENCE:
        h = build(ExponentPair(a, b))
        for e in (1, 2, 3):
            v = theorem_verdict(h, e)
            assert v.hypothesis_ok, m
            assert v.outcome is (
                TheoremOutcome.PRIME if e == 1 else TheoremOutcome.PRIME_OR_NON_CI
            )


def test_verdict_hypothesis_fails_when_covered():
    # <3,7,8> is contained in the symmetric <3,4>
    h = build(solve_exponents((3, 7, 8))[0])
    assert h.value_semigroup.minimal_gens == (3, 7, 8)
    v = theorem_verdict(h, 2)
    assert not v.hypothesis_ok
    assert v.outcome is TheoremOutcome.HYPOTHESIS_NOT_SATISFIED


def test_verdict_hypothesis_fails_without_value_semigroup():
    h = build(ExponentPair((1, 1, 1), (1, 1, 1)))  # m = (3,3,3), gcd 3
    v = theorem_verdict(h, 1)
    assert not v.hypothesis_ok
    assert v.outcome is TheoremOutcome.HYPOTHESIS_NOT_SATISFIED


def test_no_small_pair_yields_embedding_dimension_below_three():
    # for coprime m the redundancy patterns force a common divisor, so every
    # buildable value semigroup with entries <= 5 has embedding dimension 3
    for pair in exponent_pairs(5):
        h = build(pair)
        if h.coprime:
            assert h.value_semigroup.embedding_dimension == 3


def test_verdict_hypothesis_fails_on_embedding_dimension_two():
    # build() never attaches such a semigroup, so assemble the ideal directly:
    # <3,4> is symmetric, its own cover, so the criterion alone rejects it
    good = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    from hnlab import from_generators

    synthetic = HNIdeal(good.exponents, good.generators, (3, 4, 8), from_generators([3, 4, 8]))
    assert synthetic.value_semigroup.embedding_dimension == 2
    v = theorem_verdict(synthetic, 2)
    assert not v.hypothesis_ok
    assert v.outcome is TheoremOutcome.HYPOTHESIS_NOT_SATISFIED


def test_verdict_hypothesis_matches_the_criterion_on_every_small_pair():
    # the verdict reads the census's flagged triples; the criterion on each
    # value semigroup is its oracle
    for pair in exponent_pairs(5):
        h = build(pair)
        s = h.value_semigroup
        expected = s is not None and not has_symmetric_cover(s)
        for e in (1, 2, 3):
            assert theorem_verdict(h, e).hypothesis_ok == expected, (pair, e)


def test_verdict_refuses_embedding_dimension_above_three():
    # the odd-count lemma says nothing of <4,5,6,7>, which build() never attaches
    good = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    synthetic = HNIdeal(good.exponents, good.generators, (4, 5, 6), from_generators([4, 5, 6, 7]))
    with pytest.raises(InvariantViolation, match="embedding dimension above 3"):
        theorem_verdict(synthetic, 1)


def test_verdict_multiplicity_range():
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    with pytest.raises(BadMultiplicity):
        theorem_verdict(h, 0)
    with pytest.raises(BadMultiplicity):
        theorem_verdict(h, 4)


@pytest.mark.parametrize("e", [True, False, 2.0, "2", None])
def test_verdict_refuses_a_multiplicity_that_is_no_int(e):
    h = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    with pytest.raises(BadMultiplicity, match="must be in \\[1, 3\\]"):
        theorem_verdict(h, e)
    assert type(theorem_verdict(h, 1).multiplicity_e) is int
