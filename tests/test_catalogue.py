"""Case taxonomy, bookkeeping checks, and the worked-example catalogue."""

from __future__ import annotations

import dataclasses
from importlib import resources
from itertools import product
from types import SimpleNamespace

import pytest

from oracles import oracle_catalogue_report

from hnlab import (
    Binomial,
    CaseRecord,
    DimensionMismatch,
    DomainError,
    ExponentPair,
    Factor,
    InconsistentRecord,
    InvalidGenerator,
    InvariantViolation,
    NotInCatalogue,
    WeightAssignment,
    binomial_weight_vanishes,
    build,
    catalogue_entries,
    check_consistency,
    enumerate_cases,
    example_spec,
    theorem_verdict,
    verify_example,
)
from hnlab import cases, catalogue, hn
from hnlab.catalogue import ExampleSpec, _parse_factor, load_catalogue

# ── taxonomy oracle: independent enumeration of (sigma, length) multisets ────


def oracle_case_multisets(e: int) -> set[tuple[tuple[int, int], ...]]:
    """Enumerate multisets over all pairs at once (product over counts),
    deliberately different from the recursive generator in the library."""
    pairs = [(s, l) for s in range(1, e + 1) for l in range(1, e + 1) if s * l <= e]
    counts = [range(0, e // (s * l) + 1) for s, l in pairs]
    found = set()
    for combo in product(*counts):
        total = sum(c * s * l for c, (s, l) in zip(combo, pairs))
        if total == e:
            multiset = []
            for c, pair in zip(combo, pairs):
                multiset.extend([pair] * c)
            found.add(tuple(sorted(multiset, reverse=True)))
    return found


@pytest.mark.parametrize("e, count", [(1, 1), (2, 3), (3, 5)])
def test_case_counts_match_the_taxonomy(e, count):
    records = enumerate_cases(e)
    assert len(records) == count
    assert {r.components for r in records} == oracle_case_multisets(e)
    assert len({r.label for r in records}) == count


def test_case_labels_and_order():
    assert [r.label for r in enumerate_cases(1)] == ["(a)"]
    assert [r.label for r in enumerate_cases(2)] == ["(b.1)", "(b.2)", "(b.3)"]
    assert [r.label for r in enumerate_cases(3)] == [
        "(c.1)", "(c.2)", "(c.3)", "(c.4)", "(c.5)",
    ]
    by_label = {r.label: r.components for r in enumerate_cases(3)}
    assert by_label["(c.1)"] == ((3, 1),)
    assert by_label["(c.2)"] == ((1, 3),)
    assert by_label["(c.3)"] == ((1, 2), (1, 1))
    assert by_label["(c.4)"] == ((2, 1), (1, 1))
    assert by_label["(c.5)"] == ((1, 1), (1, 1), (1, 1))


@pytest.mark.parametrize("e", [4, 5, 6])
def test_extrapolated_cases_match_oracle(e):
    records = enumerate_cases(e)
    assert {r.components for r in records} == oracle_case_multisets(e)
    assert all(r.label.startswith(f"(e={e}, #") for r in records)
    assert len({r.label for r in records}) == len(records)


def test_enumerate_cases_range():
    with pytest.raises(DomainError):
        enumerate_cases(0)
    with pytest.raises(DomainError):
        enumerate_cases(7)


@pytest.mark.parametrize("e", [True, False, 1.0, "1", None])
def test_enumerate_cases_refuses_what_is_no_int(e):
    # True would share the cache slot of 1 and leave records with e=True there
    cases._cases.cache_clear()
    with pytest.raises(DomainError, match=r"covers e in \[1, 6\], got "):
        enumerate_cases(e)
    assert [(type(r.e), r.e) for r in enumerate_cases(1)] == [(int, 1)]


def test_a_broken_paper_table_still_fails_the_check(monkeypatch):
    monkeypatch.setitem(cases._PAPER_CASES, 2, (("(b.1)", ((2, 1),)), ("(b.2)", ((1, 2),))))
    cases._cases.cache_clear()
    with pytest.raises(InvariantViolation, match="e=2 table"):
        enumerate_cases(2)


def test_case_table_is_built_once_per_e(monkeypatch):
    calls = 0
    generate = cases._multisets

    def counting(total, pairs):
        nonlocal calls
        calls += 1
        return generate(total, pairs)

    monkeypatch.setattr(cases, "_multisets", counting)
    for e in (1, 2, 3):
        cases._cases.__wrapped__(e)
    one_build_each, calls = calls, 0
    cases._cases.cache_clear()
    ideal = build(ExponentPair((1, 1, 1), (2, 1, 1)))
    for i in range(1000):
        theorem_verdict(ideal, i % 3 + 1)
    assert one_build_each > 0 and calls == one_build_each
    assert isinstance(enumerate_cases(3), tuple) and enumerate_cases(3) is enumerate_cases(3)


def test_case_records_satisfy_the_sum_rule():
    for e in range(1, 7):
        for r in enumerate_cases(e):
            assert sum(s * l for s, l in r.components) == e
            assert r.n_components <= e
            report = check_consistency(r, 3)
            assert report.ok


# ── consistency bookkeeping ──────────────────────────────────────────────────


def test_consistency_known_values():
    rep = check_consistency(CaseRecord(1, ((1, 1),), "(a)"), 3)
    assert rep.component_multiplicities == (3,) and rep.total == 3 and rep.ok

    rep = check_consistency(CaseRecord(2, ((2, 1),), "(b.1)"), 3)
    assert rep.component_multiplicities == (6,) and rep.total == 6 == 2 * 3

    rep = check_consistency(CaseRecord(3, ((1, 1), (1, 1), (1, 1)), "(c.5)"), 4)
    assert rep.component_multiplicities == (4, 4, 4) and rep.total == 12 == 4 * 3


def test_consistency_rejects_bad_records():
    with pytest.raises(InconsistentRecord):
        check_consistency(CaseRecord(3, ((2, 2),), "(bogus)"), 3)
    with pytest.raises(DomainError):
        check_consistency(CaseRecord(1, ((1, 1),), "(a)"), 2)


@pytest.mark.parametrize("m1", [3.5, 4.0, True, "3", None])
def test_consistency_refuses_an_m1_that_is_no_int(m1):
    with pytest.raises(DomainError, match="must be an integer"):
        check_consistency(enumerate_cases(2)[0], m1)


# ── weight checks ────────────────────────────────────────────────────────────


def test_binomial_weight_vanishes_known_values():
    w345 = WeightAssignment((3, 4, 5))
    v1 = Binomial((3, 0, 0), (0, 1, 1))
    assert binomial_weight_vanishes(w345, v1)  # 9 = 9
    w357 = WeightAssignment((3, 5, 7))
    d2 = Binomial((0, 0, 2), (3, 1, 0))  # z^2 against x^3*y: 14 = 14
    assert binomial_weight_vanishes(w357, d2)
    assert binomial_weight_vanishes(WeightAssignment((1, 1)), Binomial((1, 0), (0, 1)))
    assert not binomial_weight_vanishes(w345, Binomial((3, 0, 0), (0, 2, 1)))


def test_binomial_weight_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        binomial_weight_vanishes(WeightAssignment((3, 4, 5, 4)), Binomial((3, 0, 0), (0, 1, 1)))
    # unequal lengths, equal monomials, a negative exponent
    for plus, minus in (((3, 0, 0), (0, 1)), ((1, 2, 0), (1, 2, 0)), ((3, 0, 0), (0, -1, 1))):
        with pytest.raises(InvalidGenerator):
            Binomial(plus, minus)
    with pytest.raises(DomainError):
        WeightAssignment((1, 0, 2))


def test_weight_assignment_rejects_bool_weights():
    # bools are refused as in from_generators and ExponentPair, True as well as False
    for weights in ((True, 1, 2, 3), (1, False, 2), (2, 3, True)):
        with pytest.raises(DomainError):
            WeightAssignment(weights)
    assert WeightAssignment([1, 2, 3]).weights == (1, 2, 3)


def test_generators_vanish_under_their_own_multipliers():
    for a in product(range(1, 5), repeat=3):
        for b in product(range(1, 5), repeat=3):
            h = build(ExponentPair(a, b))
            w = WeightAssignment(h.m)
            assert all(binomial_weight_vanishes(w, g) for g in h.generators)


# ── the example catalogue ────────────────────────────────────────────────────


def test_catalogue_loads_the_expected_population():
    entries = catalogue_entries()
    assert len(entries) == 43
    by_id: dict[str, int] = {}
    for spec in entries:
        by_id[spec.id] = by_id.get(spec.id, 0) + 1
    assert by_id == {
        "caseab1c1_i": 9,
        "caseab1c1_ii": 3,
        "caseb2c2": 12,
        "caseb3c3": 8,
        "casec4": 3,
        "casec5": 4,
        "case_domain_b3": 1,
        "case_domain_c4": 1,
        "case_domain_c5": 1,
        "case357": 1,
    }


def test_a_repeated_catalogue_entry_is_rejected(monkeypatch):
    text = resources.files("hnlab").joinpath("data/decomposition_catalogue.txt").read_text("utf-8")
    entry = next(ln for ln in text.splitlines() if ln and not ln.startswith("#"))
    data = SimpleNamespace(read_text=lambda encoding: f"{text}\n{entry}\n")
    root = SimpleNamespace(joinpath=lambda path: data)
    monkeypatch.setattr(catalogue, "resources", SimpleNamespace(files=lambda package: root))
    load_catalogue.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="duplicate catalogue entry"):
            load_catalogue()
    finally:
        load_catalogue.cache_clear()


def test_example_spec_known_values():
    spec = example_spec("caseab1c1_i", 2, (3, 4, 5))
    assert spec.gcd_tuple == (6, 8, 10, 7)
    assert spec.predicted.label == "(b.1)" and spec.predicted.components == ((2, 1),)
    [factor] = spec.factors
    assert factor.weights.weights == (6, 8, 10, 7)
    assert factor.monomials == ((0, 0, 0, 2), (1, 1, 0, 0))

    spec = example_spec("caseb3c3", 2, (3, 4, 5))
    assert [f.weights is None for f in spec.factors] == [True, False]
    assert spec.predicted.label == "(b.3)"
    assert spec.predicted.components == ((1, 1), (1, 1))

    spec = example_spec("casec4", 3, (4, 5, 7))
    assert spec.predicted.components == ((2, 1), (1, 1))
    assert spec.factors[0].weights.weights == (8, 10, 14, 9)  # W-weight m1 + m2

    spec = example_spec("caseb2c2", 3, (3, 4, 5))
    assert spec.predicted.label == "(c.2)" and spec.predicted.components == ((1, 3),)

    spec = example_spec("case357", 2, (3, 5, 7))
    assert spec.factors[0].weights.weights == (3, 5, 7, 5)
    assert "char(k)" in spec.caveat


def test_example_spec_unknown_combination():
    with pytest.raises(NotInCatalogue):
        example_spec("caseab1c1_i", 5, (3, 4, 5))
    with pytest.raises(NotInCatalogue):
        example_spec("caseab1c1_i", 2, (3, 5, 7))  # gcd condition fails there
    with pytest.raises(NotInCatalogue):
        example_spec("nonsense", 1, (3, 4, 5))


@pytest.mark.parametrize(
    "n, m, shown",
    [
        (1.0, (3, 4, 5), "n=1.0, m=(3, 4, 5)"),
        (True, (3, 4, 5), "n=True, m=(3, 4, 5)"),
        ("1", (3, 4, 5), "n=1, m=(3, 4, 5)"),
        (None, (3, 4, 5), "n=None, m=(3, 4, 5)"),
        (1, 5, "n=1, m=5"),
        (1, (3, 4), "n=1, m=(3, 4)"),
        (1, (3.0, 4, 5), "n=1, m=(3.0, 4, 5)"),
    ],
)
def test_example_spec_refuses_an_n_or_m_that_is_no_int(n, m, shown):
    assert example_spec("caseab1c1_i", 1, [3, 4, 5]).n == 1  # the entry that 1.0 and True found
    with pytest.raises(NotInCatalogue) as err:
        example_spec("caseab1c1_i", n, m)
    assert str(err.value) == f"no catalogued example with id='caseab1c1_i', {shown}"


def test_catalogue_predictions_are_labeled_cases():
    known = {
        (rec.e, rec.label): rec.components
        for e in (1, 2, 3)
        for rec in enumerate_cases(e)
    }
    for spec in catalogue_entries():
        assert spec.predicted.e == spec.n
        assert known[(spec.n, spec.predicted.label)] == spec.predicted.components
        report = check_consistency(spec.predicted, spec.m[0])
        assert report.ok


def test_full_catalogue_sweep_passes():
    for spec in catalogue_entries():
        report = verify_example(spec)
        assert report.gcd_ok, spec
        assert report.verdict, (spec.id, spec.n, spec.m)
        live = [c for c in report.weight_checks if c.passed is not None]
        if spec.id == "caseb2c2":
            # f = W^n carries no weight constraint; only the gcd check is live
            assert not live
        else:
            assert live and all(c.passed for c in live)


def test_every_catalogue_report_matches_the_oracle():
    text = resources.files("hnlab").joinpath("data/decomposition_catalogue.txt").read_text("utf-8")
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 43
    live = 0
    for line in lines:
        key, checks, gcd_ok, verdict = oracle_catalogue_report(line)
        report = verify_example(load_catalogue()[key])
        got = [(c.subject, c.weights, c.passed, c.detail) for c in report.weight_checks]
        assert got == checks, key
        assert (report.gcd_ok, report.verdict) == (gcd_ok, verdict) == (True, True), key
        live += sum(c[2] is not None for c in checks)
    assert live == 4 * 46  # 46 weighted factors, each checked itself and on v1, v2, D


@pytest.mark.parametrize("weights", [(6, 8, 10), (6, 8, 10, 7, 1)])
def test_a_factor_without_four_weights_is_a_dimension_mismatch(weights):
    # the generators are checked under the first three weights, but only
    # once the factor is seen to carry one weight per variable
    spec = example_spec("caseab1c1_i", 2, (3, 4, 5))
    factor = Factor(spec.factors[0].monomials, WeightAssignment(weights), "hand-built")
    with pytest.raises(DimensionMismatch) as err:
        verify_example(dataclasses.replace(spec, factors=(factor,)))
    assert str(err.value) == f"{len(weights)} weights against 4 exponents"


def test_a_factor_renders_once_and_keeps_its_fields(monkeypatch):
    factor = Factor(((0, 0, 0, 2), (1, 1, 0, 0)), WeightAssignment((6, 8, 10, 7)))
    calls = []
    monkeypatch.setattr(catalogue, "_monomial", lambda *args: calls.append(args) or "M")
    assert factor.render() == factor.render() == "M ~ M" and len(calls) == 2
    assert [f.name for f in dataclasses.fields(Factor)] == ["monomials", "weights", "note"]
    assert Factor(factor.monomials, None, "f = W").render() == "f = W"


def test_case357_weight_identity():
    report = verify_example(example_spec("case357", 2, (3, 5, 7)))
    # f = W^2 + X*Z under (3,5,7,5): 10 = 3 + 7
    factor_checks = [c for c in report.weight_checks if c.subject.startswith("factor 1:")]
    assert factor_checks[0].passed


def test_corrupted_spec_fails_weight_check():
    spec = example_spec("caseab1c1_i", 2, (3, 4, 5))
    bad_factor = Factor(spec.factors[0].monomials, WeightAssignment((6, 8, 10, 6)), "corrupted")
    bad = ExampleSpec(spec.id, spec.n, spec.m, (bad_factor,), spec.gcd_tuple, spec.predicted)
    report = verify_example(bad)
    assert not report.verdict
    assert any(c.passed is False for c in report.weight_checks)


def test_corrupted_gcd_tuple_fails():
    spec = example_spec("caseb2c2", 2, (3, 4, 5))
    bad = ExampleSpec(spec.id, spec.n, spec.m, spec.factors, (6, 8, 10), spec.predicted)
    report = verify_example(bad)
    assert not report.gcd_ok and not report.verdict


def test_corrupted_predicted_shape_fails():
    # the first entry with a shape that is no case of e = 1: its weights and
    # gcd still pass, so the shape check alone fails the verdict
    spec = catalogue_entries()[0]
    bad = dataclasses.replace(spec, predicted=CaseRecord(1, ((3, 7),), "(z.9)"))
    report = verify_example(bad)
    assert report.gcd_ok and all(c.passed is not False for c in report.weight_checks)
    assert not report.verdict
    # the right components under another label are no record either
    relabeled = dataclasses.replace(spec, predicted=CaseRecord(1, ((1, 1),), "(b.1)"))
    assert not verify_example(relabeled).verdict
    assert verify_example(spec).verdict


def test_a_triple_with_no_exponent_solution_is_an_invariant_violation():
    spec = dataclasses.replace(catalogue_entries()[0], m=(3, 5, 6))
    with pytest.raises(InvariantViolation, match="has no exponent solution"):
        verify_example(spec)


def test_the_re_check_cross_checks_the_multipliers_and_builds_no_semigroup(monkeypatch):
    def no_semigroup(*args):
        raise AssertionError("the catalogue re-check built a value semigroup")

    spec = catalogue_entries()[0]
    monkeypatch.setattr(hn, "_value_semigroup", no_semigroup)
    assert verify_example(spec).verdict
    solutions = hn.solve_exponents(spec.m)
    monkeypatch.setattr(catalogue, "solve_exponents", lambda m: solutions)
    monkeypatch.setattr(hn, "_multipliers", lambda a, b: (1, 1, 1))
    with pytest.raises(InvariantViolation, match="disagree with expanded form"):
        verify_example(spec)


def test_wpower_factors_are_skipped_not_failed():
    report = verify_example(example_spec("caseb2c2", 3, (3, 4, 5)))
    skipped = [c for c in report.weight_checks if c.passed is None]
    assert len(skipped) == 1
    assert "length 3" in skipped[0].subject or "length 3" in skipped[0].detail
    assert report.verdict


@pytest.mark.parametrize(
    "token",
    [
        "bin:1.0.0.0@1,1,1,1",  # a binomial with one monomial
        "form:1.0.0.0@2,2,2,2",  # a form with one monomial
        "foo:1.0.0.0+0.1.0.0@1,1,1,1",  # an unknown kind
        "bin:0.0.0.2.9+1.1.0.0.0@6,8,10,7",  # five exponents per monomial
        "bin:0.0.0.2+1.1.0.0@6,8,10",  # three weights
    ],
)
def test_malformed_factor_tokens_are_rejected(token):
    with pytest.raises(InvalidGenerator, match="malformed factor token"):
        _parse_factor(token)
