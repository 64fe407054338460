"""Definitional oracles shared by the test files, on plain sets and bitsets.

They import nothing from ``hnlab``: a semigroup is read only through its
``multiplicity``, ``frobenius`` and ``contains``.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def oracle_oversemigroups(base) -> set[frozenset[int]]:
    """Enumerate every subset of the adjoinable gaps, keep the additively
    closed ones; a semigroup is identified by its members in [0, F(base)]."""
    frob, mult = base.frobenius, base.multiplicity
    base_members = {x for x in range(frob + 1) if base.contains(x)}
    window = [x for x in range(mult, frob + 1) if x not in base_members]
    assert len(window) <= 18, "oracle population must stay tiny"
    found = set()
    for k in range(len(window) + 1):
        for combo in combinations(window, k):
            members = base_members | set(combo)
            closed = all(
                u + v in members or u + v > frob
                for u in members
                for v in members
                if u and v
            )
            if closed:
                found.add(frozenset(members))
    return found


def family_runs(m1: int) -> list[tuple[list[tuple[int, int]], int]]:
    """The witness families of m1 >= 3 as runs [a, b] of members up to F,
    the run [0, 0] among them, and Frobenius number F: all four for
    m1 >= 4, the first two for m1 = 3, where the last two are not closed
    (3 + 3 = 6 is missing)."""
    families = [
        ([(0, 0), (m1, 2 * m1 - 2)], 2 * m1 - 1),
        ([(0, 0), (m1, m1), (m1 + 2, 2 * m1)], 2 * m1 + 1),
        ([(0, 0), (m1, m1), (2 * m1 - 1, 3 * m1 - 4), (3 * m1 - 2, 4 * m1 - 4)], 4 * m1 - 3),
        ([(0, 0), (m1, m1 + 1), (m1 + 4, 2 * m1 + 2)], 2 * m1 + 3),
    ]
    return families[:2] if m1 == 3 else families


def family_masks(m1: int) -> list[tuple[int, int]]:
    """The membership mask over [0, F] and F of each family of ``family_runs``."""
    return [(sum((2 << b) - (1 << a) for a, b in runs), frob) for runs, frob in family_runs(m1)]


def oracle_exponent_pairs(m: tuple[int, int, int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (a, b) with positive entries and multipliers m, by exhaustive
    search: each (a2, a3, b2, b3) with a2*a3 + a3*b2 + b2*b3 = m1, then a1
    and b1 from m2 = a1*(a3 + b3) + b1*b3 and m3 = a1*a2 + b1*(a2 + b2) by
    Cramer's rule (determinant m1).  O(m1^2) quadruples, so small m1 only."""
    m1, m2, m3 = m
    pairs = []
    for a3 in range(1, m1):
        for b2 in range(1, (m1 - 1) // a3 + 1):
            rest = m1 - a3 * b2  # a2*a3 + b2*b3, with a2, b3 >= 1
            for a2 in range(1, rest // a3 + 1):
                b3, r = divmod(rest - a2 * a3, b2)
                if r or b3 < 1:
                    continue
                c2, c3 = a2 + b2, a3 + b3
                a1, r1 = divmod(c2 * m2 - b3 * m3, m1)
                b1, r2 = divmod(c3 * m3 - a2 * m2, m1)
                if r1 or r2 or a1 < 1 or b1 < 1:
                    continue
                assert (a1 * c3 + b1 * b3, a1 * a2 + b1 * c2) == (m2, m3), (m, a1, b1)
                pairs.append(((a1, a2, a3), (b1, b2, b3)))
    return sorted(pairs)


# The paper's decomposition shapes for e <= 3: (e, label) -> (sigma, length)s.
PAPER_CASES = {
    (1, "(a)"): ((1, 1),),
    (2, "(b.1)"): ((2, 1),),
    (2, "(b.2)"): ((1, 2),),
    (2, "(b.3)"): ((1, 1), (1, 1)),
    (3, "(c.1)"): ((3, 1),),
    (3, "(c.2)"): ((1, 3),),
    (3, "(c.3)"): ((1, 2), (1, 1)),
    (3, "(c.4)"): ((2, 1), (1, 1)),
    (3, "(c.5)"): ((1, 1), (1, 1), (1, 1)),
}


def oracle_monomial(exponents: tuple[int, ...]) -> str:
    """X^e1*Y^e2*Z^e3*W^e4 with exponent-0 factors left out and ^1 unwritten,
    "1" for the empty product."""
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip("XYZW", exponents) if e]
    return "*".join(parts) or "1"


def oracle_catalogue_report(line: str):
    """Re-derive the report of one catalogue data line: its key (id, n, m),
    every weight check as (subject, weights, passed, detail), gcd_ok and the
    verdict.  The pair is the one of ``oracle_exponent_pairs``, the three
    generators are 4-variable vectors over X, Y, Z, W, and each degree is a
    dot product under all four of the factor's weights."""
    id_, n_s, m_s, factors_s, gcd_s, predicted_s, _ = line.split("|")
    n, m = int(n_s), tuple(int(x) for x in m_s.split(","))
    [((a1, a2, a3), (b1, b2, b3))] = oracle_exponent_pairs(m)
    generators = [
        ("v1", (a1 + b1, 0, 0, 0), (0, b2, a3, 0)),
        ("v2", (0, a2 + b2, 0, 0), (a1, 0, b3, 0)),
        ("D", (0, 0, a3 + b3, 0), (b1, a2, 0, 0)),
    ]
    checks = []
    for i, token in enumerate(factors_s.split(";"), 1):
        body, _, note = token.partition("!")
        kind, _, payload = body.partition(":")
        if kind == "wpow":
            text = note or f"primary component of length {payload}"
            checks.append((f"factor {i}: {text}", None, None, "skipped: no weight constraint"))
            continue
        monos_s, _, weights_s = payload.partition("@")
        monos = [tuple(int(x) for x in mono.split(".")) for mono in monos_s.split("+")]
        weights = tuple(int(x) for x in weights_s.split(","))

        def degree(exponents):
            return sum(w * x for w, x in zip(weights, exponents, strict=True))

        degrees = [degree(mono) for mono in monos]
        text = note or " ~ ".join(oracle_monomial(mono) for mono in monos)
        checks.append(
            (f"factor {i}: {text}", weights, len(set(degrees)) == 1, f"monomial weights {degrees}")
        )
        for name, plus, minus in generators:
            subject = f"factor {i} generator {name}: {oracle_monomial(plus)} - {oracle_monomial(minus)}"
            checks.append((subject, weights, degree(plus) == degree(minus), "generator homogeneity"))
    gcd_ok = gcd(*(int(x) for x in gcd_s.split(","))) == 1
    label, _, comps_s = predicted_s.partition(":")
    components = tuple(tuple(int(x) for x in part.split("x")) for part in comps_s.split("+"))
    shape_ok = PAPER_CASES.get((n, label)) == components
    verdict = gcd_ok and shape_ok and all(c[2] for c in checks if c[2] is not None)
    return (id_, n, m), checks, gcd_ok, verdict
