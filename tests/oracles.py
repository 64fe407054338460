"""Definitional oracles shared by the test files, on plain sets and bitsets.

They import nothing from ``hnlab``: a semigroup is read only through its
``multiplicity``, ``frobenius`` and ``contains``.
"""

from __future__ import annotations

from itertools import combinations


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
