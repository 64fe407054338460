"""Reference semigroup arithmetic for the benchmark's output oracles.

Everything here is computed from a generator list by bitset closure, a
method that shares no code with hnlab's Apéry-set relaxation or its cover
search, so a defect in the timed code cannot also hide in its oracle.
"""

from __future__ import annotations

from math import gcd

#: The four triples the census must flag: no symmetric semigroup of the same
#: multiplicity contains them.
DELTA: tuple[tuple[int, int, int], ...] = ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 7, 9))


def members(gens: tuple[int, ...] | list[int], limit: int) -> int:
    """Bitmask of the elements of <gens> in [0, limit].

    Shifting by g, 2g, 4g, ... adds every multiple of g up to the limit, so
    one sweep per generator gives all nonnegative combinations.
    """
    full = (1 << (limit + 1)) - 1
    reach = 1
    for g in gens:
        step = g
        while step <= limit:
            reach |= (reach << step) & full
            step <<= 1
    return reach


def frobenius_genus(
    gens: tuple[int, ...] | list[int], limit: int | None = None
) -> tuple[int, int]:
    """Frobenius number and genus of <gens> (gcd 1).

    The bitset must reach past the Frobenius number, which the top min(gens)
    bits all being members certifies; ``limit`` is a first guess that
    doubles until the certificate holds.
    """
    m = min(gens)
    if gcd(*gens) != 1:
        raise ValueError(f"gcd of {gens} is not 1")
    limit = limit or m * max(gens) + m
    while True:
        mask = members(gens, limit)
        top = ((1 << m) - 1) << (limit + 1 - m)
        if mask & top == top:
            break
        limit *= 2
    holes = ~mask & ((1 << (limit + 1)) - 1)
    return holes.bit_length() - 1, holes.bit_count()


def minimal_generators(gens: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Minimal generating system: g is redundant iff it lies in the semigroup
    generated by the smaller generators."""
    canon = sorted(set(gens))
    return tuple(
        g for i, g in enumerate(canon)
        if i == 0 or not members(canon[:i], g) >> g & 1
    )


def is_edim3_triple(t: tuple[int, int, int]) -> bool:
    """m1 < m2 < m3 with gcd 1 and no entry in the semigroup of the smaller
    ones, so <t> has embedding dimension 3."""
    m1, m2, m3 = t
    if gcd(m1, m2, m3) != 1 or m2 % m1 == 0:
        return False
    return all((m3 - k * m2) % m1 for k in range(m3 // m2 + 1))


def multipliers(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The multiplier triple of an exponent pair, from its determinantal form."""
    c = tuple(x + y for x, y in zip(a, b))
    return (
        c[1] * c[2] - a[1] * b[2],
        c[0] * c[2] - a[2] * b[0],
        c[0] * c[1] - a[0] * b[1],
    )
