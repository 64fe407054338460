"""Case taxonomy for minimal primary decompositions.

The ambient multiplicity e splits across the minimal primes p of the ideal
as e = sum over components of sigma_p * l_p, where sigma_p is the
multiplicity factor of the component and l_p its local length; each
component contributes a quotient of multiplicity m1 * sigma_p.  A
:class:`CaseRecord` is one multiset of (sigma, length) pairs with that sum;
each e's records are built and checked once, on first use, then shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .errors import DomainError, InconsistentRecord, InvariantViolation


@dataclass(frozen=True)
class CaseRecord:
    """A decomposition shape: multiset of (sigma, length) pairs for one e."""

    e: int
    components: tuple[tuple[int, int], ...]
    label: str

    def __post_init__(self) -> None:
        canon = tuple(sorted((tuple(c) for c in self.components), reverse=True))
        object.__setattr__(self, "components", canon)

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the multiplicity bookkeeping for one case record."""

    e: int
    m1: int
    component_multiplicities: tuple[int, ...]
    total: int
    ok: bool


_Pairs = tuple[tuple[int, int], ...]

_PAPER_CASES: dict[int, tuple[tuple[str, _Pairs], ...]] = {
    1: (("(a)", ((1, 1),)),),
    2: (
        ("(b.1)", ((2, 1),)),
        ("(b.2)", ((1, 2),)),
        ("(b.3)", ((1, 1), (1, 1))),
    ),
    3: (
        ("(c.1)", ((3, 1),)),
        ("(c.2)", ((1, 3),)),
        ("(c.3)", ((1, 2), (1, 1))),
        ("(c.4)", ((2, 1), (1, 1))),
        ("(c.5)", ((1, 1), (1, 1), (1, 1))),
    ),
}


def _multisets(total: int, pairs: _Pairs) -> Iterator[_Pairs]:
    """Multisets of ``pairs`` (given in non-increasing order) with sum
    sigma*length = total, each yielded as a non-increasing tuple."""
    if total == 0:
        yield ()
    for i, (s, l) in enumerate(pairs):
        if s * l <= total:
            for rest in _multisets(total - s * l, pairs[i:]):
                yield ((s, l), *rest)


@cache
def _cases(e: int) -> tuple[tuple[CaseRecord, ...], tuple[str, ...]]:
    """The labeled shapes for one e in [1, 6] and their labels in order,
    built and checked once."""
    pairs = sorted(((s, l) for s in range(1, e + 1) for l in range(1, e // s + 1)), reverse=True)
    generated = set(_multisets(e, tuple(pairs)))
    table = _PAPER_CASES.get(e)
    if table is None:
        ordered = sorted(generated, key=lambda ms: (len(ms), ms))
        table = tuple((f"(e={e}, #{i})", comps) for i, comps in enumerate(ordered, 1))
    elif generated != {comps for _, comps in table}:
        raise InvariantViolation(f"case generator disagrees with the e={e} table")
    records = tuple(CaseRecord(e, comps, label) for label, comps in table)
    return records, tuple(rec.label for rec in records)


def enumerate_cases(e: int) -> tuple[CaseRecord, ...]:
    """All decomposition shapes for ambient multiplicity e, labeled.

    For e <= 3 the labels and order are the classical (a), (b.1)-(b.3),
    (c.1)-(c.5).  For e in [4, 6] the enumeration is mechanical and the
    labels are systematic, "(e=4, #1)" and so on.  Built and checked once
    per e: every call returns the same tuple of frozen records.  An e that
    is not an int, or is a bool, raises DomainError: True would share the
    cache slot of 1.
    """
    if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= 6:
        raise DomainError(f"case enumeration covers e in [1, 6], got {e!r}")
    return _cases(e)[0]


def check_consistency(r: CaseRecord, m1: int) -> ConsistencyReport:
    """Enforce sum(sigma*length) = e, then verify that the per-component
    multiplicities m1*sigma add up, weighted by length, to m1*e.  An m1
    that is not an int, or is a bool, raises DomainError."""
    if not isinstance(m1, int) or isinstance(m1, bool):
        raise DomainError(f"multiplier m1 must be an integer, got {m1!r}")
    if m1 < 3:
        raise DomainError(f"multiplier m1 must be at least 3, got {m1}")
    total_sl = sum(s * l for s, l in r.components)
    if total_sl != r.e:
        raise InconsistentRecord(
            f"components of {r.label} sum to {total_sl}, expected e={r.e}"
        )
    comp_mults = tuple(m1 * s for s, _ in r.components)
    total = sum(cm * l for cm, (_, l) in zip(comp_mults, r.components))
    return ConsistencyReport(r.e, m1, comp_mults, total, total == m1 * r.e)
