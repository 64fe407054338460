"""Every public int parameter refuses what is no int the same way: with a
DomainError subclass, never a bare TypeError and never an answer.

Each value below is refused: 2.5 and "3" are no int, 3.0 and True only
compare equal to one.  None is the documented "no cap" of a
``max_frobenius``, so a cap is walked without it.  ``verify_delta(jobs=)``
is left out: it is a documented no-op that nothing reads.
"""

from __future__ import annotations

import pytest

from hnlab import (
    CoverQuery,
    DomainError,
    ExponentPair,
    WeightAssignment,
    apery_set,
    build,
    check_consistency,
    enumerate_cases,
    example_spec,
    from_generators,
    oversemigroups_with_multiplicity,
    solve_exponents,
    symmetric_cover,
    theorem_verdict,
    verify_delta,
    witness_families,
)

_S = from_generators([3, 4, 5])
_PAIR = ExponentPair((1, 1, 1), (2, 1, 1))

PARAMETERS = {
    "verify_delta(bound)": lambda v: verify_delta(v),
    "enumerate_cases(e)": lambda v: enumerate_cases(v),
    "check_consistency(m1)": lambda v: check_consistency(enumerate_cases(2)[0], v),
    "apery_set(n)": lambda v: apery_set(_S, v),
    "from_generators(entry)": lambda v: from_generators([v, 5]),
    "from_generators(max_frobenius)": lambda v: from_generators([3, 5], v),
    "witness_families(m1)": lambda v: witness_families(v),
    "oversemigroups_with_multiplicity(m)": lambda v: oversemigroups_with_multiplicity(_S, v),
    "symmetric_cover(target_mult)": lambda v: symmetric_cover(CoverQuery(_S, v)),
    "theorem_verdict(e)": lambda v: theorem_verdict(build(_PAIR), v),
    "ExponentPair(a entry)": lambda v: ExponentPair((v, 1, 1), (2, 1, 1)),
    "ExponentPair(b entry)": lambda v: ExponentPair((1, 1, 1), (2, 1, v)),
    "build(max_frobenius)": lambda v: build(_PAIR, v),
    "solve_exponents(m entry)": lambda v: solve_exponents((v, 4, 5)),
    "solve_exponents(max_frobenius)": lambda v: solve_exponents((3, 4, 5), v),
    "example_spec(n)": lambda v: example_spec("caseab1c1_i", v, (3, 4, 5)),
    "example_spec(m entry)": lambda v: example_spec("caseab1c1_i", 1, (v, 4, 5)),
    "WeightAssignment(weight)": lambda v: WeightAssignment((v, 1, 1)),
    "NumericalSemigroup.contains(n)": lambda v: _S.contains(v),
}
_CAPS = {name for name in PARAMETERS if "max_frobenius" in name}


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name in PARAMETERS
        for value in (2.5, 3.0, True, "3", None)
        if not (value is None and name in _CAPS)
    ],
)
def test_every_public_int_parameter_refuses_what_is_no_int(name, value):
    with pytest.raises(DomainError):
        PARAMETERS[name](value)
