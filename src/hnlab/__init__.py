"""Exact combinatorics of numerical semigroups and Herzog-Northcott ideals.

The public surface mirrors the five library areas: semigroup invariants
(:mod:`hnlab.semigroup`), oversemigroups and symmetric covers
(:mod:`hnlab.oversemigroups`), ideal data built from exponent pairs
(:mod:`hnlab.hn`), the decomposition case taxonomy (:mod:`hnlab.cases`),
and the worked example catalogue (:mod:`hnlab.catalogue`).  The
command-line entry point lives in :mod:`hnlab.cli`.
"""

from types import ModuleType as _ModuleType

from .cases import CaseRecord, ConsistencyReport, check_consistency, enumerate_cases
from .catalogue import (
    ExampleReport,
    ExampleSpec,
    Factor,
    WeightAssignment,
    WeightCheck,
    binomial_weight_vanishes,
    catalogue_entries,
    example_spec,
    load_catalogue,
    verify_example,
)
from .errors import (
    BadMultiplicity,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    FrobeniusCapExceeded,
    HnlabError,
    InconsistentRecord,
    InvalidGenerator,
    InvariantViolation,
    NonCofinite,
    NotInCatalogue,
    NotMember,
    UnsupportedMultiplicity,
)
from .hn import (
    Binomial,
    ExponentPair,
    HNIdeal,
    TheoremOutcome,
    TheoremVerdict,
    build,
    normalize,
    solve_exponents,
    theorem_verdict,
    vanishing_check,
)
from .oversemigroups import (
    DELTA,
    CoverQuery,
    CoverVerdict,
    DeltaReport,
    has_symmetric_cover,
    oversemigroups_with_multiplicity,
    symmetric_cover,
    verify_delta,
    witness_families,
)
from .semigroup import (
    GapProfile,
    NumericalSemigroup,
    TraitReport,
    apery_set,
    from_generators,
    is_irreducible,
    is_symmetric,
    profile,
    pseudo_frobenius,
    traits,
)

__version__ = "0.1.0"

# The import block above is the one statement of the public names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
