"""The catalogue of worked decomposition examples.

The examples live in a versioned line-oriented data file shipped with the
package (``data/decomposition_catalogue.txt``).  Each entry fixes a
polynomial f (as a list of weight-checkable factors over the variables
X, Y, Z, W), the tuple of integers whose gcd must be 1, the predicted
decomposition shape, and any field-theoretic caveat.  Verification checks
exactly the numeric side: every constrained factor and all three ideal
generators must be homogeneous under the factor's weight assignment, the
gcd tuple must be coprime, and the predicted shape must be one that
``enumerate_cases`` lists for n (:mod:`hnlab.cases`, the case taxonomy).
Field hypotheses are surfaced as free text, never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from math import gcd

from .cases import CaseRecord, enumerate_cases
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidGenerator,
    InvariantViolation,
    NotInCatalogue,
)
from .hn import Binomial, Triple, _as_tuple, _generators, _is_int_triple, _monomial
from .hn import _weighted_degree, solve_exponents

_DATA_FILE = "decomposition_catalogue.txt"
_VARIABLES = ("X", "Y", "Z", "W")
_GENERATOR_NAMES = ("v1", "v2", "D")


@dataclass(frozen=True)
class WeightAssignment:
    """Positive integer weights, one per variable in the fixed order."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if any(not isinstance(w, int) or isinstance(w, bool) or w < 1 for w in self.weights):
            raise DomainError(f"weights must be positive integers, got {self.weights}")


def binomial_weight_vanishes(w: WeightAssignment, b: Binomial) -> bool:
    """True iff both monomials of b have the same weighted degree under w,
    i.e. b lies in the kernel of the corresponding monomial map."""
    if len(w.weights) != len(b.plus):
        raise DimensionMismatch(
            f"{len(w.weights)} weights against {len(b.plus)} exponents"
        )
    return _weighted_degree(w.weights, b.plus) == _weighted_degree(w.weights, b.minus)


@dataclass(frozen=True)
class Factor:
    """One factor of f, as the monomials that must share a weighted degree.

    ``weights`` is None for a pure power of W, which constrains nothing and
    is recorded only as a primary component of the stated length.
    """

    monomials: tuple[tuple[int, int, int, int], ...]
    weights: WeightAssignment | None
    note: str = ""

    def render(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # Signs are not tracked, so show the equal-weight monomial support.
        return self.note or " ~ ".join(_monomial(mono, _VARIABLES) for mono in self.monomials)


@dataclass(frozen=True)
class ExampleSpec:
    """One catalogued example: the data needed to re-check its numeric side."""

    id: str
    n: int
    m: Triple
    factors: tuple[Factor, ...]
    gcd_tuple: tuple[int, ...]
    predicted: CaseRecord
    caveat: str = ""


@dataclass(frozen=True)
class WeightCheck:
    subject: str
    weights: tuple[int, ...] | None
    passed: bool | None  # None when the subject is weight-unconstrained
    detail: str


@dataclass(frozen=True)
class ExampleReport:
    spec: ExampleSpec
    weight_checks: tuple[WeightCheck, ...]
    gcd_ok: bool
    verdict: bool


def _parse_factor(token: str) -> Factor:
    note = ""
    if "!" in token:
        token, note = token.split("!", 1)
    kind, _, payload = token.partition(":")
    if kind == "wpow":
        k = int(payload)
        return Factor(((0, 0, 0, k),), None, note or f"primary component of length {k}")
    monos_s, _, weights_s = payload.partition("@")
    monomials = tuple(
        tuple(int(x) for x in mono.split(".")) for mono in monos_s.split("+")
    )
    weights = WeightAssignment(tuple(int(x) for x in weights_s.split(",")))
    widths = {len(entries) for entries in (*monomials, weights.weights)}  # one per variable
    if kind not in ("bin", "form") or len(monomials) < 2 or widths != {len(_VARIABLES)}:
        raise InvalidGenerator(f"malformed factor token {token!r}")
    return Factor(monomials, weights, note)  # type: ignore[arg-type]


def _parse_predicted(token: str, e: int) -> CaseRecord:
    label, _, comps_s = token.partition(":")
    components = tuple(
        (int(s), int(l))
        for s, l in (part.split("x") for part in comps_s.split("+"))
    )
    return CaseRecord(e, components, label)


@lru_cache(maxsize=1)
def load_catalogue() -> dict[tuple[str, int, Triple], ExampleSpec]:
    """Parse the shipped catalogue file; keys are (id, n, m)."""
    text = resources.files("hnlab").joinpath(f"data/{_DATA_FILE}").read_text("utf-8")
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    entries: dict[tuple[str, int, Triple], ExampleSpec] = {}
    for line in lines:
        id_, n_s, m_s, factors_s, gcd_s, predicted_s, caveat = line.split("|")
        n = int(n_s)
        m = tuple(int(x) for x in m_s.split(","))
        spec = ExampleSpec(
            id=id_,
            n=n,
            m=m,  # type: ignore[arg-type]
            factors=tuple(_parse_factor(tok) for tok in factors_s.split(";")),
            gcd_tuple=tuple(int(x) for x in gcd_s.split(",")),
            predicted=_parse_predicted(predicted_s, n),
            caveat="" if caveat == "-" else caveat,
        )
        key = (id_, n, m)
        if key in entries:
            raise InvariantViolation(f"duplicate catalogue entry {key}")
        entries[key] = spec  # type: ignore[index]
    return entries


def catalogue_entries() -> list[ExampleSpec]:
    """All catalogued examples, in file order."""
    return list(load_catalogue().values())


def example_spec(id: str, n: int, m: Triple) -> ExampleSpec:
    """Look up one example; an unknown combination raises NotInCatalogue, and
    so do an n that is no int (or is a bool) and an m that is no int triple."""
    m = _as_tuple(m)  # type: ignore[assignment]
    if type(n) is not int or not _is_int_triple(m) or (id, n, m) not in load_catalogue():
        raise NotInCatalogue(f"no catalogued example with id={id!r}, n={n}, m={m}")
    return load_catalogue()[(id, n, m)]


def _ideal_generators_for(m: Triple) -> tuple[Binomial, Binomial, Binomial]:
    solutions = solve_exponents(m)
    if not solutions:
        raise InvariantViolation(f"catalogued m={m} has no exponent solution")
    return _generators(solutions[0])[0]


def verify_example(spec: ExampleSpec) -> ExampleReport:
    """Run every check the example admits; failures are reported, not raised.

    For each weight-constrained factor: the factor's monomials must share a
    weighted degree, and the three ideal generators must vanish under the
    same assignment (they involve X, Y, Z only, so its first three weights
    decide).  Pure W-powers are recorded and skipped.  The predicted shape
    must be a record of ``enumerate_cases(n)``, and the gcd tuple coprime.
    """
    generators = [
        (f"generator {name}: {g.render(_VARIABLES)}", g)
        for name, g in zip(_GENERATOR_NAMES, _ideal_generators_for(spec.m))
    ]
    checks: list[WeightCheck] = []
    for i, factor in enumerate(spec.factors, 1):
        name = f"factor {i}: {factor.render()}"
        if factor.weights is None:
            checks.append(WeightCheck(name, None, None, "skipped: no weight constraint"))
            continue
        w = factor.weights
        if len(w.weights) != 4:  # one weight per variable X, Y, Z, W
            raise DimensionMismatch(f"{len(w.weights)} weights against 4 exponents")
        xyz = WeightAssignment(w.weights[:3])
        degrees = [_weighted_degree(w.weights, mono) for mono in factor.monomials]
        checks.append(
            WeightCheck(
                name,
                w.weights,
                len(set(degrees)) == 1,
                f"monomial weights {degrees}",
            )
        )
        for subject, g in generators:
            checks.append(
                WeightCheck(
                    f"factor {i} {subject}",
                    w.weights,
                    binomial_weight_vanishes(xyz, g),
                    "generator homogeneity",
                )
            )
    gcd_ok = gcd(*spec.gcd_tuple) == 1
    shape_ok = spec.predicted in enumerate_cases(spec.n)
    verdict = gcd_ok and shape_ok and all(c.passed for c in checks if c.passed is not None)
    return ExampleReport(spec, tuple(checks), gcd_ok, verdict)
