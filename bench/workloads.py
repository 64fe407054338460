"""The four workloads: how each draws its inputs, runs one op, and checks it.

Each op calls hnlab's public functions through the module objects in
``mods`` (attribute lookup at call time, so the tracer's wrappers apply).
``check`` compares the op's output with facts computed by ``reference``
or known from the paper; it never reuses the timed code path.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from math import gcd
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import reference as ref

Op = tuple[Any, ...]


class Workload:
    name = ""
    #: Per-op wall-clock limit in the timed phase, far above any op of the
    #: stream; an overrun is a failed op, never a hung run.
    budget_s = 1.0
    #: Per-op limit in the traced pass.  It only stops searches that run
    #: for seconds, so the traced counts repeat exactly.
    guard_s = 1.0
    #: Length of the fixed op prefix that set-up draws and the traced pass runs.
    trace_ops = 1

    def generate(self, rng: random.Random, mods: SimpleNamespace) -> Iterator[Op]:
        """The endless op stream for one seed."""
        raise NotImplementedError

    def probe(self, rng: random.Random) -> list[Op]:
        """Ops on inputs where the current code is known to fail.  The traced
        pass runs them once and counts their failures; they stay out of the
        op stream, on which no op may fail."""
        return []

    def run(self, op: Op, mods: SimpleNamespace) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any, mods: SimpleNamespace) -> bool:
        raise NotImplementedError

    def weight(self, op: Op) -> int:
        """How many ops one call stands for."""
        return 1

    def output_bytes(self, out: Any) -> int:
        return 0


def _binned(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers from [lo, hi], one from each of n equal-width bins, in bin order."""
    span = hi - lo + 1
    out = []
    for i in range(n):
        start = lo + i * span // n
        out.append(rng.randint(start, max(start, lo + (i + 1) * span // n - 1)))
    return out


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """_binned, shuffled.

    Drawing sizes this way gives every run the same spread of sizes, so runs
    with different seeds differ in their inputs but not in how many large
    ones they happened to draw.
    """
    out = _binned(rng, lo, hi, n)
    rng.shuffle(out)
    return out


def _latin_pairs(
    rng: random.Random, first: tuple[int, int], second: tuple[int, int], n: int, shift: int
) -> list[tuple[int, int]]:
    """n pairs, the first of each drawn one per bin of ``first`` and the
    second one per bin of ``second`` (see _binned).  Bin i of the first is
    paired with bin (i + shift) % n of the second, so n calls with shifts
    0 .. n-1 pair every bin of one with every bin of the other once."""
    xs, ys = _binned(rng, *first, n), _binned(rng, *second, n)
    return [(xs[i], ys[(i + shift) % n]) for i in range(n)]


class _Decks:
    """One seeded deck per key over a finite population of inputs: every
    input of a key comes up once before any comes up again.

    Drawing without replacement gives runs with different seeds nearly the
    same mix of inputs, which matters where a few inputs take hundreds of
    times longer than the rest.
    """

    def __init__(self, rng: random.Random, population: Callable[[int], list[Op]]) -> None:
        self.rng = rng
        self.population = population
        self.decks: dict[int, list[Op]] = {}

    def draw(self, key: int) -> Op:
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = self.population(key)
            self.rng.shuffle(deck)
        return deck.pop()


def _triples(m1: int) -> list[tuple[int, int, int]]:
    """Every embedding-dimension-3 triple with multiplicity m1 and m3 at most 2*m1 + 1."""
    return [
        (m1, m2, m3)
        for m2 in range(m1 + 1, 2 * m1 + 1)
        for m3 in range(m2 + 1, 2 * m1 + 2)
        if ref.is_edim3_triple((m1, m2, m3))
    ]


def _triple(rng: random.Random, m1: int) -> tuple[int, int, int]:
    """An embedding-dimension-3 triple with multiplicity m1 and m2, m3 at most 2*m1 + 1."""
    while True:
        m2 = rng.randint(m1 + 1, 2 * m1)
        m3 = rng.randint(m2 + 1, 2 * m1 + 1)
        if ref.is_edim3_triple((m1, m2, m3)):
            return (m1, m2, m3)


class Census(Workload):
    """verify_delta at one fixed bound: the paper's theorem.  Seed-independent."""

    name = "census"
    BOUND = 36
    budget_s = guard_s = 120.0

    def __init__(self) -> None:
        self.triples = sum(
            ref.is_edim3_triple((a, b, c))
            for a in range(3, self.BOUND - 1)
            for b in range(a + 1, self.BOUND)
            for c in range(b + 1, self.BOUND + 1)
        )

    def generate(self, rng, mods):
        return itertools.repeat(("census", self.BOUND))

    def run(self, op, mods):
        return mods.oversemigroups.verify_delta(op[1], jobs=1)

    def check(self, op, out, mods):
        expected = tuple(t for t in ref.DELTA if t[2] <= op[1])
        return tuple(map(tuple, out.flagged)) == expected == tuple(map(tuple, out.expected))

    def weight(self, op):
        return self.triples


class Cover(Workload):
    """A stream of cover queries (find-first) and oversemigroup listings
    (enumerate-all) through the same DFS, in rounds of fixed composition.

    Strata of the find-first queries: m1 <= 9 reaches the four uncovered
    triples, whose searches walk the whole tree; m1 in 10-20 has a heavy
    tail, with searches from under a millisecond to half a second.  Each m1
    draws its bases from a deck of all of them (see _Decks).
    Enumerate-all ops get more generators at larger m1, which keeps the
    listings to hundreds of members.

    Two strata stay out of the stream, because the current search fails on
    them: at m1 60-120 most bases raise RecursionError, and at m1 21-30 some
    searches run for seconds or without end.  The traced pass runs a fixed
    sample of both as a probe, so these known defects stay in view.
    """

    name = "cover"
    #: Ops per round as (kind, m1 low, m1 high, count).
    ROUND = (
        ("find", 3, 9, 8),
        ("find", 10, 20, 6),
        ("enum", 5, 12, 5),
    )
    #: Probe ops as (m1 low, m1 high, count): deep bases, then long searches.
    PROBE = ((60, 120, 20), (21, 30, 6))
    budget_s = 10.0
    guard_s = 2.0
    trace_ops = 190

    def generate(self, rng, mods):
        decks = {"find": _Decks(rng, _triples), "enum": _Decks(rng, self._enum_bases)}
        while True:
            round_: list[Op] = []
            for kind, lo, hi, count in self.ROUND:
                for m1 in _stratified(rng, lo, hi, count):
                    round_.append((kind, decks[kind].draw(m1)))
            rng.shuffle(round_)
            yield from round_

    def probe(self, rng):
        return [
            ("find", _triple(rng, m1))
            for lo, hi, count in self.PROBE
            for m1 in _stratified(rng, lo, hi, count)
        ]

    @staticmethod
    def _enum_bases(m1: int) -> list[tuple[int, ...]]:
        """Every base of m1 and k = 2 + (m1 - 5) // 2 generators in (m1, 2*m1) with gcd 1."""
        k = 2 + (m1 - 5) // 2
        return [
            (m1, *extra)
            for extra in itertools.combinations(range(m1 + 1, 2 * m1), k)
            if gcd(m1, *extra) == 1
        ]

    def run(self, op, mods):
        kind, gens = op
        ov = mods.oversemigroups
        base = mods.semigroup.from_generators(gens)
        if kind == "enum":
            return ov.oversemigroups_with_multiplicity(base, gens[0])
        return ov.symmetric_cover(ov.CoverQuery(base, gens[0]))

    def check(self, op, out, mods):
        kind, gens = op
        m = gens[0]
        if kind == "enum":
            # Every generator of the base is below 2m, and below 2m a
            # semigroup of multiplicity m holds only minimal generators.
            keys = [tuple(u.minimal_gens) for u in out]
            return (
                len(set(keys)) == len(keys)
                and tuple(gens) in keys
                and all(k[0] == m and set(gens) <= set(k) for k in keys)
            )
        if out.covered != (tuple(gens) not in ref.DELTA):
            return False
        if not out.covered:
            return out.witness is None
        w = tuple(out.witness.minimal_gens)
        # A witness contains the base, so its Frobenius number is at most the base's.
        frob, _ = ref.frobenius_genus(gens)
        w_frob, w_genus = ref.frobenius_genus(w, frob + m)
        inside = ref.members(w, max(gens))
        return min(w) == m and all(inside >> g & 1 for g in gens) and 2 * w_genus == w_frob + 1


def _parse_text(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            key, value = key.rstrip(":"), ""
        fields[key] = value
    return fields


def _ints(value: str) -> list[int]:
    return [int(v) for v in value.split()]


class Analyze(Workload):
    """`sgp analyze` reports through cli.main in-process, text and JSON in
    turn.  Two-generator inputs give long gap lists (profile,
    pseudo_frobenius, rendering); many-generator inputs of large
    multiplicity load the Apéry relaxation."""

    name = "analyze"
    budget_s = guard_s = 10.0
    trace_ops = 32
    RESULT_KEYS = {
        "minimal_gens", "apery", "multiplicity", "embedding_dimension", "frobenius",
        "gaps", "genus", "n_below", "symmetric", "irreducible", "pseudo_frobenius",
        "type", "almost_symmetric",
    }

    BLOCK = 8  # inputs of each shape per block

    def generate(self, rng, mods):
        for j in itertools.count():
            # Over BLOCK blocks every size bin meets every bin of its second
            # parameter once, and over twice as many in both formats, so
            # runs with different seeds get nearly the same mix of costs.
            shift, flip = j % self.BLOCK, j // self.BLOCK
            block = []
            for i, (a, step) in enumerate(
                _latin_pairs(rng, (60, 360), (0, 999), self.BLOCK, shift)
            ):
                b = a + 1 + (a - 2) * step // 1000
                while gcd(a, b) != 1:  # stops by 2a - 1, which is prime to a
                    b += 1
                block.append(("two", ("text", "json")[(i + flip) % 2], (a, b)))
            for i, (m, k) in enumerate(
                _latin_pairs(rng, (200, 1000), (20, 60), self.BLOCK, shift)
            ):
                gens = (m, *range(2 * m - k, 2 * m))
                block.append(("many", ("json", "text")[(i + flip) % 2], gens))
            rng.shuffle(block)
            yield from block

    def run(self, op, mods):
        _, fmt, gens = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(["sgp", "analyze", "--format", fmt, *map(str, gens)])
        return code, out.getvalue()

    def output_bytes(self, out):
        return len(out[1].encode())

    def check(self, op, out, mods):
        shape, fmt, gens = op
        code, text = out
        if code != 0:
            return False
        if fmt == "json":
            doc = json.loads(text)
            head = (doc.get("schema"), doc.get("command"), doc.get("status"))
            if head != ("v1", "sgp analyze", "ok"):
                return False
            if doc.get("inputs") != {"gens": list(gens)} or set(doc["result"]) != self.RESULT_KEYS:
                return False
            r = doc["result"]
        else:
            f = _parse_text(text)
            if (f.get("command"), f.get("status"), f.get("input gens")) != (
                "sgp analyze", "ok", " ".join(map(str, gens))
            ):
                return False
            r = {k: f[k] for k in self.RESULT_KEYS}
            for k in ("minimal_gens", "apery", "gaps", "pseudo_frobenius"):
                r[k] = _ints(r[k])
            for k in ("symmetric", "irreducible", "almost_symmetric"):
                r[k] = {"true": True, "false": False}[r[k]]
            for k in ("multiplicity", "embedding_dimension", "frobenius", "genus", "n_below",
                      "type"):
                r[k] = int(r[k])
        frob, genus, gaps = r["frobenius"], r["genus"], r["gaps"]
        ok = (
            r["minimal_gens"] == list(gens)  # every input generator is below 2*min(gens)
            and r["multiplicity"] == gens[0]
            and genus == len(gaps)
            and gaps == sorted(gaps)
            and frob == max(r["apery"]) - r["multiplicity"]
            and (not gaps or gaps[-1] == frob)
            and r["n_below"] + genus == frob + 1
            and r["symmetric"] == (2 * genus == frob + 1)
            and r["type"] == len(r["pseudo_frobenius"])
        )
        if ok and shape == "two":
            a, b = gens
            ok = (
                frob == a * b - a - b
                and 2 * genus == (a - 1) * (b - 1)
                and r["pseudo_frobenius"] == [frob]
            )
        return ok


class Classify(Workload):
    """Exponent pairs through hn.build and theorem_verdict, with a
    solve_exponents round trip where the solver applies, and now and then a
    catalogue example re-check.  Many sub-millisecond ops, so fixed per-call
    cost dominates; the value semigroups give tiny cover searches."""

    name = "classify"
    EXAMPLE_EVERY = 10
    CASES = {1: 1, 2: 3, 3: 5}  # decomposition shapes per e, from the paper
    budget_s = guard_s = 1.0
    trace_ops = 2000

    def generate(self, rng, mods):
        keys = [(s.id, s.n, s.m) for s in mods.catalogue.catalogue_entries()]
        for i in itertools.count(1):
            if i % self.EXAMPLE_EVERY == 0:
                yield ("example", rng.choice(keys))
            else:
                a = tuple(rng.randint(1, 3) for _ in range(3))
                b = tuple(rng.randint(1, 3) for _ in range(3))
                yield ("pair", a, b, rng.randint(1, 3))

    def run(self, op, mods):
        if op[0] == "example":
            cat = mods.catalogue
            return cat.verify_example(cat.example_spec(*op[1]))
        _, a, b, e = op
        hn = mods.hn
        pair = hn.ExponentPair(a, b)
        h = hn.build(pair)
        verdict = hn.theorem_verdict(h, e)
        m = sorted(h.m)
        solutions = None
        if m[0] in (3, 4) and m[0] < m[1] < m[2] and gcd(*m) == 1:
            solutions = hn.solve_exponents(tuple(m))
        return h, verdict, solutions

    def check(self, op, out, mods):
        if op[0] == "example":
            return out.verdict is True and out.gcd_ok
        _, a, b, e = op
        h, verdict, solutions = out
        m = ref.multipliers(a, b)
        coprime = gcd(*m) == 1
        hypothesis = coprime and ref.minimal_generators(m) in ref.DELTA
        outcome = (
            "HypothesisNotSatisfied" if not hypothesis else "Prime" if e == 1 else "PrimeOrNonCI"
        )
        ok = (
            tuple(h.m) == m
            and h.coprime == coprime
            and all(
                sum(w * x for w, x in zip(m, g.plus)) == sum(w * x for w, x in zip(m, g.minus))
                for g in h.generators
            )
            and verdict.hypothesis_ok == hypothesis
            and verdict.multiplicity_e == e
            and verdict.outcome.value == outcome
            and len(verdict.possible_cases) == self.CASES[e]
        )
        if ok and solutions is not None:
            # normalize only reorders (a, b); the solver must recover the pair.
            ok = mods.hn.normalize(mods.hn.ExponentPair(a, b)) in solutions
        return ok


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Census(), Cover(), Analyze(), Classify())}
