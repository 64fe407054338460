"""Span recording around hnlab's public layer functions, from outside.

The tracer replaces each listed function at every place a loaded hnlab
module binds it (its home module, the package namespace, and every module
that imported it by name), so calls between layers are seen as well as the
benchmark's own calls.  Spans are kept in memory as
``[name, start, end, parent, op, extra]`` and turned into per-layer
numbers after the run; nothing is written while ops are timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, function) pairs that make up the five layers' public surface.
LAYER_FUNCTIONS: tuple[tuple[str, str], ...] = (
    ("semigroup", "from_generators"),
    ("semigroup", "profile"),
    ("semigroup", "pseudo_frobenius"),
    ("semigroup", "traits"),
    ("oversemigroups", "verify_delta"),
    ("oversemigroups", "symmetric_cover"),
    ("oversemigroups", "oversemigroups_with_multiplicity"),
    ("hn", "build"),
    ("hn", "theorem_verdict"),
    ("hn", "solve_exponents"),
    ("catalogue", "enumerate_cases"),
    ("catalogue", "verify_example"),
    ("cli", "main"),
)

_SEARCHES = ("oversemigroups.symmetric_cover", "oversemigroups.oversemigroups_with_multiplicity")
#: Searches past this many leaves are left out of the counts.  On a 2-vCPU
#: Xeon guest no search of the current code below it took more than 0.35 s,
#: far from the 2 s guard of the traced pass.
LONG_LEAVES = 4000


def _extra(name: str, result: Any) -> Any:
    """What a span keeps of its result: DFS leaves and the cover verdict."""
    if name == "oversemigroups.symmetric_cover":
        return [result.search_count, result.covered]
    if name == "oversemigroups.oversemigroups_with_multiplicity":
        return [len(result), None]
    return None


class Tracer:
    """Spans of the calls made while enabled.  Build it after hnlab is
    imported: it finds every binding of each layer function once."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable[..., Any], Callable[..., Any]]] = []
        loaded = [m for n, m in sys.modules.items() if n == "hnlab" or n.startswith("hnlab.")]
        for module, func in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"hnlab.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in loaded:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[5] = _extra(name, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, plus the search counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so that is the part no child covers.

        A search that raised (RecursionError, a budget overrun) or visited
        more than LONG_LEAVES leaves is *long*.  The counts leave out a long
        search's leaves, its verdict and the calls under it, and count the
        search in ``oversemigroups.long_searches`` instead.  A wall-clock
        guard cuts searches at a point that varies from run to run, but no
        search under LONG_LEAVES comes near the guard, so the counts repeat
        exactly.  Times cover every span.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        hidden = [False] * len(spans)  # under a long search
        long_ = [False] * len(spans)
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            if name in _SEARCHES:
                long_[i] = extra is None or extra[0] > LONG_LEAVES
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        leaves = covered = decided = long_searches = 0
        rebuild = 0.0
        # Spans are recorded in start order, so a parent precedes its children.
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            own = end - start - child_time[i]
            self_s[name] += own
            if parent >= 0:
                hidden[i] = hidden[parent] or long_[parent]
                if name == "semigroup.from_generators" and spans[parent][0] in _SEARCHES:
                    rebuild += own
            if hidden[i]:
                continue
            calls[name] += 1
            if long_[i]:
                long_searches += 1
            elif extra is not None:
                leaves += extra[0]
                if extra[1] is not None:
                    decided += 1
                    covered += extra[1]
        out: dict[str, float] = {}
        for module, func in LAYER_FUNCTIONS:
            key = f"{module}.{func}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        out["oversemigroups.dfs_leaves"] = leaves
        out["oversemigroups.covered_ratio"] = covered / decided if decided else 0.0
        out["oversemigroups.long_searches"] = long_searches
        out["oversemigroups.witness_rebuild_s"] = rebuild
        return out
