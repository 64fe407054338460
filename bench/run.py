"""hnlab benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload {census,cover,analyze,classify} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --selftest [--workload W] [--seed N]

Run from the root of a source checkout; hnlab is imported from ./src.
With --trace 0 the run sets up (import, input generation, catalogue load),
times ops for --seconds with tracing off, repeats the set-up at even
intervals in between, and reports the end-to-end metrics.  With --trace 1 it runs each op of a fixed prefix of the
op stream twice, untraced and traced, then the workload's probe of known
defects once, and reports per-layer metrics and the tracing overhead.
Times are scaled to a reference machine speed (see calibrate.py).  The
last stdout line is the result object; the lines before it carry
provenance and the counts that must repeat exactly for a given seed.
Spans and results are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator, Sequence

from calibrate import Calibrator
from tracing import LAYER_FUNCTIONS, Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
#: A segment of the timed phase ends at the first op boundary after this long.
SEGMENT_S = 0.5
FAILURES = ("recursion", "budget", "wrong_answer", "error")
#: Traced counts that depend only on the seed and the source tree (with
#: every ".calls" count).
REPEATABLE = (
    "oversemigroups.dfs_leaves", "oversemigroups.covered_ratio", "oversemigroups.long_searches",
    "cli.output_bytes", "ops.attempted", "ops_failed.recursion",
)


class OpBudgetExceeded(BaseException):
    """Raised from SIGALRM when an op runs past its budget.  A BaseException,
    so no handler inside hnlab can swallow it."""


class OpTimer:
    """Times one op at a time under a SIGALRM budget.  With a calibrator
    set, the calibration slices that ran inside an op are not counted in
    its time."""

    def __init__(self) -> None:
        self.armed = False
        self.cal: Calibrator | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self.armed:
            raise OpBudgetExceeded

    def run(
        self, w: Workload, op: tuple, mods: SimpleNamespace, budget: float, *tallies: Tally
    ) -> None:
        out = None
        status = "ok"
        spent = self.cal.spent if self.cal else 0.0
        start = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            # The alarm may fire up to the moment it is disarmed, inside the
            # inner finally; the outer handlers catch that too.
            try:
                out = w.run(op, mods)
            finally:
                self.armed = False
        except OpBudgetExceeded:
            status = "budget"
        except RecursionError:
            status = "recursion"
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts the run
            # A search budget that hnlab enforces itself counts as an overrun too.
            status = "budget" if "Budget" in type(exc).__name__ else "error"
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.cal:
            elapsed -= self.cal.spent - spent
        nbytes = 0
        if status == "ok":
            nbytes = w.output_bytes(out)
            try:
                if not w.check(op, out, mods):
                    status = "wrong_answer"
            except Exception:  # noqa: BLE001 - an output the oracle cannot read is wrong
                status = "wrong_answer"
        for tally in tallies:
            tally.add(elapsed, status, w.weight(op), nbytes)


def import_hnlab() -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "hnlab" or n.startswith("hnlab.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"hnlab.{m}") for m, _ in LAYER_FUNCTIONS}
    )
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hnlab was imported from {mods.cli.__file__}, not from {SRC}")
    return mods


def setup(w: Workload, seed: int) -> tuple[float, SimpleNamespace, list[tuple], Iterator[tuple]]:
    """Import hnlab afresh, load the catalogue and draw the first inputs.
    Returns the time taken, the modules, the drawn prefix and the stream
    that continues after it."""
    start = time.perf_counter()
    mods = import_hnlab()
    mods.catalogue.load_catalogue()
    stream = w.generate(random.Random(seed), mods)
    prefix = list(itertools.islice(stream, w.trace_ops))
    return time.perf_counter() - start, mods, prefix, stream


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile by linear interpolation between closest ranks (the
    "inclusive" method of statistics.quantiles); an infinite neighbour,
    a failed op, makes the result infinite."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    if pos == lo:
        return ordered[lo]
    below, above = ordered[lo], ordered[lo + 1]
    return math.inf if above == math.inf else below + (above - below) * (pos - lo)


class Reservoir:
    """A uniform random sample of at most KEEP values (reservoir sampling),
    so the benchmark's own memory does not grow with the op count and a
    faster hnlab does not show up as a larger peak_rss_mb."""

    KEEP = 20_000

    def __init__(self) -> None:
        self.values = array("d")
        self.seen = 0
        self._rng = random.Random(0)

    def extend(self, values: Sequence[float]) -> None:
        for v in values:
            self.seen += 1
            if self.seen <= self.KEEP:
                self.values.append(v)
            else:
                slot = self._rng.randrange(self.seen)
                if slot < self.KEEP:
                    self.values[slot] = v


class Tally:
    """Totals of a phase or a segment of one; a segment also keeps the
    latency of each op."""

    def __init__(self, latencies: bool = False) -> None:
        self.calls = self.attempted = self.ok = self.output_bytes = 0
        self.busy_s = 0.0
        self.failed = dict.fromkeys(FAILURES, 0)
        self.latency_ms: array | None = array("d") if latencies else None

    def add(self, elapsed: float, status: str, weight: int, nbytes: int) -> None:
        self.calls += 1
        self.attempted += weight
        self.busy_s += elapsed
        self.output_bytes += nbytes
        if status == "ok":
            self.ok += weight
        else:
            self.failed[status] += weight
        if self.latency_ms is not None:
            # A failed op is slower than any limit.
            self.latency_ms.append(1000 * elapsed / weight if status == "ok" else math.inf)

    def summary(self, slowdown: float = 1.0) -> dict[str, Any]:
        """Totals, with the rate scaled to the reference machine by
        ``slowdown`` (see calibrate.py)."""
        return {
            "calls": self.calls,
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "busy_s": self.busy_s,
            "output_bytes": self.output_bytes,
            "slowdown": slowdown,
            "ops_per_s": self.ok / self.busy_s * slowdown if self.busy_s else 0.0,
        }

    def scaled_latencies(self, slowdown: float) -> list[float]:
        return [v / slowdown for v in self.latency_ms or ()]


def timed_setup(w: Workload, seed: int) -> tuple[float, Any, list, Iterator]:
    """setup() between two calibration slices of its own; the time comes
    back scaled to the reference machine."""
    cal = Calibrator()
    cal.slice()
    elapsed, *rest = setup(w, seed)
    cal.slice()
    return elapsed / cal.slowdown(), *rest


def timed_phase(w, seed, ops, mods, timer, seconds, setup_times) -> dict[str, Any]:
    """Run ops until the deadline, in segments of about SEGMENT_S.

    Calibration slices run at the start and end of each segment and every
    ``calibrate.EVERY_S`` of CPU time in between, inside ops too.  Each
    segment's times are scaled by the slowdown its slices measured, and the
    metrics are taken over the ops of all segments.  The set-up is repeated
    at even intervals between ops, so its median spans the run the way the
    op timings do, and the ops go on with the freshly imported modules.
    """
    total, seg = Tally(), Tally(latencies=True)
    segments: list[dict[str, Any]] = []
    latencies = Reservoir()
    cal = timer.cal = Calibrator()
    start = time.perf_counter()
    deadline = start + seconds
    interval = seconds / SETUP_REPEATS
    cal.slice()
    seg_end = time.perf_counter() + SEGMENT_S
    cal.start_ticks()
    try:
        for op in ops:
            timer.run(w, op, mods, w.budget_s, total, seg)
            now = time.perf_counter()
            done = now >= deadline
            if now >= seg_end or done:
                cal.slice()
                slowdown = cal.slowdown()
                segments.append(seg.summary(slowdown))
                latencies.extend(seg.scaled_latencies(slowdown))
                seg = Tally(latencies=True)
            if done:
                break
            while len(setup_times) < SETUP_REPEATS and now >= start + interval * len(setup_times):
                cal.stop_ticks()
                elapsed, mods, _, _ = timed_setup(w, seed)
                setup_times.append(elapsed)
                cal.start_ticks()
            if seg.calls == 0:
                cal.slice()
                seg_end = time.perf_counter() + SEGMENT_S
    finally:
        cal.stop_ticks()
        timer.cal = None
    summary = total.summary()
    summary["segments"] = segments
    summary["unscaled_ops_per_s"] = summary["ops_per_s"]
    summary["ops_per_s"] = sum(s["ok"] for s in segments) / sum(
        s["busy_s"] / s["slowdown"] for s in segments
    )
    summary["op_p50_ms"] = percentile(latencies.values, 0.5)
    summary["op_p90_ms"] = percentile(latencies.values, 0.9)
    summary["ok_ratio"] = total.ok / total.attempted
    return summary


def traced_pass(w, ops, probe, mods, timer):
    """Run each op untraced and traced, alternating which goes first, so a
    drift in machine speed does not land on one side of the overhead ratio.
    Then run the probe ops once, traced.  Returns the untraced, traced and
    probe summaries and the tracer."""
    tracer = Tracer()
    untraced, traced, probed = Tally(), Tally(), Tally()
    for i, op in enumerate(ops):
        tracer.op_id = i
        for enabled in ((False, True) if i % 2 == 0 else (True, False)):
            if enabled:
                tracer.enable()
            try:
                timer.run(w, op, mods, w.guard_s, traced if enabled else untraced)
            finally:
                tracer.disable()
    tracer.enable()
    try:
        for i, op in enumerate(probe, len(ops)):
            tracer.op_id = i
            timer.run(w, op, mods, w.guard_s, probed)
    finally:
        tracer.disable()
    return untraced.summary(), traced.summary(), probed.summary(), tracer


def digest(stream: list[tuple]) -> str:
    return hashlib.sha256(repr(stream).encode()).hexdigest()[:16]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hnlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    w = WORKLOADS[args.workload]
    timer = OpTimer()
    setup_s, mods, prefix, stream = timed_setup(w, args.seed)
    probe = w.probe(random.Random(f"probe-{args.seed}"))
    counts: dict[str, Any] = {"inputs_digest": digest(prefix + probe)}
    spans: list[list[Any]] = []
    if args.trace:
        untraced, traced, probed, tracer = traced_pass(w, prefix, probe, mods, timer)
        spans = tracer.spans
        layers = tracer.layer_metrics()
        metrics = dict(layers)
        metrics["cli.output_bytes"] = traced["output_bytes"]
        for k in FAILURES:
            metrics[f"ops_failed.{k}"] = traced["failed"][k] + probed["failed"][k]
        metrics["ops.attempted"] = traced["attempted"] + probed["attempted"]
        metrics["trace.overhead_ratio"] = traced["busy_s"] / untraced["busy_s"]
        counts.update(
            {k: v for k, v in metrics.items() if k.endswith(".calls") or k in REPEATABLE}
        )
        summary = traced
        summary["probe"] = probed
        # The probe's failures are the known defects it exists to count;
        # a probe op that gives a wrong answer is still incorrect.
        correct = all(
            s["failed"]["wrong_answer"] == 0 and s["failed"]["error"] == 0
            for s in (untraced, traced, probed)
        )
    else:
        setup_times = [setup_s]
        ops = itertools.chain(prefix, stream)
        summary = timed_phase(w, args.seed, ops, mods, timer, args.seconds, setup_times)
        summary["setup_times"] = setup_times
        metrics = {k: summary[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms", "ok_ratio")}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct = summary["failed"]["wrong_answer"] == 0 and summary["failed"]["error"] == 0
    return {
        "summary": summary,
        "counts": counts,
        "spans": spans,
        "result": {
            "correct": correct,
            "attempted": summary["attempted"],
            "failed": summary["attempted"] - summary["ok"],
            "metrics": metrics,
        },
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_outputs(args, prov, run) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "counts": run["counts"], "summary": run["summary"],
              "result": run["result"]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if run["spans"]:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, op, extra in run["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}) + "\n")


def selftest(args: argparse.Namespace) -> int:
    """Two traced runs per workload with one seed must give identical
    input digests and counts."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    bad = 0
    for name in names:
        seen = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            line = next((ln for ln in done.stdout.splitlines() if ln.startswith("counts ")), "")
            seen.append(line)
        same = seen[0] == seen[1] and seen[0] != ""
        bad += not same
        print(f"{name}: {'identical' if same else 'DIFFERENT'}")
        if not same:
            print("\n".join(seen))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that two traced runs with one seed repeat their counts")
    args = parser.parse_args()
    if not (SRC / "hnlab" / "__init__.py").is_file():
        print(f"error: no hnlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    prov = provenance(args)
    run = run_workload(args)
    write_outputs(args, prov, run)
    result = run["result"]
    units = declared_units(args.trace)
    if set(units) != set(result["metrics"]):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(result['metrics']))}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("counts " + json.dumps(run["counts"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
