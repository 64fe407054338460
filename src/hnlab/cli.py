"""Command-line front end.

Every invocation that parses emits exactly one report, as stable text
(default) or as one JSON object with schema "v1", byte for byte
``json.dumps(report, sort_keys=True)``; a usage or parse failure (exit 1)
prints argparse's usage to stderr and leaves stdout empty.  Payloads come
from the library's result dataclasses.  The text report shows every value
of the JSON ``result``, one ``key: value`` line each: nested keys are
joined with ``.`` and the items of a list of objects are numbered from 1.
Lists are sorted, each flat list holds one type, and nothing time-dependent
enters the payload (elapsed time goes to stderr).  Exit codes: 0 ok, 1
usage or parse failure, 2 domain precondition violated, 3 verification
mismatch or internal error (any other exception, its traceback on stderr).
A reader that closes stdout early (``| head``) leaves the exit code as is.

The environment variable HNLAB_MAX_FROBENIUS (default 1000000) caps the
accepted generators (of a multiplier triple, m1) and the Frobenius number
of any semigroup the run is allowed to enumerate.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from typing import Any, Sequence

from . import hn
from .cases import enumerate_cases
from .catalogue import example_spec, verify_example
from .errors import DomainError, InvariantViolation
from .oversemigroups import CoverQuery, symmetric_cover, verify_delta
from .semigroup import NumericalSemigroup, from_generators, profile, traits

_DEFAULT_CAP = 1_000_000
_SCHEMA = "v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3

Result = dict[str, Any]


class VerificationMismatch(InvariantViolation):
    """A census or catalogue re-check disagreed with its expected outcome.

    Carries the partial ``result`` so that the report still shows it."""

    def __init__(self, message: str, result: Result) -> None:
        super().__init__(message)
        self.result = result


def _frobenius_cap() -> int:
    raw = os.environ.get("HNLAB_MAX_FROBENIUS", str(_DEFAULT_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"HNLAB_MAX_FROBENIUS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DomainError(f"HNLAB_MAX_FROBENIUS must be positive, got {cap}")
    return cap


def _triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer entry in {text!r}") from None


def _plain(obj: Any, omit: tuple[str, ...] = ()) -> Any:
    """``obj`` as JSON-ready data: a dataclass becomes a dict of its fields
    less ``omit`` (a one-field dataclass just that field), a tuple or list a
    list, an enum its value.  Unlike ``dataclasses.asdict``, no tuple stays."""
    if is_dataclass(obj):
        names = [f.name for f in fields(obj)]
        if len(names) == 1:
            return _plain(getattr(obj, names[0]))
        return {name: _plain(getattr(obj, name)) for name in names if name not in omit}
    if isinstance(obj, (tuple, list)):
        return [_plain(item) for item in obj]
    return obj.value if isinstance(obj, enum.Enum) else obj


def _semigroup_payload(s: NumericalSemigroup) -> Result:
    prof = profile(s)
    tr = traits(s)
    return {
        "minimal_gens": list(s.minimal_gens),
        "apery": list(s.apery),
        "multiplicity": tr.multiplicity,
        "embedding_dimension": tr.embedding_dimension,
        "frobenius": prof.frobenius,
        "gaps": list(prof.gaps),
        "genus": prof.genus,
        "n_below": prof.n_below,
        "symmetric": tr.symmetric,
        "irreducible": tr.irreducible,
        "pseudo_frobenius": list(tr.pseudo_frobenius),
        "type": tr.type,
        "almost_symmetric": tr.almost_symmetric,
    }


# ── command handlers: each returns the report's ``result`` payload ────────


def _cmd_sgp_analyze(args: argparse.Namespace) -> Result:
    return _semigroup_payload(from_generators(args.gens, max_frobenius=_frobenius_cap()))


def _cmd_sgp_sym_cover(args: argparse.Namespace) -> Result:
    s = from_generators(args.gens, max_frobenius=_frobenius_cap())
    verdict = symmetric_cover(CoverQuery(s, args.mult))
    witness = list(verdict.witness.minimal_gens) if verdict.witness else None
    return {**_plain(verdict), "witness": witness}


def _cmd_delta_verify(args: argparse.Namespace) -> Result:
    delta = verify_delta(args.bound)
    result = {**_plain(delta, omit=("bound",)), "match": delta.matches}
    if not delta.matches:
        raise VerificationMismatch("flagged triples differ from the known four", result)
    return result


def _cmd_hn_build(args: argparse.Namespace) -> Result:
    ideal = hn.build(hn.ExponentPair(args.a, args.b), max_frobenius=_frobenius_cap())
    pair = ideal.exponents
    return {
        **_plain(pair),
        "c": list(pair.c),
        "m": list(ideal.m),
        "coprime": ideal.coprime,
        "generators": [{**_plain(g), "text": g.render(("x", "y", "z"))} for g in ideal.generators],
        "value_semigroup": _semigroup_payload(ideal.value_semigroup) if ideal.coprime else None,
        "verdict": None if args.e is None else _plain(hn.theorem_verdict(ideal, args.e)),
    }


def _cmd_hn_solve(args: argparse.Namespace) -> Result:
    return {"m": list(args.m), "solutions": _plain(hn.solve_exponents(args.m, _frobenius_cap()))}


def _cmd_catalogue_check(args: argparse.Namespace) -> Result:
    spec = example_spec(args.id, args.n, args.m)
    example = verify_example(spec)
    result = {**_plain(spec), **_plain(example, omit=("spec",))}
    if not example.verdict:
        raise VerificationMismatch("catalogued example failed its checks", result)
    return result


def _cmd_cases(args: argparse.Namespace) -> Result:
    records = enumerate_cases(args.e)
    cases = [{**_plain(r, omit=("e",)), "n_components": r.n_components} for r in records]
    return {"e": args.e, "cases": cases}


# ── report rendering: text, one line per payload value, and JSON ─────────


def _ints(values: list[int], sep: str) -> str:
    """The ints joined by ``sep``, written by one ``%d`` format, not one ``str`` each."""
    return (f"%d{sep}" * len(values))[: -len(sep)] % tuple(values)


def _fmt(value: Any) -> str:
    """One payload value as text: a list space-joined (ints by ``_ints``, lists
    comma-joined per item, "; " between), bools as true/false, None as '-'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and type(value[0]) is int:
            return _ints(value, " ")
        if value and isinstance(value[0], list):
            return "; ".join(",".join(map(str, item)) for item in value)
        return " ".join(map(str, value))
    return "-" if value is None else str(value)


def _render(payload: Result, prefix: str = "") -> list[str]:
    """``key: value`` for every value of ``payload``, in payload order.  A
    nested object extends the key with ``.``, and so does a list of
    objects, numbering its items from 1.  An empty value leaves ``key:``."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = dict(enumerate(value, 1))
        if isinstance(value, dict):
            lines += _render(value, f"{prefix}{key}.")
        else:
            text = _fmt(value)
            lines.append(f"{prefix}{key}: {text}" if text else f"{prefix}{key}:")
    return lines


def _json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True)`` byte for byte, int lists by ``_ints``."""
    if isinstance(value, dict):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {_json(value[k])}" for k in sorted(value))
    if isinstance(value, list):
        inner = _ints(value, ", ") if value and type(value[0]) is int else ", ".join(map(_json, value))
        return f"[{inner}]"
    return json.dumps(value)


# ── parser wiring and entry point ──────────────────────────────────────────


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser = argparse.ArgumentParser(prog="hnlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="group", required=True)

    sgp = sub.add_parser("sgp", help="numerical semigroup invariants")
    sgp_sub = sgp.add_subparsers(dest="subcommand", required=True)
    p = sgp_sub.add_parser("analyze", parents=[common], help="full invariant report")
    p.add_argument("gens", nargs="+", type=_positive_int, metavar="GEN")
    p = sgp_sub.add_parser("sym-cover", parents=[common], help="symmetric cover verdict and witness")
    p.add_argument("gens", nargs="+", type=_positive_int, metavar="GEN")
    p.add_argument("--mult", type=_positive_int, required=True,
                   help="required multiplicity of the cover (must equal the base's)")

    delta = sub.add_parser("delta", help="uncovered-triple census")
    delta_sub = delta.add_subparsers(dest="subcommand", required=True)
    p = delta_sub.add_parser("verify", parents=[common], help="flag uncovered triples up to a bound")
    p.add_argument("--bound", type=_positive_int, required=True)

    hn_p = sub.add_parser("hn", help="Herzog-Northcott ideal data")
    hn_sub = hn_p.add_subparsers(dest="subcommand", required=True)
    p = hn_sub.add_parser("build", parents=[common], help="build generators and multipliers from a, b")
    p.add_argument("--a", type=_triple, required=True, metavar="A1,A2,A3")
    p.add_argument("--b", type=_triple, required=True, metavar="B1,B2,B3")
    p.add_argument("--e", type=int, default=None,
                   help="ambient multiplicity for the classification verdict")
    p = hn_sub.add_parser("solve", parents=[common], help="invert a multiplier triple to exponents")
    p.add_argument("--m", type=_triple, required=True, metavar="M1,M2,M3")

    cat_p = sub.add_parser("catalogue", help="worked decomposition examples")
    cat_sub = cat_p.add_subparsers(dest="subcommand", required=True)
    p = cat_sub.add_parser("check", parents=[common], help="re-check one catalogued example")
    p.add_argument("--id", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_triple, required=True, metavar="M1,M2,M3")

    p = sub.add_parser("cases", parents=[common], help="decomposition shapes for a multiplicity")
    p.add_argument("--e", type=_positive_int, required=True)
    return parser


_PARSER = build_parser()

#: Namespace entries that select or shape the report rather than feed it.
_NOT_INPUTS = frozenset({"group", "subcommand", "format"})


def _text(report: dict[str, Any]) -> str:
    lines = [f"command: {report['command']}", *_render(report["inputs"], "input ")]
    lines += _render(report.get("result", {}))
    if error := report.get("error"):
        lines += [f"error: {error['code']}", f"error_message: {error['message']}"]
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    params = vars(args)
    report: dict[str, Any] = {
        "schema": _SCHEMA,
        "command": " ".join(params[key] for key in ("group", "subcommand") if key in params),
        "inputs": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in params.items()
            if key not in _NOT_INPUTS and value is not None
        },
    }
    started = time.perf_counter()
    result, error, exit_code = None, None, EXIT_OK
    try:
        # by name, per call, so a test can patch it: "sgp sym-cover" runs _cmd_sgp_sym_cover
        result = globals()["_cmd_" + report["command"].replace(" ", "_").replace("-", "_")](args)
    except DomainError as exc:
        error, exit_code = exc, EXIT_DOMAIN
    except InvariantViolation as exc:
        error, exit_code = exc, EXIT_MISMATCH
        result = getattr(exc, "result", None)
    except Exception as exc:  # a bug, not a domain outcome: still one report
        error, exit_code = exc, EXIT_MISMATCH
        traceback.print_exc(file=sys.stderr)
    report["status"] = "ok" if error is None else "error"
    if error is not None:
        report["error"] = {"code": type(error).__name__, "message": str(error)}
    if result is not None:
        report["result"] = result
    try:
        print(_json(report) if args.format == "json" else _text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  As the Python docs' note on
        # SIGPIPE advises, point stdout at devnull so that the flush at
        # interpreter exit fails silently too; the exit code stays the report's.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"runtime: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
