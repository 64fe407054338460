"""End-to-end command-line behavior: payloads, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hnlab import catalogue_entries, cli, oversemigroups
from hnlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, *argv):
    """Exit 1, nothing on stdout, argparse's usage line and error on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert (code, captured.out) == (1, ""), argv
    assert err[0].startswith("usage: hnlab"), err
    assert ": error: " in err[-1], err


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["schema"] == "v1"
    return code, payload


# ── sgp ──────────────────────────────────────────────────────────────────────


def test_analyze_text(capsys):
    code, out = run(capsys, "sgp", "analyze", "3", "4", "5")
    assert code == 0
    assert "frobenius: 2" in out
    assert "genus: 2" in out
    assert "symmetric: false" in out
    assert "type: 2" in out
    assert "almost_symmetric: true" in out
    assert out.rstrip().endswith("status: ok")


def test_analyze_json_matches_text_numbers(capsys):
    code, payload = run_json(capsys, "sgp", "analyze", "3", "4")
    assert code == 0
    r = payload["result"]
    assert r["frobenius"] == 5 and r["symmetric"] is True
    assert r["gaps"] == [1, 2, 5]
    code, out = run(capsys, "sgp", "analyze", "3", "4")
    assert "frobenius: 5" in out and "gaps: 1 2 5" in out


def test_analyze_non_cofinite_exits_2(capsys):
    code, out = run(capsys, "sgp", "analyze", "2", "4")
    assert code == 2
    assert "error: NonCofinite" in out
    assert out.rstrip().endswith("status: error")


def test_analyze_parse_failure_exits_1(capsys):
    assert main(["sgp", "analyze", "three"]) == 1
    assert_usage_error(capsys, "delta", "verify", "--bound", "0")


def test_sym_cover_known_values(capsys):
    code, payload = run_json(capsys, "sgp", "sym-cover", "3", "7", "8", "--mult", "3")
    assert code == 0
    assert payload["result"] == {"covered": True, "witness": [3, 4], "search_count": 1}

    code, payload = run_json(capsys, "sgp", "sym-cover", "4", "7", "9", "--mult", "4")
    assert code == 0
    assert payload["result"]["covered"] is False
    assert payload["result"]["witness"] is None

    code, payload = run_json(capsys, "sgp", "sym-cover", "4", "5", "6", "--mult", "4")
    assert payload["result"]["covered"] is True
    assert payload["result"]["witness"] == [4, 5, 6]


def test_no_command_runs_the_exhaustive_search(capsys, monkeypatch):
    def boom(base, m):
        raise AssertionError("oversemigroup listing reached")

    monkeypatch.setattr(oversemigroups, "oversemigroups_with_multiplicity", boom)
    for argv in (
        ["sgp", "sym-cover", "25", "41", "49", "--mult", "25"],
        ["sgp", "sym-cover", "4", "7", "9", "--mult", "4"],
        ["delta", "verify", "--bound", "36"],
        ["hn", "build", "--a", "1,1,1", "--b", "2,1,1", "--e", "1"],
    ):
        code, payload = run_json(capsys, *argv)
        assert (code, payload["status"]) == (0, "ok"), argv


def test_sym_cover_wrong_multiplicity_exits_2(capsys):
    code, payload = run_json(capsys, "sgp", "sym-cover", "3", "7", "8", "--mult", "4")
    assert code == 2
    assert payload["error"]["code"] == "UnsupportedMultiplicity"


# ── delta ────────────────────────────────────────────────────────────────────


def test_delta_verify_bound_9(capsys):
    code, payload = run_json(capsys, "delta", "verify", "--bound", "9")
    assert code == 0
    assert payload["result"]["match"] is True
    assert payload["result"]["flagged"] == [[3, 4, 5], [3, 5, 7], [4, 5, 7], [4, 7, 9]]


def test_delta_verify_bound_5(capsys):
    code, payload = run_json(capsys, "delta", "verify", "--bound", "5")
    assert code == 0
    assert payload["result"]["flagged"] == [[3, 4, 5]]


def _not_an_integer(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return True
    return False


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(
        st.integers(-5, 2100).map(str),
        st.just(str(10**30)),
        st.text(max_size=6).filter(_not_an_integer),
    )
)
def test_delta_verify_bound_fuzz(capsys, token):
    # any --bound ends in one v1 report (exit 0 or 2) or a usage error with
    # an empty stdout (exit 1)
    code = main(["delta", "verify", "--format", "json", "--bound", token])
    out = capsys.readouterr().out
    assert code in (0, 1, 2), token
    in_range = not _not_an_integer(token) and 3 <= int(token) <= oversemigroups.CENSUS_MAX_BOUND
    assert (code == 0) == in_range, token
    if code == 1:
        assert out == "", token
    else:
        assert len(out.splitlines()) == 1, token
        payload = json.loads(out)
        assert payload["schema"] == "v1", token
        assert payload["status"] == ("ok" if code == 0 else "error"), token


def _is_positive_integer(token: str) -> bool:
    return not _not_an_integer(token) and int(token) >= 1


# a token that is no small integer: 0, a huge one, or text that is no
# integer and no option (an option such as -h would print argparse's help)
ODD_TOKENS = st.one_of(
    st.sampled_from(["0", str(10**30)]),
    st.text(max_size=6).filter(lambda t: _not_an_integer(t) and not t.startswith("-")),
)


@st.composite
def generator_tokens(draw) -> list[str]:
    """Up to four integers in [-5, 50], and half the time one odd token put
    in among them."""
    tokens = draw(st.lists(st.integers(-5, 50).map(str), max_size=4))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(ODD_TOKENS))
    return tokens


def assert_one_report_or_usage_error(capsys, argv: list[str], parses: bool) -> int:
    """Exit 0 or 2 with exactly one v1 JSON line, or exit 1 with an empty
    stdout, which happens exactly when argparse rejects a token; returns
    the exit code."""
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    assert (code != 1) == parses, argv
    if code == 1:
        assert out == "", argv
    else:
        assert len(out.splitlines()) == 1, argv
        payload = json.loads(out)
        assert payload["schema"] == "v1", argv
        assert payload["status"] == ("ok" if code == 0 else "error"), argv
    return code


# HNLAB_MAX_FROBENIUS unset, at most its default, or no positive integer;
# never above the default, which would let the Apéry pass run in O(m)
FROBENIUS_CAPS = st.sampled_from([None, "1", "3", "50", "1000000", "0", "-7", "x"])
BAD_CAPS = ("0", "-7", "x")


@contextmanager
def frobenius_cap(cap: str | None):
    """Run the block with HNLAB_MAX_FROBENIUS set to ``cap``, or unset for None."""
    with pytest.MonkeyPatch.context() as env:
        if cap is None:
            env.delenv("HNLAB_MAX_FROBENIUS", raising=False)
        else:
            env.setenv("HNLAB_MAX_FROBENIUS", cap)
        yield


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(generator_tokens(), FROBENIUS_CAPS)
def test_analyze_generators_fuzz(capsys, tokens, cap):
    # a cap that is no positive integer is a domain error once argv parses
    parses = bool(tokens) and all(map(_is_positive_integer, tokens))
    with frobenius_cap(cap):
        code = assert_one_report_or_usage_error(capsys, ["sgp", "analyze", *tokens], parses)
    assert code == 2 or not (parses and cap in BAD_CAPS), (tokens, cap)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(generator_tokens(), st.data(), FROBENIUS_CAPS)
def test_sym_cover_generators_and_mult_fuzz(capsys, tokens, data, cap):
    # --mult is often one of the generators, so that some bases are decided
    mult = data.draw(
        st.one_of(st.sampled_from(tokens or ["3"]), st.integers(-5, 50).map(str), ODD_TOKENS)
    )
    parses = bool(tokens) and all(map(_is_positive_integer, [*tokens, mult]))
    argv = ["sgp", "sym-cover", *tokens, "--mult", mult]
    with frobenius_cap(cap):
        code = assert_one_report_or_usage_error(capsys, argv, parses)
    assert code == 2 or not (parses and cap in BAD_CAPS), (argv, cap)


# an integer token: small, zero, negative or huge
INTEGER_TOKENS = st.one_of(st.integers(-5, 50), st.sampled_from([10**30, -(10**30)])).map(str)


@st.composite
def triple_tokens(draw) -> str:
    """Three integer tokens joined by commas; one time in eight with one of
    them dropped, and three in eight with one an odd token instead."""
    entries = draw(st.lists(INTEGER_TOKENS, min_size=3, max_size=3))
    spoil = draw(st.integers(0, 7))
    if spoil < 3:
        entries[spoil] = draw(ODD_TOKENS)
    elif spoil == 3:
        entries.pop()
    return ",".join(entries)


def _is_triple(token: str) -> bool:
    parts = token.split(",")
    return len(parts) == 3 and not any(map(_not_an_integer, parts))


def assert_one_timed_report(capsys, argv: list[str], parses: bool) -> int:
    """``assert_one_report_or_usage_error``, within 10 seconds."""
    started = time.perf_counter()
    code = assert_one_report_or_usage_error(capsys, argv, parses)
    assert time.perf_counter() - started < 10.0, argv
    return code


# The fuzz tests below pass each value as --opt=value, so that a value
# starting with "-" is not read as an option.
FUZZ_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ_SETTINGS
@given(
    triple_tokens(),
    triple_tokens(),
    st.one_of(st.none(), INTEGER_TOKENS, ODD_TOKENS),
    FROBENIUS_CAPS,
)
def test_hn_build_fuzz(capsys, a, b, e, cap):
    parses = _is_triple(a) and _is_triple(b) and (e is None or not _not_an_integer(e))
    argv = ["hn", "build", f"--a={a}", f"--b={b}", *([] if e is None else [f"--e={e}"])]
    with frobenius_cap(cap):
        code = assert_one_timed_report(capsys, argv, parses)
    assert code == 2 or not (parses and cap in BAD_CAPS), (argv, cap)


@FUZZ_SETTINGS
@given(
    st.one_of(
        triple_tokens(),  # and some 3 <= m1 < m2 < m3, which reach the solver
        st.tuples(st.integers(3, 12), st.integers(13, 30), st.integers(31, 60)).map(
            lambda m: ",".join(map(str, m))
        ),
    )
)
def test_hn_solve_fuzz(capsys, m):
    assert_one_timed_report(capsys, ["hn", "solve", f"--m={m}"], _is_triple(m))


@FUZZ_SETTINGS
@given(st.sampled_from(catalogue_entries()), st.data())
def test_catalogue_check_fuzz(capsys, entry, data):
    # each value is often the catalogued one, so that some examples are re-checked
    ident = data.draw(st.one_of(st.just(entry.id), st.text(max_size=8)))
    n = data.draw(st.one_of(st.just(str(entry.n)), INTEGER_TOKENS, ODD_TOKENS))
    m = data.draw(st.one_of(st.just(",".join(map(str, entry.m))), triple_tokens()))
    argv = ["catalogue", "check", f"--id={ident}", f"--n={n}", f"--m={m}"]
    assert_one_timed_report(capsys, argv, _is_positive_integer(n) and _is_triple(m))


@FUZZ_SETTINGS
@given(st.one_of(st.integers(-1, 8).map(str), INTEGER_TOKENS, ODD_TOKENS))
def test_cases_fuzz(capsys, e):
    assert_one_timed_report(capsys, ["cases", f"--e={e}"], _is_positive_integer(e))


# The whole grammar at once, under a small cap so that every call is quick.
GRAMMAR_CAP = 60
NUMBERS = st.one_of(st.integers(1, 6), st.integers(1, 2 * GRAMMAR_CAP)).map(str)
ODD_VALUES = st.sampled_from(["0", "-1", "-7", str(10**30), "2.5", "3.0", "x", ""])


@st.composite
def grammar_argvs(draw) -> list[str]:
    """One argv of a command that reads numbers, without --format.  Each
    value is a positive integer, small or up to twice the cap, and one time
    in eight zero, negative, huge or no integer; one triple in eight is an
    entry short.  Options go as --opt=value, so that "-1" is no option."""

    def value() -> str:
        return draw(ODD_VALUES if draw(st.integers(0, 7)) == 0 else NUMBERS)

    def triple() -> str:
        return ",".join(value() for _ in range(3 if draw(st.integers(0, 7)) else 2))

    command = draw(st.sampled_from(
        ["sgp analyze", "sgp sym-cover", "delta verify", "hn build", "hn solve",
         "catalogue check", "cases"]
    ))
    argv = command.split()
    if command.startswith("sgp"):
        argv += [value() for _ in range(draw(st.integers(1, 4)))]
    if command == "sgp sym-cover":  # --mult is often a generator, so that some bases are decided
        argv.append(f"--mult={draw(st.sampled_from(argv[2:])) if draw(st.booleans()) else value()}")
    elif command == "delta verify":
        argv.append(f"--bound={value()}")
    elif command == "hn build":
        argv += [f"--a={triple()}", f"--b={triple()}", *([f"--e={value()}"] * draw(st.booleans()))]
    elif command == "hn solve":
        argv.append(f"--m={triple()}")
    elif command == "catalogue check":  # half the known ids come with their n and m
        spec = draw(st.sampled_from([*catalogue_entries(), None]))  # None: an unknown id
        argv.append(f"--id={spec.id if spec else 'nonesuch'}")
        if spec and draw(st.booleans()):
            argv += [f"--n={spec.n}", "--m=" + ",".join(map(str, spec.m))]
        else:
            argv += [f"--n={value()}", f"--m={triple()}"]
    elif command == "cases":
        argv.append(f"--e={value()}")
    return argv


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(grammar_argvs())
def test_the_argv_grammar_ends_in_one_report(capsys, argv):
    started = time.perf_counter()
    with frobenius_cap(str(GRAMMAR_CAP)):
        text_code = main(argv)
        text = capsys.readouterr().out
        code = main([*argv, "--format", "json"])
        out = capsys.readouterr().out
    assert time.perf_counter() - started < 10.0, argv
    assert code == text_code and code in (0, 1, 2), argv
    if code == 1:  # argparse refused a token: its usage goes to stderr
        assert (out, text) == ("", ""), argv
        return
    lines = text.splitlines()
    status = "ok" if code == 0 else "error"
    assert lines[0].startswith("command: ") and lines[-1] == f"status: {status}", argv
    assert [line for line in lines if line.startswith("status: ")] == lines[-1:], argv
    assert len(out.splitlines()) == 1 and out.endswith("\n"), argv
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True) + "\n", argv
    assert all(len({type(item) for item in flat}) <= 1 for flat in _flat_lists(report)), argv


# ── hn ───────────────────────────────────────────────────────────────────────


def test_hn_build_with_verdict(capsys):
    code, payload = run_json(capsys, "hn", "build", "--a", "1,1,1", "--b", "2,1,1", "--e", "1")
    assert code == 0
    r = payload["result"]
    assert r["m"] == [3, 4, 5]
    assert r["generators"][0]["text"] == "x^3 - y*z"
    assert r["value_semigroup"]["minimal_gens"] == [3, 4, 5]
    assert r["verdict"]["outcome"] == "Prime"
    assert r["verdict"]["possible_cases"] == ["(a)"]


def test_hn_build_without_verdict(capsys):
    code, payload = run_json(capsys, "hn", "build", "--a", "3,2,1", "--b", "1,1,1")
    assert code == 0
    assert payload["result"]["m"] == [4, 7, 9]
    assert payload["result"]["verdict"] is None


def test_hn_build_non_coprime(capsys):
    code, payload = run_json(capsys, "hn", "build", "--a", "1,1,1", "--b", "1,1,1")
    assert code == 0
    assert payload["result"]["coprime"] is False
    assert payload["result"]["value_semigroup"] is None


def test_hn_build_bad_e_exits_2(capsys):
    code, payload = run_json(capsys, "hn", "build", "--a", "1,1,1", "--b", "2,1,1", "--e", "5")
    assert code == 2
    assert payload["error"]["code"] == "BadMultiplicity"


def test_hn_solve(capsys):
    code, payload = run_json(capsys, "hn", "solve", "--m", "4,7,9")
    assert code == 0
    assert payload["result"]["solutions"] == [{"a": [3, 2, 1], "b": [1, 1, 1]}]

    code, payload = run_json(capsys, "hn", "solve", "--m", "3,5,8")
    assert code == 0
    assert payload["result"]["solutions"] == []


def test_hn_solve_m1_5_exits_0(capsys):
    code, payload = run_json(capsys, "hn", "solve", "--m", "5,6,7")
    assert code == 0
    assert payload["result"]["solutions"] == [{"a": [1, 1, 2], "b": [3, 1, 1]}]


def test_hn_triple_parse_failure_exits_1(capsys):
    assert main(["hn", "solve", "--m", "4,7"]) == 1
    assert_usage_error(capsys, "hn", "solve", "--m", "3,x,5")


# ── catalogue and cases ──────────────────────────────────────────────────────


def test_catalogue_check_pass(capsys):
    code, payload = run_json(capsys, "catalogue", "check", "--id", "caseb2c2", "--n", "3", "--m", "3,4,5")
    assert code == 0
    r = payload["result"]
    assert r["verdict"] is True
    assert r["predicted"] == {"label": "(c.2)", "e": 3, "components": [[1, 3]]}


def test_catalogue_check_weights_surface(capsys):
    code, payload = run_json(
        capsys, "catalogue", "check", "--id", "caseab1c1_i", "--n", "2", "--m", "3,4,5"
    )
    assert code == 0
    r = payload["result"]
    assert r["gcd_tuple"] == [6, 8, 10, 7]
    assert all(c["passed"] for c in r["weight_checks"])


def test_catalogue_check_not_in_catalogue_exits_2(capsys):
    code, payload = run_json(
        capsys, "catalogue", "check", "--id", "caseab1c1_i", "--n", "5", "--m", "3,4,5"
    )
    assert code == 2
    assert payload["error"]["code"] == "NotInCatalogue"


def test_cases_e3(capsys):
    code, payload = run_json(capsys, "cases", "--e", "3")
    assert code == 0
    cases = payload["result"]["cases"]
    assert len(cases) == 5
    assert cases[0] == {"label": "(c.1)", "components": [[3, 1]], "n_components": 1}


def test_cases_out_of_range_exits_2(capsys):
    code, payload = run_json(capsys, "cases", "--e", "9")
    assert code == 2


# ── text rendering ───────────────────────────────────────────────────────────

BIG_INTEGERS = st.one_of(st.integers(min_value=2**64), st.integers(max_value=-(2**64)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.integers(-1000, 1000), BIG_INTEGERS), max_size=30),
    st.lists(st.text(), min_size=1),
    st.lists(st.booleans(), min_size=1),
))
@example([])
@example([0])
@example([-7])
@example([2**64 + 1, -(2**70), 0])
def test_a_flat_list_renders_as_the_join(xs):
    # int lists take the one `%d` format of `_ints`; string and bool lists the join itself
    assert cli._fmt(xs) == " ".join(map(str, xs))


def _flat_lists(value):
    """Every list in a JSON document whose items are neither lists nor objects."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _flat_lists(item)
    elif isinstance(value, list):
        if any(isinstance(item, (dict, list)) for item in value):
            for item in value:
                yield from _flat_lists(item)
        else:
            yield value


def _golden_json_stdouts() -> list[str]:
    golden = Path(__file__).parent / "golden" / "cli_transcripts.json"
    entries = json.loads(golden.read_text("utf-8"))
    return [e["stdout"] for e in entries if e["argv"][-1] == "json" and e["stdout"]]


def test_every_flat_list_in_the_golden_reports_holds_one_type():
    # `_fmt` and `_json` pick their rendering by the type of a list's first item alone
    reports = [json.loads(out) for out in _golden_json_stdouts()]
    types = [
        {type(item) for item in flat}
        for report in reports
        for flat in _flat_lists([report["inputs"], report.get("result", {})])
    ]
    assert [t for t in types if len(t) > 1] == []
    assert {int, str} <= set().union(*types)


def test_every_golden_json_report_is_what_json_dumps_writes():
    outs = _golden_json_stdouts()
    assert len(outs) > 30
    for out in outs:
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", out[:80]


# One-type flat lists, as every payload holds them, and objects and lists of
# objects or lists over them: the shapes `cli._json` reads off a first item.
FLAT_LISTS = st.one_of(
    st.lists(st.one_of(st.integers(-1000, 1000), BIG_INTEGERS), max_size=20),
    st.lists(st.booleans(), max_size=5),
    st.lists(st.text(), max_size=5),
)
PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(), FLAT_LISTS),
    lambda inner: st.one_of(
        st.dictionaries(st.text(), inner, max_size=5),
        st.lists(st.dictionaries(st.text(), inner, max_size=3), max_size=3),
        st.lists(st.one_of(FLAT_LISTS, st.lists(FLAT_LISTS, max_size=3)), max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
@example({})
@example([])
@example({"b": [], "a": {}, "c": None})
@example({"gaps": [2**64 + 1, -(2**70), 0], "flagged": [[3, 4, 5], []], "ok": [True, False]})
@example({"é\u2028": ["ключ", "\x00\x1f\t\"\\", "\ud800"], "\x7f": [{"z": 1, "Z": [-1]}]})
def test_json_writes_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True)


# ── report envelope and environment cap ──────────────────────────────────────


def test_every_run_emits_exactly_one_report(capsys):
    main(["cases", "--e", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1


def test_runtime_goes_to_stderr_not_stdout(capsys):
    main(["cases", "--e", "2"])
    captured = capsys.readouterr()
    assert "runtime" not in captured.out
    assert "runtime" in captured.err


@pytest.mark.parametrize(
    "argv, expected, read",
    [
        (["sgp", "analyze", "1000", "1001", "--format", "json"], 0, 10),  # `| head -c 10`
        (["sgp", "analyze", "3", "4", "5"], 0, 0),
        (["sgp", "analyze", "4", "6", "--format", "json"], 2, 0),
    ],
)
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(argv, expected, read):
    # A reader that closes the pipe early makes the report's write fail with
    # EPIPE; closing before the process writes makes that certain.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hnlab.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(read)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == b'{"command"'[:read]
    assert proc.returncode == expected, err
    assert err.decode().splitlines()[-1].startswith("runtime: "), err
    assert b"Traceback" not in err and b"Error" not in err, err


def test_frobenius_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("HNLAB_MAX_FROBENIUS", "50")
    code, payload = run_json(capsys, "sgp", "analyze", "51", "52", "53")
    assert code == 2
    assert payload["error"]["code"] == "InvalidGenerator"

    code, payload = run_json(capsys, "sgp", "analyze", "31", "37")
    assert code == 2
    assert payload["error"]["code"] == "FrobeniusCapExceeded"

    # hn build's multipliers (about 2.7e7 here) meet the same generator cap
    monkeypatch.setenv("HNLAB_MAX_FROBENIUS", "1000000")
    code, payload = run_json(capsys, "hn", "build", "--a", "3000,3000,3001", "--b", "3000,3007,3000")
    assert code == 2
    assert payload["error"]["code"] == "InvalidGenerator"

    monkeypatch.setenv("HNLAB_MAX_FROBENIUS", "not-a-number")
    code, payload = run_json(capsys, "sgp", "analyze", "3", "4")
    assert code == 2

    monkeypatch.setenv("HNLAB_MAX_FROBENIUS", "0")
    code, payload = run_json(capsys, "sgp", "analyze", "3", "4")
    assert code == 2
    assert payload["error"]["message"] == "HNLAB_MAX_FROBENIUS must be positive, got 0"


def test_default_cap_allows_moderate_inputs(capsys):
    code, payload = run_json(capsys, "sgp", "analyze", "101", "103")
    assert code == 0
    assert payload["result"]["frobenius"] == 101 * 103 - 101 - 103


def test_mismatch_exit_code_mapping(capsys, monkeypatch):
    # Exit 3 through main: a census whose flagged set is wrong, and a
    # catalogue example whose checks fail.  Both keep the partial result.
    real_delta, real_example = cli.verify_delta, cli.verify_example
    monkeypatch.setattr(
        cli, "verify_delta", lambda bound: replace(real_delta(bound), flagged=())
    )
    monkeypatch.setattr(
        cli, "verify_example", lambda spec: replace(real_example(spec), verdict=False)
    )
    for argv, key, result_line in (
        (["delta", "verify", "--bound", "9"], "match", "match: false"),
        (["catalogue", "check", "--id", "caseb2c2", "--n", "3", "--m", "3,4,5"],
         "verdict", "verdict: false"),
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 3
        assert payload["status"] == "error"
        assert payload["error"]["code"] == "VerificationMismatch"
        assert payload["result"][key] is False

        code, out = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 3
        assert lines[-3] == "error: VerificationMismatch"
        assert lines[-2].startswith("error_message: ")
        assert lines[-1] == "status: error"
        assert lines.index(result_line) < len(lines) - 3


def test_unexpected_exception_exits_3_with_one_report(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "_cmd_sgp_analyze", boom)
    code = main(["sgp", "analyze", "3", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "schema": "v1",
        "command": "sgp analyze",
        "inputs": {"gens": [3, 4]},
        "status": "error",
        "error": {"code": "RuntimeError", "message": "handler bug"},
    }
    assert "Traceback (most recent call last)" in captured.err
    assert "RuntimeError: handler bug" in captured.err

    code, out = run(capsys, "sgp", "analyze", "3", "4")
    assert code == 3
    assert out.splitlines()[-3:] == [
        "error: RuntimeError", "error_message: handler bug", "status: error",
    ]


def test_main_reuses_the_parser(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out = run(capsys, "sgp", "analyze", "3", "4", "5")
    assert code == 0
    assert out.splitlines()[-1] == "status: ok"


def test_base_exceptions_pass_through(monkeypatch):
    class Interrupt(BaseException):
        pass

    def interrupted(args):
        raise Interrupt

    monkeypatch.setattr(cli, "_cmd_sgp_analyze", interrupted)
    with pytest.raises(Interrupt):
        main(["sgp", "analyze", "3", "4"])
