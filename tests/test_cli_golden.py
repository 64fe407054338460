"""Golden CLI transcripts: stdout and exit code, byte for byte.

``golden/cli_transcripts.json`` holds one entry per command x format x
outcome (ok, domain error, usage error): the argument list, any
environment overrides, the exit code and the exact stdout.  A change to
any transcript is a change to the report contract and is announced in
CHANGES.md together with the updated file.  Each text transcript's result
lines must flatten its JSON twin's ``result``, and README's ``$ hnlab``
examples must match the command line byte for byte.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path
from typing import Any, Iterator

import pytest

from hnlab.cli import main

_TRANSCRIPTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_transcripts.json").read_text("utf-8")
)
_README = (Path(__file__).parents[1] / "README.md").read_text("utf-8")


def _twin_key(entry: dict) -> tuple:
    return tuple(entry["argv"][:-1]), tuple(sorted(entry.get("env", {}).items()))


_JSON_TWINS = {_twin_key(e): e for e in _TRANSCRIPTS if e["argv"][-1] == "json"}
_TEXT_TRANSCRIPTS = [e for e in _TRANSCRIPTS if e["argv"][-1] == "text"]


@pytest.mark.parametrize(
    "entry", _TRANSCRIPTS, ids=[" ".join(e["argv"]) for e in _TRANSCRIPTS]
)
def test_transcript(entry, capsys, monkeypatch):
    monkeypatch.delenv("HNLAB_MAX_FROBENIUS", raising=False)
    for key, value in entry.get("env", {}).items():
        monkeypatch.setenv(key, value)
    code = main(entry["argv"])
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


def test_transcripts_cover_every_command_format_and_outcome():
    seen = {
        (" ".join(e["argv"][: 1 if e["argv"][0] == "cases" else 2]), e["argv"][-1], e["exit"])
        for e in _TRANSCRIPTS
    }
    commands = {
        "sgp analyze", "sgp sym-cover", "delta verify", "hn build", "hn solve",
        "catalogue check", "cases",
    }
    assert {(c, f, x) for c in commands for f in ("text", "json") for x in (0, 2)} <= seen


def _leaves(value: Any, path: tuple = ()) -> Iterator[tuple[tuple, Any]]:
    """(key path, value) for every value of a JSON document: objects and
    lists of objects are walked, list items indexed from 1."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        value = {i: v for i, v in enumerate(value, 1)}
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _shown(value: Any) -> str:
    """A JSON leaf as the text report writes it."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return "; ".join(",".join(str(x) for x in item) for item in value)
    if isinstance(value, list):
        return " ".join(str(x) for x in value)
    return str(value)


@pytest.mark.parametrize(
    "text", _TEXT_TRANSCRIPTS, ids=[" ".join(e["argv"]) for e in _TEXT_TRANSCRIPTS]
)
def test_text_result_lines_flatten_the_json_result(text):
    twin = _JSON_TWINS[_twin_key(text)]
    assert text["exit"] == twin["exit"]
    report = json.loads(twin["stdout"] or "{}")
    if "result" not in report:
        return
    lines = text["stdout"].splitlines()
    envelope_tail = 3 if "error" in report else 1
    shown = lines[1 + len(report["inputs"]): len(lines) - envelope_tail]
    leaves = ((".".join(map(str, path)), _shown(v)) for path, v in _leaves(report["result"]))
    expected = [f"{key}: {value}" if value else f"{key}:" for key, value in leaves]
    assert sorted(shown) == sorted(expected)


@pytest.mark.parametrize(
    "text", _TEXT_TRANSCRIPTS, ids=[" ".join(e["argv"]) for e in _TEXT_TRANSCRIPTS]
)
def test_no_text_line_ends_in_whitespace(text):
    assert [line for line in text["stdout"].splitlines() if line != line.rstrip()] == []


def test_readme_examples_match_the_cli(capsys, monkeypatch):
    monkeypatch.delenv("HNLAB_MAX_FROBENIUS", raising=False)
    examples = re.findall(r"^```\n(\$ hnlab .*?\n)```$", _README, re.M | re.S)
    assert len(examples) >= 2
    for example in examples:
        command, _, stdout = example.partition("\n")
        code = main(shlex.split(command)[2:])
        assert (code, capsys.readouterr().out) == (0, stdout), command


def _documented_payloads() -> dict[str, dict[str, str]]:
    """README's per-command ``result`` keys, each with the text of the
    parenthetical note that follows it (empty when there is none)."""
    block = _README.split("Per-command `result` payloads:")[1].split("\n\n")[1]
    payloads = {}
    for bullet in block.split("\n* "):
        command, _, body = " ".join(bullet.lstrip("* ").split()).partition(" - ")
        keys: dict[str, str] = {}
        depth, key = 0, ""
        for token in re.findall(r"`[^`]*`|\(|\)|[^`()]+", body):
            depth -= token == ")"
            if depth == 0 and re.fullmatch(r"`[a-z_]+`", token):
                key = token.strip("`")
                keys[key] = ""
            elif depth > 0:
                keys[key] += token
            depth += token == "("
        payloads[command.strip("`")] = keys
    return payloads


def _nested_keys(note: str, payloads: dict[str, dict[str, str]]) -> set[str] | None:
    """The keys a README note gives for an object or a list of objects: the
    keys of another command's payload, or the names after "with"."""
    if match := re.search(r"an `([a-z -]+)` payload", note):
        return set(payloads[match.group(1)])
    if match := re.search(r"\bwith ([^;]*)", note):
        return set(re.findall(r"`([a-z_]+)`", match.group(1)))
    return None


def test_result_keys_match_readme_schema():
    payloads = _documented_payloads()
    reports = [
        json.loads(e["stdout"]) for e in _TRANSCRIPTS if e["argv"][-1] == "json" and e["exit"] == 0
    ]
    assert {r["command"] for r in reports} == set(payloads)
    seen: dict[tuple[str, str], set[str]] = {}
    for report in reports:
        documented, result = payloads[report["command"]], report["result"]
        assert set(result) == set(documented), report["command"]
        for key, value in result.items():
            items = value if isinstance(value, list) else [value]
            objects = [item for item in items if isinstance(item, dict)]
            nested = _nested_keys(documented[key], payloads)
            assert objects == [] or nested is not None, (report["command"], key)
            for item in objects:
                seen.setdefault((report["command"], key), set()).update(item)
    for (command, key), keys in seen.items():
        assert keys == _nested_keys(payloads[command][key], payloads), (command, key)
