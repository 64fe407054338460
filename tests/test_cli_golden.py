"""Golden CLI transcripts: stdout and exit code, byte for byte.

``golden/cli_transcripts.json`` holds one entry per command x format x
outcome (ok, domain error, usage error): the argument list, any
environment overrides, the exit code and the exact stdout.  A change to
any transcript is a change to the report contract and is announced in
CHANGES.md together with the updated file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hnlab.cli import main

_TRANSCRIPTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_transcripts.json").read_text("utf-8")
)


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
