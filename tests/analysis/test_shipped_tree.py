"""The contract the CI gate relies on: the shipped tree lints clean,
every suppression carries a reason, and an injected violation fails."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths
from repro.analysis.cli import main as lint_main

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def shipped_report():
    assert (SRC / "repro").is_dir(), "test must run from the repo checkout"
    return lint_paths([SRC])


def test_shipped_tree_is_clean(shipped_report):
    assert shipped_report.ok, "\n".join(
        f.location() + ": " + f.rule + " " + f.message
        for f in shipped_report.active
    )
    assert shipped_report.files_scanned > 50


def test_every_suppression_carries_a_reason(shipped_report):
    for f in shipped_report.suppressed:
        assert f.suppression_reason.strip(), f.location()


def test_cli_exits_zero_on_shipped_tree(capsys):
    assert lint_main([str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_json_output_is_machine_readable(capsys):
    assert lint_main([str(SRC), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["active"] == 0


def test_injected_violation_fails(tmp_path, capsys):
    # Mirror the package layout so path-scoped rules engage: the file
    # must sit under a `repro/core/` directory.
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    bad = core / "injected.py"
    bad.write_text(
        "import numpy as np\n\nrng = np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_injected_violation_with_reasonless_allow_still_fails(tmp_path, capsys):
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "injected.py").write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: allow[DET001]\n",
        encoding="utf-8",
    )
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "SUP001" in out


def test_list_rules_names_the_whole_pack(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "BKD001", "SRV001", "SRV002", "REG001", "CFG001"):
        assert rule_id in out
