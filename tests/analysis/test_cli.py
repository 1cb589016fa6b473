"""End-to-end CLI tests: exit codes and the --json contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def test_exits_zero_on_repo():
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stderr


def test_json_output_schema():
    proc = run_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"findings", "notices"}
    assert payload["findings"] == []


def test_lint_fails_on_violating_tree(tmp_path):
    # A fake repo root with one rule violation must exit 1 and report
    # it in machine-readable form.
    bad = tmp_path / "src" / "repro" / "nn" / "layers"
    bad.mkdir(parents=True)
    (bad / "evil.py").write_text(
        "import numpy as np\n\ndef f(x, w):\n    return np.matmul(x, w)\n"
    )
    proc = run_cli("--json", "--root", str(tmp_path))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert set(finding) == {"file", "line", "rule", "message"}
    assert finding["rule"] == "backend-dispatch"
    assert finding["file"] == "src/repro/nn/layers/evil.py"
    assert finding["line"] == 4


@pytest.mark.parametrize("argv", [("lint",), ("--update-baseline",)])
def test_removed_subcommand_and_baseline_flag_are_rejected(argv):
    # One pass and no grandfathering: the old positional and the
    # baseline writer are usage errors, not silently ignored.
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
