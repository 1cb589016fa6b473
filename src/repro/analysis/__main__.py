"""CLI: ``python -m repro.analysis [--json] [--root ROOT]``.

Exit code 1 on any finding, 0 otherwise — this is the blocking CI gate.
``--json`` emits machine-readable findings (``file``, ``line``,
``rule``, ``message``) for editors/tooling.

When ``ruff`` is on PATH it also runs as the generic lint floor beneath
the repo-specific rules (config in ``ruff.toml``); when it is not
installed the step is skipped with a notice, never an error — the
toolchain is not required to have it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from .findings import Finding
from .lint import lint_paths


def _repo_root() -> Path:
    # src/repro/analysis/__main__.py -> repo root three levels up from src.
    return Path(__file__).resolve().parents[3]


def _run_ruff(root: Path) -> tuple[str, list[Finding]]:
    """(status, findings) from ruff; status in ok/failed/skipped."""
    ruff = shutil.which("ruff")
    if ruff is None:
        return "skipped", []
    proc = subprocess.run(
        [ruff, "check", "--output-format", "json", "src", "tests"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return "ok", []
    findings = []
    try:
        entries = json.loads(proc.stdout or "[]")
    except json.JSONDecodeError:
        entries = []
    for entry in entries:
        try:
            rel = Path(entry["filename"]).resolve().relative_to(root).as_posix()
        except ValueError:
            rel = entry.get("filename", "?")
        findings.append(
            Finding(
                file=rel,
                line=int(entry.get("location", {}).get("row", 1)),
                rule=f"ruff:{entry.get('code') or 'error'}",
                message=entry.get("message", "ruff finding"),
            )
        )
    if not findings:
        # ruff failed without parseable findings (bad config, crash).
        findings.append(
            Finding(
                file="ruff.toml",
                line=1,
                rule="ruff:error",
                message=(proc.stderr or proc.stdout or "ruff failed").strip(),
            )
        )
    return "failed", findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis: the invariant linter (and ruff when installed).",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root (default: autodetected from the package location)",
    )
    args = parser.parse_args(argv)

    root = (args.root or _repo_root()).resolve()
    findings = lint_paths(root)
    ruff_status, ruff_findings = _run_ruff(root)
    findings += ruff_findings
    notices = (
        ["ruff not installed; generic lint floor skipped"] if ruff_status == "skipped" else []
    )

    if args.as_json:
        print(
            json.dumps(
                {"findings": [f.to_dict() for f in findings], "notices": notices},
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        for notice in notices:
            print(f"note: {notice}", file=sys.stderr)
        summary = f"{len(findings)} finding(s)"
        print(("FAIL: " if findings else "OK: ") + summary, file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
