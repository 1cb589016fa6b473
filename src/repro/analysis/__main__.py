"""CLI: ``python -m repro.analysis [--json] [lint|shapes|all]``.

Exit code 1 on any non-baselined finding, 0 otherwise — this is the
blocking CI gate.  ``--json`` emits machine-readable findings
(``file``, ``line``, ``rule``, ``message``) for editors/tooling.
``lint --update-baseline`` regenerates the committed baseline (the
shipped one is empty: fix findings, don't grandfather them).

When ``ruff`` is on PATH, ``lint``/``all`` also run it as the generic
lint floor beneath the repo-specific rules (config in ``ruff.toml``);
when it is not installed the step is skipped with a notice, never an
error — the container toolchain is not required to have it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from .findings import Finding
from .lint import lint_paths, load_baseline, split_baselined, write_baseline
from .shapes import check_all_specs


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
        description="Static analysis: invariant linter + model-spec shape checker.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="all",
        choices=("lint", "shapes", "all"),
        help="lint: AST invariants (and ruff when installed); shapes: every "
        "registered ModelSpec; all: both (default)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed lint baseline from current findings",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repo root (default: autodetected from the package location)",
    )
    args = parser.parse_args(argv)

    root = (args.root or _repo_root()).resolve()
    notices: list[str] = []
    blocking: list[Finding] = []
    grandfathered: list[Finding] = []

    if args.command in ("lint", "all"):
        findings = lint_paths(root)
        if args.update_baseline:
            path = write_baseline(findings)
            print(f"baseline updated: {path} ({len(findings)} findings)")
            return 0
        new, old = split_baselined(findings, load_baseline())
        blocking.extend(new)
        grandfathered.extend(old)
        ruff_status, ruff_findings = _run_ruff(root)
        blocking.extend(ruff_findings)
        if ruff_status == "skipped":
            notices.append("ruff not installed; generic lint floor skipped")

    if args.command in ("shapes", "all"):
        blocking.extend(check_all_specs())

    if args.as_json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in blocking],
                    "grandfathered": len(grandfathered),
                    "notices": notices,
                },
                indent=2,
            )
        )
    else:
        for finding in blocking:
            print(finding.render())
        for notice in notices:
            print(f"note: {notice}", file=sys.stderr)
        summary = f"{len(blocking)} finding(s)"
        if grandfathered:
            summary += f", {len(grandfathered)} grandfathered"
        print(("FAIL: " if blocking else "OK: ") + summary, file=sys.stderr)

    return 1 if blocking else 0


if __name__ == "__main__":
    raise SystemExit(main())
