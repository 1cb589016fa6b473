"""AST-based invariant linter: rule framework, suppressions, baseline.

The repo's correctness conventions (backend dispatch, the saved slot,
version bumps, rng discipline, no-grad purity — see DESIGN.md) are
cheap to follow and expensive to violate, because nothing at runtime
checks them: a direct ``np.matmul`` silently ignores the active
backend, forward state kept outside ``_saved`` silently pins memory.
This package turns each convention into a :class:`Rule` that inspects
the AST and emits :class:`~repro.analysis.findings.Finding` records.

Mechanics:

* **Rules** implement ``visit(tree, ctx) -> [Finding]`` and declare a
  path ``scope`` (repo-relative prefixes) they apply to.  Every rule
  scoped ``("src/",)`` — cache-naming, version-bump, rng-discipline,
  no-grad-purity — covers the whole ``src/repro`` tree, so subsystems
  added later (``repro.tune``, ``repro.dist``) are linted by
  construction, with no per-package opt-in; backend-dispatch pins
  explicit hot-path prefixes, and epoch-order also reads
  ``examples/`` and ``benchmarks/``.
* **Suppression**: append ``# repro: noqa[rule-name]`` (or a bare
  ``# repro: noqa``) to a flagged line; a standalone
  ``# repro: noqa-file[rule-name]`` line suppresses the rule for the
  whole file.  Suppressions are for *justified* exceptions — add a
  reason next to them.
* **Baseline**: a committed JSON file of grandfathered findings
  (matched on file+rule+message, not line, so they survive unrelated
  edits).  ``python -m repro.analysis lint --update-baseline``
  regenerates it.  The shipped baseline is empty: fix findings, don't
  grandfather them.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..findings import Finding

__all__ = [
    "Rule",
    "FileContext",
    "all_rules",
    "register_rule",
    "lint_source",
    "lint_paths",
    "iter_source_files",
    "load_baseline",
    "write_baseline",
    "split_baselined",
    "DEFAULT_BASELINE",
]

#: The committed baseline of grandfathered findings.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?(?:\[(?P<rules>[^\]]+)\])?"
)


class FileContext:
    """Per-file state a rule visits against: path, source, suppressions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        # line -> set of suppressed rule names ("*" = all rules).
        self._line_suppressions: dict[int, set[str]] = {}
        self._file_suppressions: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            names = match.group("rules")
            rules = (
                {name.strip() for name in names.split(",") if name.strip()}
                if names
                else {"*"}
            )
            if match.group("file"):
                self._file_suppressions |= rules
            else:
                self._line_suppressions.setdefault(lineno, set()).update(rules)

    def suppressed(self, rule: str, line: int) -> bool:
        if self._file_suppressions & {"*", rule}:
            return True
        at_line = self._line_suppressions.get(line, set())
        return bool(at_line & {"*", rule})

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            file=self.path,
            line=getattr(node, "lineno", 1),
            rule=rule.name,
            message=message,
        )


class Rule:
    """One enforced invariant.

    Subclasses set ``name``/``description``/``scope`` and implement
    :meth:`visit`.  ``scope`` lists repo-relative POSIX path prefixes
    the rule applies to (a file matches when its path starts with any
    prefix); an empty scope means every linted file.
    """

    name: str = ""
    description: str = ""
    scope: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.scope:
            return True
        return any(path.startswith(prefix) for prefix in self.scope)

    def visit(self, tree: ast.AST, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


_RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the default rule set (last registration wins)."""
    if not rule.name:
        raise ValueError(f"rule {type(rule).__name__} has no name")
    _RULES[rule.name] = rule
    return rule


def all_rules() -> list[Rule]:
    """The registered rules, importing the built-ins on first use."""
    from . import rules  # noqa: F401  (registration side effect)

    return [_RULES[name] for name in sorted(_RULES)]


def _select(rules: Optional[Sequence[str]]) -> list[Rule]:
    available = {rule.name: rule for rule in all_rules()}
    if rules is None:
        return list(available.values())
    unknown = sorted(set(rules) - set(available))
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; available: {sorted(available)}"
        )
    return [available[name] for name in rules]


def lint_source(
    source: str, path: str, rules: Optional[Sequence[str]] = None
) -> list[Finding]:
    """Lint one source string as if it lived at repo-relative ``path``.

    Suppression comments and rule scopes apply exactly as they do for
    on-disk files, which is what the fixture tests rely on.
    """
    ctx = FileContext(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                file=path,
                line=exc.lineno or 1,
                rule="syntax-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in _select(rules):
        if not rule.applies_to(path):
            continue
        for finding in rule.visit(tree, ctx):
            if not ctx.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def iter_source_files(root: Path) -> Iterable[Path]:
    """The enforcement surface: ``root/src``, plus ``examples/`` and
    ``benchmarks/`` for rules whose ``scope`` lists them (never ``bench/``)."""
    src = root / "src"
    bases = [src, root / "examples", root / "benchmarks"] if src.is_dir() else [root]
    for base in bases:
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def lint_paths(
    root: Path,
    paths: Optional[Iterable[Path]] = None,
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint files (default: everything under ``root/src``)."""
    root = Path(root).resolve()
    findings: list[Finding] = []
    for path in paths if paths is not None else iter_source_files(root):
        path = Path(path).resolve()
        rel = path.relative_to(root).as_posix()
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), rel, rules)
        )
    return findings


# ----------------------------------------------------------------------
# Baseline.
# ----------------------------------------------------------------------
def load_baseline(path: Optional[Path] = None) -> set[tuple[str, str, str]]:
    """Baseline keys from ``path`` (missing file = empty baseline)."""
    path = Path(path) if path is not None else DEFAULT_BASELINE
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        (entry["file"], entry["rule"], entry["message"])
        for entry in data.get("findings", [])
    }


def write_baseline(findings: Sequence[Finding], path: Optional[Path] = None) -> Path:
    """Persist ``findings`` as the new baseline (sorted, line-free)."""
    path = Path(path) if path is not None else DEFAULT_BASELINE
    entries = sorted(
        {
            (f.file, f.rule, f.message)
            for f in findings
        }
    )
    payload = {
        "comment": "Grandfathered lint findings; matched on file+rule+message.",
        "findings": [
            {"file": file, "rule": rule, "message": message}
            for file, rule, message in entries
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def split_baselined(
    findings: Sequence[Finding], baseline: set[tuple[str, str, str]]
) -> tuple[list[Finding], list[Finding]]:
    """Partition findings into (new, grandfathered)."""
    new: list[Finding] = []
    old: list[Finding] = []
    for finding in findings:
        (old if finding.baseline_key() in baseline else new).append(finding)
    return new, old
