"""The finding record the analysis CLI reports.

One schema serves the AST linter, the ruff floor and the CLI:
``(file, line, rule, message)``.  ``file`` is a repo-relative POSIX
path so findings are stable across machines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Finding:
    """One analysis finding, machine-readable."""

    file: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
