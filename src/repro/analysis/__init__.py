"""Static analysis for the repro codebase.

One pass, one CLI (``python -m repro.analysis [--json] [--root]``):
:mod:`repro.analysis.lint`, the AST invariant linter enforcing the
conventions correctness depends on (DESIGN.md §11), with ``ruff`` as
the generic floor beneath it when installed.

Model specs need no checker: :class:`~repro.models.specs.SpecBuilder`
derives every layer's input shape and raises on an inconsistent merge,
so a built spec is consistent by construction.  The sanitizer build
variant (``REPRO_NATIVE_SANITIZE=1``) lives in
:mod:`repro.nn.backend.native_build`; CI runs the native kernel
equivalence tests under ASan/UBSan.
"""

from __future__ import annotations

from .findings import Finding
from .lint import all_rules, lint_paths, lint_source

__all__ = [
    "Finding",
    "all_rules",
    "lint_paths",
    "lint_source",
]
