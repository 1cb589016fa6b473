"""Static analysis for the repro codebase.

Three passes, one CLI (``python -m repro.analysis [--json] [lint|shapes|all]``):

* :mod:`repro.analysis.lint` — AST invariant linter enforcing the
  conventions PRs 2–6 made correctness depend on.
* :mod:`repro.analysis.shapes` — static shape checker that validates
  every registered :class:`~repro.models.specs.ModelSpec` without
  running a single GEMM.
* The sanitizer build variant (``REPRO_NATIVE_SANITIZE=1``) lives in
  :mod:`repro.nn.backend.native_build`; CI runs the native kernel
  equivalence tests under ASan/UBSan.
"""

from __future__ import annotations

from .findings import Finding
from .lint import all_rules, lint_paths, lint_source, load_baseline, split_baselined

__all__ = [
    "Finding",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "split_baselined",
]
