"""Fixture tests for the invariant linter: each rule must flag its
known-bad snippet and stay quiet on the known-good one, and the
suppression + baseline machinery must round-trip."""

import json

import pytest

from repro.analysis.lint import (
    all_rules,
    iter_source_files,
    lint_paths,
    lint_source,
    load_baseline,
    split_baselined,
    write_baseline,
)

LAYER_PATH = "src/repro/nn/layers/custom.py"


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# backend-dispatch
# ----------------------------------------------------------------------
BAD_DISPATCH = """
import numpy as np

def forward(x, w):
    a = np.matmul(x, w)
    b = np.einsum("ij,jk->ik", x, w)
    c = x @ w
    a @= w
    d = np.tensordot(x, w, axes=1)
    return a + b + c + d
"""

GOOD_DISPATCH = """
from repro.nn.backend import current_backend

def forward(x, w):
    return current_backend().matmul(x, w)
"""


class TestBackendDispatch:
    def test_flags_direct_contractions(self):
        findings = lint_source(BAD_DISPATCH, LAYER_PATH, rules=["backend-dispatch"])
        assert len(findings) == 5
        assert rules_of(findings) == {"backend-dispatch"}

    def test_predictor_is_in_scope(self):
        # Its GEMMs must stay visible to ProfilingBackend's op view.
        findings = lint_source(
            BAD_DISPATCH, "src/repro/core/predictor.py", rules=["backend-dispatch"]
        )
        assert len(findings) == 5

    def test_quiet_on_dispatched_code(self):
        assert not lint_source(GOOD_DISPATCH, LAYER_PATH, rules=["backend-dispatch"])

    def test_out_of_scope_file_is_ignored(self):
        assert not lint_source(
            BAD_DISPATCH, "src/repro/accel/cost.py", rules=["backend-dispatch"]
        )

    def test_backends_themselves_are_exempt(self):
        # The dispatch targets legitimately call numpy directly.
        assert not lint_source(
            BAD_DISPATCH, "src/repro/nn/backend/fused.py", rules=["backend-dispatch"]
        )


# ----------------------------------------------------------------------
# cache-naming
# ----------------------------------------------------------------------
BAD_CACHE = """
class Layer:
    def forward(self, x):
        self.saved = x
        return x

    def backward(self, grad):
        return grad * self.saved
"""

GOOD_CACHE = """
class Layer:
    def forward(self, x):
        self._saved = (x, x > 0)
        return x

    def backward(self, grad):
        x, mask = self._saved
        return grad * x * mask
"""

SECOND_SLOT = """
class Layer:
    def forward(self, x):
        self._saved = x
        self._mask = x > 0
        return x

    def backward(self, grad):
        return grad * self._saved * self._mask
"""

ATTEND_CACHE = """
class Attention:
    def attend(self, q, k, v):
        self.scores = q
        return q

    def backward_attend(self, grad):
        return grad * self.scores
"""


class TestCacheNaming:
    def test_flags_unprefixed_forward_cache(self):
        findings = lint_source(BAD_CACHE, LAYER_PATH, rules=["cache-naming"])
        assert len(findings) == 1
        assert "saved" in findings[0].message

    def test_quiet_on_prefixed_and_declared(self):
        assert not lint_source(GOOD_CACHE, LAYER_PATH, rules=["cache-naming"])

    def test_flags_a_second_cache_attribute_next_to_the_slot(self):
        findings = lint_source(SECOND_SLOT, LAYER_PATH, rules=["cache-naming"])
        assert len(findings) == 1
        assert "_mask" in findings[0].message

    def test_attend_counts_as_forward(self):
        findings = lint_source(ATTEND_CACHE, LAYER_PATH, rules=["cache-naming"])
        assert len(findings) == 1
        assert "scores" in findings[0].message


# ----------------------------------------------------------------------
# version-bump
# ----------------------------------------------------------------------
BAD_BUMP = """
def step(param, update):
    param.data -= update
"""

GOOD_BUMP = """
def step(param, update):
    param.data -= update
    param.bump_version()
"""

MIXED_BUMP = """
def step(a, b, update):
    a.data -= update
    b.data -= update
    a.bump_version()
"""


class TestVersionBump:
    def test_flags_unbumped_mutation(self):
        findings = lint_source(BAD_BUMP, "src/repro/nn/optim/x.py", rules=["version-bump"])
        assert len(findings) == 1
        assert "bump_version" in findings[0].message

    def test_quiet_when_bumped(self):
        assert not lint_source(
            GOOD_BUMP, "src/repro/nn/optim/x.py", rules=["version-bump"]
        )

    def test_bump_must_match_object(self):
        findings = lint_source(
            MIXED_BUMP, "src/repro/nn/optim/x.py", rules=["version-bump"]
        )
        assert len(findings) == 1
        assert "b.data" in findings[0].message

    def test_init_constructors_are_exempt(self):
        source = """
class Parameter:
    def __init__(self, data):
        self.data = data
"""
        assert not lint_source(source, "src/repro/nn/x.py", rules=["version-bump"])


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------
BAD_RNG = """
import numpy as np

def init(shape):
    return np.random.randn(*shape)
"""

GOOD_RNG = """
import numpy as np

def init(shape, rng):
    seq = np.random.SeedSequence(0)
    gen = np.random.default_rng(seq)
    return gen.standard_normal(shape)
"""


class TestRngDiscipline:
    def test_flags_global_rng_draw(self):
        findings = lint_source(BAD_RNG, "src/repro/data/x.py", rules=["rng-discipline"])
        assert len(findings) == 1
        assert "np.random.randn" in findings[0].message

    def test_quiet_on_seedsequence_generators(self):
        assert not lint_source(GOOD_RNG, "src/repro/data/x.py", rules=["rng-discipline"])

    def test_flags_disallowed_import(self):
        source = "from numpy.random import randn\n"
        findings = lint_source(source, "src/repro/data/x.py", rules=["rng-discipline"])
        assert len(findings) == 1


# ----------------------------------------------------------------------
# no-grad-purity
# ----------------------------------------------------------------------
BAD_PURITY = """
def run(model, x, no_grad):
    with no_grad():
        model._saved = x
    return x
"""

GOOD_PURITY = """
NO_GRAD = object()

def run(model, x, no_grad):
    with no_grad():
        model._saved = NO_GRAD
        model.count = 1
    return x
"""


class TestNoGradPurity:
    def test_flags_cache_write_under_no_grad(self):
        findings = lint_source(BAD_PURITY, LAYER_PATH, rules=["no-grad-purity"])
        assert len(findings) == 1
        assert "_saved" in findings[0].message

    def test_sentinel_assignment_is_allowed(self):
        assert not lint_source(GOOD_PURITY, LAYER_PATH, rules=["no-grad-purity"])


# ----------------------------------------------------------------------
# obs-discipline (PR 10)
# ----------------------------------------------------------------------
ENGINE_PATH = "src/repro/core/engine/x.py"

BAD_PRINT = """
def train_batch(self, inputs):
    print("loss", 1.0)
    return inputs
"""

BAD_TIMING = """
import time
def train_batch(self, inputs):
    start = time.perf_counter()
    out = inputs
    self.seconds += time.perf_counter() - start
    return out
"""

GOOD_OBS = """
from repro.obs.trace import tracer
def train_batch(self, inputs):
    with tracer().span("engine.batch", phase="bp"):
        return inputs
"""


class TestObsDiscipline:
    def test_flags_bare_print_in_hot_subsystem(self):
        findings = lint_source(BAD_PRINT, ENGINE_PATH, rules=["obs-discipline"])
        assert len(findings) == 1
        assert "print()" in findings[0].message

    def test_flags_adhoc_perf_counter(self):
        findings = lint_source(BAD_TIMING, ENGINE_PATH, rules=["obs-discipline"])
        assert len(findings) == 2
        assert all("perf_counter" in f.message for f in findings)

    def test_obs_routed_instrumentation_is_clean(self):
        assert not lint_source(GOOD_OBS, ENGINE_PATH, rules=["obs-discipline"])

    def test_out_of_scope_modules_unaffected(self):
        # experiments/, tune/, benchmarks aren't hot subsystems: a CLI
        # print there is fine.
        assert not lint_source(
            BAD_PRINT, "src/repro/experiments/x.py", rules=["obs-discipline"]
        )

    def test_tracer_clock_is_inline_exempt(self):
        # The tracer's own default clock is the one justified raw-clock
        # site — the inline noqa idiom from src/repro/obs/trace.py.
        source = (
            "import time\n"
            "def make_clock():\n"
            "    return time.perf_counter  # repro: noqa[obs-discipline]\n"
            "def tick():\n"
            "    return time.perf_counter()  # repro: noqa[obs-discipline]\n"
        )
        assert not lint_source(
            source, "src/repro/obs/trace.py", rules=["obs-discipline"]
        )

    def test_grandfathered_sites_stay_baselined(self):
        # The rule has no exceptions outside obs/trace.py (the tracer IS
        # the clock): the executor and the throughput timer read
        # tracer().clock and native_build's CLI writes to an explicit
        # stream, so the shipped baseline grandfathers nothing.
        from repro.analysis.lint import DEFAULT_BASELINE, load_baseline

        baseline = load_baseline(DEFAULT_BASELINE)
        files = {entry[0] for entry in baseline if entry[1] == "obs-discipline"}
        assert files == set()

    def test_recovery_layer_is_in_scope(self):
        findings = lint_source(
            BAD_TIMING, "src/repro/dist/reliable.py", rules=["obs-discipline"]
        )
        assert {f.rule for f in findings} == {"obs-discipline"}


# ----------------------------------------------------------------------
# epoch-order
# ----------------------------------------------------------------------
FROZEN_RNG_CLOSURE = """
import numpy as np

def run(engine, split, seed):
    return engine.fit(
        lambda: split.train.batches(32, rng=np.random.default_rng(seed + 2)),
        lambda: split.val.batches(64, shuffle=False),
        epochs=3,
    )
"""

FROZEN_SEED_HELPER = """
def _batches(dataset, batch_size, seed):
    yield from dataset.batches(batch_size, shuffle=True, seed=seed)
"""

GOOD_EPOCHS = """
import numpy as np

def run(engine, split, seed):
    return engine.fit(
        split.train.epochs(32, seed + 2), split.val.epochs(64), epochs=3
    )

def one_pass(dataset, rng):
    return dataset.batches(8, rng=rng)
"""


class TestEpochOrder:
    TREES = ("src/repro/experiments/x.py", "examples/x.py", "benchmarks/bench_x.py")

    @pytest.mark.parametrize("path", TREES)
    def test_flags_the_frozen_closure(self, path):
        findings = lint_source(FROZEN_RNG_CLOSURE, path, rules=["epoch-order"])
        assert [f.line for f in findings] == [6]
        assert "same permutation every epoch" in findings[0].message
        assert ".epochs(batch_size, seed)" in findings[0].message

    def test_flags_a_seed_signature_wherever_it_hides(self):
        findings = lint_source(
            FROZEN_SEED_HELPER, "src/repro/experiments/x.py", rules=["epoch-order"]
        )
        assert len(findings) == 1 and ".batches(seed=...)" in findings[0].message

    @pytest.mark.parametrize("path", TREES)
    def test_quiet_on_epochs_and_on_a_caller_owned_rng(self, path):
        assert not lint_source(GOOD_EPOCHS, path, rules=["epoch-order"])

    @pytest.mark.parametrize("path", ["bench/workloads.py", "tests/core/test_x.py"])
    def test_frozen_bench_and_tests_are_out_of_scope(self, path):
        assert not lint_source(FROZEN_RNG_CLOSURE, path, rules=["epoch-order"])

    @pytest.mark.parametrize("tree", ["src/repro", "examples", "benchmarks"])
    def test_cli_fails_when_the_closure_comes_back(self, tree, tmp_path, capsys):
        """``python -m repro.analysis`` reads all three trees."""
        from repro.analysis.__main__ import main

        for name in ("src/repro", "examples", "benchmarks"):
            (tmp_path / name).mkdir(parents=True)
            (tmp_path / name / "ok.py").write_text(GOOD_EPOCHS)
        assert main(["--root", str(tmp_path), "lint"]) == 0
        (tmp_path / tree / "old.py").write_text(FROZEN_RNG_CLOSURE)
        assert main(["--root", str(tmp_path), "lint"]) == 1
        assert f"{tree}/old.py:6: [epoch-order]" in capsys.readouterr().out


# ----------------------------------------------------------------------
# framework: suppression, baseline, scope, registry
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_six_rules_registered(self):
        names = {rule.name for rule in all_rules()}
        assert names >= {
            "backend-dispatch",
            "cache-naming",
            "version-bump",
            "rng-discipline",
            "no-grad-purity",
            "obs-discipline",
            "epoch-order",
        }

    def test_line_suppression(self):
        source = (
            "import numpy as np\n"
            "def f(x, w):\n"
            "    return np.matmul(x, w)  # repro: noqa[backend-dispatch]\n"
        )
        assert not lint_source(source, LAYER_PATH, rules=["backend-dispatch"])

    def test_file_suppression(self):
        source = "# repro: noqa-file[backend-dispatch]\n" + BAD_DISPATCH
        assert not lint_source(source, LAYER_PATH, rules=["backend-dispatch"])

    def test_bare_noqa_suppresses_all_rules(self):
        source = (
            "import numpy as np\n"
            "def f(x, w):\n"
            "    return np.matmul(x, w)  # repro: noqa\n"
        )
        assert not lint_source(source, LAYER_PATH)

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_source("x = 1\n", LAYER_PATH, rules=["no-such-rule"])

    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def f(:\n", LAYER_PATH)
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_baseline_round_trip(self, tmp_path):
        findings = lint_source(BAD_BUMP, "src/repro/nn/optim/x.py", rules=["version-bump"])
        assert findings
        path = write_baseline(findings, tmp_path / "baseline.json")
        baseline = load_baseline(path)
        new, old = split_baselined(findings, baseline)
        assert not new and old == findings
        # Baseline entries are line-free so they survive unrelated edits.
        data = json.loads(path.read_text())
        assert all("line" not in entry for entry in data["findings"])

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_scope_covers_fault_tolerance_modules(self):
        """The recovery layer (chaos injector, transport, strategy) sits
        inside the linter's enforcement surface — fault-handling code is
        exactly where rng/backend discipline slips would hide."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).resolve().parents[2]
        files = {p.relative_to(root).as_posix() for p in iter_source_files(root)}
        assert "src/repro/dist/faults.py" in files
        assert "src/repro/dist/transport.py" in files
        assert "src/repro/dist/strategy.py" in files

    def test_repo_is_clean(self):
        """The enforced contract: src/ has no non-baselined findings."""
        import repro

        root = __import__("pathlib").Path(repro.__file__).resolve().parents[2]
        findings = lint_paths(root)
        new, _ = split_baselined(findings, load_baseline())
        assert not new, "\n".join(f.render() for f in new)
