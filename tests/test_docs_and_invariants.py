"""Documentation consistency + cross-module property tests."""

import ast
import importlib
import pathlib
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import AcceleratorConfig, AcceleratorModel, AdaGPDesign
from repro.core import HeuristicSchedule
from repro.models import CLASSIFICATION_MODELS, spec_for

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocs:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_top_level_docs_exist(self, name):
        assert (REPO / name).stat().st_size > 1000

    def test_design_md_experiment_index_points_at_real_modules(self):
        text = (REPO / "DESIGN.md").read_text()
        for module in re.findall(r"experiments\.(\w+)", text):
            assert (REPO / "src" / "repro" / "experiments" / f"{module}.py").exists(), module

    def test_design_md_bench_targets_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for bench in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (REPO / "benchmarks" / bench).exists(), bench

    def test_readme_examples_exist(self):
        text = (REPO / "README.md").read_text()
        for example in re.findall(r"examples/(\w+\.py)", text):
            assert (REPO / "examples" / example).exists(), example

    def test_every_source_module_has_a_docstring(self):
        import ast

        missing = []
        for path in (REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None and path.stat().st_size > 0:
                missing.append(str(path))
        assert missing == []


class TestCrossModuleInvariants:
    @given(
        model=st.sampled_from(CLASSIFICATION_MODELS),
        batch=st.sampled_from([1, 8, 32, 128]),
    )
    @settings(max_examples=15, deadline=None)
    def test_gp_batch_never_dearer_than_bp_batch(self, model, batch):
        """Skipping backward must help for every model at every batch."""
        accelerator = AcceleratorModel()
        spec = spec_for(model, "Cifar10")
        for design in AdaGPDesign:
            gp = accelerator.phase_gp_batch(spec, batch, design).cycles
            bp = accelerator.phase_bp_batch(spec, batch, design).cycles
            assert gp < bp

    @given(rows=st.integers(4, 32), cols=st.integers(4, 32))
    @settings(max_examples=10, deadline=None)
    def test_bigger_arrays_never_slow_the_baseline(self, rows, cols):
        spec = spec_for("VGG13", "Cifar10")
        small = AcceleratorModel(AcceleratorConfig(rows=rows, cols=cols))
        big = AcceleratorModel(AcceleratorConfig(rows=rows * 2, cols=cols * 2))
        assert (
            big.baseline_batch(spec, 8).cycles
            <= small.baseline_batch(spec, 8).cycles
        )

    @given(warmup=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_speedup_monotone_in_warmup(self, warmup):
        """More warm-up epochs can only reduce the end-to-end speedup."""
        accelerator = AcceleratorModel()
        spec = spec_for("ResNet50", "Cifar10")
        shorter = accelerator.speedup(
            spec, AdaGPDesign.MAX, HeuristicSchedule(warmup_epochs=warmup), 40, 10
        )
        longer = accelerator.speedup(
            spec, AdaGPDesign.MAX, HeuristicSchedule(warmup_epochs=warmup + 5), 40, 10
        )
        assert longer <= shorter + 1e-9

    def test_traffic_components_nonnegative_for_all_models(self):
        accelerator = AcceleratorModel()
        for name in CLASSIFICATION_MODELS:
            spec = spec_for(name, "Cifar10")
            cost = accelerator.phase_gp_batch(spec, 8, AdaGPDesign.LOW)
            assert cost.traffic.dram_read > 0
            assert cost.traffic.dram_write > 0
            assert cost.traffic.sram > 0


class TestOneBatchBody:
    """The seam every open direction lands on stays one site: who may
    install a forward hook, and who may call the predictor."""

    @staticmethod
    def _functions(path):
        """``(qualified name, node)`` of every module-level function and
        method in ``path`` (closures count towards their enclosing one)."""
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    yield f"{prefix}{child.name}", child
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, f"{prefix}{child.name}.")

        yield from walk(ast.parse(path.read_text()), "")

    def test_forward_hook_is_assigned_in_four_places(self):
        src = REPO / "src" / "repro"
        sites = set()
        for path in src.rglob("*.py"):
            for name, function in self._functions(path):
                targets = [
                    target
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in getattr(node, "targets", [getattr(node, "target", None)])
                ]
                if any(
                    isinstance(target, ast.Attribute) and target.attr == "forward_hook"
                    for target in targets
                ):
                    sites.add((path.relative_to(src).as_posix(), name))
        assert sites == {
            ("nn/module.py", "Module.__init__"),
            ("core/engine/engine.py", "TrainingEngine.clear_hooks"),
            ("core/engine/strategies.py", "PhaseStrategy.tap"),
            ("pipeline/partition.py", "probe_layer_costs"),
        }

    def test_predictor_is_called_from_at_most_three_functions(self):
        path = REPO / "src" / "repro" / "core" / "engine" / "strategies.py"
        callers = {
            name
            for name, function in self._functions(path)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "predictor"
        }
        assert callers == {
            "PhaseStrategy._train_predictor",
            "PhaseStrategy._apply_predictions",
        }


class TestOneCycleTable:
    """A layer's per-phase cycles are computed in one walk
    (``AcceleratorModel.layer_costs``); every batch, stage and run cost
    folds its rows instead of re-pricing the layers."""

    @staticmethod
    def _callers(*names):
        src = REPO / "src" / "repro"
        return {
            (path.relative_to(src).as_posix(), qualified)
            for path in src.rglob("*.py")
            for qualified, function in TestOneBatchBody._functions(path)
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        }

    def test_layer_cycles_are_priced_by_the_table_builder(self):
        # partition.probe_layer_costs prices live modules, not specs.
        assert self._callers("layer_forward_cycles", "layer_backward_cycles") == {
            ("accel/adagp.py", "AcceleratorModel.layer_costs"),
            ("pipeline/partition.py", "probe_layer_costs"),
        }

    def test_predictor_cost_is_priced_by_the_table_builder(self):
        assert self._callers("predictor_layer_cost", "predictor_load_cycles") == {
            ("accel/adagp.py", "AcceleratorModel.layer_costs"),
        }


class TestOptionsCensus:
    """An option earns its keep by being selected: every keyword
    parameter of the engine factories and the three constructors below
    is passed by name somewhere other than a test."""

    #: call name -> (file under src/repro, qualified function name)
    SURFACE = {
        "bp_engine": ("core/engine/factories.py", "bp_engine"),
        "adagp_engine": ("core/engine/factories.py", "adagp_engine"),
        "pipeline_adagp_engine": ("core/engine/factories.py", "pipeline_adagp_engine"),
        "ddp_engine": ("dist/engine.py", "ddp_engine"),
        "SearchRunner": ("tune/runner.py", "SearchRunner.__init__"),
        "DataParallelStrategy": ("dist/strategy.py", "DataParallelStrategy.__init__"),
        "PipelineExecutor": ("pipeline/executor.py", "PipelineExecutor.__init__"),
        "from_model": ("pipeline/executor.py", "PipelineExecutor.from_model"),
    }
    #: Factories whose ``**kwargs`` flow to another factory: a keyword
    #: their caller passes that is not their own selects it there.
    FORWARDS = {
        "pipeline_adagp_engine": ("adagp_engine",),
        "ddp_engine": ("adagp_engine", "bp_engine"),
    }
    #: Unselected but kept — the agenda for the next census.
    EXEMPT = {
        "adagp_engine.predictor": (
            "test seam: tests inject a seeded predictor to compare engines bitwise"
        ),
        "adagp_engine.batched_gp": (
            "only True is accepted; bench/workloads.py still passes it, through "
            "_image_engine's **adagp_kwargs, which this scan cannot follow"
        ),
        "ddp_engine.callbacks": "engine-construction plumbing every factory forwards",
        "ddp_engine.min_workers": (
            "lost-rank policy floor; only tests/dist/test_faults.py raises it"
        ),
        "from_model.accel_config": (
            "cost-model plumbing for partition_sequential; default config everywhere"
        ),
        "from_model.batch": (
            "cost-model batch for partition_sequential; both callers partition at 1"
        ),
    }

    def test_every_keyword_parameter_is_selected_outside_tests(self):
        keywords = {}
        for callee, (relative, qualified) in self.SURFACE.items():
            path = REPO / "src" / "repro" / relative
            args = dict(TestOneBatchBody._functions(path))[qualified].args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            keywords[callee] = {arg.arg for arg in defaulted + args.kwonlyargs}

        selected = {callee: set() for callee in self.SURFACE}

        def visit(node, owner):
            """Record ``name(keyword=...)`` calls; ``cls(...)`` inside a
            class body is a call of that class."""
            for child in ast.iter_child_nodes(node):
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
            if not isinstance(node, ast.Call):
                return
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            name = owner if name == "cls" else name
            if name in selected:
                passed = {keyword.arg for keyword in node.keywords if keyword.arg}
                selected[name] |= passed
                for target in self.FORWARDS.get(name, ()):
                    selected[target] |= passed - keywords[name]

        for root in ("src", "examples", "benchmarks", "bench"):
            for path in (REPO / root).rglob("*.py"):
                visit(ast.parse(path.read_text()), None)

        unselected = {
            f"{callee}.{parameter}"
            for callee in self.SURFACE
            for parameter in keywords[callee] - selected[callee]
        }
        for name, reason in sorted(self.EXEMPT.items()):
            print(f"exempt {name}: {reason}")
        assert all(reason.strip() for reason in self.EXEMPT.values())
        assert unselected == set(self.EXEMPT), (
            "selected by nothing outside tests (delete the parameter and "
            f"its code path): {sorted(unselected - set(self.EXEMPT))}; "
            f"stale exemptions: {sorted(set(self.EXEMPT) - unselected)}"
        )


class TestExportCensus:
    """A public name earns its keep by being used: every name in a
    ``repro.*`` ``__all__`` is loaded, as an identifier or an attribute,
    somewhere other than a test.  Deliberately name-based (no import
    resolution): an import line, an ``__all__`` string or the name's own
    ``def`` / ``class`` is not a load, so none of them counts as a use.
    Submodules are exempt by rule."""

    #: Unused outside tests but kept — the agenda for the next census.
    EXEMPT = {
        "mean_squared_error": (
            "reference implementation of the per-layer MSE the predictor "
            "computes in place (Fig 15)"
        ),
        "mean_absolute_percentage_error": (
            "reference implementation of the per-layer MAPE the predictor "
            "computes in place (Fig 15)"
        ),
        "reference_translation": (
            "reference implementation of the rule synthetic_translation applies"
        ),
        "Dropout": "layer for a user's own model; the zoo's minis train without it",
        "LeakyReLU": "activation for a user's own model; the zoo uses ReLU and ReLU6",
        "Choice": "search-space domain a user composes a SearchSpace from",
        "Uniform": "search-space domain a user composes a SearchSpace from",
        "SuccessiveHalving": "search strategy a user hands to SearchRunner",
        "PHASES": "the span-phase vocabulary a user filters a trace by",
        "chaos": "one-call fault-injecting transport for a user's recovery drills",
        "set_registry": "isolates one run's counters in a fresh global registry",
    }

    @staticmethod
    def _exports():
        """``{name: [module, ...]}`` over every ``repro`` module whose
        body assigns ``__all__``, read after import so a computed list
        (``repro.nn``'s) counts too; submodules are left out."""
        src = REPO / "src"
        exports = {}
        for path in sorted((src / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            if not any(
                isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                for node in tree.body
            ):
                continue
            parts = path.relative_to(src).with_suffix("").parts
            module = importlib.import_module(
                ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            )
            for name in module.__all__:
                if not isinstance(getattr(module, name), types.ModuleType):
                    exports.setdefault(name, []).append(module.__name__)
        return exports

    def test_every_public_name_is_used_outside_tests(self):
        loaded = set()
        for root in ("src", "examples", "benchmarks", "bench"):
            for path in (REPO / root).rglob("*.py"):
                if path.name.startswith("test_"):
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        loaded.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        loaded.add(node.attr)

        exports = self._exports()
        unused = set(exports) - loaded
        for name, reason in sorted(self.EXEMPT.items()):
            print(f"exempt {name}: {reason}")
        assert all(reason.strip() for reason in self.EXEMPT.values())
        assert unused == set(self.EXEMPT), (
            "used by nothing outside tests (delete it, or give it a caller): "
            f"{sorted(f'{exports[n][0]}.{n}' for n in unused - set(self.EXEMPT))}; "
            f"stale exemptions: {sorted(set(self.EXEMPT) - unused)}"
        )
