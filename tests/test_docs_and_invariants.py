"""Documentation consistency + cross-module property tests."""

import ast
import functools
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
            big.phase_bp_batch(spec, 8, None).cycles
            <= small.phase_bp_batch(spec, 8, None).cycles
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
    """The seams every open direction lands on stay one site each: who
    may install a forward hook, who may call the predictor, and who may
    walk a module tree."""

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
            ("nn/graph.py", "trace"),
        }

    def test_one_tree_walk(self):
        """Which modules a model has, and in what order, is decided by
        one traversal: every other walker is a view of it."""
        src = REPO / "src" / "repro"
        readers = {
            (path.relative_to(src).as_posix(), name)
            for path in src.rglob("*.py")
            for name, function in self._functions(path)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr == "_direct_children"
        }
        assert readers == {("nn/module.py", "walk")}

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
        # The predictor's shape is read off the class; nothing builds one.
        assert self._callers("PredictorHardware") == set()


#: Top-level ``repro`` subpackages; each census runs once per package so a
#: failure names it.
PACKAGES = sorted(
    path.name for path in (REPO / "src" / "repro").iterdir()
    if (path / "__init__.py").is_file()
)

#: The only reasons a census may keep a name nothing outside tests uses.
EXEMPTION_KINDS = {
    "reference": "a reference implementation a test compares against",
    "seam": "a test seam",
    "bench": "a name bench/ reaches in a way the scan cannot follow",
    "producer": "its first producer is a ROADMAP item",
}

#: Where a caller may live: everything under these roots but test files.
CALLER_ROOTS = ("src", "examples", "benchmarks", "bench")


def _caller_files():
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield root, path


def _check_exemptions(exempt):
    for name, (kind, reason) in sorted(exempt.items()):
        print(f"exempt {name} ({EXEMPTION_KINDS.get(kind, '?')}): {reason}")
        assert kind in EXEMPTION_KINDS and reason.strip(), name


class TestOptionsCensus:
    """An option earns its keep by being selected: every keyword
    parameter of the entry points below is passed, by name or by
    position, somewhere other than a test."""

    #: call name -> (file under src/repro, qualified function name)
    SURFACE = {
        "bp_engine": ("core/engine/factories.py", "bp_engine"),
        "adagp_engine": ("core/engine/factories.py", "adagp_engine"),
        "pipeline_adagp_engine": ("core/engine/factories.py", "pipeline_adagp_engine"),
        "ddp_engine": ("dist/engine.py", "ddp_engine"),
        "DataParallelStrategy": ("dist/strategy.py", "DataParallelStrategy.__init__"),
        "PipelineExecutor": ("pipeline/executor.py", "PipelineExecutor.__init__"),
        "from_model": ("pipeline/executor.py", "PipelineExecutor.from_model"),
        "SearchRunner": ("tune/runner.py", "SearchRunner.__init__"),
        "GridSearch": ("tune/search.py", "GridSearch.__init__"),
        "pareto_front": ("tune/frontier.py", "pareto_front"),
        "frontier_table": ("tune/frontier.py", "frontier_table"),
        "render_frontier": ("tune/frontier.py", "render_frontier"),
        "GradientPredictor": ("core/predictor.py", "GradientPredictor.__init__"),
        "for_model": ("core/predictor.py", "GradientPredictor.for_model"),
        "PredictorNetwork": ("core/predictor.py", "PredictorNetwork.__init__"),
        "AcceleratorModel": ("accel/adagp.py", "AcceleratorModel.__init__"),
    }
    #: Factories whose ``**kwargs`` flow to another factory: a keyword
    #: their caller passes that is not their own selects it there.
    FORWARDS = {
        "pipeline_adagp_engine": ("adagp_engine",),
        "ddp_engine": ("adagp_engine", "bp_engine"),
        "for_model": ("GradientPredictor",),
    }
    #: Unselected but kept: ``{callee.parameter: (kind, reason)}``, kind
    #: one of :data:`EXEMPTION_KINDS`.
    EXEMPT = {
        "adagp_engine.predictor": (
            "seam", "tests inject a seeded predictor to compare engines bitwise"
        ),
        "adagp_engine.batched_gp": (
            "bench",
            "only True is accepted; bench/workloads.py passes it through "
            "_image_engine's **adagp_kwargs",
        ),
        "ddp_engine.callbacks": (
            "seam", "tests attach ThroughputTimer / Checkpointing to a ddp engine"
        ),
        "ddp_engine.min_workers": (
            "seam", "tests/dist/test_faults.py raises the lost-rank floor"
        ),
    }

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _unselected(cls):
        """``{callee.parameter}`` passed by nothing outside tests."""
        keywords, positions = {}, {}
        for callee, (relative, qualified) in cls.SURFACE.items():
            path = REPO / "src" / "repro" / relative
            args = dict(TestOneBatchBody._functions(path))[qualified].args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            keywords[callee] = {arg.arg for arg in defaulted + args.kwonlyargs}
            names = [arg.arg for arg in positional]
            positions[callee] = names[1:] if names[:1] in (["self"], ["cls"]) else names

        selected = {callee: set() for callee in cls.SURFACE}

        def visit(node, owner):
            """Record ``name(...)`` calls; ``cls(...)`` inside a class
            body is a call of that class."""
            for child in ast.iter_child_nodes(node):
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
            if not isinstance(node, ast.Call):
                return
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            name = owner if name == "cls" else name
            if name in selected:
                passed = {keyword.arg for keyword in node.keywords if keyword.arg}
                if not any(isinstance(arg, ast.Starred) for arg in node.args):
                    passed |= set(positions[name][: len(node.args)])
                selected[name] |= passed
                for target in cls.FORWARDS.get(name, ()):
                    selected[target] |= passed - keywords[name]

        for _, path in _caller_files():
            visit(ast.parse(path.read_text()), None)
        return {
            f"{callee}.{parameter}"
            for callee in cls.SURFACE
            for parameter in keywords[callee] - selected[callee]
        }

    @pytest.mark.parametrize(
        "package", sorted({relative.split("/")[0] for relative, _ in SURFACE.values()})
    )
    def test_every_keyword_parameter_is_selected_outside_tests(self, package):
        callees = {
            callee for callee, (relative, _) in self.SURFACE.items()
            if relative.split("/")[0] == package
        }
        unselected = {name for name in self._unselected() if name.split(".")[0] in callees}
        exempt = {
            name: value for name, value in self.EXEMPT.items()
            if name.split(".")[0] in callees
        }
        _check_exemptions(exempt)
        assert unselected == set(exempt), (
            f"repro.{package}: selected by nothing outside tests (delete the "
            f"parameter and its code path): {sorted(unselected - set(exempt))}; "
            f"stale exemptions: {sorted(set(exempt) - unselected)}"
        )


class TestExportCensus:
    """A public definition earns its keep by being used.  Covered: every
    public module-level ``def`` / ``class`` under ``src/repro``, every
    public method of a public class, and every other name in a
    ``repro.*`` ``__all__``.  Used: loaded, as an identifier or an
    attribute, somewhere other than a test.

    Deliberately name-based (no import resolution): an import line, an
    ``__all__`` string or the name's own ``def`` is not a load.  A load
    counts only where it can run: module-level code, a file outside
    ``src/``, or the body of a definition that is itself used (a fixed
    point, so a helper only a test-only function calls is unused too).
    An identifier-shaped string constant uses a method of that name
    (``bench/instrument.py`` wraps methods by name); a method counts
    only when its class does.  An exempt definition counts as used, so
    what it calls is kept with it.  Submodules are exempt by rule."""

    #: Unused outside tests but kept: ``{repro.<module>.<qualified name>:
    #: (kind, reason)}``, kind one of :data:`EXEMPTION_KINDS`.
    EXEMPT = {
        "repro.core.metrics.mean_squared_error": (
            "reference", "the per-layer MSE the predictor computes in place (Fig 15)"
        ),
        "repro.core.metrics.mean_absolute_percentage_error": (
            "reference", "the per-layer MAPE the predictor computes in place (Fig 15)"
        ),
        "repro.core.reorganize.flatten_gradients": (
            "reference",
            "the row layout the predictor's targets take; test_predictor_dense "
            "packs predicted and true gradients through it for the Fig 15 metrics",
        ),
        "repro.core.reorganize.unflatten_gradients": (
            "reference",
            "the inverse of that layout; test_predictor_dense compares "
            "predictions with the layered network's rows unpacked through it",
        ),
        "repro.data.translation.reference_translation": (
            "reference", "the rule synthetic_translation applies"
        ),
        "repro.models.specs.ModelSpec.total_macs": (
            "reference", "test_specs compares it with the published MAC counts"
        ),
        "repro.models.specs.ModelSpec.total_weight_params": (
            "reference", "test_specs compares it with the published parameter counts"
        ),
        "repro.models.specs.ModelSpec.compute_layers": (
            "reference", "test_specs checks the zoo's layer counts and depth order"
        ),
        "repro.nn.init.reset_layer_rng": (
            "seam", "tests rebuild a model from the same layer-rng stream"
        ),
        "repro.obs.metrics.set_registry": (
            "seam", "isolates one test's counters in a fresh global registry"
        ),
        "repro.obs.metrics.Histogram.observe": (
            "producer", "ROADMAP 1(a)'s per-layer cosine histograms"
        ),
        "repro.tune.trial.TrialResult.deterministic_dict": (
            "seam", "the determinism tests compare two runs through it"
        ),
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

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _unused(cls):
        """Qualified names of the public definitions nothing reaches."""
        # key -> (name, enclosing definition or None, reported)
        definitions = {}
        loads = {None: (set(), set())}  # owner -> (names, strings)
        assigned = {}  # module-level assignment name -> defining module

        def note(node, owner):
            names, strings = loads.setdefault(owner, (set(), set()))
            for child in ast.walk(node):
                if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
                    child.ctx, ast.Load
                ):
                    names.add(getattr(child, "id", getattr(child, "attr", None)))
                elif (
                    isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and child.value.isidentifier()
                ):
                    strings.add(child.value)

        def scan(body, owner, prefix, reported, module):
            for node in body:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                target_names = [getattr(target, "id", None) for target in targets]
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and "__all__" in target_names:
                    continue
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not (node.name.startswith("__") and node.name.endswith("__")):
                    key = prefix + node.name
                    public = reported and not node.name.startswith("_")
                    definitions[key] = (node.name, owner, public)
                    if isinstance(node, ast.ClassDef):
                        for part in node.decorator_list + node.bases + node.keywords:
                            note(part, key)
                        scan(node.body, key, key + ".", public, module)
                    else:
                        note(node, key)
                    continue
                if owner is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for name in target_names:
                        assigned.setdefault(name, module)
                note(node, owner)

        for root, path in _caller_files():
            tree = ast.parse(path.read_text())
            if root != "src":
                note(tree, None)
                continue
            parts = path.relative_to(REPO / "src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            scan(tree.body, None, module + ".", True, module)

        defined = {name for name, owner, _ in definitions.values() if owner is None}
        for name, modules in cls._exports().items():
            if name not in defined:
                definitions[f"{assigned.get(name, modules[0])}.{name}"] = (name, None, True)

        names, strings = loads[None]
        used, live = set(), set()  # live: used or exempt

        def keep(key):
            live.add(key)
            names.update(loads.get(key, ((), ()))[0])
            strings.update(loads.get(key, ((), ()))[1])

        for key in cls.EXEMPT:
            keep(key)
        changed = True
        while changed:
            changed = False
            for key, (name, owner, _) in definitions.items():
                if key in used or (owner is not None and owner not in live):
                    continue
                if name in names or (owner is not None and name in strings):
                    used.add(key)
                    keep(key)
                    changed = True
        return {
            key for key, (_, owner, public) in definitions.items()
            if public and key not in used and (owner is None or owner in live)
        }

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_is_used_outside_tests(self, package):
        prefix = f"repro.{package}."
        unused = {key for key in self._unused() if key.startswith(prefix)}
        exempt = {name: value for name, value in self.EXEMPT.items() if name.startswith(prefix)}
        _check_exemptions(exempt)
        assert unused == set(exempt), (
            f"repro.{package}: used by nothing outside tests (delete it, or "
            f"give it a caller): {sorted(unused - set(exempt))}; "
            f"stale exemptions: {sorted(set(exempt) - unused)}"
        )
