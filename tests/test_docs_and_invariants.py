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


def _caller_sources():
    """``(root, path relative to the repo, text)`` of every caller file."""
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield root, path.relative_to(REPO).as_posix(), path.read_text()


def _module(relative):
    """``src/repro/nn/init.py`` -> ``repro.nn.init``; ``bench/run.py`` ->
    ``bench.run``."""
    parts = pathlib.PurePosixPath(relative).with_suffix("").parts
    parts = parts[1:] if parts[0] == "src" else parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _check_exemptions(exempt):
    for name, (kind, reason) in sorted(exempt.items()):
        print(f"exempt {name} ({EXEMPTION_KINDS.get(kind, '?')}): {reason}")
        assert kind in EXEMPTION_KINDS and reason.strip(), name


def _signature(arguments, skip_first):
    """``(positional names, defaulted names, all names)``; ``skip_first``
    drops ``self`` / ``cls``."""
    positional = [arg.arg for arg in arguments.posonlyargs + arguments.args]
    defaulted = positional[len(positional) - len(arguments.defaults):] + [
        arg.arg
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    names = set(positional) | {arg.arg for arg in arguments.kwonlyargs}
    return positional[int(skip_first):], set(defaulted), names


def _dataclass_signature(node):
    """The constructor ``@dataclass`` generates for ``node``, or None."""
    if not any("dataclass" in ast.unparse(item) for item in node.decorator_list):
        return None
    fields = [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
        and "init=False" not in ast.unparse(item.value or ast.Constant(None))
    ]
    defaulted = {
        item.target.id for item in node.body
        if isinstance(item, ast.AnnAssign) and item.value is not None
    }
    return fields, defaulted & set(fields), set(fields)


def _unselected_options(sources, surface):
    """``{definition.parameter}`` for each defaulted parameter of a
    surface that no call passes, by name or by position.

    Definitions are keyed ``<module>.<qualified name>``, a constructor
    (``__init__`` or a dataclass's fields) under its class's key;
    ``surface(key)`` picks the reported ones among the public functions,
    the public methods and the constructors of the public classes of
    ``src`` and of the private classes they inherit from.  Calls are
    matched by name: a function or method by its own, a constructor by
    its class's, a classmethod's ``cls`` and ``super().__init__`` inside
    it, and any subclass that does not define ``__init__``.

    Inside ``src`` an argument that is the enclosing function's own
    defaulted parameter (``super().__init__(lr, weight_decay)``) passes
    on only if that parameter is selected, and a ``**kwargs`` handed on
    whole carries the keywords its function was given and does not name.
    Outside ``src`` every argument counts: what a benchmark or an
    example passes is selected."""
    definitions = {}  # key -> (call name, signature, in src, owner class key, public)
    classes = {}  # class name -> [(key, base names, defines a constructor, public)]
    calls = []  # (call name, [(position, condition)], [(keyword, condition)])
    forwards = []  # (function key, call name its **kwargs go to)

    def condition(value, scope):
        """``(key, parameter)`` when ``value`` is an enclosing function's
        own defaulted parameter in ``src``; None when it is a value."""
        for key, arguments in reversed(scope if isinstance(value, ast.Name) else ()):
            if value.id in _signature(arguments, False)[2]:
                _, signature, tracked, _, _ = definitions.get(key, (0, ((), ()), 0, 0, 0))
                return (key, value.id) if tracked and value.id in signature[1] else None
        return None

    def visit(tree, cls, scope):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, skip = node.func, 0
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "cls" and scope and scope[-1][1].args[:1]:
                # A classmethod's ``cls``, not a parameter that holds a class.
                name = cls if scope[-1][1].args[0].arg == "cls" else None
            elif name == "__init__" and isinstance(func, ast.Attribute):
                if getattr(getattr(func.value, "func", None), "id", None) == "super":
                    name = ("super", cls)
                else:
                    name, skip = getattr(func.value, "id", None), 1
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.append((
                name,
                [] if starred else [
                    (index, condition(arg, scope))
                    for index, arg in enumerate(node.args[skip:])
                ],
                [(kw.arg, condition(kw.value, scope)) for kw in node.keywords if kw.arg],
            ))
            if scope and scope[-1][1].kwarg and any(
                kw.arg is None and getattr(kw.value, "id", None) == scope[-1][1].kwarg.arg
                for kw in node.keywords
            ):
                forwards.append((scope[-1][0], name))

    def walk(body, prefix, cls, owner, public, scope, tracked):
        for node in body:
            if isinstance(node, ast.ClassDef):
                key = prefix + node.name
                signature = _dataclass_signature(node)
                init = any(
                    isinstance(item, ast.FunctionDef) and item.name == "__init__"
                    for item in node.body
                )
                bases = [getattr(base, "id", getattr(base, "attr", None)) for base in node.bases]
                exposed = tracked and public and not node.name.startswith("_")
                classes.setdefault(node.name, []).append(
                    (key, bases, init or signature is not None, exposed)
                )
                if signature is not None and not init:
                    definitions[key] = (node.name, signature, tracked, key, True)
                for part in node.decorator_list + node.bases:
                    visit(part, cls, scope)
                walk(node.body, key + ".", node.name, key, public, scope, tracked)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = [ast.unparse(item) for item in node.decorator_list]
                constructor = owner is not None and node.name == "__init__"
                key = owner if constructor else prefix + node.name
                bound = owner is not None and "staticmethod" not in decorators
                if "property" not in decorators and (constructor or node.name[:2] != "__"):
                    definitions[key] = (
                        cls if constructor else node.name,
                        _signature(node.args, bound),
                        tracked,
                        owner,
                        public and (constructor or not node.name.startswith("_")),
                    )
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
                for part in node.decorator_list + defaults:
                    visit(part, cls, scope)
                walk(node.body, key + ".", cls, None, False, scope + [(key, node.args)], tracked)
            else:
                visit(node, cls, scope)

    for root, relative, text in sources:
        module = _module(relative)
        walk(ast.parse(text).body, module + ".", None, None, True, [], root == "src")

    by_name = {}
    for key, (name, *_) in definitions.items():
        by_name.setdefault(name, []).append(key)

    def constructors(name, seen=()):
        """Keys of the constructors a call of class ``name`` runs."""
        found = []
        for key, bases, defines, _ in classes.get(name, ()):
            if defines:
                found.append(key)
            else:
                for base in set(bases) - set(seen):
                    found += constructors(base, seen + (name,))
        return found

    def callees(name):
        if isinstance(name, tuple):
            return [
                key for _, bases, _, _ in classes.get(name[1], ())
                for base in bases for key in constructors(base)
            ]
        return list(dict.fromkeys(constructors(name) + by_name.get(name, [])))

    exposed = set()

    def expose(name):
        for key, bases, _, _ in classes.get(name, ()):
            if key not in exposed:
                exposed.add(key)
                for base in bases:
                    expose(base)

    for name, entries in list(classes.items()):
        if any(public for *_, public in entries):
            expose(name)

    resolved = [(callees(name), positions, keywords) for name, positions, keywords in calls]
    forwards = [(key, callees(name)) for key, name in forwards]
    selected = {key: set() for key in definitions}
    changed = True

    def select(key, parameter):
        nonlocal changed
        if parameter not in selected[key]:
            selected[key].add(parameter)
            changed = True

    while changed:
        changed = False
        for keys, positions, keywords in resolved:
            for key in keys:
                order = definitions[key][1][0]
                passed = [(order[index], cond) for index, cond in positions if index < len(order)]
                for parameter, cond in passed + keywords:
                    if cond is None or cond[1] in selected[cond[0]]:
                        select(key, parameter)
        for source, keys in forwards:
            for parameter in selected[source] - definitions[source][1][2]:
                for key in keys:
                    select(key, parameter)
    return {
        f"{key}.{parameter}"
        for key, (_, signature, tracked, owner, public) in definitions.items()
        if tracked and public and (owner is None or owner in exposed) and surface(key)
        for parameter in signature[1] - selected[key]
    }


class TestOptionsCensus:
    """An option earns its keep by being selected: every defaulted
    parameter of every public function, method and constructor in the
    discovered packages (and of the entry points listed for the others)
    is passed, by name or by position, from ``src``, ``examples``,
    ``benchmarks`` or ``bench`` (see :func:`_unselected_options`)."""

    #: Packages whose every public callable is a surface.
    DISCOVERED = ("core", "data", "dist", "nn", "obs")
    #: Entry points of the packages not discovered yet.
    LISTED = {
        "repro.pipeline.executor.PipelineExecutor",
        "repro.pipeline.executor.PipelineExecutor.from_model",
        "repro.tune.runner.SearchRunner",
        "repro.tune.search.GridSearch",
        "repro.tune.frontier.pareto_front",
        "repro.tune.frontier.frontier_table",
        "repro.tune.frontier.render_frontier",
        "repro.accel.adagp.AcceleratorModel",
    }
    #: Unselected but kept: ``{definition.parameter: (kind, reason)}``,
    #: kind one of :data:`EXEMPTION_KINDS`.
    EXEMPT = {
        "repro.core.engine.engine.TrainingEngine.predictor": (
            "seam", "adagp_engine passes its own predictor seam on"
        ),
        "repro.core.engine.factories.adagp_engine.predictor": (
            "seam", "tests inject a seeded predictor to compare engines bitwise"
        ),
        "repro.core.predictor.GradientPredictor.train_step.apply_update": (
            "seam", "test_predictor_batched measures a step without taking it"
        ),
        "repro.core.predictor.GradientPredictor.train_step_many.apply_update": (
            "seam", "test_predictor_batched measures a step without taking it"
        ),
        "repro.data.synthetic.synthetic_images.noise": (
            "producer", "ROADMAP 14's noise dial (Table 1 at 0.4 and 0.1)"
        ),
        "repro.dist.engine.ddp_engine.callbacks": (
            "seam", "tests attach ThroughputTimer / Checkpointing to a ddp engine"
        ),
        "repro.dist.engine.ddp_engine.min_workers": (
            "seam", "tests/dist/test_faults.py raises the lost-rank floor"
        ),
        "repro.dist.strategy.DataParallelStrategy.min_workers": (
            "seam", "ddp_engine passes its own min_workers seam on"
        ),
        "repro.dist.reliable.ReliableTransport.max_rebuilds": (
            "seam", "the fault tests retire a rank at once with a zero budget"
        ),
        "repro.dist.transport.ProcessTransport.timeout": (
            "seam", "the lifecycle tests shorten the collect deadline to 0.2 s"
        ),
        "repro.nn.init.reset_layer_rng.seed": (
            "seam", "tests restart the layer-rng stream at chosen seeds"
        ),
        "repro.nn.layers.core.Linear.bias": (
            "seam",
            "tests check the predictor's bias-free row layout (the zoo's "
            "bias-free convs) on small Linear chains",
        ),
        "repro.obs.metrics.Histogram.buckets": (
            "producer", "ROADMAP 1(a)'s per-layer cosine histograms"
        ),
        "repro.obs.metrics.MetricsRegistry.histogram.buckets": (
            "producer", "ROADMAP 1(a)'s per-layer cosine histograms"
        ),
        "repro.obs.trace.Tracer.clock": (
            "seam", "a counting clock makes traced seconds deterministic"
        ),
    }

    @classmethod
    def _surface(cls, key):
        return key.split(".")[1] in cls.DISCOVERED or key in cls.LISTED

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _unselected(cls):
        return _unselected_options(list(_caller_sources()), cls._surface)

    @pytest.mark.parametrize(
        "package", sorted(set(DISCOVERED) | {key.split(".")[1] for key in LISTED})
    )
    def test_every_keyword_parameter_is_selected_outside_tests(self, package):
        prefix = f"repro.{package}."
        unselected = {name for name in self._unselected() if name.startswith(prefix)}
        exempt = {name: value for name, value in self.EXEMPT.items() if name.startswith(prefix)}
        _check_exemptions(exempt)
        assert unselected == set(exempt), (
            f"repro.{package}: selected by nothing outside tests (delete the "
            f"parameter and its code path): {sorted(unselected - set(exempt))}; "
            f"stale exemptions: {sorted(set(exempt) - unselected)}"
        )


def _unused_definitions(sources, exports, exempt):
    """Keys of the public definitions nothing reaches (see
    :class:`TestExportCensus`); ``exports`` maps ``__all__`` names to
    the modules exporting them, ``exempt`` keys count as used."""
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
            elif isinstance(child, ast.Call):
                strings.update(
                    arg.value
                    for arg in child.args + [kw.value for kw in child.keywords]
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.isidentifier()
                )

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

    for root, relative, text in sources:
        tree = ast.parse(text)
        if root != "src":
            note(tree, None)
            continue
        module = _module(relative)
        scan(tree.body, None, module + ".", True, module)

    defined = {name for name, owner, _ in definitions.values() if owner is None}
    for name, modules in exports.items():
        if name not in defined:
            definitions[f"{assigned.get(name, modules[0])}.{name}"] = (name, None, True)

    names, strings = loads[None]
    used, live = set(), set()  # live: used or exempt

    def keep(key):
        live.add(key)
        names.update(loads.get(key, ((), ()))[0])
        strings.update(loads.get(key, ((), ()))[1])

    for key in exempt:
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
    An identifier-shaped string passed as an argument of a call uses a
    method of that name (``bench/instrument.py`` wraps methods by name,
    ``getattr(owner, "metrics")`` reads one); a string anywhere else
    (a row's ``"gauge"`` kind, a comparison) does not.  A method counts
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
        "repro.obs.metrics.MetricsRegistry.histogram": (
            "producer", "ROADMAP 1(a)'s per-layer cosine histograms"
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
        return _unused_definitions(list(_caller_sources()), cls._exports(), cls.EXEMPT)

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


class TestCensusRules:
    """Both censuses on a small in-memory tree, so each rule is pinned
    by what it decides rather than by the state of the repo."""

    LIBRARY = (
        "src",
        "src/repro/core/optim.py",
        '''
class Optimizer:
    def __init__(self, lr, decay=0.0, nesterov=False):
        self.lr, self.decay, self.nesterov = lr, decay, nesterov


class SGD(Optimizer):
    def __init__(self, lr, decay=0.0, nesterov=False):
        super().__init__(lr, decay, nesterov=nesterov)


class Registry:
    def gauge(self, name):
        return name

    def rows(self):
        return [("x", "gauge", 1, {})]
''',
    )
    BENCH = (
        "bench",
        "bench/run.py",
        '''
from repro.core.optim import SGD, Registry

SGD(0.1, nesterov=True)
Registry().rows()
''',
    )
    WRAP = ("bench", "bench/instrument.py", '_wrap_method(registry, "gauge", None)\n')

    def test_a_parameter_only_passed_through_is_unselected(self):
        unselected = _unselected_options([self.LIBRARY, self.BENCH], lambda key: True)
        assert "repro.core.optim.SGD.decay" in unselected
        assert "repro.core.optim.Optimizer.decay" in unselected

    def test_a_call_from_bench_selects(self):
        unselected = _unselected_options([self.LIBRARY, self.BENCH], lambda key: True)
        assert "repro.core.optim.SGD.nesterov" not in unselected
        assert "repro.core.optim.Optimizer.nesterov" not in unselected

    def test_only_a_call_argument_string_keeps_a_method(self):
        key = "repro.core.optim.Registry.gauge"
        assert key in _unused_definitions([self.LIBRARY, self.BENCH], {}, {})
        assert key not in _unused_definitions([self.LIBRARY, self.BENCH, self.WRAP], {}, {})
