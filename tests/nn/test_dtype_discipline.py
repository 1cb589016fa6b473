"""The training path is float32 end to end (DESIGN.md §1, dtype policy).

Under NumPy >= 2 (NEP 50) a NumPy scalar is *strong*: ``np.float64(s) *
x`` turns a float32 ``x`` into float64, while a Python float keeps
``x``'s dtype.  One such scalar on an activation silently runs every
downstream layer, and its backward, in float64 — twice the bytes and
the dgemm path — and nothing fails, because ``Parameter.accumulate_grad``
and the predictor's pooled buffer cast back to float32.  This test is
the loud form of that invariant.  On every zoo mini and the Transformer,
for every phase body and every registered backend, it checks that these
are all float32 (the pipeline engine's BP and GP batches, which split
the batch into micro-batches and apply each predicted update in flight,
run on the minis: it partitions a top-level ``Sequential`` only):

* every module output;
* every gradient a layer hands to ``Parameter.accumulate_grad``, and
  every ``param.grad`` left behind;
* every optimizer slot (model, Phase-GP and predictor optimizers);
* every activation handed to the gradient predictor.

Only the phase under test is watched; a GP case runs one unwatched BP
batch first so the predictor has been trained once.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.core import Phase, adagp_engine, pipeline_adagp_engine
from repro.core.predictor import GradientPredictor
from repro.models import MINI_BUILDERS, Seq2SeqTransformer, build_mini
from repro.nn.backend import list_backends, native_available
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module, Parameter

MODELS = [*MINI_BUILDERS, "Seq2SeqTransformer"]
PHASES = ("bp", "gp", "eval")
PIPELINE_PHASES = ("pipeline_bp", "pipeline_gp")
CASES = [(name, phase) for name in MODELS for phase in PHASES] + [
    (name, phase) for name in MINI_BUILDERS for phase in PIPELINE_PHASES
]


def _engine(name, backend, pipeline=False):
    """``(engine, inputs, targets)`` for one model, as small as it runs."""
    rng = np.random.default_rng(0)
    loss_fn = CrossEntropyLoss()
    if name == "Seq2SeqTransformer":
        model = Seq2SeqTransformer(
            12, 12, d_model=8, num_heads=2, d_ff=16,
            num_encoder_layers=2, num_decoder_layers=2, rng=rng,
        )
        inputs = (rng.integers(3, 12, (2, 6)), rng.integers(3, 12, (2, 5)))
        targets = rng.integers(3, 12, (2, 5))
        # The benchmark's configuration: Adam on the model, predicted
        # gradients through SGD.
        engine = adagp_engine(
            model, loss_fn,
            optimizer=nn.Adam(model.parameters(), lr=1e-3),
            gp_optimizer=nn.SGD(model.parameters(), lr=1e-3, momentum=0.9),
            backend=backend,
        )
        return engine, inputs, targets
    model = build_mini(name, 10, rng=rng)
    inputs = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    if pipeline:
        # Two stages of one sample each: every stage boundary and the
        # micro-batch join run.
        engine = pipeline_adagp_engine(
            model, loss_fn, num_stages=2, micro_batches=2, lr=0.01,
            backend=backend,
        )
    else:
        engine = adagp_engine(model, loss_fn, lr=0.01, backend=backend)
    return engine, inputs, rng.integers(0, 10, 2)


def _trees(engine):
    return engine.model, engine.predictor.network


@contextmanager
def _watch(engine):
    """Collect every non-float32 array crossing the three seams, named
    by its module's or parameter's qualified name."""
    leaks: list[str] = []
    modules = {id(m): n for tree in _trees(engine) for n, m in tree.named_modules()}
    params = {id(p): n for tree in _trees(engine) for n, p in tree.named_parameters()}

    def check(where, array):
        if isinstance(array, np.ndarray) and array.dtype != np.float32:
            leaks.append(f"{where}: {array.dtype}")

    real_call = Module.__call__
    real_accumulate = Parameter.accumulate_grad
    real_forward = GradientPredictor._forward

    def call(module, x):
        out = real_call(module, x)
        check(f"{modules.get(id(module), type(module).__name__)} output", out)
        return out

    def accumulate_grad(param, grad):
        check(f"gradient into {params.get(id(param), param.name)}", grad)
        real_accumulate(param, grad)

    def predictor_forward(predictor, layers, outputs):
        for layer, output in zip(layers, outputs):
            check(f"{modules[id(layer)]} activation to the predictor", output)
        return real_forward(predictor, layers, outputs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Module, "__call__", call)
        patch.setattr(Parameter, "accumulate_grad", accumulate_grad)
        patch.setattr(GradientPredictor, "_forward", predictor_forward)
        yield leaks


def _state_leaks(engine) -> list[str]:
    """Non-float32 gradients and optimizer slots an engine holds."""
    leaks = []
    for tree in _trees(engine):
        for param_name, param in tree.named_parameters():
            if param.grad is not None and param.grad.dtype != np.float32:
                leaks.append(f"{param_name}.grad: {param.grad.dtype}")
    optimizers = {
        "optimizer": engine.optimizer,
        "gp_optimizer": engine.gp_optimizer,
        "predictor optimizer": engine.predictor.optimizer,
    }
    for opt_name, optimizer in optimizers.items():
        for slot, values in optimizer.state_dict()["slots"].items():
            for index, value in values.items():
                if isinstance(value, np.ndarray) and value.dtype != np.float32:
                    leaks.append(f"{opt_name}.{slot}[{index}]: {value.dtype}")
    return leaks


@pytest.mark.parametrize("backend", list_backends())
@pytest.mark.parametrize(("name", "phase"), CASES)
def test_every_array_on_the_training_path_is_float32(name, phase, backend):
    if backend == "native" and not native_available():
        pytest.skip("native extension unavailable")
    pipeline, _, phase = phase.rpartition("_")
    engine, inputs, targets = _engine(name, backend, bool(pipeline))
    if phase == "gp":
        engine.train_batch(inputs, targets, Phase.BP)
    with _watch(engine) as leaks:
        if phase == "eval":
            engine.evaluate([(inputs, targets)])
        else:
            engine.train_batch(inputs, targets, Phase.BP if phase == "bp" else Phase.GP)
    leaks += _state_leaks(engine)
    # Deduplicated, first occurrence first: the first leak names the cause.
    assert not leaks, "\n".join(dict.fromkeys(leaks))
