"""The saved-slot contract, checked on every model the repo builds.

A module keeps three kinds of state (DESIGN.md §8): Parameters, declared
statistics, and ``_saved`` — the one slot for what a forward leaves its
backward.  Nothing here names a layer class or an attribute other than
``_saved``: a layer that kept forward state anywhere else, or that an
engine batch left holding a pooled workspace, fails on whichever model
contains it.  This is the runtime form of the ``cache-naming`` lint
rule, and also reaches bodies its method-name list does not
(``encode`` / ``decode`` / ``attend``).
"""

import numpy as np
import pytest

from repro import nn
from repro.core import Phase, adagp_engine
from repro.core.predictor import PredictorNetwork
from repro.models import (
    CLASSIFICATION_MODELS,
    MiniYolo,
    Seq2SeqTransformer,
    YoloLoss,
    build_mini,
)
from repro.nn.backend import FusedBackend, NumpyBackend
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import NO_GRAD, no_grad

BACKENDS = {"numpy": NumpyBackend, "fused": FusedBackend}


def _mse(prediction, target):
    """Mean squared error in the ``(loss, grad)`` pair form."""
    diff = prediction - target
    return float(np.mean(diff**2)), ((2.0 / diff.size) * diff).astype(np.float32)


def _case(name):
    """``(model, loss_fn, inputs, targets)`` for one model name."""
    rng = np.random.default_rng(0)
    if name == "Seq2SeqTransformer":
        model = Seq2SeqTransformer(
            12, 12, d_model=8, num_heads=2, d_ff=16,
            num_encoder_layers=2, num_decoder_layers=2, rng=rng,
        )
        inputs = (rng.integers(3, 12, (4, 6)), rng.integers(3, 12, (4, 5)))
        return model, CrossEntropyLoss(), inputs, rng.integers(3, 12, (4, 5))
    if name == "MiniYolo":
        model = MiniYolo(num_classes=3, grid_size=4, input_size=16, rng=rng)
        inputs = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        return model, YoloLoss(), inputs, rng.random((4, 8, 4, 4)).astype(np.float32)
    if name == "PredictorNetwork":
        model = PredictorNetwork(max_row=20, rng=rng)
        inputs = rng.standard_normal((6, 1, 12, 12)).astype(np.float32)
        return model, _mse, inputs, rng.standard_normal((6, 20)).astype(np.float32)
    model = build_mini(name, 10, rng=rng)
    inputs = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
    return model, CrossEntropyLoss(), inputs, rng.integers(0, 10, 4)


MODELS = [*CLASSIFICATION_MODELS, "Seq2SeqTransformer", "MiniYolo", "PredictorNetwork"]
everywhere = pytest.mark.parametrize("backend", sorted(BACKENDS))
every_model = pytest.mark.parametrize("name", MODELS)


@everywhere
@every_model
def test_an_engine_batch_leaves_nothing_saved(name, backend):
    model, loss_fn, inputs, targets = _case(name)
    backend = BACKENDS[backend]()
    engine = adagp_engine(model, loss_fn, lr=0.01, backend=backend)
    for phase in (Phase.WARMUP, Phase.BP, Phase.GP):
        engine.train_batch(inputs, targets, phase)
        held = [
            type(module).__name__
            for tree in (model, engine.predictor.network)
            for module in tree.modules()
            if module._saved is not None
        ]
        assert held == [], phase
        if isinstance(backend, FusedBackend):
            assert backend.pool.outstanding == 0, phase


@everywhere
@every_model
def test_a_forward_touches_only_the_slot_and_declared_statistics(name, backend):
    model, _loss_fn, inputs, _targets = _case(name)
    with nn.backend_scope(BACKENDS[backend]()):
        with no_grad():
            model(inputs)
        states = {type(m._saved) for m in model.modules()}
        assert states <= {type(None), type(NO_GRAD)}

        before = [dict(vars(module)) for module in model.modules()]
        model(inputs)
    for module, old in zip(model.modules(), before):
        allowed = {"_saved", *module.statistics}
        if module.statistics:
            allowed.add("stats_version")
        new = vars(module)
        assert new.keys() == old.keys(), type(module).__name__
        moved = {key for key in new if new[key] is not old[key]}
        assert moved <= allowed, f"{type(module).__name__}: {sorted(moved - allowed)}"
