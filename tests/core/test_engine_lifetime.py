"""Engine lifetime: a dropped engine is freed, not parked as cyclic garbage.

Strategies hold their engine weakly, so dropping the last outside
reference frees model, grads, optimizer slots and predictor by refcount;
owners that close a cycle from outside (wrapping ``engine.train_batch``
by attribute replacement, as the benchmark's step log does) are covered
by the one ``gc.collect()`` at the top of ``TrainingEngine.fit``.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import (
    HeuristicSchedule,
    Phase,
    adagp_engine,
    bp_engine,
    pipeline_adagp_engine,
)
from repro.data import synthetic_images
from repro.models import Seq2SeqTransformer, build_mini
from repro.nn.losses import CrossEntropyLoss, accuracy
from repro.nn.module import NO_GRAD

SPLIT = synthetic_images(3, 32, 16, image_size=16, seed=0)


def _fit_one_epoch(engine):
    engine.fit(
        lambda: SPLIT.train.batches(16, rng=np.random.default_rng(1)),
        lambda: SPLIT.val.batches(16, shuffle=False),
        1,
    )


def _conv_model():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(4, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 3, rng=rng),
    )


def _adagp(model, factory=adagp_engine, **kwargs):
    # One BP and one GP batch per epoch, so both strategies run.
    schedule = HeuristicSchedule(warmup_epochs=0, ladder=((1, (1, 1)),))
    return factory(
        model, CrossEntropyLoss(), lr=0.01, schedule=schedule,
        metric_fn=accuracy, **kwargs,
    )


ENGINES = {
    "bp": lambda model: bp_engine(
        model, CrossEntropyLoss(), lr=0.01, metric_fn=accuracy
    ),
    "adagp": _adagp,
    "pipeline": lambda model: _adagp(
        model, pipeline_adagp_engine, num_stages=2, micro_batches=4
    ),
}


@pytest.fixture
def no_automatic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ENGINES)
def test_dropped_engine_is_freed_by_refcount(name, no_automatic_gc):
    model = _conv_model()
    engine = ENGINES[name](model)
    _fit_one_epoch(engine)
    alive = weakref.ref(model)
    del engine, model
    assert alive() is None, "a finished engine survived as cyclic garbage"


def _holds_array(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple, set)):
        return any(_holds_array(item) for item in value)
    return isinstance(value, np.ndarray)


@pytest.mark.parametrize("name", ENGINES)
def test_no_activation_outlives_its_batch(name, no_automatic_gc):
    """The engine drops the model's caches after every batch; a strategy
    must not keep the predictable layers' outputs alive behind its back
    (the activation store of a batch is local to that batch)."""
    model = _conv_model()
    engine = ENGINES[name](model)
    layer = model.layers[2]  # second conv: predictable, mid-chain
    forward, outputs = layer.forward, []

    def watched(x):
        out = forward(x)
        outputs.append(weakref.ref(out))
        return out

    layer.forward = watched
    inputs, targets = next(iter(SPLIT.train.batches(16, shuffle=False)))
    for phase in (Phase.BP, Phase.GP):
        engine.train_batch(inputs, targets, phase)
        assert outputs and all(ref() is None for ref in outputs), phase
        for strategy in {id(s): s for s in engine.strategies.values()}.values():
            pinned = [k for k, v in vars(strategy).items() if _holds_array(v)]
            assert pinned == [], (type(strategy).__name__, phase)


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc for the RSS"
)
def test_wrapped_engines_do_not_accumulate(no_automatic_gc):
    """Eight build-fit-drop rounds, each engine wrapped the way the
    benchmark's step log wraps it: the wrapper closes a cycle the weak
    back-reference cannot break, and the collect at the next fit's start
    is what frees the previous round's engine (VGG13-mini with its
    predictor: ~1 MB)."""
    models = []

    def round_():
        model = build_mini("VGG13", 3, rng=np.random.default_rng(0))
        engine = _adagp(model)
        inner = engine.train_batch

        def logged(*args, **kwargs):
            return inner(*args, **kwargs)

        engine.train_batch = logged
        _fit_one_epoch(engine)
        models.append(weakref.ref(model))

    rss = []
    for _ in range(8):
        round_()
        rss.append(_rss_mb())
    # Only the last round's engine may still be waiting for a collect.
    assert [ref() is not None for ref in models] == [False] * 7 + [True]
    # Without the collect every round parks ~2 MB (12 MB over rounds
    # 3-8); with it the RSS is flat up to allocator steps of 1-4 MB.
    assert rss[-1] - rss[1] < 6.0, rss


def _transformer_case():
    rng = np.random.default_rng(0)
    model = Seq2SeqTransformer(15, 15, d_model=16, num_heads=2, d_ff=24, rng=rng)
    batch = (rng.integers(3, 15, (4, 7)), rng.integers(3, 15, (4, 6)))
    return model, batch, rng.integers(3, 15, (4, 6))


def _resnet_case():
    model = build_mini("ResNet50", 3, rng=np.random.default_rng(0))
    inputs, targets = next(iter(SPLIT.train.batches(8, shuffle=False)))
    return model, inputs, targets


@pytest.mark.parametrize(
    "case", [_transformer_case, _resnet_case], ids=["transformer", "resnet50"]
)
def test_the_table_walk_clears_and_restores_every_module(case):
    """The engine sets modes and drops caches over ``engine.table``, not
    through ``model.train()`` / ``model.clear_caches()``: after a BP
    batch and a GP batch every module the tree walk reaches has no
    cache and trains, an evaluation leaves every module in train mode
    holding no backward cache, and the table covers exactly the walk's
    modules."""
    model, inputs, targets = case()
    engine = _adagp(model)
    modules = list(model.modules())
    for phase in (Phase.BP, Phase.GP):
        engine.train_batch(inputs, targets, phase)
        assert all(m._saved is None and m.training for m in modules), phase
    engine.evaluate([(inputs, targets)])
    assert all(m.training and m._saved in (None, NO_GRAD) for m in modules)
    assert {id(row.module) for row in engine.table.rows} == set(map(id, modules))
