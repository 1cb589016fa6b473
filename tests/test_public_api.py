"""Top-level public-API smoke tests: everything in README imports/works."""

import numpy as np

import repro
from repro import (
    AcceleratorConfig,
    AcceleratorModel,
    AdaGPDesign,
    DataflowKind,
    GradientPredictor,
    HeuristicSchedule,
    Phase,
    PipelineConfig,
    PipelineKind,
    build_mini,
    pipeline_speedup,
    adagp_engine,
    bp_engine,
    spec_for,
)


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_readme_flow():
    """The README quickstart, miniaturized."""
    from repro.data import preset_split
    from repro.nn.losses import CrossEntropyLoss, accuracy

    split = preset_split("Cifar10", num_train=48, num_val=24)
    model = build_mini("VGG13", 10, rng=np.random.default_rng(0))
    engine = adagp_engine(
        model, CrossEntropyLoss(), lr=0.02, metric_fn=accuracy,
        schedule=HeuristicSchedule(warmup_epochs=1, ladder=((1, (2, 1)),)),
    )
    history = engine.fit(
        lambda: split.train.batches(16, rng=np.random.default_rng(1)),
        lambda: split.val.batches(24, shuffle=False),
        epochs=2,
    )
    assert history.num_epochs == 2
    assert sum(history.gp_batches) > 0

    accel = AcceleratorModel()
    spec = spec_for("ResNet50", "ImageNet")
    speedup = accel.speedup(spec, AdaGPDesign.MAX, HeuristicSchedule(), 90, 20)
    assert 1.3 < speedup < 1.7

    pipe = pipeline_speedup(
        spec, PipelineKind.GPIPE, AdaGPDesign.MAX, epochs=30, batches_per_epoch=5
    )
    assert pipe > 1.3


def test_phase_enum_values():
    assert {p.value for p in Phase} == {"warmup", "bp", "gp"}


def test_config_types_importable():
    assert AcceleratorConfig().num_pes == 180
    assert PipelineConfig().num_stages == 4
    assert DataflowKind.WEIGHT_STATIONARY.value == "WS"


def test_predictor_importable():
    model = build_mini("MobileNet-V2", 10, rng=np.random.default_rng(0))
    predictor = GradientPredictor.for_model(model)
    assert predictor.num_parameters() > 0


def test_bp_trainer_importable():
    from repro.nn.losses import CrossEntropyLoss

    model = build_mini("VGG13", 10, rng=np.random.default_rng(0))
    engine = bp_engine(model, CrossEntropyLoss())
    assert engine.optimizer is not None
