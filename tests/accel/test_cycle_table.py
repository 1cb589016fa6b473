"""The cycle table (``AcceleratorModel.layer_costs``) and the one weighting
(``AcceleratorModel.training_cost``): every batch, stage and run cost is
a fold over the table's rows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    AcceleratorConfig,
    AcceleratorModel,
    AdaGPDesign,
    DataflowKind,
    Traffic,
)
from repro.core import HeuristicSchedule, phase_counts
from repro.models import CLASSIFICATION_MODELS, spec_for
from repro.pipeline import PipelineConfig, PipelineKind, model_stage_times, pipeline_speedup


def _total(traffics):
    return sum(traffics, Traffic())


@given(
    model=st.sampled_from(CLASSIFICATION_MODELS + ["Transformer", "YOLO-v3"]),
    dataset=st.sampled_from(["Cifar10", "Cifar100", "ImageNet"]),
    batch=st.integers(1, 256),
    dataflow=st.sampled_from(list(DataflowKind)),
    design=st.sampled_from(list(AdaGPDesign)),
    stages=st.sampled_from([2, 4]),
    micro_batches=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_every_cost_is_a_fold_over_the_table(
    model, dataset, batch, dataflow, design, stages, micro_batches
):
    accelerator = AcceleratorModel(AcceleratorConfig(dataflow=dataflow))
    spec = spec_for(model, dataset)
    base_rows = accelerator.layer_costs(spec, batch, None)
    rows = accelerator.layer_costs(spec, batch, design)
    assert [r.spec for r in rows] == spec.layers
    assert all(r.alpha_fw == r.alpha_bw == 0 for r in base_rows)

    base = accelerator.phase_bp_batch(spec, batch, None)
    bp = accelerator.phase_bp_batch(spec, batch, design)
    gp = accelerator.phase_gp_batch(spec, batch, design)
    assert base.cycles == sum(r.fw + r.bw for r in base_rows)
    assert base.traffic == _total(r.bp_traffic for r in base_rows)
    assert bp.traffic == _total(r.bp_traffic for r in rows)
    assert gp.traffic == _total(r.gp_traffic for r in rows)
    if design == AdaGPDesign.MAX:
        efficient = accelerator.phase_bp_batch(spec, batch, AdaGPDesign.EFFICIENT)
        assert base.cycles <= bp.cycles <= efficient.cycles
    else:
        assert bp.cycles == sum(r.fw + r.bw + r.alpha_fw + r.alpha_bw for r in rows)
        assert gp.cycles == sum(r.fw + r.alpha_fw for r in rows)

    config = PipelineConfig(num_stages=stages, micro_batches=micro_batches)
    micro_rows = accelerator.layer_costs(spec, max(batch // micro_batches, 1), design)
    times = model_stage_times(spec, accelerator, config, design, batch)
    assert times.tf * stages == sum(r.fw for r in micro_rows)
    assert times.alpha_bw * stages == sum(r.alpha_bw for r in micro_rows)

    schedule = HeuristicSchedule(warmup_epochs=2)
    counts = phase_counts(schedule, 6, 5)
    weighted = (
        accelerator.training_cost(spec, None, counts, batch).cycles
        / accelerator.training_cost(spec, design, counts, batch).cycles
    )
    assert accelerator.speedup(spec, design, schedule, 6, 5, batch) == weighted


class TestEmptyPhaseMix:
    SPEC = spec_for("VGG13", "Cifar10")

    def test_weighting_names_the_empty_mix(self):
        with pytest.raises(ValueError, match="empty phase mix"):
            AcceleratorModel().training_cost(self.SPEC, None, {})

    @pytest.mark.parametrize("epochs, batches", [(0, 20), (5, 0)])
    def test_zero_batch_speedup_fails_loudly(self, epochs, batches):
        with pytest.raises(ValueError, match="empty phase mix"):
            AcceleratorModel().speedup(self.SPEC, AdaGPDesign.MAX, None, epochs, batches)

    @pytest.mark.parametrize("epochs, batches", [(0, 20), (5, 0)])
    def test_zero_batch_pipeline_speedup_fails_loudly(self, epochs, batches):
        with pytest.raises(ValueError, match="empty phase mix"):
            pipeline_speedup(
                self.SPEC, PipelineKind.GPIPE, AdaGPDesign.MAX,
                epochs=epochs, batches_per_epoch=batches,
            )
