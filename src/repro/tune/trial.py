"""One schedule-search trial: spec in, engine run, measured result out.

A :class:`TrialSpec` is a JSON-safe description of one
:func:`~repro.core.adagp_engine` training run — the schedule under test
(:class:`~repro.core.AdaptiveSchedule` thresholds/ratios or
:class:`~repro.core.HeuristicSchedule` ladders, via their
``to_config`` dicts) and the workload (model, dataset preset, epochs,
batch size, learning rate).  Specs are what travels through the process
pool and the results journal.

:func:`run_trial` executes a spec deterministically (all randomness
spawned from ``spec.seed``) and returns a :class:`TrialResult` carrying
the two frontier axes — best/final accuracy and realized GP share —
plus wall time and the accelerator cycle-model speedup of the realized
phase mix (:meth:`repro.accel.AcceleratorModel.training_cost`).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from ..core import Phase, adagp_engine, schedule_from_config
from ..core.schedule import AdaptiveSchedule, HeuristicSchedule
from ..data import preset_split
from ..data.synthetic import DATASET_PRESETS, PAPER_TO_PRESET
from ..models import build_mini, spec_for
from ..nn.losses import CrossEntropyLoss, accuracy

#: Default AdaptiveSchedule MAPE cut-offs that ``threshold_scale`` scales.
BASE_THRESHOLDS: tuple[float, ...] = (2.0, 5.0, 10.0)

#: Config keys that describe the schedule rather than the run.
_SCHEDULE_KEYS = {
    "kind",
    "warmup_epochs",
    "thresholds",
    "threshold_scale",
    "ratios",
    "ladder",
    "final_ratio",
}


def _listify(value: Any) -> Any:
    """Canonicalize containers the way JSON does (tuples -> lists), so a
    spec dict compares equal to its journal round-trip."""
    if isinstance(value, (list, tuple)):
        return [_listify(item) for item in value]
    if isinstance(value, dict):
        return {key: _listify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class TrialSpec:
    """One fully-specified training trial (JSON-safe, picklable)."""

    trial_id: str
    schedule: dict  # ``schedule_from_config`` dict (kind + knobs)
    model: str = "VGG13"
    dataset: str = "Cifar10"
    num_train: int = 256
    num_val: int = 128
    batch_size: int = 32
    epochs: int = 12
    lr: float = 0.02
    design: str = "ADA-GP-Efficient"
    seed: int = 0

    def to_dict(self) -> dict:
        # Tuples canonicalize to lists: the journal's resume check
        # compares this dict against its JSON round-trip, which must be
        # an exact match even for hand-built specs carrying tuples.
        return _listify(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialSpec":
        return cls(**dict(data))

    def build_schedule(self) -> AdaptiveSchedule | HeuristicSchedule:
        return schedule_from_config(self.schedule)


@dataclass
class TrialResult:
    """Measured outcome of one trial.

    ``wall_time_s`` is the only nondeterministic field;
    :meth:`deterministic_dict` drops it, and two runs of the same spec
    (fresh, resumed, or in another worker process) must agree on that
    projection bit-for-bit.
    """

    trial_id: str
    status: str  # "ok" | "failed"
    spec: dict = field(default_factory=dict)
    epochs_run: int = 0
    best_metric: float = float("nan")
    final_metric: float = float("nan")
    val_metric: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    gp_share: float = float("nan")
    gp_fraction: list[float] = field(default_factory=list)
    cycle_speedup: float = float("nan")
    wall_time_s: float = 0.0
    error: Optional[str] = None

    #: Float slots that may legitimately hold NaN (failed trials) or, in
    #: a diverged run, inf.  They serialize as ``null`` so the journal
    #: stays strict RFC-8259 JSON (Python's NaN/Infinity tokens are not),
    #: and so failed results compare equal by dict (NaN != NaN would
    #: break the bit-identity contract).
    _FLOAT_FIELDS = ("best_metric", "final_metric", "gp_share", "cycle_speedup")
    _FLOAT_LIST_FIELDS = ("val_metric", "train_loss", "gp_fraction")

    def to_dict(self) -> dict:
        data = asdict(self)
        for name in self._FLOAT_FIELDS:
            if not math.isfinite(data[name]):
                data[name] = None
        for name in self._FLOAT_LIST_FIELDS:
            data[name] = [
                value if math.isfinite(value) else None for value in data[name]
            ]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialResult":
        data = dict(data)
        for name in cls._FLOAT_FIELDS:
            if data.get(name) is None:
                data[name] = float("nan")
        for name in cls._FLOAT_LIST_FIELDS:
            if name in data:
                data[name] = [
                    float("nan") if value is None else value
                    for value in data[name]
                ]
        return cls(**data)

    def deterministic_dict(self) -> dict:
        """Everything a deterministic re-run must reproduce exactly."""
        data = self.to_dict()
        data.pop("wall_time_s")
        return data

    @classmethod
    def failed(cls, spec: TrialSpec, error: BaseException) -> "TrialResult":
        return cls(
            trial_id=spec.trial_id,
            status="failed",
            spec=spec.to_dict(),
            error=f"{type(error).__name__}: {error}",
        )


def spec_from_config(
    trial_id: str, config: Mapping[str, Any], seed: int = 0, **base: Any
) -> TrialSpec:
    """Map one sampled search-space configuration onto a :class:`TrialSpec`.

    Schedule keys (``kind``, ``warmup_epochs``, ``thresholds`` /
    ``threshold_scale`` / ``ratios`` for the adaptive controller,
    ``ladder`` / ``final_ratio`` for the heuristic one) become the
    spec's schedule config; any :class:`TrialSpec` field name (``lr``,
    ``epochs``, ``model``, ...) overrides the same-named ``base``
    keyword.  Unknown keys raise, so typos in a search space fail fast
    instead of silently searching nothing.
    """
    spec_fields = set(TrialSpec.__dataclass_fields__) - {"trial_id", "schedule", "seed"}
    schedule_cfg: dict[str, Any] = {}
    overrides: dict[str, Any] = {}
    for key, value in config.items():
        if key in _SCHEDULE_KEYS:
            schedule_cfg[key] = value
        elif key in spec_fields:
            overrides[key] = value
        else:
            raise ValueError(
                f"unknown search parameter {key!r}; schedule keys are "
                f"{sorted(_SCHEDULE_KEYS)}, spec fields {sorted(spec_fields)}"
            )
    kind = schedule_cfg.pop("kind", "adaptive")
    if kind == "adaptive":
        scale = float(schedule_cfg.pop("threshold_scale", 1.0))
        thresholds = schedule_cfg.pop("thresholds", BASE_THRESHOLDS)
        schedule = AdaptiveSchedule(
            warmup_epochs=int(schedule_cfg.pop("warmup_epochs", 6)),
            thresholds=tuple(float(t) * scale for t in thresholds),
            ratios=tuple(
                (int(k), int(m)) for k, m in schedule_cfg.pop(
                    "ratios", AdaptiveSchedule.__dataclass_fields__["ratios"].default
                )
            ),
        )
    elif kind == "heuristic":
        defaults = HeuristicSchedule(
            warmup_epochs=int(schedule_cfg.pop("warmup_epochs", 6))
        )
        ladder = schedule_cfg.pop("ladder", defaults.ladder)
        final = schedule_cfg.pop("final_ratio", defaults.final_ratio)
        schedule = HeuristicSchedule(
            warmup_epochs=defaults.warmup_epochs,
            ladder=tuple((int(w), (int(k), int(m))) for w, (k, m) in ladder),
            final_ratio=(int(final[0]), int(final[1])),
        )
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    if schedule_cfg:
        raise ValueError(
            f"schedule keys {sorted(schedule_cfg)} do not apply to kind {kind!r}"
        )
    params = dict(base)
    params.update(overrides)
    return TrialSpec(
        trial_id=trial_id, schedule=schedule.to_config(), seed=seed, **params
    )


def _num_classes(dataset: str) -> int:
    preset = PAPER_TO_PRESET.get(dataset, dataset)
    return DATASET_PRESETS[preset][0]


_PRESET_TO_PAPER = {preset: paper for paper, preset in PAPER_TO_PRESET.items()}


def _paper_dataset(dataset: str) -> str:
    """Paper dataset name for the cycle model's ``spec_for`` registry
    (trial specs may use either paper names or preset aliases)."""
    if dataset in PAPER_TO_PRESET:
        return dataset
    return _PRESET_TO_PAPER[dataset]


def run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one trial end-to-end; deterministic given ``spec``.

    All randomness — data, model init, epoch order — is a function of
    ``spec.seed``, so a journal-resumed or process-pool re-run
    reproduces the original :meth:`TrialResult.deterministic_dict`
    exactly.
    """
    (model_ss,) = np.random.SeedSequence(spec.seed).spawn(1)
    split = preset_split(
        spec.dataset, num_train=spec.num_train, num_val=spec.num_val, seed=spec.seed
    )
    model = build_mini(
        spec.model, _num_classes(spec.dataset), rng=np.random.default_rng(model_ss)
    )
    engine = adagp_engine(
        model,
        CrossEntropyLoss(),
        lr=spec.lr,
        metric_fn=accuracy,
        schedule=spec.build_schedule(),
    )
    start = time.perf_counter()
    history = engine.fit(
        split.train.epochs(spec.batch_size, spec.seed),
        split.val.epochs(max(spec.num_val, 1)),
        epochs=spec.epochs,
    )
    wall = time.perf_counter() - start
    counts = {
        Phase.BP: sum(history.bp_batches),
        Phase.GP: sum(history.gp_batches),
    }
    # Import deferred so repro.tune loads without the accel package in
    # play until a result actually needs costing.
    from ..accel import AcceleratorModel, AdaGPDesign

    accelerator = AcceleratorModel()
    cost_spec = spec_for(spec.model, _paper_dataset(spec.dataset))
    base = accelerator.training_cost(cost_spec, None, counts, spec.batch_size)
    ada = accelerator.training_cost(
        cost_spec, AdaGPDesign(spec.design), counts, spec.batch_size
    )

    return TrialResult(
        trial_id=spec.trial_id,
        status="ok",
        spec=spec.to_dict(),
        epochs_run=history.num_epochs,
        best_metric=history.best_metric,
        final_metric=history.final_metric,
        val_metric=list(history.val_metric),
        train_loss=list(history.train_loss),
        gp_share=history.gp_share,
        gp_fraction=list(history.gp_fraction),
        cycle_speedup=base.cycles / ada.cycles,
        wall_time_s=wall,
    )
