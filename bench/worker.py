"""One workload subprocess: set up, then fit (baseline, subject) pairs
for ``--seconds`` (none when it is 0: a set-up sample only), and print
one JSON line of raw records.

``run.py`` starts this in a fresh interpreter with one BLAS/OpenMP
thread pinned, several times per run, and does all aggregation; the
worker only measures.  Every fit is timed with ``StepLog``; traced mode
adds a traced subject fit to each pair (so the tracing overhead is
measured against untraced fits of the same process) and rolls its spans
up into the per-layer rows.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.schedule import Phase
from repro.dist import dp_strategy, shutdown
from repro.dist.strategy import DataParallelStrategy

from . import workloads
from .instrument import StepLog, trace_engine
from .trace import Recorder

OP_GROUPS = {
    "conv2d_forward": ("conv2d_forward",),
    "conv2d_backward": ("conv2d_backward",),
    "linear_forward": ("linear_forward",),
    "linear_backward": ("linear_backward",),
    "moments": ("moments",),
    "adaptive_avg_pool2d": ("adaptive_avg_pool2d", "adaptive_avg_pool2d_backward"),
    "unfold_fold": ("unfold", "fold"),
    "attn": ("attn_scores", "attn_context", "attn_context_t"),
}
BACKWARD_OPS = ("conv2d_backward", "linear_backward")


def op_metric_names() -> list[str]:
    """The op-view rows: backward ops only exist in BP batches."""
    return [
        f"nn.backend.{phase}.{op}_s"
        for phase in ("bp", "gp", "eval")
        for op in OP_GROUPS
        if phase == "bp" or op not in BACKWARD_OPS
    ]


# ----------------------------------------------------------------------
# Host speed.  This host class is a shared VM whose speed moves by up to
# 1.5x for minutes at a time (README.md, "Host-normalised seconds"), so
# every duration is divided by an index measured next to it: the time a
# fixed piece of work that uses no repo code takes now, over the time it
# takes on the baseline host when that is quiet.
# ----------------------------------------------------------------------
REFERENCE_CHUNK_S = 0.00163
_REF_MATRIX = np.full((192, 192), 0.5, dtype=np.float32)
_REF_VECTOR = np.full(1 << 18, 0.5, dtype=np.float32)
_REF_SCRATCH = np.empty_like(_REF_VECTOR)


def _reference_chunk() -> float:
    """One chunk of reference work: BLAS GEMMs, an element-wise pass
    and an interpreter loop (about 1.0, 0.4 and 1.2 ms)."""
    started = time.perf_counter()
    for _ in range(8):
        _REF_MATRIX @ _REF_MATRIX
    np.multiply(_REF_VECTOR, 1.0001, out=_REF_SCRATCH)
    np.maximum(_REF_SCRATCH, 0.25, out=_REF_SCRATCH)
    total = 0
    for i in range(10000):
        total += i * i
    return time.perf_counter() - started


class HostSpeed:
    """How many times slower than the quiet baseline host this host is
    right now: the median of the last three samples, so one sample
    taken inside a stall of a second or so cannot mis-scale a round."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self, chunks: int = 40) -> float:
        """Take one sample (the median of ``chunks`` chunks, ~0.07 s,
        which rides out stalls of a few milliseconds); return the index."""
        started = time.perf_counter()
        chunk_s = statistics.median(_reference_chunk() for _ in range(chunks))
        self.samples.append(chunk_s / REFERENCE_CHUNK_S)
        self.spent_s += time.perf_counter() - started
        return statistics.median(self.samples[-3:])


def host_clock(index: float):
    """``time.perf_counter`` in host-normalised seconds."""
    return lambda: time.perf_counter() / index


def _is_ddp(engine) -> bool:
    return any(isinstance(s, DataParallelStrategy) for s in engine.strategies.values())


def run_fit(
    workload, task, arm: str, seed: int, index: float, recorder: Recorder | None = None
) -> dict:
    """Build one arm's engine, fit it, and return the raw record; every
    duration in it is in host-normalised seconds (divided by ``index``)."""
    clock = host_clock(index)
    started = clock()
    engine = workload.build(arm, seed)
    build_s = clock() - started
    ddp = _is_ddp(engine)
    log = StepLog(clock)
    log.attach(engine)
    train_batches, val_batches = task.train_batches, task.val_batches
    if recorder is not None:
        recorder.clock = clock
        counters, registry = trace_engine(engine, recorder)

        def train_batches():
            return recorder.wrap_iter(task.train_batches(), "data.batch_wait")

        def val_batches():
            return recorder.wrap_iter(task.val_batches(), "data.batch_wait")

    try:
        cpu_start = time.process_time()
        fit_start = clock()
        if recorder is not None:
            root = recorder.begin("core.engine.fit")
        history = engine.fit(train_batches, val_batches, workloads.EPOCHS)
        if recorder is not None:
            recorder.end(root)
        wall = clock() - fit_start
        cpu = (time.process_time() - cpu_start) / index
        comm = dp_strategy(engine).comm.totals() if ddp else None
    finally:
        if ddp:
            shutdown(engine)
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "build_s": build_s,
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "val_metric": history.val_metric,
        "bp_batches": history.bp_batches,
        "gp_batches": history.gp_batches,
        "mape_last_epoch": (
            statistics.fmean(history.predictor_mape[-1].values())
            if history.predictor_mape and history.predictor_mape[-1]
            else 0.0
        ),
        "comm": comm,
        "steps": [
            (phase, seconds, loss, end - fit_start)
            for phase, seconds, loss, end in log.steps
        ],
        "evals": log.evals,
    }
    if recorder is not None:
        record["counters"] = counters.snapshot()
        ops = registry.counter("repro_backend_op_seconds")
        calls = registry.counter("repro_backend_op_calls")
        record["ops"] = {
            f"nn.backend.{phase}.{group}_s": sum(
                ops.value(phase=phase, op=op) for op in members
            )
            / index
            for phase in ("bp", "gp", "eval")
            for group, members in OP_GROUPS.items()
        }
        record["op_seconds"] = ops.total() / index
        record["op_calls"] = calls.total()
    return record


def warm_up(workload, task, seed: int) -> None:
    """Two true-gradient and two GP batches plus one evaluate on a
    throwaway twin of the subject, so caches fill and lazy set-up (the
    ``.so`` load, worker spawn, fold plans) finishes before timing."""
    engine = workload.build("subject", seed)
    try:
        batches = iter(task.train_batches())
        for phase in (Phase.WARMUP, Phase.WARMUP, Phase.GP, Phase.GP):
            engine.train_batch(*next(batches), phase)
        engine.evaluate(task.val_batches())
    finally:
        if _is_ddp(engine):
            shutdown(engine)


def layer_rows(recorder: Recorder, fit_id: str, record: dict) -> dict:
    """The per-layer metrics of one traced subject fit.

    Call-tree rows are self times and partition the fit span, so they
    are summed here and checked against the wall by ``run.py``."""
    rows = recorder.rollup(fit_id)

    def self_s(name, phase=None):
        return sum(
            row["self_s"]
            for (n, p), row in rows.items()
            if n == name and (phase is None or p == phase)
        )

    def total_s(name, phase):
        return rows.get((name, phase), {"total_s": 0.0})["total_s"]

    def calls(name):
        return sum(row["calls"] for (n, _), row in rows.items() if n == name)

    def p95_ms(phase):
        values = recorder.durations("core.engine.train_batch", phase, fit_id)
        return float(np.percentile(values, 95)) * 1e3 if values else 0.0

    gp_apply_gp = self_s("nn.optim.gp_apply", "gp") + self_s("nn.optim.gp_apply_many", "gp")
    tree = {
        "data.batch_wait_s": self_s("data.batch_wait"),
        "core.schedule.phase_for_s": self_s("core.schedule.phase_for"),
        "core.engine.self_s": self_s("core.engine.train_batch")
        + self_s("core.engine.evaluate"),
        "core.engine.clear_caches_s": self_s("core.engine.clear_caches"),
        "core.engine.unattributed_s": self_s("core.engine.fit"),
        "core.strategies.bp.self_s": self_s("core.strategies", "bp"),
        "core.strategies.gp.self_s": self_s("core.strategies", "gp"),
        "core.predictor.train_s": self_s("core.predictor.train"),
        "core.predictor.predict_s": self_s("core.predictor.predict"),
        "nn.layers.bp.forward_s": self_s("nn.layers.forward", "bp"),
        "nn.layers.gp.forward_s": self_s("nn.layers.forward", "gp"),
        "nn.layers.eval.forward_s": self_s("nn.layers.forward", "eval"),
        "nn.layers.bp.backward_s": self_s("nn.layers.backward", "bp"),
        "nn.losses.s": self_s("nn.losses"),
        "nn.optim.step_s": self_s("nn.optim.step"),
        "nn.optim.zero_grad_s": self_s("nn.optim.zero_grad"),
        "nn.optim.gp_apply_s": self_s("nn.optim.gp_apply")
        + self_s("nn.optim.gp_apply_many"),
        "dist.transport.submit_s": self_s("dist.transport.submit"),
        "dist.transport.collect_wait_s": self_s("dist.transport.collect_wait"),
        "dist.strategy.self_s": self_s("dist.strategy"),
    }
    wall = record["wall_s"]
    gp_wall = total_s("core.engine.train_batch", "gp")
    total_batches = sum(record["bp_batches"]) + sum(record["gp_batches"])
    comm = record["comm"] or {}
    wire = comm.get("grad_wire_bytes", 0)
    out = dict(tree)
    out.update(record["counters"])
    out.update({name: record["ops"][name] for name in op_metric_names()})
    out.update(
        {
            "tree_sum_s": sum(tree.values()),
            "core.engine.bp.train_batch_s": total_s("core.engine.train_batch", "bp"),
            "core.engine.gp.train_batch_s": gp_wall,
            "core.engine.evaluate_s": total_s("core.engine.evaluate", "eval"),
            "core.engine.unattributed_share": tree["core.engine.unattributed_s"] / wall,
            "core.engine.fit_cpu_s": record["cpu_s"],
            "core.engine.bp_step_ms_p95": p95_ms("bp"),
            "core.engine.gp_step_ms_p95": p95_ms("gp"),
            "core.predictor.train_calls": calls("core.predictor.train"),
            "core.predictor.predict_calls": calls("core.predictor.predict"),
            "core.predictor.gp_alpha_share": (
                (self_s("core.predictor.predict", "gp") + gp_apply_gp) / gp_wall
                if gp_wall
                else 0.0
            ),
            "core.predictor.mape_last_epoch": record["mape_last_epoch"],
            "core.schedule.gp_share": sum(record["gp_batches"]) / total_batches,
            "core.schedule.bp_batches": sum(record["bp_batches"]),
            "core.schedule.gp_batches": sum(record["gp_batches"]),
            "core.schedule.final_train_loss": record["train_loss"][-1],
            "core.schedule.best_val_metric": max(record["val_metric"]),
            "models.build_s": record["build_s"],
            "nn.optim.gp_apply_calls": calls("nn.optim.gp_apply"),
            "nn.backend.op_calls": record["op_calls"],
            "nn.backend.non_op_share": 1.0 - record["op_seconds"] / wall,
            "dist.transport.calls": calls("dist.transport.submit"),
            "dist.codec.grad_wire_bytes": wire,
            "dist.codec.grad_dense_bytes": comm.get("grad_dense_bytes", 0),
            "dist.codec.compression_ratio": (
                comm["grad_dense_bytes"] / wire if wire else 0.0
            ),
            "dist.strategy.sync_bytes": comm.get("sync_bytes", 0),
            "dist.strategy.faults": comm.get("faults", 0),
            "dist.strategy.retries": comm.get("retries", 0),
            "dist.strategy.rebuilds": comm.get("rebuilds", 0),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    host = HostSpeed()
    host.sample()
    started = time.perf_counter()
    task = workload.make_task(args.seed)
    data_build_s = time.perf_counter() - started
    host.sample()
    warm_up(workload, task, args.seed)
    setup_s = time.monotonic() - args.spawned_at - host.spent_s
    index = host.sample()

    deadline = time.perf_counter() + args.seconds
    rounds: list[dict] = []
    result = {
        "setup_s": setup_s / index,
        "data_build_s": data_build_s / index,
        "host_index": host.samples,
        "train_per_epoch": task.train_per_epoch,
        "val_per_epoch": task.val_per_epoch,
        "rounds": rounds,
    }
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.fit = "baseline"
        result["traced_baseline"] = run_fit(
            workload, task, "baseline", args.seed, index, recorder
        )
    last_round_s = 0.0
    while time.perf_counter() + last_round_s < deadline:
        round_start = time.perf_counter()
        # One index per round, so both arms of a pair are scaled alike.
        index = host.sample()
        # Alternate which arm goes first so drift inside a pair cancels.
        order = ("baseline", "subject") if len(rounds) % 2 == 0 else ("subject", "baseline")
        fits = {arm: run_fit(workload, task, arm, args.seed, index) for arm in order}
        if recorder is not None:
            recorder.fit = f"subject-{len(rounds)}"
            traced = run_fit(workload, task, "subject", args.seed, index, recorder)
            traced["layers"] = layer_rows(recorder, recorder.fit, traced)
            fits["traced"] = traced
        rounds.append(fits)
        last_round_s = time.perf_counter() - round_start

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.processes > 1:
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0  # Linux reports KiB
    if recorder is not None and args.trace_out:
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        recorder.dump_jsonl(args.trace_out)
        result["spans"] = len(recorder.spans)
    json.dump(result, sys.stdout, allow_nan=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
