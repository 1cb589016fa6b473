"""The repo's one end-to-end benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N [--sets K] [--out FILE]     # every workload, both modes
    python3 bench/run.py --compare A.json B.json

A workload run is a closed loop with one client, the fit loop: fresh
subprocesses (one BLAS/OpenMP thread each) set up, then fit alternating
(baseline, subject) pairs until ``--seconds`` is used up.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` (tracing off),
``--trace 1`` the per-layer ones.  Every metric is printed by name with
its unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
makes ``failed`` > 0 and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set before numpy is first imported and inherited by every subprocess
#: (ddp ranks included): un-pinned BLAS threads on a 2-core host move a
#: fit by 20-30 % run to run (README.md, "One thread per process").
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Spec:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""

    def __init__(self) -> None:
        raw = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.run_seconds = raw["run_seconds"]
        self.workloads = [w["name"] for w in raw["workloads"]]
        self.end_to_end = {m["name"]: m for m in raw["end_to_end"]}
        self.per_layer = {m["name"]: m for m in raw["per_layer"]}

#: Worker processes per untraced run.  Each one sets up from scratch, so
#: ``setup_s`` is a median of this many samples; the first also gets the
#: whole of ``--seconds`` to fit pairs in, the others stop after set-up.
SETUPS_PER_RUN = 3
TRACE_DIR = ROOT / ".bench_out"


# ----------------------------------------------------------------------
# Pre-flight.
# ----------------------------------------------------------------------
def preflight() -> dict:
    """Host facts for the record, and the native build done before any
    ``setup_s`` clock starts (cold vs warm reported)."""
    import numpy as np
    from repro.nn.backend import native_build

    blas = np.__config__.show(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    compiler = native_build.find_compiler()
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "compiler": compiler,
        "thread_pins": THREAD_PINS,
        "loadavg": list(os.getloadavg()),
        "native_build": "unavailable",
        "native_build_s": 0.0,
    }
    if compiler is not None:
        cached = any(native_build.BUILD_DIR.glob("kernels-*.so"))
        started = time.perf_counter()
        try:
            native_build.build()
        except native_build.NativeBuildError as err:
            meta["native_build"] = f"failed: {err}"
        else:
            meta["native_build"] = "warm" if cached else "cold"
        meta["native_build_s"] = time.perf_counter() - started
    return meta


# ----------------------------------------------------------------------
# Running workers.
# ----------------------------------------------------------------------
def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.monotonic()),
    ]
    if trace:
        command += ["--trace-out", str(TRACE_DIR / f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness checks; every check is one operation.
# ----------------------------------------------------------------------
class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def check_fit(tally: Tally, workload, fit: dict, arm: str, per_epoch: int, label: str) -> None:
    """Batches and evaluates count as operations (failed when the loss
    is not finite); then the per-fit checks."""
    for _phase, _seconds, loss, _at in fit["steps"]:
        tally.op(math.isfinite(loss), f"{label}: batch loss {loss}")
    for loss in fit["val_loss"]:
        tally.op(math.isfinite(loss), f"{label}: evaluate loss {loss}")
    counts = (fit["bp_batches"], fit["gp_batches"])
    expected = workload.expected_counts(arm, per_epoch)
    tally.op(counts == expected, f"{label}: phase counts {counts} != schedule's {expected}")
    tally.op(
        fit["train_loss"][-1] < fit["train_loss"][0],
        f"{label}: training loss did not fall: {fit['train_loss']}",
    )
    if arm == "subject":
        low, high = workload.band
        tally.op(
            low <= fit["train_loss"][-1] <= high,
            f"{label}: final loss {fit['train_loss'][-1]} outside [{low}, {high}]",
        )
        if fit["comm"] is not None:
            faults = [fit["comm"][k] for k in ("faults", "retries", "rebuilds")]
            tally.op(not any(faults), f"{label}: faults/retries/rebuilds {faults}")


def check_identical(tally: Tally, fits: list[dict], label: str) -> None:
    """Same seed, same program: every fit of an arm must give bitwise
    the same loss history (and, on ddp, the same byte counts)."""
    tally.op(
        all(fit["train_loss"] == fits[0]["train_loss"] for fit in fits),
        f"{label}: train_loss differs between fits of the same seed",
    )
    if fits[0]["comm"]:
        sent = {(fit["comm"]["grad_wire_bytes"], fit["comm"]["sync_bytes"]) for fit in fits}
        tally.op(len(sent) == 1, f"{label}: wire/sync bytes differ between fits: {sorted(sent)}")


def loss_target(fits: dict, window: int) -> float:
    """The loss both arms of this seed must cross: the larger of the two
    arms' ``window``-batch running-mean training loss at 80 % of the run,
    rounded up to two significant digits (so a rounding-level numerics
    change keeps the target).  Taken from the run's own fits because the
    driver picks the seeds: no constant is crossed by every seed with
    room to spare and still means something on each."""

    def at_80_percent(fit: dict) -> float:
        losses = [loss for _, _, loss, _ in fit["steps"]]
        index = max(window, int(0.8 * len(losses)))
        return statistics.fmean(losses[index - window : index])

    worst = max(at_80_percent(fits[arm]) for arm in ("subject", "baseline"))
    if not (math.isfinite(worst) and worst > 0.0):
        return worst  # already a failed operation of check_fit
    scale = 10.0 ** (1 - math.floor(math.log10(worst)))
    return math.ceil(worst * scale) / scale


def time_to_target(fit: dict, target: float, window: int) -> float | None:
    """Wall since fit start (train + eval so far) at the first batch
    whose ``window``-batch running-mean training loss is <= target."""
    losses = [loss for _, _, loss, _ in fit["steps"]]
    for index in range(window - 1, len(losses)):
        if statistics.fmean(losses[index - window + 1 : index + 1]) <= target:
            return fit["steps"][index][3]
    return None


# ----------------------------------------------------------------------
# One workload run.
# ----------------------------------------------------------------------
def check_pairs(tally: Tally, workload, result: dict) -> list[dict]:
    """Run every per-fit and cross-fit check on a worker's rounds."""
    rounds = result["rounds"]
    if not rounds:
        raise SystemExit(f"{workload.name}: --seconds too short for a single pair")
    per_epoch = result["train_per_epoch"]
    for index, fits in enumerate(rounds):
        for kind, fit in fits.items():
            arm = "baseline" if kind == "baseline" else "subject"
            check_fit(tally, workload, fit, arm, per_epoch, f"{kind} fit {index}")
    check_identical(
        tally, [fit for fits in rounds for k, fit in fits.items() if k != "baseline"], "subject"
    )
    check_identical(tally, [fits["baseline"] for fits in rounds], "baseline")
    return rounds


def run_end_to_end(workload, seed: int, seconds: float, tally: Tally, meta: dict) -> tuple[dict, dict]:
    measured = run_worker(workload.name, seed, seconds, 0)
    setups = [measured] + [
        run_worker(workload.name, seed, 0.0, 0) for _ in range(SETUPS_PER_RUN - 1)
    ]
    pairs = check_pairs(tally, workload, measured)
    subjects = [pair["subject"] for pair in pairs]

    def step_ms(phase):
        return [s * 1e3 for fit in subjects for p, s, _, _ in fit["steps"] if p == phase]

    bp_ms, gp_ms = step_ms("bp"), step_ms("gp")
    eval_ms = [
        s * 1e3 / measured["val_per_epoch"] for fit in subjects for s in fit["evals"]
    ]
    median = statistics.median
    metrics = {
        "setup_s": median(r["setup_s"] for r in setups),
        "fit_wall_s": median(f["wall_s"] for f in subjects),
        "baseline_fit_wall_s": median(p["baseline"]["wall_s"] for p in pairs),
        "speedup_vs_baseline": median(
            p["baseline"]["wall_s"] / p["subject"]["wall_s"] for p in pairs
        ),
        "bp_step_ms_p50": median(bp_ms),
        "gp_step_ms_p50": median(gp_ms),
        "eval_batch_ms_p50": median(eval_ms),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    samples = {
        "host_index": median(measured["host_index"]),
        "setups": len(setups),
        "pairs": len(pairs),
        "bp_steps": len(bp_ms),
        "gp_steps": len(gp_ms),
        "evaluates": len(eval_ms),
    }
    return metrics, samples


def run_traced(workload, seed: int, seconds: float, tally: Tally, meta: dict) -> tuple[dict, dict]:
    from bench.workloads import RUNNING_MEAN_BATCHES

    result = run_worker(workload.name, seed, seconds, 1)
    baseline = result["traced_baseline"]
    check_fit(
        tally, workload, baseline, "baseline", result["train_per_epoch"], "traced baseline fit"
    )
    rounds = check_pairs(tally, workload, result)
    traced = [fits["traced"] for fits in rounds]
    for index, fit in enumerate(traced):
        gap = abs(fit["layers"]["tree_sum_s"] - fit["wall_s"]) / fit["wall_s"]
        tally.op(gap <= 0.01, f"traced fit {index}: call-tree rows miss the fit wall by {gap:.2%}")

    # Time to the seed's loss target, from the untraced fits of each pair.
    target = loss_target(rounds[0], RUNNING_MEAN_BATCHES)
    reached = {"subject": [], "baseline": []}
    for index, fits in enumerate(rounds):
        for arm in reached:
            at = time_to_target(fits[arm], target, RUNNING_MEAN_BATCHES)
            tally.op(at is not None, f"{arm} fit {index}: target {target} not reached")
            if at is not None:
                reached[arm].append(at)

    median = statistics.median
    metrics = {
        name: median(fit["layers"][name] for fit in traced)
        for name in traced[0]["layers"]
        if name != "tree_sum_s"
    }
    to_target = {arm: median(at) if at else 0.0 for arm, at in reached.items()}
    metrics.update(
        {
            "data.build_s": result["data_build_s"],
            "models.build_s": baseline["build_s"],
            "core.schedule.baseline_final_train_loss": baseline["train_loss"][-1],
            "core.schedule.time_to_target_s": to_target["subject"],
            "core.schedule.time_to_target_speedup": (
                to_target["baseline"] / to_target["subject"] if to_target["subject"] else 0.0
            ),
            "nn.backend.native_build_s": meta["native_build_s"],
            "dist.worker.spawn_s": (
                max(0.0, median(f["build_s"] for f in traced) - baseline["build_s"])
                if workload.processes > 1
                else 0.0
            ),
            "obs.tracing_overhead_share": median(f["wall_s"] for f in traced)
            / median(fits["subject"]["wall_s"] for fits in rounds)
            - 1.0,
        }
    )
    samples = {
        "host_index": median(result["host_index"]),
        "traced_fits": len(traced),
        "spans": result["spans"],
        "loss_target": target,
    }
    return metrics, samples


def run_workload(spec: Spec, name: str, seed: int, seconds: float, trace: int, meta: dict) -> dict:
    """One ``--workload`` run; returns the contract's result object plus
    ``samples`` and ``failures`` for the human-readable report."""
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    declared = spec.per_layer if trace else spec.end_to_end
    tally = Tally()
    if workload.processes > meta["nproc"]:
        raise SystemExit(
            f"{name} runs {workload.processes} processes but this host has "
            f"{meta['nproc']} core(s); refusing to measure the scheduler"
        )
    if workload.needs_native and meta["native_build"] not in ("warm", "cold"):
        # No silent fallback to another backend: nothing can be attempted.
        return {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "samples": {}, "failures": [f"native backend {meta['native_build']}"],
        }
    runner = run_traced if trace else run_end_to_end
    values, samples = runner(workload, seed, seconds, tally, meta)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"BENCHMARK.json declares metrics the run did not produce: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": values[key], "unit": declared[key]["unit"]} for key in declared
        },
        "samples": samples,
        "failures": tally.failures,
    }


def report(name: str, trace: int, result: dict) -> None:
    print(f"# {name} ({'per-layer, traced' if trace else 'end-to-end, tracing off'})")
    print(f"# samples: {result['samples']}")
    for key, entry in result["metrics"].items():
        print(f"{key:46s} {entry['value']:>16.6f} {entry['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':46s} {share:>16.6f} ratio ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


# ----------------------------------------------------------------------
# Whole-benchmark records and their comparison.
# ----------------------------------------------------------------------
def run_set(spec: Spec, seed: int, seconds: float, meta: dict) -> dict:
    record = {}
    for name in spec.workloads:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(spec, name, seed, seconds, trace, meta)
            report(name, trace, result)
            entry[section] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{section}_samples"] = result["samples"]
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
        record[name] = entry
    return record


def median_of_sets(sets: list[dict]) -> dict:
    merged = {}
    for name in sets[0]:
        merged[name] = {
            section: {
                key: statistics.median(s[name][section][key] for s in sets)
                for key in sets[0][name][section]
            }
            for section in ("end_to_end", "per_layer")
        }
        merged[name]["attempted"] = sum(s[name]["attempted"] for s in sets)
        merged[name]["failed"] = sum(s[name]["failed"] for s in sets)
    return merged


def compare(spec: Spec, path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, how much worse B
    is than A, and a verdict against the bound in BENCHMARK.json.

    UNRESOLVED follows the choosing-metrics guide: when A's own sets
    spread wider than the bound the metric cannot be called unchanged,
    unless every set of B reads better than every set of A."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    worst = 0
    print(f"{'workload':22s} {'metric':24s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for name in spec.workloads:
        for key, metric in spec.end_to_end.items():
            sign = 1.0 if metric["better"] == "lower" else -1.0
            va, vb = (r["median"][name]["end_to_end"][key] for r in (a, b))
            worse = sign * (vb - va) / va
            runs_a, runs_b = (
                [s[name]["end_to_end"][key] for s in r["sets"]] for r in (a, b)
            )
            spread = (max(runs_a) - min(runs_a)) / va
            if worse <= metric["bound"]:
                verdict = "PASS"
            elif spread > metric["bound"] and not all(
                sign * (y - x) > 0 for x in runs_a for y in runs_b
            ):
                verdict = "UNRESOLVED"
            else:
                verdict = "REGRESSION"
                worst = 1
            print(
                f"{name:22s} {key:24s} {va:12.4f} {vb:12.4f} {worse:+9.1%} "
                f"{metric['bound']:6.2f}  {verdict}"
            )
        fa, fb = (
            r["median"][name]["failed"] / r["median"][name]["attempted"] for r in (a, b)
        )
        verdict = "PASS" if fb <= fa else "REGRESSION"
        worst |= fb > fa
        print(f"{name:22s} {'failed_share':24s} {fa:12.4f} {fb:12.4f} {'':>9s} {0:6.2f}  {verdict}")
    return worst


def main(argv=None) -> int:
    spec = Spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1,
                        help="without --workload: repeat the whole benchmark, record the medians")
    parser.add_argument("--out", help="without --workload: write the record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)

    os.environ.update(THREAD_PINS)
    args.seed = abs(args.seed)  # NumPy generators refuse a negative seed
    meta = preflight()
    print(f"# meta: {json.dumps(meta)}")
    if args.workload:
        result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace, meta)
        report(args.workload, args.trace, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    sets = [run_set(spec, args.seed, args.seconds, meta) for _ in range(args.sets)]
    record = {
        "meta": meta, "seed": args.seed, "seconds": args.seconds,
        "median": median_of_sets(sets), "sets": sets,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = sum(entry["failed"] for entry in record["median"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    # The script directory would shadow the stdlib ``trace`` module with
    # bench/trace.py; import the benchmark as the package ``bench`` instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    raise SystemExit(main())
