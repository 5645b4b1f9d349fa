"""End-to-end benchmark of the OpenBI loop, split by layer.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload openbi_loop --seed 1 --seconds 20 --trace 0

Workloads: ``openbi_loop``, ``dq4dm_campaign`` and ``serve_feed`` (see
README.md).  Each invocation runs one workload in its own process: it builds
the seeded inputs, sets up ``SETUP_REPEATS`` times (the last set-up is kept),
then repeats whole rounds until ``--seconds`` have passed, checking every
round's outputs.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
traces every other round and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    CheckFailed, Meter, emit, emit_result, environment_stamp, median, peak_rss_mb, tail,
)

WORKLOADS = ("openbi_loop", "dq4dm_campaign", "serve_feed")

#: Set-ups per run; ``setup_s`` is their median plus one warm-up round.
SETUP_REPEATS = 3

#: Per-layer metrics and their units, reported by every workload under
#: ``--trace 1`` (0 where the workload never calls that layer).
PER_LAYER = {
    "tabular.write_csv_ms": "ms",
    "tabular.read_csv_ms": "ms",
    "recovery.salvage_csv_ms": "ms",
    "quality.profile_ms": "ms",
    "core.advise_ms": "ms",
    "mining.fit_score_ms": "ms",
    "bi.cube_kpi_ms": "ms",
    "lod.publish_ms": "ms",
    "lod.tabulate_ms": "ms",
    "store.save_dataset_ms": "ms",
    "store.save_graph_ms": "ms",
    "store.open_ms": "ms",
    "store.profile_reopened_ms": "ms",
    "store.snapshot_mb": "MB",
    "core.experiment_ms": "ms",
    "core.inject_ms": "ms",
    "mining.cv_ms": "ms",
    "feeds.fetch_ms": "ms",
    "feeds.append_ms": "ms",
    "store.save_ms": "ms",
    "serve.reload_ms": "ms",
    "serve.first_answer_ms": "ms",
    "serve.profile_cold_ms": "ms",
    "serve.advise_cold_ms": "ms",
    "serve.cube_cold_ms": "ms",
    "serve.pivot_cold_ms": "ms",
    "serve.kpi_cold_ms": "ms",
    "serve.lod_select_cold_ms": "ms",
    "serve.lod_ask_cold_ms": "ms",
    "serve.hot_query_ms": "ms",
    "serve.freshness_ms": "ms",
    "serve.cold_query_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.server_rss_mb": "MB",
    "python.gc_gen2": "count",
}


def run(args: argparse.Namespace) -> int:
    # Each workload is the module of that name beside this file.
    workload_cls = importlib.import_module(args.workload).Workload
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    meter = Meter()
    workload = None
    correct = True
    try:
        started = time.perf_counter()
        workload = workload_cls(args.seed, workdir, meter)
        inputs_s = time.perf_counter() - started
        # Set up several times and keep the last, then run one warm-up
        # round, whose outputs are checked in full.
        builds = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            meter.begin_setup()
            workload.setup()
            builds.append(meter.end_setup())
        meter.begin_setup()
        workload.round(-1, full_checks=True)
        warm_up = meter.end_setup()
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            meter.begin_round(index, traced=bool(args.trace) and index % 2 == 0)
            workload.round(index, full_checks=index == 0)
            meter.end_round()
            index += 1
    except CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr, flush=True)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        emit_result(False, meter, {})
        return 1

    summary = workload.summary()
    stamp = environment_stamp(ROOT, meter)
    emit(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
         f"{len(meter.rounds)} rounds, {meter.attempted} operations attempted, "
         f"{meter.failed} failed")
    emit("environment " + json.dumps(stamp))
    setup_s = median(builds) + warm_up
    emit(f"inputs built in {inputs_s:.3f} s raw; at reference speed, set-ups "
         + ", ".join(f"{s:.3f}" for s in builds) + f" s, warm-up round {warm_up:.3f} s")
    rounds = meter.untraced()
    emit(f"{workload.round_name} (round_s) at reference speed: "
         f"{tail([r['ref_s'] for r in rounds])} s; raw: "
         f"{tail([sum(raw for _, raw, _ in r['ops']) for r in rounds])} s")
    for line in summary.get("lines", []):
        emit(line)
    if args.trace:
        metrics = trace_report(args, meter, summary, out_dir)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (median([r["ref_s"] for r in rounds]), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        emit(f"  {name} = {value:.6g} {unit}")
    emit_result(True, meter, metrics)
    return 0


def trace_report(args, meter: Meter, summary: dict, out_dir: Path) -> dict:
    """Per-layer self times from the traced rounds, and the tracing overhead."""
    traced = meter.traced()
    untraced = meter.untraced()
    names = sorted({name for rnd in traced for name in rnd["self_s"]})
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = (0.0, unit)
    for name in names:
        key = f"{name}_ms"
        if key in PER_LAYER:
            metrics[key] = (1000.0 * median([rnd["self_s"].get(name, 0.0) for rnd in traced]), "ms")
    for name, value in summary.get("per_layer", {}).items():
        metrics[name] = (value, PER_LAYER[name])
    metrics["python.gc_gen2"] = (median([rnd["gc_gen2"] for rnd in traced]), "count")
    traced_ref = median([rnd["ref_s"] for rnd in traced])
    emit(f"traced rounds {len(traced)}, untraced rounds {len(untraced)}")
    if untraced:
        untraced_ref = median([rnd["ref_s"] for rnd in untraced])
        emit(f"tracing overhead: traced round {traced_ref:.4f} s vs untraced "
             f"{untraced_ref:.4f} s ({100.0 * (traced_ref / untraced_ref - 1.0):+.2f}%)")
    for name in names:
        share = median([rnd["self_s"].get(name, 0.0) / rnd["ref_s"] for rnd in traced])
        emit(f"  self time {name}: {1000.0 * median([r['self_s'].get(name, 0.0) for r in traced]):.3f}"
             f" ms ({100.0 * share:.1f}% of the round)")
    op_share = median([sum(raw for _, raw, _ in r["ops"]) / (r["wall_s"] - r["kernel_s"])
                       for r in traced])
    emit(f"timed calls cover {100.0 * op_share:.1f}% of the traced rounds' wall time net of "
         "calibration (the rest is checks, input preparation and benchmark glue)")
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "spans": meter.spans}))
    emit(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_N_JOBS", None)
    # One core for this process and the server it starts: the calibration
    # kernel then runs where the measured calls run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
