"""ovensched benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the package is imported from the ``src`` directory of
the checkout that holds this file. With --trace 0 the run repeats passes
over the workload's instances for about S seconds (at least one full cycle)
and reports the end-to-end metrics. With --trace 1 it alternates untraced
and traced cycles (at least one of each, more while they fit in S seconds)
and reports the per-layer metrics per traced cycle, including the tracing
overhead. ``--workload all`` runs every workload both ways, each in its own
process. Report lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("gap_pct", "%"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("schedule.schedule_machine_s", "s"),
    ("schedule.schedule_machine_calls", "count"),
    ("schedule.schedule_machine_infeasible_ratio", "ratio"),
    ("schedule.machine_cost_s", "s"),
    ("anneal.run_annealing_s", "s"),
    ("anneal.sample_move_s", "s"),
    ("anneal.moves", "count"),
    ("anneal.moves_swap", "count"),
    ("anneal.moves_reinsert", "count"),
    ("anneal.moves_job", "count"),
    ("anneal.moves_new_batch", "count"),
    ("anneal.apply_move_s", "s"),
    ("anneal.apply_move_reject_ratio", "ratio"),
    ("anneal.default_levels", "count"),
    ("greedy.construct_s", "s"),
    ("schedule.check_feasibility_s", "s"),
    ("schedule.evaluate_s", "s"),
    ("fileio.parse_instance_s", "s"),
    ("fileio.write_solution_s", "s"),
    ("fileio.parse_solution_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.dispatch_bounds_s", "s"),
    ("cli.dispatch_greedy_s", "s"),
    ("cli.dispatch_evaluate_s", "s"),
    ("bounds.objective_lb_s", "s"),
    ("bounds.gac_plus_s", "s"),
    ("bounds.batch_lb_eligibility_s", "s"),
    ("bounds.proc_lb_eligibility_s", "s"),
    ("bounds.tardy_lb_s", "s"),
    ("bounds.classify_large_small_calls", "count"),
    ("bounds.classify_large_small_per_attribute", "count"),
    ("oracle.exact_solve_s", "s"),
    ("oracle.nodes", "count"),
    ("oracle.nodes_per_s", "1/s"),
    ("trace_overhead_pct", "%"),
)

WORKLOAD_NAMES = ("anneal-500", "tiny-exact", "cli-certify")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float | None, tracer=None, after_pass=None) -> list:
    """Passes over the workload's items: one full cycle, then more while
    the next pass, taking as long as its item's last one, ends within
    `seconds` (None: exactly one cycle). A pass that raises counts as one
    failed operation. after_pass(elapsed) runs after every pass."""
    results = []
    started = perf_counter()
    count = len(workload.items)
    last = [0.0] * count
    index = 0
    while True:
        item = index % count
        if index >= count:
            elapsed = perf_counter() - started
            if seconds is None or elapsed + last[item] > seconds:
                break
        began = perf_counter()
        try:
            results.append(workload.run_pass(item, tracer))
        except Exception as exc:  # keep measuring; the failure is counted
            workload.ctx.outcomes.check(f"pass {index}", lambda e=exc: f"{type(e).__name__}: {e}")
        last[item] = perf_counter() - began
        index += 1
        if after_pass is not None:
            after_pass(perf_counter() - started)
    return results


def timed_setup(workload):
    """Import in a fresh interpreter, then generate and write the instances;
    the set-up's Timed."""
    from common import PROBES_AROUND

    speed = workload.ctx.speed
    slices = speed.sample(PROBES_AROUND)
    started = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import ovensched.cli"],
        cwd=workload.ctx.root, env=workload.ctx.env(), check=True, timeout=60,
    )
    workload.setup()
    seconds = perf_counter() - started
    return speed.normalize(seconds, slices + speed.sample(PROBES_AROUND))


def measure_with_setups(workload, seconds: float) -> tuple[list, list]:
    """measure(), with SETUP_REPEATS set-ups spread evenly over the run
    (the first before any pass); setup_s is the median normalized one."""
    setup_times = [timed_setup(workload)]
    due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

    def after_pass(elapsed):
        while due and elapsed >= due[0]:
            due.pop(0)
            setup_times.append(timed_setup(workload))

    results = measure(workload, seconds, after_pass=after_pass)
    setup_times += [timed_setup(workload) for _ in due]
    return results, setup_times


def per_item(results, value) -> dict[int, float]:
    """The median over each item's passes of value(pass)."""
    values = {}
    for r in results:
        values.setdefault(r.item, []).append(value(r))
    return {item: statistics.median(v) for item, v in values.items()}


def end_to_end_metrics(workload, results, setup_times) -> dict[str, float]:
    """Times are normalized (see common.Speed). On a 2-vCPU Intel Xeon VM
    (2.1 GHz, shared host) one fixed SA run took a median 0.11 s to 0.21 s
    from one 5 s stretch to the next (coefficient of variation 21%), while
    its ratio to the reference slice varied by 3%."""
    from common import peak_rss_mb
    from workloads import gap_mean

    passes = per_item(results, lambda r: r.normalized)
    first = {}
    for r in results:
        first.setdefault(r.item, r)
    if workload.name == "cli-certify":
        ops = sum(len(first[i].commands) for i in passes) / math.fsum(passes.values())
        rss = peak_rss_mb(children=True)
    else:
        sa = per_item(results, lambda r: r.sa_normalized)
        ops = sum(first[i].sa_moves for i in sa) / math.fsum(sa.values())
        rss = peak_rss_mb()
    return {
        "setup_s": statistics.median(t.normalized for t in setup_times),
        "wall_s": statistics.median(passes.values()),
        "ops_per_s": ops,
        "gap_pct": gap_mean(results[: len(workload.items)]),
        "peak_rss_mb": rss,
    }


def report_lines(workload, results, metrics, units) -> list[str]:
    """Human-readable lines: every metric with its unit, and timing summaries."""
    from common import high_percentile, percentile_label, timing_text

    speed = workload.ctx.speed.samples
    lines = [f"workload {workload.name} seed {workload.ctx.seed} passes {len(results)}"]
    lines += [f"metric {name} {metrics[name]:.6g} {unit}" for name, unit in units]
    lines.append(f"timing pass_s {timing_text([r.wall for r in results])}")
    lines.append(f"timing pass_normalized_s {timing_text([r.normalized for r in results])}")
    lines.append(f"timing reference_slice_s {timing_text(speed, 1e6, 'us')}")
    outcomes = workload.ctx.outcomes
    extra = [("fail_ratio", outcomes.fail_ratio, "ratio")]
    sa_runs = [run for r in results for run in r.sa_runs]
    if any(r.sa_seconds for r in results):
        moves = sum(r.sa_moves for r in results)
        seconds = math.fsum(r.sa_seconds for r in results)
        extra.append(("sa_moves_per_s", moves / seconds, "1/s"))
    if workload.name == "anneal-500":
        extra.append(("sa_gap_pct", results[0].gaps[0], "%"))
    if workload.name == "tiny-exact":
        to_opt = [t if hit else math.inf for t, hit, _ in sa_runs]
        extra.append(("time_to_opt_p50_s", statistics.median(to_opt), "s"))
        high = high_percentile(to_opt)
        if high is not None:
            extra.append((f"time_to_opt_{percentile_label(high[0])}_s", high[1], "s"))
        hits = [hit for _, hit, _ in sa_runs]
        extra.append(("opt_hit_pct", 100.0 * sum(hits) / len(hits), "%"))
        lines.append(f"timing time_to_opt_s {timing_text(to_opt)}")
    if workload.name == "cli-certify":
        walls = [c[1] for r in results for c in r.commands]
        extra.append(("cli_cmd_p50_s", statistics.median(walls), "s"))
        high = high_percentile(walls)
        if high is not None:
            extra.append((f"cli_cmd_{percentile_label(high[0])}_s", high[1], "s"))
        lines.append(f"timing cli_cmd_s {timing_text(walls)}")
        for sub in ("bounds", "greedy", "evaluate"):
            sub_walls = [c[1] for r in results for c in r.commands if c[0] == sub]
            lines.append(f"timing cli_{sub}_s {timing_text(sub_walls)}")
    lines += [f"metric {name} {value:.6g} {unit}" for name, value, unit in extra]
    lines += [f"failure {line}" for line in outcomes.failures[:20]]
    lines += [f"mismatch {line}" for line in workload.ctx.mismatches[:20]]
    return lines


def per_layer_metrics(workload, base, traced, tracer, cycles, extras) -> dict[str, float]:
    """Per-layer figures per traced cycle (totals over `cycles` traced cycles)."""

    def ratio(layer, label):
        counts = tracer.outcomes.get(layer, {})
        total = sum(counts.values())
        return counts.get(label, 0) / total if total else 0.0

    totals = {}
    for name, _ in PER_LAYER:
        if name.endswith("_s") and name[:-2] in tracer.durations:
            totals[name] = tracer.total(name[:-2])
    kinds = tracer.outcomes.get("anneal.sample_move", {})
    classify_calls = tracer.calls("bounds.classify_large_small")
    attributes = tracer.calls("bounds.objective_lb") * workload.attributes
    commands = [c for r in traced for c in r.commands]
    nodes = sum(r.oracle_nodes for r in traced)
    oracle_s = tracer.total("oracle.exact_solve")
    totals.update(
        {
            "schedule.schedule_machine_calls": tracer.calls("schedule.schedule_machine"),
            "anneal.moves": tracer.calls("anneal.sample_move"),
            "anneal.moves_swap": kinds.get("swap", 0),
            "anneal.moves_reinsert": kinds.get("reinsert", 0),
            "anneal.moves_job": kinds.get("job", 0),
            "anneal.moves_new_batch": kinds.get("new_batch", 0),
            "cli.startup_s": math.fsum(wall - dispatch for _, wall, dispatch in commands),
            "bounds.classify_large_small_calls": classify_calls,
            "oracle.nodes": nodes,
        }
    )
    for sub in ("bounds", "greedy", "evaluate"):
        totals[f"cli.dispatch_{sub}_s"] = math.fsum(d for s, _, d in commands if s == sub)
    metrics = {name: value / cycles for name, value in totals.items()}
    base_wall = math.fsum(r.wall for r in base)
    metrics.update(
        {
            "schedule.schedule_machine_infeasible_ratio": ratio("schedule.schedule_machine", "raised"),
            "anneal.apply_move_reject_ratio": ratio("anneal.apply_move", "reject"),
            "anneal.default_levels": extras.get("anneal.default_levels", 0),
            "bounds.classify_large_small_per_attribute": (
                classify_calls / attributes if attributes else 0.0
            ),
            "oracle.nodes_per_s": nodes / oracle_s if oracle_s else 0.0,
            "trace_overhead_pct": 100.0 * (math.fsum(r.wall for r in traced) - base_wall) / base_wall,
        }
    )
    return metrics


def layer_lines(tracer) -> list[str]:
    from common import LAYERS, timing_text

    lines = []
    for layer in LAYERS:
        if layer not in tracer.present:
            lines.append(f"layer {layer} absent")
            continue
        durations = tracer.durations[layer]
        outcomes = dict(tracer.outcomes[layer])
        lines.append(
            f"layer {layer} total={tracer.total(layer):.6g}s per-call "
            f"{timing_text(durations, 1e6, 'us')}" + (f" outcomes={outcomes}" if outcomes else "")
        )
    return lines


def run_workload(workload_class, seed: int, seconds: float, trace: int, tamper=None):
    """Measure one workload; returns (report lines, result summary)."""
    from common import Tracer
    from workloads import Context

    name = workload_class.name
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx = Context(root=ROOT, workdir=workdir, seed=seed, tamper=tamper)
        workload = workload_class(ctx)
        if not trace:
            results, setup_times = measure_with_setups(workload, seconds)
            if not results:
                raise SystemExit("error: every pass failed: " + "; ".join(ctx.outcomes.failures[:5]))
            metrics = end_to_end_metrics(workload, results, setup_times)
            lines = report_lines(workload, results, metrics, END_TO_END)
            units = dict(END_TO_END)
        else:
            ctx.speed.in_runs = False
            timed_setup(workload)
            base, traced, cycles = [], [], 0
            tracer = Tracer()
            started = perf_counter()
            # untraced and traced cycles alternate; the last pair must fit
            while not cycles or (perf_counter() - started) * (cycles + 1) / cycles <= seconds:
                base += measure(workload, None)
                with tracer:
                    traced += measure(workload, None, tracer)
                cycles += 1
            extras = workload.trace_extras()
            metrics = per_layer_metrics(workload, base, traced, tracer, cycles, extras)
            lines = report_lines(workload, base, metrics, PER_LAYER) + layer_lines(tracer)
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    outcomes = ctx.outcomes
    summary = {
        "correct": outcomes.failed == 0 and not ctx.mismatches,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return lines, summary


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode}")
            summary = json.loads(lines[-1])
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for metric, value in summary["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ovensched" / "__init__.py").is_file():
        print(f"error: no ovensched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ovensched

    if Path(ovensched.__file__).resolve().parent != SRC / "ovensched":
        print(f"error: imported ovensched from {ovensched.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = run_all(args.seed, args.seconds)
    else:
        from workloads import WORKLOADS

        lines, summary = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
