"""Self-test of the benchmark at toy sizes.

Usage: python3 perfbench/selftest.py

Runs every workload shrunk to toy instances and budgets, untraced and
traced, and checks that every named metric is printed with its unit, that
the seed code passes every output check, and that a tampered solution (one
job moved onto a machine it is not eligible for) is counted as a failed
operation instead of passing or crashing. Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

if not (run.SRC / "ovensched" / "__init__.py").is_file():
    sys.exit(f"error: no ovensched package under {run.SRC}")
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from ovensched.fileio import GeneratorConfig  # noqa: E402
from ovensched.model import Batch, Solution  # noqa: E402


class ToyAnneal(workloads.Anneal500):
    instance_config = GeneratorConfig(n_jobs=30, n_machines=3, n_attributes=3, seed=3)
    attributes = 3
    params_base = replace(workloads.Anneal500.params_base, moves_per_level=100, warmup_moves=100)


class ToyTiny(workloads.TinyExact):
    count = 3
    sa_runs = 2


class ToyCli(workloads.CliCertify):
    sizes = (20, 40)
    per_size = 1


TOYS = (ToyAnneal, ToyTiny, ToyCli)


def move_to_ineligible(instance, solution: Solution) -> Solution:
    """Move one job into a new batch on a machine it is not eligible for."""
    for target, machine in enumerate(instance.machines):
        job = next((j for j in instance.jobs if machine.id not in j.eligible), None)
        if job is None:
            continue
        rows = [list(row) for row in solution.batches]
        for row in rows:
            for position, batch in enumerate(row):
                if job.id in batch.jobs:
                    rest = batch.jobs - {job.id}
                    if rest:
                        row[position] = Batch(rest, batch.start, batch.processing_time)
                    else:
                        del row[position]
                    break
        end = max((b.end for b in rows[target]), default=0)
        rows[target].append(Batch(frozenset({job.id}), end, job.min_time))
        return Solution(tuple(tuple(row) for row in rows))
    raise ValueError("every job is eligible on every machine")


def main() -> int:
    problems = []
    for toy in TOYS:
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            lines, summary = run.run_workload(toy, seed=1, seconds=0.1, trace=trace)
            json.dumps(summary)
            printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
            for name, unit in declared:
                if printed.get(name) != unit:
                    problems.append(f"{toy.name} trace {trace}: {name} not printed with unit {unit}")
                if summary["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{toy.name} trace {trace}: {name} missing from the JSON line")
            if printed.get("fail_ratio") != "ratio":
                problems.append(f"{toy.name} trace {trace}: fail_ratio not printed")
            if not summary["correct"] or summary["failed"]:
                problems.append(f"{toy.name} trace {trace}: seed code failed checks: {lines[-5:]}")
        _, summary = run.run_workload(toy, seed=1, seconds=0.1, trace=0, tamper=move_to_ineligible)
        if not summary["failed"] or summary["correct"]:
            problems.append(f"{toy.name}: a tampered solution was not counted as failed")
        print(f"{toy.name}: tampered run failed {summary['failed']}/{summary['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
