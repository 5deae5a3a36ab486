"""The benchmark's workloads: inputs made from the seed, timed passes, output checks.

A pass is one workload's steps on one instance. Only the program calls of a
pass are timed; the output checks run between them, untimed and untraced.
Every check failure is a failed operation. A pass on an item repeats the
outputs of the first pass on that item exactly, or the run is not correct.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

# Program calls go through module attributes (anneal.run_annealing, ...), so
# that a Tracer can time them; checks use the names imported here directly.
from ovensched import anneal, bounds, fileio, oracle
from ovensched.anneal import AnnealParams
from ovensched.fileio import (
    GeneratorConfig,
    generate_instance,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from ovensched.model import ObjectiveWeights
from ovensched.schedule import evaluate, relative_gap

from common import PROBES_AROUND, MoveClock, Outcomes, Speed, Timed, Tracer

HERE = Path(__file__).resolve().parent

EPS = 1e-12

# tiny-exact draws its instances from the generator ranges of the test
# suite's tiny_config, which keep the exact oracle fast.
TINY_RANGES = dict(
    n_machines=2,
    n_attributes=2,
    size_range=(4, 10),
    capacity_range=(8, 12),
    min_time_range=(5, 30),
    extra_time_range=(0, 25),
    release_range=(0, 40),
    due_slack_range=(0, 60),
    window_count_range=(1, 2),
    window_length_range=(30, 120),
    window_gap_range=(0, 15),
    setup_time_range=(0, 8),
    setup_cost_range=(0, 12),
    eligibility_density=0.7,
)


@dataclass
class Context:
    """What every workload needs: where to work, the seed, the check hooks."""

    root: Path
    workdir: Path
    seed: int
    outcomes: Outcomes = field(default_factory=Outcomes)
    speed: Speed = field(default_factory=Speed)
    mismatches: list[str] = field(default_factory=list)
    # replaces a solution before it is checked; only the self-test sets it
    tamper: Callable | None = None

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class PassResult:
    item: int
    fingerprint: object
    # timed program calls of the pass by name; SA calls are "sa", "sa0", ...
    times: dict[str, Timed] = field(default_factory=dict)
    sa_moves: int = 0
    sa_runs: list = field(default_factory=list)  # tiny-exact: (seconds, hit optimum, gap %)
    gaps: list = field(default_factory=list)
    commands: list = field(default_factory=list)  # (subcommand, wall seconds, dispatch seconds)
    oracle_nodes: int = 0

    @property
    def wall(self) -> float:
        return math.fsum(t.seconds for t in self.times.values())

    @property
    def normalized(self) -> float:
        return math.fsum(t.normalized for t in self.times.values())

    @property
    def sa_seconds(self) -> float:
        return math.fsum(t.seconds for name, t in self.times.items() if name.startswith("sa"))

    @property
    def sa_normalized(self) -> float:
        return math.fsum(t.normalized for name, t in self.times.items() if name.startswith("sa"))


def _same_cost(a, b) -> str | None:
    if (a.proc_time, a.tardy, a.setup_cost) != (b.proc_time, b.tardy, b.setup_cost):
        return f"cost {b} differs from reported {a}"
    if a.objective != b.objective:
        return f"objective {b.objective!r} differs from reported {a.objective!r}"
    return None


class Workload:
    name = ""
    attributes = 0  # attribute count of every instance of the workload

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.items: list = []
        self._first: dict[int, object] = {}

    def setup(self) -> None:
        """Generate the instances and write them to the work directory."""
        raise NotImplementedError

    def run_pass(self, index: int, tracer: Tracer | None) -> PassResult:
        raise NotImplementedError

    def record(self, result: PassResult) -> PassResult:
        """Compare the pass's deterministic outputs with the item's first pass."""
        first = self._first.setdefault(result.item, result.fingerprint)
        if first != result.fingerprint:
            self.ctx.mismatches.append(
                f"{self.name} item {result.item}: {result.fingerprint!r} != {first!r}"
            )
        return result

    def trace_extras(self) -> dict[str, float]:
        """Extra per-layer counts a workload measures after its traced cycle."""
        return {}

    def _write(self, name: str, text: str) -> Path:
        path = self.ctx.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def _check_sa(self, what, instance, weights, result, floor, optimum=None):
        """SA output checks: feasible at the reported cost, no better than the
        lower bound (and the optimum when known), not stopped by the clock."""

        def check():
            solution = result.solution
            if self.ctx.tamper is not None:
                solution = self.ctx.tamper(instance, solution)
            problem = _same_cost(result.cost, evaluate(instance, solution, weights, check=True))
            if problem:
                return problem
            if result.cost.objective < floor - EPS:
                return f"objective {result.cost.objective!r} below objective_lb {floor!r}"
            if optimum is not None and result.cost.objective < optimum - EPS:
                return f"objective {result.cost.objective!r} below the optimum {optimum!r}"
            if result.stop_reason == "time":
                return "stopped by the time limit"
            return None

        self.ctx.outcomes.check(what, check)


class Anneal500(Workload):
    """The instance of acceptance criterion 6, SA seed = workload seed, and a
    fixed move budget.

    The calibrated start temperature T0 of this instance lies between
    1.9e-4 and 2.6e-4 over SA seeds 0-9. With cooling_rate 0.2 and
    final_temp 4e-6 every T0 in (1e-4, 5e-4] runs exactly three cooling
    levels, so a pass makes 1000 + 3 * 1000 moves whatever the seed.
    time_limit is only a safety net.
    """

    name = "anneal-500"
    instance_config = GeneratorConfig(n_jobs=500, n_machines=5, n_attributes=5, seed=3)
    attributes = 5
    params_base = AnnealParams(
        final_temp=4e-6,
        cooling_rate=0.2,
        moves_per_level=1000,
        warmup_moves=1000,
        time_limit=120.0,
    )

    def setup(self) -> None:
        instance = generate_instance(self.instance_config)
        self.items = [self._write("anneal-500.osp", write_instance(instance))]

    def run_pass(self, index, tracer):
        outcomes = self.ctx.outcomes
        text = self.items[index].read_text(encoding="utf-8")
        speed = self.ctx.speed
        instance, t_parse, _ = speed.call(fileio.parse_instance, text)
        lb, t_lb, _ = speed.call(bounds.objective_lb, instance)
        outcomes.succeeded(2)
        params = replace(self.params_base, rng_seed=self.ctx.seed)
        result, t_sa, clock = speed.call(anneal.run_annealing, instance, params, lb=lb)
        moves = clock.moves
        weights = ObjectiveWeights.for_instance(instance)
        self._check_sa("run_annealing", instance, weights, result, lb.objective_lb)
        gap = relative_gap(result.cost.objective, lb.objective_lb)
        return self.record(
            PassResult(
                item=index,
                fingerprint=(repr(result.cost.objective), moves, result.stop_reason),
                times={"parse": t_parse, "lb": t_lb, "sa": t_sa},
                sa_moves=moves,
                gaps=[gap],
            )
        )

    def trace_extras(self) -> dict[str, float]:
        """Cooling levels that default AnnealParams run on this instance."""
        instance = fileio.parse_instance(self.items[0].read_text(encoding="utf-8"))
        params = AnnealParams(rng_seed=self.ctx.seed)
        with MoveClock() as counter:
            anneal.run_annealing(instance, params)
        per_level = params.moves_per_level or 50 * instance.n_jobs
        return {"anneal.default_levels": (counter.moves - params.warmup_moves) / per_level}


class TinyExact(Workload):
    """The acceptance criterion 7 protocol: instances n = 6..9 with generator
    seeds 30000+i; per instance objective_lb, the pruned oracle, and SA with
    default parameters from `sa_runs` seeds derived from the workload seed,
    each stopping once it reaches the oracle optimum."""

    name = "tiny-exact"
    attributes = TINY_RANGES["n_attributes"]
    count = 20
    sa_runs = 5
    sa_time_limit = 30.0

    def setup(self) -> None:
        self.items = []
        for i in range(self.count):
            config = GeneratorConfig(n_jobs=6 + i % 4, seed=30000 + i, **TINY_RANGES)
            text = write_instance(generate_instance(config))
            self.items.append(self._write(f"tiny-{i:02d}.osp", text))

    def run_pass(self, index, tracer):
        outcomes = self.ctx.outcomes
        text = self.items[index].read_text(encoding="utf-8")
        speed = self.ctx.speed
        instance, t_parse, _ = speed.call(fileio.parse_instance, text)
        lb, t_lb, _ = speed.call(bounds.objective_lb, instance)
        times = {"parse": t_parse, "lb": t_lb}
        outcomes.succeeded(2)
        weights = ObjectiveWeights.for_instance(instance)
        try:
            optimum, times["oracle"], _ = speed.call(oracle.exact_solve, instance)
        except (oracle.BudgetExceeded, oracle.Infeasible) as exc:
            outcomes.check("exact_solve", lambda: f"{type(exc).__name__}: {exc}")
            return self.record(PassResult(item=index, fingerprint=("oracle", str(exc)), times=times))

        def oracle_ok():
            return _same_cost(optimum.cost, evaluate(instance, optimum.solution, weights, check=True))

        outcomes.check("exact_solve", oracle_ok)
        best = optimum.cost.objective
        stop_at_optimum = replace(lb, objective_lb=best)
        result = PassResult(item=index, fingerprint=None, times=times, oracle_nodes=optimum.nodes)
        runs = []
        for r in range(self.sa_runs):
            params = AnnealParams(
                rng_seed=self.sa_runs * self.ctx.seed + r,
                time_limit=self.sa_time_limit,
                lb_gap_stop=0.0,
            )
            sa, times[f"sa{r}"], clock = speed.call(
                anneal.run_annealing, instance, params, lb=stop_at_optimum
            )
            moves = clock.moves
            t_sa = times[f"sa{r}"].seconds
            self._check_sa("run_annealing", instance, weights, sa, lb.objective_lb, best)
            hit = sa.cost.objective <= best + EPS
            gap = relative_gap(sa.cost.objective, lb.objective_lb)
            result.sa_moves += moves
            result.sa_runs.append((t_sa, hit, gap))
            result.gaps.append(gap)
            runs.append((repr(sa.cost.objective), moves, sa.stop_reason))
        result.fingerprint = (optimum.nodes, repr(best), tuple(runs))
        return self.record(result)


class CliCertify(Workload):
    """`python -m ovensched.cli` bounds, greedy --solution and evaluate, one
    process at a time, on `per_size` generated instances per size; the
    generator seeds come from the workload seed.

    Greedy time differs by instance (1.0-1.9 s at n=1000 over generator
    seeds), so each size has more than one instance to average over.
    """

    name = "cli-certify"
    attributes = 5
    sizes = (100, 250, 500, 1000)
    per_size = 2

    def setup(self) -> None:
        self.items = []
        for k in range(self.per_size):
            for n in self.sizes:
                config = GeneratorConfig(
                    n_jobs=n,
                    n_machines=5,
                    n_attributes=self.attributes,
                    seed=100_000 * self.ctx.seed + 10 * n + k,
                )
                text = write_instance(generate_instance(config))
                self.items.append(self._write(f"cli-{n}-{k}.osp", text))

    def _command(self, args: list[str], tracer: Tracer | None):
        """Run one CLI command from the checkout root; (process, Timed, dispatch)."""
        if tracer is None:
            argv = [sys.executable, "-m", "ovensched.cli", *args]
        else:
            spans = self.ctx.workdir / "spans.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        slices = self.ctx.speed.sample(PROBES_AROUND)
        started = perf_counter()
        proc = subprocess.run(
            argv, cwd=self.ctx.root, env=self.ctx.env(), capture_output=True, text=True,
            timeout=120,
        )
        wall = perf_counter() - started
        timed = self.ctx.speed.normalize(wall, slices + self.ctx.speed.sample(PROBES_AROUND))
        dispatch = 0.0
        if tracer is not None and proc.returncode in (0, 1, 2, 3):
            data = json.loads(spans.read_text(encoding="utf-8"))
            tracer.merge(data["tracer"])
            dispatch = data["dispatch_s"]
        return proc, timed, dispatch

    def run_pass(self, index, tracer):
        outcomes = self.ctx.outcomes
        path = self.items[index]
        rel = path.relative_to(self.ctx.root).as_posix()
        sol = rel[: -len(".osp")] + ".sol"
        result = PassResult(item=index, fingerprint=None)
        outputs = {}
        for sub, args in (
            ("bounds", ["bounds", rel]),
            ("greedy", ["greedy", rel, "--solution", sol]),
            ("evaluate", ["evaluate", rel, sol]),
        ):
            if sub == "evaluate" and self.ctx.tamper is not None:
                self._tamper_file(path, self.ctx.root / sol)
            proc, result.times[sub], dispatch = self._command(args, tracer)
            result.commands.append((sub, result.times[sub].seconds, dispatch))
            outputs[sub] = proc.stdout
            outcomes.check(
                f"{sub} {rel}",
                lambda p=proc: None if p.returncode == 0 else f"exit {p.returncode}: {p.stderr.strip()}",
            )

        def same_cost_line():
            greedy = _line(outputs["greedy"], "cost ")
            evaluated = _line(outputs["evaluate"], "cost ")
            return None if greedy and greedy == evaluated else f"{evaluated!r} != {greedy!r}"

        outcomes.check(f"greedy solution of {rel}", same_cost_line)
        lb_line = _line(outputs["bounds"], "objective_lb ")
        cost_line = _line(outputs["greedy"], "cost ")
        if lb_line and cost_line:
            lb = float(lb_line.split()[1])
            objective = float(cost_line.split()[-1])
            result.gaps.append(relative_gap(objective, lb))
        result.fingerprint = (outputs["bounds"], outputs["greedy"], outputs["evaluate"])
        return self.record(result)

    def _tamper_file(self, instance_path: Path, solution_path: Path) -> None:
        if not solution_path.is_file():
            return
        instance = parse_instance(instance_path.read_text(encoding="utf-8"))
        solution = parse_solution(solution_path.read_text(encoding="utf-8"), instance)
        solution_path.write_text(write_solution(self.ctx.tamper(instance, solution)), encoding="utf-8")


def _line(text: str, prefix: str) -> str | None:
    return next((line for line in text.splitlines() if line.startswith(prefix)), None)


WORKLOADS = {w.name: w for w in (Anneal500, TinyExact, CliCertify)}


def gap_mean(results: list[PassResult]) -> float:
    gaps = [g for r in results for g in r.gaps]
    return math.fsum(gaps) / len(gaps) if gaps else float("nan")
