"""Shared pieces of the benchmark: timing summaries, layer tracing, outcome
counting, and speed-normalized timing of program calls.

Layer tracing replaces a function name in the module that calls it (for
example ``ovensched.anneal.schedule_machine``) with a wrapper that records
the duration of every call, and restores the original afterwards. Names a
later refactor removes are reported as absent layers instead of failing.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def high_percentile(values) -> tuple[float, float] | None:
    """(level, value) of the highest ladder percentile above the median with
    at least 10 samples beyond it; nearest-rank. None when there is none.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for level in PERCENTILE_LADDER:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= 10:
            best = (level, ordered[rank - 1])
    return best


def percentile_label(level: float) -> str:
    return f"p{level:g}".replace(".", "_")


def timing_text(values, unit_scale: float = 1.0, unit: str = "s") -> str:
    """'median=… pNN=… n=…' for a list of durations (seconds)."""
    if not values:
        return "n=0"
    parts = [f"median={statistics.median(values) * unit_scale:.6g}{unit}"]
    high = high_percentile(values)
    if high is not None:
        parts.append(f"{percentile_label(high[0])}={high[1] * unit_scale:.6g}{unit}")
    parts.append(f"n={len(values)}")
    return " ".join(parts)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcomes:
    """Checked operations: attempted count and one line per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, fn: Callable[[], str | None]) -> None:
        """Run one checked operation; fn returns None when the output is correct.

        Any exception counts as a failed operation, never as a crash.
        """
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a benchmark operation must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{what}: {problem}")

    def succeeded(self, count: int = 1) -> None:
        """Operations with nothing to check beyond returning without error."""
        self.attempted += count

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass(frozen=True)
class Site:
    """One traced call site: the name `attr` as seen from `module`."""

    module: str
    attr: str
    layer: str
    classify: Callable[[object], str] | None = None


def _move_kind(move: object) -> str:
    return {
        "SwapBatches": "swap",
        "ReinsertBatch": "reinsert",
        "MoveJob": "job",
        "MoveJobNewBatch": "new_batch",
    }.get(type(move).__name__, type(move).__name__)


def _rejected(result: object) -> str:
    return "reject" if result is None else "ok"


# Call sites per layer. The SA sites are the names run_annealing calls; the
# cli sites are the names the CLI subcommands call; bounds sites are the
# routes objective_lb calls inside the bounds module.
SITES = (
    Site("ovensched.fileio", "parse_instance", "fileio.parse_instance"),
    Site("ovensched.cli", "parse_instance", "fileio.parse_instance"),
    Site("ovensched.cli", "write_solution", "fileio.write_solution"),
    Site("ovensched.cli", "parse_solution", "fileio.parse_solution"),
    Site("ovensched.bounds", "objective_lb", "bounds.objective_lb"),
    Site("ovensched.cli", "objective_lb", "bounds.objective_lb"),
    Site("ovensched.bounds", "gac_plus", "bounds.gac_plus"),
    Site("ovensched.bounds", "batch_lb_eligibility", "bounds.batch_lb_eligibility"),
    Site("ovensched.bounds", "proc_lb_eligibility", "bounds.proc_lb_eligibility"),
    Site("ovensched.bounds", "tardy_lb", "bounds.tardy_lb"),
    Site("ovensched.bounds", "classify_large_small", "bounds.classify_large_small"),
    Site("ovensched.anneal", "construct", "greedy.construct"),
    Site("ovensched.cli", "construct", "greedy.construct"),
    Site("ovensched.anneal", "run_annealing", "anneal.run_annealing"),
    Site("ovensched.anneal", "sample_move", "anneal.sample_move", _move_kind),
    Site("ovensched.anneal", "apply_move", "anneal.apply_move", _rejected),
    Site("ovensched.anneal", "schedule_machine", "schedule.schedule_machine"),
    Site("ovensched.anneal", "machine_cost", "schedule.machine_cost"),
    Site("ovensched.cli", "check_feasibility", "schedule.check_feasibility"),
    Site("ovensched.cli", "evaluate", "schedule.evaluate"),
    Site("ovensched.oracle", "exact_solve", "oracle.exact_solve"),
)

LAYERS = tuple(dict.fromkeys(site.layer for site in SITES))


class Tracer:
    """Times calls into the package's layers while installed.

    Keeps every call's duration in memory (for medians and tail
    percentiles) plus outcome counts: "raised" for calls that raised, and
    the classify label of each returned value where a site has one.
    """

    def __init__(self):
        self.durations: dict[str, array] = {layer: array("d") for layer in LAYERS}
        self.outcomes: dict[str, Counter] = {layer: Counter() for layer in LAYERS}
        self.present: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for site in SITES:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                continue
            original = getattr(module, site.attr, None)
            if original is None:
                continue
            self.present.add(site.layer)
            setattr(module, site.attr, self._wrap(original, site))
            self._originals.append((module, site.attr, original))
        return self

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, site: Site):
        durations = self.durations[site.layer]
        outcomes = self.outcomes[site.layer]
        classify = site.classify

        def traced(*args, **kwargs):
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                durations.append(perf_counter() - started)
                outcomes["raised"] += 1
                raise
            durations.append(perf_counter() - started)
            if classify is not None:
                outcomes[classify(result)] += 1
            return result

        return traced

    def export(self) -> dict:
        """Plain-data form, for sending from a child process."""
        return {
            "present": sorted(self.present),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "outcomes": {k: dict(v) for k, v in self.outcomes.items()},
        }

    def merge(self, data: dict) -> None:
        self.present.update(data["present"])
        for layer, values in data["durations"].items():
            self.durations.setdefault(layer, array("d")).extend(values)
        for layer, counts in data["outcomes"].items():
            self.outcomes.setdefault(layer, Counter()).update(counts)

    def total(self, layer: str) -> float:
        return math.fsum(self.durations.get(layer, ()))

    def calls(self, layer: str) -> int:
        return len(self.durations.get(layer, ()))


# The reference slice: fixed pure-Python work of the kinds the solver does
# (objects with slots, attribute reads, calls, dicts, tuples, float
# arithmetic, a small sort), about 80 us. REF_SECONDS is roughly its
# fastest time on the machine the baseline was taken on (2-vCPU Intel Xeon
# VM, 2.1 GHz, Python 3.11); it only sets the scale of normalized times.
REF_SECONDS = 7.5e-5
# reference slices taken inside an SA run, at most one per period of run time
PROBE_PERIOD = 0.01
# reference slices taken before and after every timed call
PROBES_AROUND = 3


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _affine(point: _Point, x: int) -> int:
    return point.a * x + point.b


def _reference_slice() -> float:
    points = [_Point(i, i % 5) for i in range(30)]
    sums: dict[int, float] = {}
    total = 0.0
    for r in range(6):
        for point in points:
            value = _affine(point, r)
            sums[point.a % 11] = sums.get(point.a % 11, 0) + value
            total += value * 0.5
        rows = sorted((point.b, point.a) for point in points)
        total += max(rows)[1] - min(sums.values())
    return total


@dataclass(frozen=True)
class Timed:
    """One timed program call: its wall time and its normalized time."""

    seconds: float
    normalized: float


class Speed:
    """Measures program calls next to a fixed reference slice.

    On a shared host the same work runs at different speeds from one
    second to the next. A call's normalized time is its wall time times
    REF_SECONDS over the median time of the reference slices taken around
    it (and, in SA runs, during it): the call's time at the reference
    speed. Slices taken during a call are subtracted from its wall time.
    """

    def __init__(self):
        self.samples = array("d")
        # slices inside SA runs; off in traced runs, where they would count
        # in the run_annealing layer
        self.in_runs = True

    def sample(self, count: int = 1) -> list[float]:
        durations = []
        for _ in range(count):
            started = perf_counter()
            _reference_slice()
            durations.append(perf_counter() - started)
        self.samples.extend(durations)
        return durations

    def normalize(self, seconds: float, slices: list[float]) -> Timed:
        return Timed(seconds, seconds * REF_SECONDS / statistics.median(slices))

    def call(self, fn, *args, **kwargs) -> tuple[object, Timed, "MoveClock"]:
        """Time fn(*args, **kwargs); SA moves it makes are counted on the MoveClock."""
        slices = self.sample(PROBES_AROUND)
        with MoveClock(self if self.in_runs else None) as clock:
            started = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - started - math.fsum(clock.slices)
        slices += clock.slices + self.sample(PROBES_AROUND)
        return result, self.normalize(seconds, slices), clock


class MoveClock:
    """Counts SA moves by wrapping ``ovensched.anneal.sample_move``.

    The one probe kept in untraced runs: a counter increment per move, so
    that moves per second can be reported without timing every call. With
    a Speed it also reads the clock per move and takes a reference slice
    every PROBE_PERIOD seconds of the run. It wraps whatever the name
    holds, so it also counts under a Tracer.
    """

    def __init__(self, speed: Speed | None = None):
        self.moves = 0
        self.slices: list[float] = []
        self._speed = speed
        self._original = None

    def __enter__(self) -> "MoveClock":
        module = sys.modules["ovensched.anneal"]
        original = getattr(module, "sample_move", None)
        if original is not None:
            self._original = original
            speed = self._speed
            due = perf_counter() + PROBE_PERIOD

            def counted(*args, **kwargs):
                nonlocal due
                self.moves += 1
                if speed is not None and perf_counter() >= due:
                    self.slices += speed.sample()
                    due = perf_counter() + PROBE_PERIOD
                return original(*args, **kwargs)

            module.sample_move = counted
        return self

    def __exit__(self, *exc) -> None:
        if self._original is not None:
            sys.modules["ovensched.anneal"].sample_move = self._original
            self._original = None
