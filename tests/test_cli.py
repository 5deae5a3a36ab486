from __future__ import annotations

import csv
import hashlib
import io
import os
import shutil

import pytest

from ovensched.cli import dispatch
from ovensched.fileio import (
    RESULT_COLUMNS,
    GeneratorConfig,
    generate_instance,
    write_instance,
)

from conftest import EXAMPLE_PATH, FIXTURES

EXAMPLE = str(EXAMPLE_PATH)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_fixture(capsys):
    code, out, err = run(capsys, "bounds", EXAMPLE)
    assert code == 0
    assert "batches_lb 8" in out
    assert "proc_lb 158" in out
    assert "setup_lb 68 before 60 after 68" in out
    assert "tardy_lb 7 jobs 1 2 3 4 6 9 10" in out
    assert "objective_lb 0.706582" in out
    assert "computed in" in err  # timing stays on stderr


_FIXTURE_BOUNDS = """\
jobs 10 machines 2 attributes 2
attribute 1 large 0 small 3 b_best 2 p_best 38
attribute 2 large 4 small 3 b_best 6 p_best 120
batches_lb 8
proc_lb 158
setup_lb 68 before 60 after 68
tardy_lb 7 jobs 1 2 3 4 6 9 10
objective_lb 0.706582
"""

_N100_BOUNDS = """\
jobs 100 machines 5 attributes 5
attribute 1 large 0 small 20 b_best 6 p_best 305
attribute 2 large 0 small 23 b_best 6 p_best 437
attribute 3 large 0 small 21 b_best 7 p_best 410
attribute 4 large 0 small 18 b_best 6 p_best 342
attribute 5 large 0 small 18 b_best 5 p_best 359
batches_lb 30
proc_lb 1853
setup_lb 31 before 31 after 22
"""

# the whole bounds report; on the n=100 instance the setup floor into the
# attribute is what makes job 22 late everywhere
BOUNDS_PINS = {
    "fixture": (_FIXTURE_BOUNDS, _FIXTURE_BOUNDS),
    "n100-k5-a5-seed3": (
        _N100_BOUNDS + "tardy_lb 3 jobs 18 22 87\nobjective_lb 0.040890\n",
        _N100_BOUNDS + "tardy_lb 2 jobs 18 87\nobjective_lb 0.031366\n",
    ),
}


@pytest.mark.parametrize("no_min_setup", [False, True], ids=["min-setup", "no-min-setup"])
@pytest.mark.parametrize("name", list(BOUNDS_PINS))
def test_bounds_stdout_pinned(capsys, tmp_path, monkeypatch, name, no_min_setup):
    monkeypatch.chdir(tmp_path)
    if name == "fixture":
        path = EXAMPLE
    else:
        path = "n100.osp"
        generate = ("--n", "100", "--k", "5", "--a", "5", "--seed", "3", "-o", path)
        assert run(capsys, "generate", *generate)[0] == 0
    code, out, _ = run(capsys, "bounds", path, *(["--no-min-setup"] if no_min_setup else []))
    assert code == 0
    assert out == f"instance {path}\n" + BOUNDS_PINS[name][no_min_setup]


# sha256 of the whole bounds stdout (min-setup, no-min-setup) on the
# benchmark's cli-certify instances of seed 1: n jobs, 5 machines, 5
# attributes, generator seed 100000 + 10 n + k for k = 0, 1
BOUNDS_DIGESTS = {
    "n100-k0": (
        "c57f30bf4b80583e5796a5dfb16d428e835331d529cdd42a48885dfe959501f5",
        "c57f30bf4b80583e5796a5dfb16d428e835331d529cdd42a48885dfe959501f5",
    ),
    "n100-k1": (
        "70ac4741b63826371a6fbfff1bb86ac331dbbd68f647754a928c392564a8e79d",
        "70ac4741b63826371a6fbfff1bb86ac331dbbd68f647754a928c392564a8e79d",
    ),
    "n250-k0": (
        "10d7192a28e9397c564781667ecdcb7dabc0369b1210e8f676ca9e9807c705ac",
        "10d7192a28e9397c564781667ecdcb7dabc0369b1210e8f676ca9e9807c705ac",
    ),
    "n250-k1": (
        "a547313093a07ae4c19cdfe3afd895dab01c62dee10937aa24aa0c15c576411f",
        "a547313093a07ae4c19cdfe3afd895dab01c62dee10937aa24aa0c15c576411f",
    ),
    "n500-k0": (
        "edf7b3ab1e2f1660b954ad1ac1e8e7508ebcc91cb46e0e67b197af0dc3644be2",
        "edf7b3ab1e2f1660b954ad1ac1e8e7508ebcc91cb46e0e67b197af0dc3644be2",
    ),
    "n500-k1": (
        "eee6c4d0542eed16adbb7c37732d57ceaedaa53a40bb833bdee7bbbd86da68cc",
        "eee6c4d0542eed16adbb7c37732d57ceaedaa53a40bb833bdee7bbbd86da68cc",
    ),
    "n1000-k0": (
        "83b2522367cb28c18b0f3277f57c3353db0aec57c2e6757ae969a5e2826965cb",
        "d73104ef84abf5628d81e73bf5e62b34c33cb311e15e70effc7fc018434bfeb1",
    ),
    "n1000-k1": (
        "74dc6c01a4d67cca771fbd88b03c25fe70e851fce10bf0b16676631487984355",
        "c2b1ee26e84d08e8a6ce7365b6c645c492bc9c79396cfb03231a0da5bbc433c7",
    ),
}


@pytest.mark.parametrize("no_min_setup", [False, True], ids=["min-setup", "no-min-setup"])
@pytest.mark.parametrize("name", list(BOUNDS_DIGESTS))
def test_bounds_stdout_digest_at_benchmark_scale(
    capsys, tmp_path, monkeypatch, name, no_min_setup
):
    monkeypatch.chdir(tmp_path)
    n_jobs, k = (int(part[1:]) for part in name.split("-"))
    config = GeneratorConfig(
        n_jobs=n_jobs, n_machines=5, n_attributes=5, seed=100_000 + 10 * n_jobs + k
    )
    path = f"cli-{n_jobs}-{k}.osp"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_instance(generate_instance(config)))
    code, out, _ = run(capsys, "bounds", path, *(["--no-min-setup"] if no_min_setup else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_DIGESTS[name][no_min_setup]


def test_greedy_fixture(capsys, tmp_path):
    solution_path = tmp_path / "greedy.sol"
    code, out, _ = run(capsys, "greedy", EXAMPLE, "--solution", str(solution_path))
    assert code == 0
    assert "cost proc 158 tardy 10 setup 74" in out
    assert solution_path.read_text().startswith("osp-solution v1")


def test_evaluate_round_trip(capsys, tmp_path):
    solution_path = tmp_path / "sol.txt"
    run(capsys, "greedy", EXAMPLE, "--solution", str(solution_path))
    code, out, _ = run(capsys, "evaluate", EXAMPLE, str(solution_path))
    assert code == 0
    assert "cost proc 158 tardy 10 setup 74" in out


def test_evaluate_infeasible_solution_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_text(
        "osp-solution v1\n"
        "machine 1\n"
        "batch start 0 processing 11 jobs 1\n"
        "machine 2\n"
    )
    code, _, err = run(capsys, "evaluate", EXAMPLE, str(bad))
    assert code == 2
    assert "assignment" in err or "availability" in err


# the whole oracle report on the fixture: optimum, node count and the
# tie-broken schedule; the node count pins the search itself
_FIXTURE_ORACLE = """\
optimal proc 158 tardy 8 setup 72 objective 0.802201
nodes 25669
osp-solution v1
machine 1
batch start 21 processing 19 jobs 4
batch start 40 processing 11 jobs 5 7
batch start 59 processing 11 jobs 1
batch start 78 processing 10 jobs 2
batch start 96 processing 50 jobs 8
machine 2
batch start 111 processing 19 jobs 3
batch start 133 processing 19 jobs 9 10
batch start 152 processing 19 jobs 6
"""


def test_oracle_fixture(capsys):
    code, out, err = run(capsys, "oracle", EXAMPLE, "--max-jobs", "10")
    assert code == 0
    assert out == f"instance {EXAMPLE}\n" + _FIXTURE_ORACLE
    assert "solved in" in err  # timing stays on stderr


def test_oracle_budget_exit_3(capsys):
    code, _, err = run(capsys, "oracle", EXAMPLE)  # default max-jobs 9 < 10
    assert code == 3
    assert "budget" in err


def test_generate_then_bounds_pipeline(capsys, tmp_path):
    out_path = tmp_path / "gen.osp"
    code, out, _ = run(
        capsys, "generate", "--n", "10", "--k", "2", "--a", "2", "--seed", "1",
        "-o", str(out_path),
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    code, out, _ = run(capsys, "bounds", str(out_path))
    assert code == 0
    assert "objective_lb" in out


def test_generate_config_round_trip(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    inst_a = tmp_path / "a.osp"
    inst_b = tmp_path / "b.osp"
    code, _, _ = run(
        capsys, "generate", "--n", "8", "--seed", "4", "-o", str(inst_a),
        "--save-config", str(cfg_path),
    )
    assert code == 0
    code, _, _ = run(capsys, "generate", "--config", str(cfg_path), "-o", str(inst_b))
    assert code == 0
    assert inst_a.read_text() == inst_b.read_text()


def test_anneal_fixture(capsys, tmp_path):
    results = tmp_path / "rows.csv"
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "anneal", EXAMPLE, "--seed", "7", "--replicates", "2",
        "--moves-per-level", "60", "--results", str(results), "--trace", str(trace),
        "--workers", "1",
    )
    assert code == 0
    assert "replicate seed 7" in out
    assert "replicate seed 8" in out
    assert "best seed" in out
    assert "objective_lb 0.706582" in out
    rows = list(csv.DictReader(io.StringIO(results.read_text())))
    assert len(rows) == 2
    assert {r["method"] for r in rows} == {"anneal"}
    assert trace.read_text().startswith("seed,elapsed_s,objective")


def test_anneal_process_pool_matches_serial(capsys):
    args = ["anneal", EXAMPLE, "--seed", "11", "--replicates", "2",
            "--moves-per-level", "40"]
    code, serial_out, _ = run(capsys, *args, "--workers", "1")
    assert code == 0
    code, pooled_out, _ = run(capsys, *args, "--workers", "2")
    assert code == 0
    assert pooled_out == serial_out


def test_anneal_gap_stop_reports_small_gap(capsys):
    code, out, _ = run(
        capsys, "anneal", EXAMPLE, "--seed", "3", "--replicates", "1",
        "--moves-per-level", "60", "--lb-gap-stop", "99", "--workers", "1",
    )
    assert code == 0
    # with such a loose target the first solution already stops the search
    assert "stop gap" in out


def test_bench_directory(capsys, tmp_path):
    for seed in (1, 2):
        run(capsys, "generate", "--n", "6", "--seed", str(seed),
            "-o", str(tmp_path / f"i{seed}.osp"))
        capsys.readouterr()
    code, out, _ = run(
        capsys, "bench", str(tmp_path), "--replicates", "2", "--moves-per-level", "40",
        "--time-limit", "30", "--workers", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # per instance: one bounds row, one greedy row, two anneal rows
    assert len(rows) == 2 * (2 + 2)
    assert [r["method"] for r in rows[:4]] == ["bounds", "greedy", "anneal", "anneal"]
    for row in rows:
        if row["method"] != "bounds":
            assert float(row["gap_pct"]) >= -1e-9


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "bounds")[0] == 1  # missing positional
    assert run(capsys, "bench", str(tmp_path))[0] == 1  # empty directory
    assert run(capsys, "generate", "-o", str(tmp_path / "x"))[0] == 1  # no --n
    config = tmp_path / "config.json"
    config.write_text('{"n_jobs": 5, "bogus": 1}')
    code, _, err = run(capsys, "generate", "--config", str(config), "-o", str(tmp_path / "x"))
    assert code == 1
    assert "error: " in err and "bogus" in err
    # a range below its floor is refused, not redrawn until valid; max_retries
    # went with the redraws
    for field, value in (("window_count_range", [0, 0]), ("release_range", [-3, 3]),
                         ("max_retries", 50)):
        config.write_text(f'{{"n_jobs": 5, "{field}": {value}}}')
        code, _, err = run(capsys, "generate", "--config", str(config), "-o", str(tmp_path / "x"))
        assert code == 1
        assert "error: " in err and field in err
    assert not (tmp_path / "x").exists()


def test_anneal_rejects_params_that_switch_the_search_off(capsys):
    for flags in (
        ["--moves-per-level", "-5"],
        ["--time-limit", "nan"],
        ["--lb-gap-stop", "nan"],
        ["--lb-gap-stop", "-5"],
        ["--workers", "0"],
        ["--workers", "-4"],
    ):
        code, out, err = run(capsys, "anneal", EXAMPLE, "--workers", "1", *flags)
        assert code == 1
        assert out == ""
        assert "must be" in err
    for flags in (["--workers", "0"], ["--workers", "-4"], ["--lb-gap-stop", "-5"]):
        code, out, err = run(capsys, "bench", str(FIXTURES), "--workers", "1", *flags)
        assert code == 1
        assert out == ""
        assert "must be" in err


def test_flag_defaults_are_the_dataclass_defaults(capsys, monkeypatch):
    from ovensched import oracle
    from ovensched.anneal import AnnealParams
    from ovensched.cli import _anneal_params, _build_parser

    parser = _build_parser()
    for command in (["anneal", EXAMPLE], ["bench", str(FIXTURES)]):
        assert _anneal_params(parser.parse_args(command)) == AnnealParams()
    code, out, _ = run(capsys, "anneal", EXAMPLE, "--replicates", "1", "--workers", "1")
    assert code == 0
    assert "\nreplicate seed 1 stop final_temp cost proc 158 tardy 8 setup 72 " in out

    given = []

    def out_of_budget(instance, limits, prune_with_lb):
        given.append(limits)
        raise oracle.BudgetExceeded("node budget spent")

    monkeypatch.setattr(oracle, "exact_solve", out_of_budget)
    assert run(capsys, "oracle", EXAMPLE) == (3, "", "budget: node budget spent\n")
    assert given == [oracle.OracleLimits()]


def test_max_moves_flag_caps_the_run(capsys):
    from ovensched.cli import _anneal_params, _build_parser

    parser = _build_parser()
    for command in (["anneal", EXAMPLE], ["bench", str(FIXTURES)]):
        assert _anneal_params(parser.parse_args([*command, "--max-moves", "300"])).max_moves == 300
    code, out, _ = run(capsys, "anneal", EXAMPLE, "--replicates", "1", "--workers", "1",
                       "--max-moves", "300")
    assert code == 0
    assert "\nreplicate seed 1 stop max_moves cost " in out


def test_out_of_range_limits_exit_1_with_the_dataclass_message(capsys):
    for argv, message in (
        (["oracle", EXAMPLE, "--node-budget", "0"], "all oracle limits must be positive"),
        (["oracle", EXAMPLE, "--max-jobs", "-2"], "all oracle limits must be positive"),
        (["oracle", EXAMPLE, "--max-jobs", "5000"], "max_jobs must be at most 64"),
        (["anneal", EXAMPLE, "--workers", "1", "--time-limit", "-1"],
         "time_limit must be non-negative"),
        (["anneal", EXAMPLE, "--workers", "1", "--max-moves", "0"], "max_moves must be positive"),
        (["bench", str(FIXTURES), "--workers", "1", "--max-moves", "-3"],
         "max_moves must be positive"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_missing_file_is_usage_error(capsys, tmp_path):
    assert run(capsys, "bounds", "no-such-file.osp")[0] == 1
    # a directory where a file is read, and where one is written
    for argv in (["bounds", str(FIXTURES)], ["bounds", EXAMPLE, "--results", str(tmp_path)]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("error: ")


def test_bad_instance_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.osp"
    good = EXAMPLE_PATH.read_text()
    no_jobs = "".join(
        line for line in good.splitlines(keepends=True) if not line.startswith("job ")
    )
    for text in (
        "osp-instance v1\nmachines nope\n",
        no_jobs.replace("jobs 10", "jobs -3"),
        good.replace("capacity 18", "capacity 1_8"),
        good.replace("release 2 ", "release +2 "),
        good.replace("job 1 attribute 2", "job 1 attribute 1 attribute 2"),
        good.replace("capacity 18 ", "capacity 18 colour 3 "),
        good.replace("eligible 1 2\n", "eligible 1 2 2\n", 1),
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "bounds", str(bad))
        assert code == 2
        assert "infeasible" in err


def _input_errors():
    from ovensched import (
        InfeasibleBatch,
        NoFeasiblePlacement,
        ParseError,
        Unschedulable,
        ValidationError,
        Violation,
    )
    from ovensched.oracle import Infeasible

    return [
        ParseError(3, "'jobs <count>'"),
        ValidationError([Violation("machine 1", "windows", "none given")]),
        InfeasibleBatch(1, 2, "over capacity"),
        Unschedulable(4),
        NoFeasiblePlacement(5),
        Infeasible("no complete schedule"),
    ]


@pytest.mark.parametrize("error", _input_errors(), ids=lambda e: type(e).__name__)
def test_input_errors_exit_2(capsys, monkeypatch, error):
    from ovensched import InputError, cli, oracle

    assert isinstance(error, InputError)

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "_load_instance", fail)
    for argv in (["bounds", EXAMPLE], ["greedy", EXAMPLE], ["evaluate", EXAMPLE, EXAMPLE],
                 ["oracle", EXAMPLE]):
        assert run(capsys, *argv) == (2, "", f"infeasible: {error}\n"), argv
    # the oracle command has no handler of its own
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "exact_solve", fail)
    assert run(capsys, "oracle", EXAMPLE) == (2, "", f"infeasible: {error}\n")


def test_non_utf8_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.osp"
    good = EXAMPLE_PATH.read_bytes()
    for data, line in ((b"\xff" + good, 1), (good.replace(b"jobs 10", b"jobs \xe910"), 4)):
        bad.write_bytes(data)
        code, out, err = run(capsys, "bounds", str(bad))
        assert (code, out) == (2, "")
        assert err == f"infeasible: line {line}: expected UTF-8 text\n"
    # a Windows line end before the bad byte counts as one line break
    bad.write_bytes(good.replace(b"\n", b"\r\n").replace(b"jobs 10", b"jobs \xe910"))
    assert run(capsys, "bounds", str(bad))[2] == "infeasible: line 4: expected UTF-8 text\n"
    solution = tmp_path / "g.sol"
    run(capsys, "greedy", EXAMPLE, "--solution", str(solution))
    solution.write_bytes(solution.read_bytes().replace(b"machine 2", b"machine \xc0"))
    code, _, err = run(capsys, "evaluate", EXAMPLE, str(solution))
    assert code == 2
    assert err.startswith("infeasible: line ") and err.endswith(": expected UTF-8 text\n")
    # a generator config is not a document: bad bytes there stay a usage error
    config = tmp_path / "config.json"
    config.write_bytes(b'{"n_jobs": 5, "seed": \xff}')
    code, _, err = run(capsys, "generate", "--config", str(config), "-o", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error: ")


JOBLESS = (
    "osp-instance v1\nmachines 1\njobs 0\nattributes 1\nsetup-times\n0\nsetup-costs\n0\n"
    "machine 1 capacity 10 initial-attribute 1 windows 0..100\n"
)


def test_jobless_instance_end_to_end(capsys, tmp_path):
    instance, solution = tmp_path / "empty.osp", tmp_path / "empty.sol"
    instance.write_text(JOBLESS)
    for argv in (
        ["bounds", str(instance)],
        ["greedy", str(instance), "--solution", str(solution)],
        ["evaluate", str(instance), str(solution)],
        ["oracle", str(instance)],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "objective 0.000000" in out or "objective_lb 0.000000" in out
    code, out, _ = run(capsys, "anneal", str(instance), "--replicates", "1", "--workers", "1")
    assert code == 0
    assert "replicate seed 1 stop no_moves cost proc 0 tardy 0 setup 0 objective 0.000000\n" in out
    code, out, _ = run(capsys, "bench", str(tmp_path), "--replicates", "1", "--workers", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["method"] for r in rows] == ["bounds", "greedy", "anneal"]


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_worker_pool_sizing(monkeypatch, capsys, tmp_path):
    import concurrent.futures

    from ovensched.cli import _build_parser, _map_ordered

    parser = _build_parser()
    for command in (["anneal", EXAMPLE], ["bench", str(FIXTURES)]):
        assert parser.parse_args(command).workers == (os.cpu_count() or 1)
        assert parser.parse_args([*command, "--workers", "3"]).workers == 3

    pool_sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert _map_ordered(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
    assert _map_ordered(abs, [-1, -2], workers=8) == [1, 2]  # never more workers than tasks
    assert _map_ordered(abs, [-1], workers=8) == [1]  # a single task runs inline
    assert pool_sizes == [2, 2]

    # bench pools the SA runs of every instance, so one instance with two
    # seeds fills two workers
    directory = tmp_path / "instances"
    directory.mkdir()
    shutil.copy(EXAMPLE_PATH, directory)
    code, _, _ = run(capsys, "bench", str(directory), "--replicates", "2", "--workers", "2",
                     "--moves-per-level", "60")
    assert code == 0
    assert pool_sizes == [2, 2, 2]


ANNEAL_FLAGS = ("--seed", "7", "--replicates", "2", "--workers", "1", "--moves-per-level", "60")

# The --results rows of bounds, greedy and anneal ANNEAL_FLAGS on the fixture,
# every column from method to seed.
PINNED_RESULT_ROWS = [
    ["bounds", "", "158", "7", "68", "0.7065820105820106", "", ""],
    ["greedy", "0.9928677248677249", "158", "10", "74", "0.7065820105820106",
     "28.834225054888833", ""],
    ["anneal", "0.8022010582010582", "158", "8", "72", "0.7065820105820106",
     "11.91958632334318", "7"],
    ["anneal", "0.8022010582010582", "158", "8", "72", "0.7065820105820106",
     "11.91958632334318", "8"],
]


def _result_rows(path):
    """(instance, columns from method to seed) of each row of a results CSV."""
    header, *rows = csv.reader(io.StringIO(path.read_text()))
    assert tuple(header) == RESULT_COLUMNS
    assert all(float(row[-1]) >= 0 for row in rows)  # elapsed_s
    return [(row[0], row[1:-1]) for row in rows]


def _command_rows(capsys, tmp_path):
    rows = []
    for command, flags in (("bounds", ()), ("greedy", ()), ("anneal", ANNEAL_FLAGS)):
        results = tmp_path / f"{command}.csv"
        code, _, _ = run(capsys, command, EXAMPLE, *flags, "--results", str(results))
        assert code == 0
        rows += _result_rows(results)
    return rows


def test_results_csv_pinned(capsys, tmp_path):
    rows = _command_rows(capsys, tmp_path)
    assert [instance for instance, _ in rows] == [EXAMPLE] * len(PINNED_RESULT_ROWS)
    assert [values for _, values in rows] == PINNED_RESULT_ROWS


# The --trace rows of anneal ANNEAL_FLAGS on the fixture, every column but
# elapsed_s: the greedy start, each improvement and the stop, per seed.
PINNED_TRACE_ROWS = [
    ["7", "0.9928677248677249", "158", "10", "74"],
    ["7", "0.8976296296296296", "158", "9", "74"],
    ["7", "0.8056719576719577", "169", "8", "84"],
    ["7", "0.8054814814814815", "169", "8", "82"],
    ["7", "0.8052910052910053", "169", "8", "80"],
    ["7", "0.8025820105820106", "158", "8", "76"],
    ["7", "0.8023915343915343", "158", "8", "74"],
    ["7", "0.8022010582010582", "158", "8", "72"],
    ["7", "0.8022010582010582", "158", "8", "72"],
    ["8", "0.9928677248677249", "158", "10", "74"],
    ["8", "0.9009100529100529", "169", "9", "84"],
    ["8", "0.9007195767195767", "169", "9", "82"],
    ["8", "0.9005291005291005", "169", "9", "80"],
    ["8", "0.9003386243386244", "169", "9", "78"],
    ["8", "0.8978201058201059", "158", "9", "76"],
    ["8", "0.8976296296296296", "158", "9", "74"],
    ["8", "0.8052910052910053", "169", "8", "80"],
    ["8", "0.8023915343915343", "158", "8", "74"],
    ["8", "0.8022010582010582", "158", "8", "72"],
    ["8", "0.8022010582010582", "158", "8", "72"],
]


def test_trace_csv_pinned(capsys, tmp_path):
    trace, results = tmp_path / "trace.csv", tmp_path / "rows.csv"
    code, _, _ = run(capsys, "anneal", EXAMPLE, *ANNEAL_FLAGS,
                     "--trace", str(trace), "--results", str(results))
    assert code == 0
    header, *rows = csv.reader(io.StringIO(trace.read_text()))
    assert header == ["seed", "elapsed_s", "objective", "proc_time", "tardy", "setup_cost"]
    assert [[row[0], *row[2:]] for row in rows] == PINNED_TRACE_ROWS
    for _, values in _result_rows(results):
        points = [row for row in rows if row[0] == values[-1]]
        assert len(points) > 2
        elapsed = [float(row[1]) for row in points]
        assert elapsed[0] == 0.0 and elapsed == sorted(elapsed)
        objectives = [float(row[2]) for row in points[:-1]]
        assert all(a > b for a, b in zip(objectives, objectives[1:]))
        assert points[-1][2:] == values[1:5]  # the replicate's cost


def test_bench_rows_match_the_commands(capsys, tmp_path):
    directory = tmp_path / "instances"
    directory.mkdir()
    shutil.copy(EXAMPLE_PATH, directory)
    table = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", str(directory), *ANNEAL_FLAGS, "--out", str(table))
    assert code == 0
    assert out == f"wrote {table} rows 4\n"
    expected = [(EXAMPLE_PATH.name, values) for _, values in _command_rows(capsys, tmp_path)]
    assert _result_rows(table) == expected


def test_bench_process_pool_matches_serial(capsys, tmp_path):
    directory = tmp_path / "instances"
    directory.mkdir()
    for name in ("a.osp", "b.osp"):
        shutil.copy(EXAMPLE_PATH, directory / name)
    tables = []
    for workers in ("1", "2"):
        table = tmp_path / f"bench{workers}.csv"
        code, _, _ = run(capsys, "bench", str(directory), *ANNEAL_FLAGS, "--workers", workers,
                         "--out", str(table))
        assert code == 0
        tables.append(_result_rows(table))
    assert len(tables[0]) == 8
    assert tables[1] == tables[0]


# sha256 of the instance and of the --save-config file that generate writes
GENERATE_PINS = [
    (["--n", "12"],
     "c4acd18b193ad921da788a9b103f3f4b05621ebb0ad97a0dd3d7e40baad196d9",
     "92933c3781d9fd712294ef0ea3d010363cf97cace3faa9b4704bf984124b42db"),
    (["--n", "9", "--k", "3", "--a", "4", "--seed", "5"],
     "e9b6c1e1d96b54b4faced4f54378bf015e74e339da0e11bd2dcd7f372f25b7b9",
     "3179b27d174921a23aae48909989325bbe348b946f78168273012d200cdcac76"),
    (["--config", "base.json", "--k", "3", "--seed", "8"],
     "8cf0eca38e2558d1ecd1f58822363de049d7d4bc9ee6f21cdbcc2e28b2926f2a",
     "d47afd2824969a4a5b3cd3cbf5c336a6283d01dfa9f52c0a1f1e4635f8a13018"),
]


# the ids name the flags, so re-pinning a digest keeps them
@pytest.mark.parametrize(
    "flags, instance_digest, config_digest",
    GENERATE_PINS,
    ids=["-".join(f"{flag[2:]}={value}" for flag, value in zip(flags[::2], flags[1::2]))
         for flags, _, _ in GENERATE_PINS],
)
def test_generate_files_pinned(capsys, tmp_path, monkeypatch, flags, instance_digest,
                               config_digest):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "generate", "--n", "12", "-o", "base.osp",
                     "--save-config", "base.json")
    assert code == 0
    code, _, _ = run(capsys, "generate", *flags, "-o", "out.osp", "--save-config", "out.json")
    assert code == 0
    assert hashlib.sha256((tmp_path / "out.osp").read_bytes()).hexdigest() == instance_digest
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == config_digest
