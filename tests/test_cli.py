from __future__ import annotations

import csv
import io

from ovensched.cli import dispatch

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


def test_oracle_fixture(capsys):
    code, out, _ = run(capsys, "oracle", EXAMPLE, "--max-jobs", "10")
    assert code == 0
    assert "optimal proc 158 tardy 8 setup 72" in out
    assert "nodes" in out


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


def test_missing_file_is_usage_error(capsys):
    assert run(capsys, "bounds", "no-such-file.osp")[0] == 1


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
    ):
        bad.write_text(text)
        code, _, err = run(capsys, "bounds", str(bad))
        assert code == 2
        assert "infeasible" in err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_worker_pool_sizing(monkeypatch):
    from ovensched.cli import WORKERS_ENV, _pool_workers

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert _pool_workers(4, override=2) == 2
    assert _pool_workers(1, override=8) == 1  # never more workers than tasks
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _pool_workers(10, override=None) == 3
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    assert _pool_workers(10, override=None) >= 1  # falls back to CPU count
