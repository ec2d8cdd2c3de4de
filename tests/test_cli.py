"""Tests for the command-line front end: schemas, determinism, exit codes."""

import concurrent.futures
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from linbins import __version__, ballsbins, cli
from linbins.ballsbins import RNG_ALGORITHM, SEED_SCHEME
from linbins.cli import CSV_HEADER, VERIFY_CHECKS, main, parse_args
from linbins.gf2 import BytePlanes, SubspaceBasis

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def data_rows(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def manifest_of(text):
    first = text.splitlines()[0]
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


SIM_ARGS = [
    "simulate", "--u", "2", "--b", "1", "--set", "interval", "--set-size", "4",
    "--trials", "50", "--thresholds", "2,4", "--seed", "7",
]

BATCH_ARGS = [
    "simulate", "--u", "12", "--b", "6", "--set", "random", "--set-size", "300",
    "--thresholds", "8", "--seed", "5",
]


MANIFEST_KEYS = {
    "subcommand", "flags", "master_seed", "rng_algorithm", "seed_scheme",
    "artifact_version", "timestamp",
}

EMITTING_RUNS = {
    "simulate": SIM_ARGS,
    "exact": ["exact", "--u", "2", "--b", "1", "--set", "interval",
              "--set-size", "4", "--thresholds", "2,4"],
    "bounds": ["bounds", "--formula", "tail", "--b", "4,8", "--r", "16"],
    "table-bench": ["table-bench", "--u", "10", "--b", "3", "--n", "0,8"],
}


class TestManifest:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sub", sorted(EMITTING_RUNS))
    def test_manifest_records_the_parsed_run(self, sub, fmt, tmp_path):
        out = tmp_path / f"run.{fmt}"
        argv = EMITTING_RUNS[sub] + ["--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        if fmt == "json":
            doc = json.loads(text)
            assert set(doc) == {"manifest", "rows", "summary"}
            m = doc["manifest"]
        else:
            m = manifest_of(text)
        assert set(m) == MANIFEST_KEYS
        assert m["subcommand"] == sub
        assert m["rng_algorithm"] == RNG_ALGORITHM
        assert m["seed_scheme"] == SEED_SCHEME
        assert m["artifact_version"] == __version__
        parsed = vars(parse_args(argv))
        assert m["master_seed"] == parsed["seed"]
        # every parsed flag is recorded, tuple-valued ones as JSON arrays
        assert m["flags"] == {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in parsed.items()
            if k not in ("func", "config", "subcommand")
        }


class TestSimulate:
    def test_csv_schema(self, tmp_path):
        code, text = run_to_file(tmp_path, "sim.csv", SIM_ARGS)
        assert code == 0
        rows = data_rows(text)
        assert rows[0] == CSV_HEADER
        trial_rows = [r for r in rows if r.startswith("simulate,")]
        assert len(trial_rows) == 50
        assert trial_rows[0].split(",")[:8] == [
            "simulate", "2", "1", "", "interval", "4", "0", "7",
        ]
        assert sum(1 for r in rows if r.startswith("summary-tail,")) == 2
        assert any(r.startswith("summary-mean,") for r in rows)

    def test_manifest_fields(self, tmp_path):
        _, text = run_to_file(tmp_path, "sim.csv", SIM_ARGS)
        m = manifest_of(text)
        assert m["subcommand"] == "simulate"
        assert m["master_seed"] == 7
        assert m["flags"]["trials"] == 50
        assert "timestamp" in m and "rng_algorithm" in m

    def test_reruns_byte_identical(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.csv", SIM_ARGS)
        _, b = run_to_file(tmp_path, "b.csv", SIM_ARGS)
        assert data_rows(a) == data_rows(b)

    def test_jobs_do_not_change_rows(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.csv", SIM_ARGS + ["--jobs", "1"])
        _, b = run_to_file(tmp_path, "b.csv", SIM_ARGS + ["--jobs", "4"])
        assert data_rows(a) == data_rows(b)

    def test_jobs_do_not_change_rows_on_batch_path(self, tmp_path, monkeypatch):
        # 300 balls reach the byte-plane kernel; two CPUs make the pool run
        monkeypatch.setattr(ballsbins.os, "cpu_count", lambda: 2)
        argv = BATCH_ARGS + ["--trials", "12"]
        _, a = run_to_file(tmp_path, "a.csv", argv + ["--jobs", "1"])
        _, b = run_to_file(tmp_path, "b.csv", argv + ["--jobs", "2"])
        assert len(data_rows(a)) > 12
        assert data_rows(a) == data_rows(b)

    def test_jobs_do_not_change_rows_on_rank_route(self, tmp_path, monkeypatch):
        # an affine set's trials read the rank route, whose compiled B^T is
        # built inside each pool task; two CPUs make the pool run
        monkeypatch.setattr(ballsbins.os, "cpu_count", lambda: 2)
        argv = ["simulate", "--u", "32", "--b", "16", "--set", "affine", "--set-dim", "3",
                "--trials", "40", "--thresholds", "2,4", "--seed", "5"]
        _, a = run_to_file(tmp_path, "a.csv", argv + ["--jobs", "1"])
        _, b = run_to_file(tmp_path, "b.csv", argv + ["--jobs", "2"])
        assert len(data_rows(a)) > 40
        assert data_rows(a) == data_rows(b)

    @pytest.mark.parametrize("cpus,workers", [(64, 10), (3, 3), (1, None), (None, None)])
    def test_pool_capped_by_cpus_and_trials(self, cpus, workers, tmp_path, monkeypatch):
        pools = []

        class InProcessPool:
            """Records the pool size and runs the chunks here; starts no process."""

            def __init__(self, max_workers):
                self.max_workers, self.tasks = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                self.tasks = list(tasks)
                return map(fn, self.tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(ballsbins.os, "cpu_count", lambda: cpus)
        argv = BATCH_ARGS + ["--trials", "10"]
        _, serial = run_to_file(tmp_path, "serial.csv", argv)
        assert pools == []
        code, text = run_to_file(tmp_path, "pool.csv", argv + ["--jobs", "5000"])
        assert code == 0
        assert data_rows(text) == data_rows(serial)
        if workers is None:
            assert pools == []
            return
        (pool,) = pools
        assert pool.max_workers == workers
        spans = [(t[4], t[5]) for t in pool.tasks]
        assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == 10
        assert all(isinstance(t[3], BytePlanes) for t in pool.tasks)

    def test_pool_on_linear_set_carries_basis(self, tmp_path, monkeypatch):
        tasks = []

        class InProcessPool:
            """Records the tasks and runs them here; starts no process."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunk_tasks):
                tasks.extend(chunk_tasks)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(ballsbins.os, "cpu_count", lambda: 4)
        argv = ["simulate", "--u", "12", "--b", "4", "--set", "subspace", "--set-dim", "5",
                "--thresholds", "4,8", "--seed", "5", "--trials", "20"]
        _, serial = run_to_file(tmp_path, "serial.csv", argv)
        assert tasks == []
        code, pooled = run_to_file(tmp_path, "pool.csv", argv + ["--jobs", "4"])
        assert code == 0
        assert len(data_rows(serial)) > 20
        assert data_rows(pooled) == data_rows(serial)
        assert len(tasks) > 1
        assert all(isinstance(t[3], SubspaceBasis) and t[3].dim == 5 for t in tasks)

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, jobs, tmp_path, capsys):
        code, _ = run_to_file(tmp_path, "sim.csv", SIM_ARGS + ["--jobs", jobs])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_seed_changes_rows(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.csv", SIM_ARGS)
        _, b = run_to_file(tmp_path, "b.csv", SIM_ARGS[:-1] + ["8"])
        assert data_rows(a) != data_rows(b)

    def test_json_format(self, tmp_path):
        code, text = run_to_file(tmp_path, "sim.json", SIM_ARGS + ["--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"manifest", "rows", "summary"}
        assert len([r for r in doc["rows"] if r["experiment"] == "simulate"]) == 50
        assert doc["summary"]["tails"][0]["threshold"] == 2

    def test_missing_dims_is_usage_error(self, capsys):
        assert main(["simulate", "--u", "2"]) == 1

    def test_subspace_needs_dim(self, capsys):
        assert main(["simulate", "--u", "4", "--b", "2", "--set", "subspace"]) == 1


class TestExact:
    def test_values(self, tmp_path):
        code, text = run_to_file(tmp_path, "exact.csv", [
            "exact", "--u", "2", "--b", "1", "--set", "interval",
            "--set-size", "4", "--thresholds", "2,4",
        ])
        assert code == 0
        rows = data_rows(text)
        mean_row = next(r for r in rows if r.startswith("exact-mean,"))
        assert mean_row.split(",")[8] == "5/2"
        tails = {
            r.split(",")[9]: r.split(",")[10]
            for r in rows
            if r.startswith("exact-tail,")
        }
        assert tails == {"2": "1", "4": "1/4"}

    def test_maps_enumerated_once(self, tmp_path, monkeypatch):
        calls = []
        all_matrices = ballsbins.all_matrices

        def counting(in_dim, out_dim):
            calls.append((in_dim, out_dim))
            return all_matrices(in_dim, out_dim)

        monkeypatch.setattr(ballsbins, "all_matrices", counting)
        code, text = run_to_file(tmp_path, "exact.csv", [
            "exact", "--u", "4", "--b", "2", "--set", "random", "--set-size", "6",
            "--thresholds", "1,2,4",
        ])
        assert code == 0
        assert sum(r.startswith("exact-tail,") for r in data_rows(text)) == 3
        assert calls == [(4, 2)]

    def test_size_guard_exit(self, capsys):
        assert main([
            "exact", "--u", "6", "--b", "6", "--set", "interval", "--set-size", "5",
        ]) == 2

    def test_unprintable_rational_is_size_guard(self, tmp_path, capsys):
        # P[lbin >= 2] has denominator 2^(b d) = 2^16000, over Python's
        # 4,300-digit int-to-str limit; the run refuses before writing a row
        out = tmp_path / "exact.csv"
        assert main([
            "exact", "--u", "1000", "--b", "1000", "--set", "subspace", "--set-dim", "16",
            "--thresholds", "2", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "exact-tail at threshold 2" in err and "decimal digits" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,experiment,column,cells", [
        (["exact", "--u", "32", "--b", "16", "--set", "subspace", "--set-dim", "4",
          "--thresholds", "2,16"], "exact-tail", 9, {"2", "16"}),
        (["simulate", "--u", "64", "--b", "16", "--set", "subspace", "--set-dim", "40",
          "--trials", "100"], "simulate", 6, {str(i) for i in range(100)}),
        (["exact", "--u", "64", "--b", "16", "--set", "affine", "--set-dim", "40"],
         "exact-tail", 9, {"1"}),
        (["exact", "--u", "32", "--b", "16", "--set", "interval", "--set-size", "1024",
          "--thresholds", "2,1024"], "exact-tail", 9, {"2", "1024"}),
    ], ids=["exact-subspace-4", "simulate-subspace-40", "exact-affine-40",
            "exact-interval-1024"])
    def test_linear_set_skips_size_guard(self, tmp_path, argv, experiment, column, cells):
        # sets with a linear basis (subspace, affine, [0, 2^k)) take the rank
        # route and the closed form, which read only the basis, so neither u*b
        # nor 2^dim meets the size guard
        code, text = run_to_file(tmp_path, "out.csv", argv)
        assert code == 0
        rows = [r.split(",") for r in data_rows(text) if r.startswith(experiment + ",")]
        assert {r[column] for r in rows} == cells and len(rows) == len(cells)


class TestBounds:
    def test_e2_row(self, tmp_path):
        code, text = run_to_file(tmp_path, "bounds.csv", [
            "bounds", "--formula", "e2", "--b", "8", "--f", "11",
        ])
        assert code == 0
        row = data_rows(text)[1].split(",")
        assert row[0] == "e2"
        assert float(row[9]) == pytest.approx(1 / 27, rel=1e-9)
        assert row[11] == "no"

    def test_c_epsilon_row(self, tmp_path):
        _, text = run_to_file(tmp_path, "bounds.csv", [
            "bounds", "--formula", "c-epsilon", "--eps", "0.5",
        ])
        row = data_rows(text)[1].split(",")
        assert float(row[9]) == 2 ** 34

    def test_vacuous_flagged(self, tmp_path):
        _, text = run_to_file(tmp_path, "bounds.csv", [
            "bounds", "--formula", "tail", "--b", "8", "--r", "16", "--eps", "0.5",
        ])
        row = data_rows(text)[1].split(",")
        assert float(row[9]) == pytest.approx(2.0)
        assert float(row[10]) == 1.0
        assert row[11] == "yes"

    @pytest.mark.parametrize("flag,value", [
        ("--r", "nan"), ("--r", "16,inf"), ("--eps", "nan"), ("--alpha", "0.5,-inf"),
    ])
    def test_non_finite_numbers_are_usage_errors(self, flag, value, tmp_path, capsys):
        code, text = run_to_file(tmp_path, "bounds.csv", ["bounds", flag, value])
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err == f"usage error: expected finite numbers, got {value!r}\n"

    @pytest.mark.parametrize("argv,domain", [
        (["--formula", "e2", "--b", "3", "--f", "3"], "f > b"),
        (["--formula", "e2", "--b", "8,9", "--f", "2,8", "--format", "json"], "f > b"),
        (["--formula", "ell-threshold", "--f", "3", "--b", "8"], "f >= b"),
    ])
    def test_grid_outside_the_domain_is_a_usage_error(self, argv, domain, tmp_path, capsys):
        code, text = run_to_file(tmp_path, "bounds.csv", ["bounds"] + argv)
        assert code == 1 and text == ""
        b, f = argv[argv.index("--b") + 1], argv[argv.index("--f") + 1]
        assert capsys.readouterr().err == (
            f"usage error: --formula {argv[1]} needs {domain}, "
            f"and no pair of --b {b} and --f {f} has it\n")

    @pytest.mark.parametrize("argv,formulas", [
        (["--formula", "e2", "--b", "3,8", "--f", "3,4"], ["e2"]),
        (["--formula", "ell-threshold", "--f", "3,9", "--b", "8"], ["ell-threshold"]),
        (["--formula", "all", "--b", "3", "--f", "3", "--r", "16"],
         ["c-epsilon", "surjective-miss", "tail", "ell-threshold", "tail-params",
          "exponent-margin"]),
    ])
    def test_grid_keeps_its_valid_pairs(self, argv, formulas, tmp_path):
        # a pair outside the domain is skipped as long as some row is left
        code, text = run_to_file(tmp_path, "bounds.csv", ["bounds"] + argv)
        assert code == 0
        assert [row.split(",")[0] for row in data_rows(text)[1:]] == formulas

    def test_grid_crossproduct(self, tmp_path):
        _, text = run_to_file(tmp_path, "bounds.csv", [
            "bounds", "--formula", "tail", "--b", "4,8", "--r", "16,64,256",
            "--eps", "0.5",
        ])
        assert len(data_rows(text)) == 1 + 6


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code = main(["verify", "--instances", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_single_check(self, capsys):
        code = main(["verify", "--check", "factorization-count"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS factorization-count")

    @pytest.mark.parametrize("argv,names", [
        (["--instances", "200"], VERIFY_CHECKS),
        (["--check", "pairwise-independence"], ("pairwise-independence",)),
    ])
    def test_timing_per_check_on_stderr(self, argv, names, capsys):
        assert main(["verify"] + argv) == 0
        captured = capsys.readouterr()
        timed = re.findall(r"^time (\S+): (\d+\.\d{3}) s$", captured.err, re.M)
        assert [name for name, _ in timed] == list(names)
        assert len(captured.err.splitlines()) == len(names)
        assert "time" not in captured.out

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    @pytest.mark.parametrize("flag", ["--instances"])
    def test_counts_below_one_are_usage_errors(self, flag, value, capsys):
        assert main(["verify", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert captured.out == ""

    def test_unknown_check(self, capsys):
        assert main(["verify", "--check", "nope"]) == 1

    @pytest.mark.parametrize("argv,golden,code", [
        (["verify"], "verify-default.txt", 0),
        (["verify", "--seed", "7"], "verify-seed7.txt", 0),
        (["verify", "--seed", "99", "--instances", "300"], "verify-seed99-i300.txt", 0),
        (["verify", "--check", "composition-uniformity", "--inject-fault"],
         "verify-composition-fault.txt", 3),
        (["verify", "--seed", "3", "--instances", "40"], "verify-seed3-i40.txt", 0),
    ])
    def test_stdout_pinned(self, argv, golden, code, capsys, monkeypatch):
        monkeypatch.delenv("LINBINS_SEED", raising=False)
        assert main(argv) == code
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / golden).read_bytes()

    @pytest.mark.parametrize("flag", [
        ["--out", "verify.txt"], ["--format", "json"],
        ["--u", "5"], ["--f", "4"], ["--b", "1"],
    ])
    def test_output_flags_rejected(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--check", "pairwise-independence"] + flag) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "verify.txt").exists()

    @pytest.mark.parametrize("check", [[], ["--check", "composition-uniformity"]],
                             ids=["all-checks", "one-check"])
    @pytest.mark.parametrize("instances", ["1", "40"])
    @pytest.mark.parametrize("seed", ["1", "3", "7", "99", "-3"])
    def test_injected_fault_detected(self, seed, instances, check, capsys):
        # the composition check enumerates, so no flag value lets the fault pass
        code = main(["verify", "--seed", seed, "--instances", instances,
                     "--inject-fault"] + check)
        assert code == 3
        assert "FAIL composition-uniformity" in capsys.readouterr().out

    @pytest.mark.parametrize("check", [c for c in VERIFY_CHECKS if c != "composition-uniformity"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_fault_on_another_check_refused(self, check, via_config, tmp_path, capsys):
        # the fault corrupts only the composition check, so a clean run of
        # another check would pass without the negative control ever running
        argv = ["verify", "--check", check, "--inject-fault"]
        if via_config:
            cfg = tmp_path / "verify.json"
            cfg.write_text(json.dumps({"check": check, "inject_fault": True}))
            argv = ["verify", "--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and check in captured.err

    def test_composition_line_ignores_the_seed(self, capsys, monkeypatch):
        argv = ["verify", "--check", "composition-uniformity"]
        lines = set()
        for seed in ("1", "3", "7", "99", "-3"):
            assert main(argv + ["--seed", seed]) == 0
            lines.add(capsys.readouterr().out)
            monkeypatch.setenv("LINBINS_SEED", seed)
            assert main(argv) == 0
            lines.add(capsys.readouterr().out)
        assert lines == {"PASS composition-uniformity: 6 outer maps, 0 uneven\n"}

    def test_samples_config_key_refused(self, tmp_path, capsys):
        # the composition check draws nothing, so a sample count is unknown
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"samples": 3000}))
        assert main(["verify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: unknown config keys: samples\n"
        assert captured.out == ""


class TestTableBench:
    def test_zero_workload_all_zero(self, tmp_path):
        code, text = run_to_file(tmp_path, "bench.csv", [
            "table-bench", "--u", "10", "--b", "3", "--keys", "random", "--n", "0",
        ])
        assert code == 0
        rows = data_rows(text)
        bench = next(r for r in rows if r.startswith("table-bench,"))
        assert bench.split(",")[8] == "0"

    def test_subspace_requires_power_of_two(self, capsys):
        assert main([
            "table-bench", "--u", "8", "--b", "3", "--keys", "subspace", "--n", "3",
        ]) == 1

    def test_deterministic(self, tmp_path):
        argv = ["table-bench", "--u", "10", "--b", "4", "--keys", "interval",
                "--n", "8,64", "--seed", "5"]
        _, a = run_to_file(tmp_path, "a.csv", argv)
        _, b = run_to_file(tmp_path, "b.csv", argv)
        assert data_rows(a) == data_rows(b)

    def test_growth_reflected(self, tmp_path):
        _, text = run_to_file(tmp_path, "bench.csv", [
            "table-bench", "--u", "10", "--b", "2", "--keys", "random", "--n", "64",
        ])
        resize_row = next(
            r for r in data_rows(text) if r.startswith("table-bench-resizes,")
        )
        assert int(resize_row.split(",")[8]) == 4  # 2 -> 6 bucket bits

    @pytest.mark.parametrize("b", ["23", "40"])
    def test_bucket_count_size_guard(self, b, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["table-bench", "--u", "32", "--b", b, "--n", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("size guard:") and err.count("\n") == 1
        assert f"2^{b} buckets" in err and "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "u": 2, "b": 1, "set": "interval", "set_size": 4,
            "trials": 20, "thresholds": [2], "seed": 7,
        }))
        code, text = run_to_file(
            tmp_path, "sim.csv", ["simulate", "--config", str(cfg)]
        )
        assert code == 0
        assert len([r for r in data_rows(text) if r.startswith("simulate,")]) == 20

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "u": 2, "b": 1, "set": "interval", "set_size": 4,
            "trials": 20, "seed": 7,
        }))
        code, text = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--config", str(cfg), "--trials", "5",
        ])
        assert code == 0
        assert len([r for r in data_rows(text) if r.startswith("simulate,")]) == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"u": 2, "b": 1, "set_size": 4, "bogus": 1}))
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_manifest_flags_replay(self, tmp_path):
        _, first = run_to_file(tmp_path, "a.csv", SIM_ARGS)
        flags = manifest_of(first)["flags"]
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(
            {k: v for k, v in flags.items()
             if k not in ("format", "out") and v is not None}
        ))
        code, second = run_to_file(
            tmp_path, "b.csv", ["simulate", "--config", str(cfg)]
        )
        assert code == 0
        assert data_rows(first) == data_rows(second)


class TestSeedEnvVar:
    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINBINS_SEED", "99")
        _, text = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--u", "2", "--b", "1", "--set", "interval",
            "--set-size", "4", "--trials", "2",
        ])
        assert manifest_of(text)["master_seed"] == 99

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINBINS_SEED", "99")
        _, text = run_to_file(tmp_path, "sim.csv", SIM_ARGS)
        assert manifest_of(text)["master_seed"] == 7

    def test_each_run_reads_the_env(self, tmp_path, monkeypatch):
        # one parser serves every run in a process; the seed is resolved per run
        argv = ["simulate", "--u", "2", "--b", "1", "--set", "interval",
                "--set-size", "4", "--trials", "2"]
        for seed in ("99", "5"):
            monkeypatch.setenv("LINBINS_SEED", seed)
            _, text = run_to_file(tmp_path, f"sim-{seed}.csv", argv)
            assert manifest_of(text)["master_seed"] == int(seed)
            trials = [row.split(",") for row in data_rows(text) if row.startswith("simulate,")]
            assert len(trials) == 2 and all(row[7] == seed for row in trials)

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("LINBINS_SEED", "not-a-number")
        assert main(["simulate", "--u", "2", "--b", "1", "--set-size", "4"]) == 1


class TestFailureExitCodes:
    """Failures exit with a documented code and a one-line message, no traceback."""

    @pytest.mark.parametrize("formula", ["c-epsilon", "tail-params", "ell-threshold"])
    def test_arithmetic_overflow(self, formula, capsys):
        assert main(["bounds", "--formula", formula, "--eps", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_overflow_names_formula_and_eps(self, capsys):
        assert main(["bounds", "--formula", "c-epsilon", "--eps", "0.01"]) == 1
        err = capsys.readouterr().err
        assert "4*(2/eps)^(8/eps)" in err
        assert "eps=0.01" in err
        assert "Traceback" not in err

    def test_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "estimate_tail", interrupted)
        out = tmp_path / "x.csv"
        argv = ["simulate", "--u", "4", "--b", "2", "--set-size", "3", "--trials", "2"]
        assert main(argv + ["--out", str(out)]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["simulate", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--u", "4", "--b", "2", "--set-size", "3", "--trials", "2"],
        ["bounds", "--formula", "e2"],
    ])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, argv, target, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        if target == "directory":
            out = tmp_path / "a-directory"
            out.mkdir()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(out) in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*")) == ([out] if target == "directory" else [])

    @pytest.mark.parametrize("sub,config", [
        ("simulate", {"u": 2, "b": 1, "set_size": 4, "jobs": 1.5}),
        ("simulate", {"u": 2, "b": 1, "set_size": 4, "trials": True}),
        ("simulate", {"u": 2, "b": 1, "set_size": 4, "set": "bogus"}),
        ("simulate", {"u": 2, "b": 1, "set_size": 4, "thresholds": [2, "x"]}),
        ("verify", {"inject_fault": 1}),
        ("verify", {"check": "nope"}),
        ("verify", {"u": 5}),
        ("verify", {"f": 4}),
        ("verify", {"b": 1}),
    ])
    def test_config_values_checked_like_flags(self, sub, config, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main([sub, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "Traceback" not in err


# Flag pools for the fuzz.  Each flag takes a value from its pool; a few
# flags per argv take a malformed value from _BAD instead, where None leaves
# the flag out.  Runs stay small: --jobs is always 1, and the flags in _KEEP
# are never left out, so no default-sized workload runs.
_BAD = (None, "-1", "0", "x", "2.5", "", ",")
_KEEP = {"--trials", "--instances", "--n"}
_SETS = ("interval", "random", "cluster", "subspace", "affine")
_FUZZ_FLAGS = {
    "simulate": {
        "--u": ("1", "3", "8", "16", "70"),
        "--b": ("1", "2", "4", "8"),
        "--set": _SETS,
        "--set-size": ("1", "4", "16", "64"),
        "--set-dim": ("1", "4", "8"),
        "--thresholds": ("1", "2,4", "64"),
        "--trials": ("1", "5", "20"),
        "--jobs": ("1",),
    },
    "exact": {
        "--u": ("1", "2", "3", "4", "6", "12"),
        "--b": ("1", "2", "3", "4"),
        "--set": _SETS,
        "--set-size": ("1", "4", "16", "64"),
        "--set-dim": ("1", "4", "8"),
        "--thresholds": ("1", "2,4", "64"),
    },
    "bounds": {
        "--formula": ("all", "c-epsilon", "surjective-miss", "e2", "tail",
                      "ell-threshold", "tail-params", "exponent-margin"),
        "--eps": ("0.5", "0.25", "0.01", "1.5", "nan", "inf"),
        "--alpha": ("0.5", "0.9", "1", "nan"),
        "--u": ("10", "64", "1000"),
        "--t": ("1", "4", "40"),
        "--b": ("8", "4,8", "64"),
        "--f": ("11", "64"),
        "--r": ("16", "16,256", "1e300", "nan"),
    },
    "table-bench": {
        "--u": ("4", "8", "16", "70"),
        "--b": ("1", "4", "8", "23", "40"),
        "--keys": ("random", "interval", "subspace"),
        "--n": ("0", "8", "0,16", "64", "3"),
    },
    "verify": {
        "--check": (None, *VERIFY_CHECKS),
        "--instances": ("1", "5", "20"),
        "--inject-fault": (None, True),
    },
}
# --bogus is an unknown flag, so it appears only with a malformed value.
_COMMON_FLAGS = {"--seed": (None, "7", "-3"), "--bogus": (None,)}


def _as_int(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


@st.composite
def fuzz_argv(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = {**_FUZZ_FLAGS[sub], **_COMMON_FLAGS}
    if sub in EMITTING_RUNS:
        flags["--format"] = (None, "csv", "json")
    bad = set()
    if draw(st.booleans()):
        bad = draw(st.sets(st.sampled_from(sorted(set(flags) - {"--jobs"})), max_size=2))
    argv, chosen = [sub], {}
    for flag, values in flags.items():
        if flag in bad:
            values = _BAD[1:] if flag in _KEEP else _BAD
        value = chosen[flag] = draw(st.sampled_from(values))
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, value]
    if sub == "exact":  # keep the enumeration to at most 2^12 maps
        u, b = _as_int(chosen["--u"]), _as_int(chosen["--b"])
        assume(u is None or b is None or u * b <= 12)
    return argv, draw(st.booleans())


class TestCliFuzz:
    """Every argv ends in a documented exit code, never a traceback, and a
    failed run leaves no --out file behind."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(fuzz_argv())
    def test_exit_codes_without_traceback(self, case):
        argv, with_out = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "rows"
            if with_out:
                argv = argv + ["--out", str(out)]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert not out.exists(), argv
