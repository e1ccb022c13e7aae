import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cqcap
from cqcap import CqChannel, random_channel, save_channel
from cqcap.cli import main
from helpers import BUDGET_CAPACITY, nonorthogonal_pair_channel, orthogonal_channel


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def orth_file(tmp_path):
    path = tmp_path / "orth.json"
    save_channel(orthogonal_channel(2), path)
    return str(path)


@pytest.fixture
def budget_file(tmp_path):
    path = tmp_path / "budget.json"
    save_channel(orthogonal_channel(2, costs=[0.0, 1.0]), path)
    return str(path)


class TestGen:
    def test_deterministic_bytes(self, capsys, tmp_path):
        out = tmp_path / "chan.json"
        args = ["gen", "--n", "2", "--m", "2", "--seed", "7", "--kind", "pure",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

    def test_diagonal_kind_writes_exact_zeros(self, capsys, tmp_path):
        out = tmp_path / "diag.json"
        code, _, _ = run_cli(capsys, ["gen", "--n", "3", "--m", "2", "--seed", "1",
                                      "--kind", "diagonal", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        for state in doc["states"]:
            for i in range(2):
                for j in range(2):
                    if i != j:
                        assert state[i][j] == [0.0, 0.0]

    def test_generated_file_validates(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen", "--n", "2", "--m", "2", "--seed", "3", "--kind", "mixed",
                     "--out", str(out)]) == 0
        code, _, _ = run_cli(capsys, ["validate", "--channel", str(out)])
        assert code == 0

    def test_bad_params_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["gen", "--n", "0", "--m", "2", "--seed", "1",
                                        "--kind", "pure", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert json.loads(err)["error"] == "BadParams"

    def test_costs_uniform_prices_every_letter_at_one(self, capsys, tmp_path):
        out = tmp_path / "u.json"
        code, _, err = run_cli(capsys, ["gen", "--n", "3", "--m", "2", "--seed", "9",
                                        "--kind", "mixed", "--out", str(out),
                                        "--costs", "uniform"])
        assert code == 0 and err == ""
        assert json.loads(out.read_text())["costs"] == [1.0, 1.0, 1.0]
        assert cqcap.load_channel(out).costs.tolist() == [1.0, 1.0, 1.0]

    def test_costs_random_is_deterministic(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        args = ["gen", "--n", "3", "--m", "2", "--seed", "9", "--kind", "pure",
                "--out", str(out), "--costs", "random"]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert len(doc["costs"]) == 3
        capsys.readouterr()


class TestCapacityCommand:
    def test_orthogonal_pair_report(self, capsys, orth_file):
        code, out, _ = run_cli(capsys, ["capacity", "--channel", orth_file])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["capacity_bits"] == pytest.approx(1.0, abs=1e-6)
        assert report["result"]["constraint_active"] is False
        assert report["result"]["termination"] == "gap_reached"
        assert report["result"]["certified"] is True
        assert report["result"]["iterations"] >= 1
        assert report["input"]["sha256"]

    def test_report_states_the_spectra_it_took(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_channel(random_channel(2, 3, 7, "mixed"), path)
        code, out, _ = run_cli(capsys, ["capacity", "--channel", str(path), "--eps", "1e-8"])
        assert code == 0
        reported = json.loads(out)["result"]
        solved = cqcap.unconstrained_capacity(cqcap.load_channel(path), epsilon=1e-8)
        assert reported["iterations"] == solved.iterations
        assert reported["rejected_steps"] == solved.rejected_steps > 0
        assert reported["newton_steps"] == solved.newton_steps > 0

    def test_budgeted_run(self, capsys, budget_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, ["capacity", "--channel", budget_file, "--cost-limit", "0.3",
                     "--trace", str(trace_path)]
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["capacity_bits"] == pytest.approx(BUDGET_CAPACITY, abs=1e-5)
        assert report["result"]["constraint_active"] is True
        assert report["result"]["expected_cost_units"] == pytest.approx(0.3, abs=1e-6)
        assert report["result"]["certified"] is True
        # one solve, one trace row per iteration
        rows = trace_path.read_text().strip().splitlines()[1:]
        assert report["result"]["iterations"] == len(rows) >= 1

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["capacity", "--channel", str(bad)])
        assert code == 2
        assert "error" in json.loads(err)

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["capacity", "--channel", str(tmp_path / "nope.json")])
        assert code == 2

    def test_infeasible_budget_exit_3(self, capsys, tmp_path):
        path = tmp_path / "pricey.json"
        save_channel(orthogonal_channel(2, costs=[0.5, 1.0]), path)
        code, _, err = run_cli(
            capsys, ["capacity", "--channel", str(path), "--cost-limit", "0.1"]
        )
        assert code == 3
        assert json.loads(err)["error"] == "InfeasibleCost"

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "-1"],
                                       ["--max-iter", "0"], ["--cost-limit", "nan"],
                                       ["--eps", "nan"], ["--max-iter", "-3"]])
    def test_bad_parameters_exit_2(self, capsys, budget_file, flags):
        code, out, err = run_cli(capsys, ["capacity", "--channel", budget_file] + flags)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BadParams"

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "0"], "epsilon must be positive, got 0.0"),
        (["--max-iter", "0"], "max_iter must be at least 1, got 0"),
        (["--cost-limit", "nan"], "cost_limit must be a number or inf, got nan"),
    ], ids=["eps", "max-iter", "cost-limit"])
    def test_library_rejects_bad_parameters_before_the_solve(self, capsys, monkeypatch,
                                                            budget_file, flags, message):
        calls = []
        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda",
                            lambda *args, **kwargs: calls.append(1))
        code, out, err = run_cli(capsys, ["capacity", "--channel", budget_file] + flags)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "BadParams", "message": message}
        assert calls == []

    def test_channel_is_loaded_before_the_parameters_are_checked(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["capacity", "--channel", str(tmp_path / "nope.json"),
                                        "--eps", "0"])
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_infinite_budget_is_inactive(self, capsys, budget_file):
        code, out, _ = run_cli(
            capsys, ["capacity", "--channel", budget_file, "--cost-limit", "inf"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["constraint_active"] is False
        assert result["capacity_bits"] == pytest.approx(1.0, abs=1e-6)
        assert all(math.isfinite(b) for b in result["gap_certificate_bits"])

    def test_any_package_error_exit_3(self, capsys, monkeypatch, orth_file):
        from cqcap import cli
        from cqcap.errors import SupportViolation

        def fail(*args, **kwargs):
            raise SupportViolation("mass outside the reference support")

        monkeypatch.setattr(cli, "constrained_capacity", fail)
        code, _, err = run_cli(capsys, ["capacity", "--channel", orth_file])
        assert code == 3
        assert json.loads(err)["error"] == "SupportViolation"

    def test_trace_csv_well_formed(self, capsys, tmp_path):
        path = tmp_path / "nonorth.json"
        save_channel(nonorthogonal_pair_channel(), path)
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            ["capacity", "--channel", str(path), "--eps", "1e-8",
             "--trace", str(trace_path)],
        )
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "t,f_bits,lower_bits,upper_bits,expected_cost,l1_step"
        rows = [line.split(",") for line in lines[1:]]
        f_bits = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(f_bits, f_bits[1:]))
        for r in rows:
            assert float(r[2]) <= float(r[3]) + 1e-10
        assert json.loads(out)["trace_path"] == str(trace_path)

    def test_trace_cost_and_l1_columns_derive_from_the_iterates(self, capsys, tmp_path):
        ch = CqChannel(random_channel(3, 2, 5, "mixed").states, [0.2, 1.0, 0.5])
        path = tmp_path / "priced.json"
        save_channel(ch, path)
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, ["capacity", "--channel", str(path),
                                        "--cost-limit", "0.4", "--trace", str(trace_path)])
        assert code == 0
        report = json.loads(out)["result"]
        assert report["constraint_active"] is True
        rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
        # the same solve in process: the CLI makes one library call
        loaded = cqcap.load_channel(path)
        iterates = cqcap.constrained_capacity(loaded, 0.4).trace.iterates
        assert len(rows) == len(iterates) > 1
        moved_to = iterates[1:] + [np.array(report["probs"])]
        for row, iterate, after in zip(rows, iterates, moved_to):
            assert float(row[4]) == float(loaded.costs @ iterate)
            assert float(row[5]) == float(np.abs(after - iterate).sum())

    def test_unwritable_trace_path_exit_2_before_the_solve(self, capsys, monkeypatch,
                                                           orth_file, tmp_path):
        from cqcap import cli

        calls = []
        monkeypatch.setattr(cli, "constrained_capacity", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, ["capacity", "--channel", orth_file, "--trace",
                                          str(tmp_path / "missing" / "trace.csv")])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"
        assert calls == []

    def test_failed_trace_write_after_the_solve_exit_2(self, capsys, monkeypatch,
                                                       orth_file, tmp_path):
        from cqcap import cli

        folder = tmp_path / "gone"
        folder.mkdir()
        solve = cli.constrained_capacity

        def solve_then_remove_folder(*args, **kwargs):
            result = solve(*args, **kwargs)
            shutil.rmtree(folder)
            return result

        monkeypatch.setattr(cli, "constrained_capacity", solve_then_remove_folder)
        code, out, err = run_cli(capsys, ["capacity", "--channel", orth_file, "--trace",
                                          str(folder / "trace.csv")])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_failed_solve_leaves_the_trace_file_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "pricey.json"
        save_channel(orthogonal_channel(2, costs=[0.5, 1.0]), path)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")
        for trace in (old, new):
            code, _, _ = run_cli(capsys, ["capacity", "--channel", str(path),
                                          "--cost-limit", "0.1", "--trace", str(trace)])
            assert code == 3
        assert old.read_text() == "kept\n"
        assert new.read_text() == ""

    def test_reports_deterministic_modulo_timing(self, capsys, orth_file):
        _, out1, _ = run_cli(capsys, ["capacity", "--channel", orth_file])
        _, out2, _ = run_cli(capsys, ["capacity", "--channel", orth_file])
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        assert a == b

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_module_entry_point(self, orth_file, tmp_path, flags):
        # the child imports the same cqcap as this process, installed or not
        paths = [str(Path(cqcap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

        def capacity(channel_file):
            return subprocess.run(
                [sys.executable, *flags, "-m", "cqcap.cli", "capacity",
                 "--channel", channel_file],
                capture_output=True, text=True, env=env,
            )

        proc = capacity(orth_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["capacity_bits"] == pytest.approx(
            1.0, abs=1e-6
        )
        # validation is not an assert, so -O keeps it: diag(1.2, -0.2) is refused
        bad = tmp_path / "not_psd.json"
        zero = [0.0, 0.0]
        bad.write_text(json.dumps({"dim": 2, "states": [
            [[[1.2, 0.0], zero], [zero, [-0.2, 0.0]]],
            [[[0.5, 0.0], zero], [zero, [0.5, 0.0]]],
        ]}))
        proc = capacity(str(bad))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "NotPSD"


class TestValidateCommand:
    def test_duplicated_states_still_valid(self, capsys, tmp_path):
        from cqcap import CqChannel

        path = tmp_path / "dup.json"
        rho = np.eye(2) / 2
        save_channel(CqChannel([rho, rho]), path)
        code, out, _ = run_cli(capsys, ["validate", "--channel", str(path)])
        assert code == 0
        assert "independent: false" in out

    def test_oracle_cross_check_runs(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        save_channel(nonorthogonal_pair_channel(), path)
        code, out, _ = run_cli(
            capsys, ["validate", "--channel", str(path), "--oracle-grid", "1000"]
        )
        assert code == 0
        gap_line = next(line for line in out.splitlines() if "gap_bits=" in line)
        gap = float(gap_line.split("gap_bits=")[1].split()[0])
        assert gap < 1e-4

    @pytest.mark.parametrize("resolution", ["0", "1", "-5"])
    def test_grid_below_two_exit_2_before_any_report(self, capsys, tmp_path, resolution):
        path = tmp_path / "pair.json"
        save_channel(nonorthogonal_pair_channel(), path)
        code, out, err = run_cli(
            capsys, ["validate", "--channel", str(path), "--oracle-grid", resolution]
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "BadParams"

    def test_oracle_disagreement_exit_4(self, capsys, monkeypatch, tmp_path):
        from cqcap import cli

        path = tmp_path / "pair.json"
        save_channel(nonorthogonal_pair_channel(), path)
        grid = cli.grid_capacity
        monkeypatch.setattr(cli, "grid_capacity", lambda ch, spec: dataclasses.replace(
            grid(ch, spec), value_bits=0.0))
        code, out, _ = run_cli(capsys, ["validate", "--channel", str(path)])
        assert code == 4
        assert "oracle check: FAIL" in out
        assert not out.endswith("ok\n")

    def test_bad_grid_fails_before_the_load_on_any_alphabet(self, capsys, tmp_path):
        path = tmp_path / "five.json"
        save_channel(random_channel(5, 2, 3, "mixed"), path)
        for channel in (str(path), str(tmp_path / "nope.json")):
            code, out, err = run_cli(capsys, ["validate", "--channel", channel,
                                              "--oracle-grid", "1"])
            assert code == 2
            assert out == ""
            assert json.loads(err) == {"error": "BadParams",
                                       "message": "grid resolution must be at least 2, got 1"}

    def test_bad_trace_state_exit_2(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        doc = {
            "dim": 2,
            "states": [[[[1.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        }
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["validate", "--channel", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "BadTrace"


class TestOneLibraryCall:
    def test_missing_budget_is_an_infinite_one(self, capsys, tmp_path):
        path = tmp_path / "costly.json"
        save_channel(CqChannel(random_channel(3, 2, 41, "mixed").states, [0.2, 0.9, 0.5]), path)
        reports = []
        for flags in ([], ["--cost-limit", "inf"]):
            code, out, _ = run_cli(capsys, ["capacity", "--channel", str(path)] + flags)
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0]["result"] == reports[1]["result"]
        assert reports[0]["config"]["cost_limit"] is None
        assert reports[1]["config"]["cost_limit"] == math.inf


class TestGridLimit:
    def test_oversized_grid_exit_2_before_any_solve(self, capsys, tmp_path):
        path = tmp_path / "four.json"
        save_channel(random_channel(4, 2, 5, "mixed"), path)
        code, out, err = run_cli(
            capsys, ["validate", "--channel", str(path), "--oracle-grid", "1000"]
        )
        assert code == 2
        assert "solver_bits" not in out
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "BadParams"
