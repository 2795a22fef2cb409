import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prafd
from prafd import cli, experiment
from prafd.cli import main


class TestSolve:
    def test_prints_rates(self, capsys):
        rc = main(["solve", "--set", "K_D=1", "--set", "K_U=1",
                   "--set", "N_t=2", "--set", "N_r=2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weighted rate" in out
        assert "outer iterations" in out

    def test_positions_flag(self, capsys):
        rc = main(["solve", "--set", "K_D=1", "--set", "K_U=1",
                   "--set", "N_t=2", "--set", "N_r=2", "--positions"])
        assert rc == 0
        assert "transmit positions" in capsys.readouterr().out

    def test_algorithm_choice(self, capsys):
        rc = main(["solve", "--algo", "fpas", "--set", "K_D=1",
                   "--set", "K_U=1", "--set", "N_t=2", "--set", "N_r=2"])
        assert rc == 0
        assert "fpas" in capsys.readouterr().out

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("K_D = 1\nK_U = 1\nN_t = 2\nN_r = 2\n")
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 0

    def test_bad_setting_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--set", "bandwidth=1"])
        assert exc.value.code == 2

    def test_zero_carrier_frequency_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--set", "f_c=0"])
        assert exc.value.code == 2
        assert "f_c" in capsys.readouterr().err

    def test_negative_trial_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--trial", "-1"])
        assert exc.value.code == 2
        assert "--trial" in capsys.readouterr().err

    def test_malformed_setting_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--set", "K_D"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_with_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert exc.value.code == 2

    def test_rate_matches_the_experiment_trial(self, tmp_path, capsys):
        scenario = ["--set", "K_D=1", "--set", "K_U=1", "--set", "N_t=2",
                    "--set", "N_r=2", "--seed", "3"]
        out = tmp_path / "run"
        assert main(["experiment", "--trials", "2", "--algos", "fp-gd",
                     "--out", str(out)] + scenario) == 0
        with open(f"{out}_raw.csv", newline="") as fh:
            row = [r for r in csv.DictReader(fh) if r["trial"] == "1"][0]
        capsys.readouterr()
        assert main(["solve", "--algo", "fp-gd", "--trial", "1"]
                    + scenario) == 0
        assert (f"weighted rate    {float(row['rate']):.6f} bit/s/Hz"
                in capsys.readouterr().out)

    def test_failed_trial_returns_one(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("feasible region is empty")

        monkeypatch.setattr(experiment, "run_algorithm", broken)
        rc = main(["solve", "--set", "K_D=1", "--set", "K_U=1"])
        assert rc == 1
        assert "feasible region is empty" in capsys.readouterr().out


class TestExperiment:
    def test_writes_csv_pair(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["experiment", "--trials", "2", "--algos", "fp-bsum,fpas",
                   "--out", str(out),
                   "--set", "K_D=1", "--set", "K_U=1",
                   "--set", "N_t=2", "--set", "N_r=2"])
        assert rc == 0
        with open(f"{out}_raw.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2
        with open(f"{out}_agg.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2
        assert "rate_mean" in capsys.readouterr().out

    def test_sweep_argument(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["experiment", "--trials", "1", "--algos", "fpas",
                   "--sweep", "A=2,4", "--out", str(out),
                   "--set", "K_D=1", "--set", "K_U=1",
                   "--set", "N_t=1", "--set", "N_r=1"])
        assert rc == 0
        with open(f"{out}_agg.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2

    def test_bad_sweep_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--sweep", "A", "--trials", "1"])
        assert exc.value.code == 2

    def test_unknown_sweep_field_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--sweep", "bandwidth=1,2", "--trials", "1"])
        assert exc.value.code == 2

    def test_unknown_algorithm_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--algos", "genie", "--trials", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args, field", [
        (["--algos", ","], "--algos"),
        (["--algos", "fpas,fpas"], "--algos"),
        (["--threads", "0"], "--threads"),
        (["--algos", "fpas", "--sweep", "A=2,2"], "--sweep"),
        (["--algos", "fpas", "--sweep", "bandwidth=1,2"], "bandwidth"),
        (["--algos", "fpas", "--sweep", "N=1.5"], "integral"),
    ])
    def test_bad_spec_exits_before_writing(self, tmp_path, capsys, args,
                                           field):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--trials", "1", "--out", str(out)] + args)
        assert exc.value.code == 2
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_out_directories_are_made(self, tmp_path):
        out = tmp_path / "new" / "nested" / "run"
        rc = main(["experiment", "--trials", "1", "--algos", "fpas",
                   "--out", str(out),
                   "--set", "K_D=1", "--set", "K_U=1",
                   "--set", "N_t=1", "--set", "N_r=1"])
        assert rc == 0
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "run_agg.csv", "run_raw.csv"]

    def test_uncreatable_out_directory_exits_before_any_trial(
            self, tmp_path, monkeypatch):
        def never(spec):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--trials", "1", "--algos", "fpas",
                  "--out", str(blocker / "sub" / "run")])
        assert exc.value.code == 2


class TestOracle:
    def test_reduced_counts_pass(self, capsys):
        rc = main(["oracle", "--count", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_reports_the_placement_hessian_check(self, capsys):
        assert main(["oracle", "--count", "20"]) == 0
        assert "placement Hessian vs differences" in capsys.readouterr().out

    def test_reports_the_bundle_offset_check(self, capsys):
        assert main(["oracle", "--count", "20"]) == 0
        assert "bundle offset vs objective" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_with_usage_error(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err

    def test_negative_seed_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--seed", "-1", "--count", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_runs_as_a_module(self):
        src = str(Path(prafd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "prafd", "oracle",
                              "--count", "5"], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "all checks passed" in out.stdout
