import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demon_battery.cli as cli
import demon_battery.experiments as experiments
from demon_battery._checks import MAX_BINS
from demon_battery.cli import DEFAULTS, SEED_ENV, build_parser, load_config, main


def read_csv(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestHistogramCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main(["histogram", "--n", "2000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["bin_lo", "bin_hi", "raw_count", "processed_count"]
        assert len(rows) == 40
        assert sum(int(r["raw_count"]) for r in rows) == 2000
        assert sum(int(r["processed_count"]) for r in rows) == 2000
        sidecar = json.loads((tmp_path / "hist.json").read_text())
        assert set(sidecar) == {"raw_mean", "processed_mean", "std_errors",
                                "n", "seed", "params"}
        assert sidecar["n"] == 2000
        assert sidecar["seed"] == 12345
        assert abs(sidecar["processed_mean"]
                   - 0.5 * (1 + math.sin(math.pi / 4))) < 0.02
        assert sidecar["params"]["g_tau"] == pytest.approx(math.pi / 8)

    def test_single_sample_reports_zero_error(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["histogram", "--n", "1", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "one.json").read_text())
        assert sidecar["std_errors"] == {"raw": 0.0, "processed": 0.0}

    def test_rejects_zero_samples(self, tmp_path, capsys):
        code = main(["histogram", "--n", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "n_samples must be an integer >= 1" in capsys.readouterr().err

    def test_missing_output_directory(self, tmp_path, capsys):
        code = main(["histogram", "--n", "10",
                     "--out", str(tmp_path / "nope" / "x.csv")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_out_that_is_its_own_sidecar_rejected(self, tmp_path, capsys,
                                                  monkeypatch):
        # the .json sidecar of h.json is h.json: it would overwrite the counts
        def no_work(*args, **kwargs):
            raise AssertionError("the experiment ran")
        monkeypatch.setattr(cli, "run_histogram_experiment", no_work)
        code = main(["histogram", "--n", "10",
                     "--out", str(tmp_path / "h.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOutputsSpareTheConfig:
    """No output, nor the histogram's sidecar, may be the --config file."""

    def test_histogram_sidecar_is_the_config(self, tmp_path, capsys,
                                             monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the experiment ran")
        monkeypatch.setattr(cli, "run_histogram_experiment", no_work)
        config = tmp_path / "h.json"
        config.write_text('{"n_samples": 10}', encoding="utf-8")
        code = main(["histogram", "--config", str(config),
                     "--out", str(tmp_path / "h.csv")])
        assert code == 2
        assert "would overwrite the config file" in capsys.readouterr().err
        assert config.read_text(encoding="utf-8") == '{"n_samples": 10}'
        assert sorted(tmp_path.iterdir()) == [config]

    def test_sweep_out_is_the_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text('{"n_samples": 10}', encoding="utf-8")
        # the same file under another spelling
        code = main(["sweep-g", "--config", "c.json",
                     "--out", str(tmp_path / "." / "c.json")])
        assert code == 2
        assert "would overwrite the config file" in capsys.readouterr().err
        assert config.read_text(encoding="utf-8") == '{"n_samples": 10}'
        assert sorted(tmp_path.iterdir()) == [config]

    def test_other_outputs_still_written(self, tmp_path):
        config = tmp_path / "h.json"
        config.write_text('{"n_samples": 10}', encoding="utf-8")
        assert main(["histogram", "--config", str(config),
                     "--out", str(tmp_path / "run.csv")]) == 0
        assert (tmp_path / "run.json").exists()


class TestConfigHandling:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"n_samples": 500, "seed": 9}))
        out = tmp_path / "h.csv"
        assert main(["histogram", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "h.json").read_text())
        assert sidecar["n"] == 500 and sidecar["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"coupling": 2.0}))
        assert main(["histogram", "--config", str(cfg_path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text("{not json")
        assert main(["histogram", "--config", str(cfg_path),
                     "--out", str(tmp_path / "h.csv")]) == 2

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        assert main(["histogram", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "h.csv")]) == 2

    def test_non_increasing_grid_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"g_tau_grid": [0.3, 0.1]}))
        assert main(["sweep-g", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("omega", True, "omega must be a finite number"),
        ("omega_s", True, "omega_s must be a finite number"),
        ("g_tau", False, "g_tau must be a finite number"),
        ("gamma_tau_se", True, "gamma_tau_se must be a finite number"),
        ("tau_se", True, "tau_se must be a finite number"),
        ("bins", True, "bins must be an integer >= 1"),
        ("threads", True, "threads must be None or an integer >= 1"),
        ("g_tau_grid", [False, 0.5],
         "g_tau_grid[0] must be a finite number"),
        ("gamma_tau_se_grid", [False, 1.0],
         "gamma_tau_se_grid[0] must be a finite number >= 0"),
        ("omega_s", -1.0, "omega_s must be a finite number >= 0"),
    ])
    def test_ill_typed_or_unphysical_value_rejected(self, tmp_path, capsys,
                                                    key, value, message):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert main(["histogram", "--config", str(cfg_path),
                     "--out", str(tmp_path / "h.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("histogram", {"omega": 1e-320}),
        ("histogram", {"bins": 10 ** 20}),
        ("histogram", {"bins": MAX_BINS + 1}),
        ("sweep-g", {"bins": 10 ** 20}),
        ("sweep-reset", {"bins": MAX_BINS + 1}),
    ])
    def test_value_the_library_rejects_exits_before_any_work(
            self, tmp_path, capsys, command, config):
        # a subnormal bin width or more bins than a block summary may
        # hold fails validation, not the run halfway with a traceback;
        # every subcommand checks the bin count
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path), "--n", "10",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("command", ["histogram", "sweep-g",
                                         "sweep-reset"])
    @pytest.mark.parametrize("config, message", [
        # the sums overflowed: inf standard errors, then a traceback
        ({"omega": 1e160}, "n_samples * omega**2 must be finite, got "
         "n_samples=10000, omega=1e+160"),
        ({"omega": 1e308}, "omega=1e+308"),
        ({"tau_se": 1e200, "omega_s": 1e200},
         "omega_s * tau_se must be finite, got omega_s=1e+200, "
         "tau_se=1e+200"),
    ], ids=["omega-squares", "omega-top", "reset-phase"])
    def test_overflowing_value_exits_before_any_work(
            self, tmp_path, capsys, command, config, message):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("command, config", [
        ("histogram", {"gamma_tau_se": 1e308, "tau_se": 1e-10}),
        ("sweep-reset", {"gamma_tau_se": 1e308, "tau_se": 1e-10}),
        ("histogram", {"tau_se": 1e-320, "gamma_tau_se": 1}),
        ("sweep-g", {"tau_se": 1e-320, "gamma_tau_se": 1}),
        ("sweep-reset", {"tau_se": 1e-320, "gamma_tau_se": 1}),
        ("sweep-reset", {"gamma_tau_se_grid": [0, 1e308], "tau_se": 1e-10}),
    ])
    def test_complete_or_instant_reset_runs(self, tmp_path, command,
                                            config):
        # gamma_tau_se = 1e308 is a complete reset, and a tiny tau_se
        # only a tiny phase omega_s*tau_se: valid physics, run in full
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({**config, "reset_mode": "finite"}))
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg_path), "--n", "10",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert out.with_suffix(".json").exists() == (command == "histogram")

    def test_bin_width_binds_only_the_histogram(self, tmp_path):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"omega": 1e-320}))
        assert main(["sample", "--config", str(cfg_path), "--n", "3",
                     "--out", str(tmp_path / "s.csv")]) == 0

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEMON_BATTERY_SEED", "777")
        out = tmp_path / "h.csv"
        assert main(["histogram", "--n", "100", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "h.json").read_text())
        assert sidecar["seed"] == 777

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEMON_BATTERY_SEED", "777")
        out = tmp_path / "h.csv"
        assert main(["histogram", "--n", "100", "--seed", "42",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "h.json").read_text())
        assert sidecar["seed"] == 42

    # per key: its value in the config file, the environment (seed only)
    # and the flags, None where that layer leaves it unset
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(layers=st.fixed_dictionaries({
        key: st.tuples(st.none() | values,
                       st.none() | values if key == "seed" else st.none(),
                       st.none() | values)
        for key, values in (
            ("seed", st.integers(0, 2 ** 64 - 1)),
            ("n_samples", st.integers(1, 10 ** 9)),
            ("g_tau", st.floats(-10.0, 10.0)),
            ("gamma_tau_se", st.floats(0.0, 100.0)),
            ("threads", st.integers(1, 64)))}))
    def test_merge_precedence(self, layers):
        """defaults < config file < DEMON_BATTERY_SEED < flags, per key."""
        flag_names = {"seed": "--seed", "n_samples": "--n",
                      "g_tau": "--g-tau", "gamma_tau_se": "--gamma-tau-se",
                      "threads": "--threads"}
        file_cfg = {k: f for k, (f, _, _) in layers.items() if f is not None}
        argv = ["histogram"]
        for key, (_, _, flag) in layers.items():
            if flag is not None:
                argv += [flag_names[key], repr(flag)]
        env_seed = layers["seed"][1]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ):
            cfg_path = Path(tmp) / "conf.json"
            cfg_path.write_text(json.dumps(file_cfg))
            os.environ.pop(SEED_ENV, None)
            if env_seed is not None:
                os.environ[SEED_ENV] = str(env_seed)
            cfg = load_config(build_parser().parse_args(
                argv + ["--config", str(cfg_path)]))
        for key, stack in layers.items():
            set_values = [v for v in stack if v is not None]
            expected = set_values[-1] if set_values else DEFAULTS[key]
            assert cfg[key] == expected, key

    def test_invalid_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEMON_BATTERY_SEED", "lots")
        assert main(["histogram", "--out", str(tmp_path / "h.csv")]) == 2
        assert "DEMON_BATTERY_SEED" in capsys.readouterr().err


class TestSweepCommands:
    def test_g_sweep_rows_monotone(self, tmp_path):
        out = tmp_path / "sg.csv"
        assert main(["sweep-g", "--n", "2000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 5
        assert header[0] == "g_tau"
        means = [float(r["processed_mean"]) for r in rows]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-g", "--n", "1500", "--out", str(a)]) == 0
        assert main(["sweep-g", "--n", "1500", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_is_invisible_in_output(self, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(["sweep-g", "--n", "1500", "--threads", "1",
                     "--out", str(a)]) == 0
        assert main(["sweep-g", "--n", "1500", "--threads", "4",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, n", [
        ("histogram", 2 * experiments.BLOCK_SIZE + 7),
        ("sweep-reset", experiments.BLOCK_SIZE + 3),
    ])
    def test_any_thread_count_writes_the_same_bytes(self, tmp_path, command,
                                                    n):
        outputs = set()
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}.csv"
            assert main([command, "--n", str(n), "--threads", str(threads),
                         "--out", str(out)]) == 0
            sidecar = out.with_suffix(".json")
            outputs.add(out.read_bytes()
                        + (sidecar.read_bytes() if sidecar.exists() else b""))
        assert len(outputs) == 1

    def test_reset_sweep_shape(self, tmp_path):
        out = tmp_path / "sr.csv"
        assert main(["sweep-reset", "--n", "1500", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 6
        assert header == ["gamma_tau_se", "raw_mean", "raw_std_error",
                          "processed_mean", "processed_std_error"]

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "sg.csv"
        main(["sweep-g", "--n", "200", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestVerifyCommand:
    def test_pass_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_deviation"] <= 1e-10
        assert report["grid"]["theta_points"] == 181

    def test_default_grids(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        assert grid["g_tau_values"] == list(experiments.DEFAULT_G_TAU_GRID)
        assert grid["n_points"] == 181 * len(experiments.DEFAULT_G_TAU_GRID)
        assert grid["skipped_degenerate_branches"] == 2

    def test_stdout_by_default(self, capsys):
        assert main(["verify"]) == 0
        assert '"pass": true' in capsys.readouterr().out

    @pytest.mark.parametrize("omega", [1e-8, 1e3, 1e7])
    def test_passes_at_any_scale_of_omega(self, tmp_path, omega):
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"omega": omega}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_deviation"] <= 1e-10

    def test_detects_broken_oracle(self, tmp_path, monkeypatch):
        true_oracle = experiments.energetics_oracle

        def skewed(theta, g_tau, omega):
            o = true_oracle(theta, g_tau, omega)
            return type(o)(**{**o.__dict__,
                              "w_processed": o.w_processed + 1e-6})

        monkeypatch.setattr(experiments, "energetics_oracle", skewed)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 1


class TestSampleCommand:
    def test_dumps_raw_ergotropies(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", "--n", "4000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["ergotropy"]
        w = np.array([float(r["ergotropy"]) for r in rows])
        assert len(w) == 4000
        assert w.min() >= 0.0 and w.max() <= 1.0
        assert abs(w.mean() - 0.5) < 3 * w.std(ddof=1) / math.sqrt(4000)

    def test_peak_memory_flat_in_n(self, tmp_path):
        # rows are written as they are drawn, never held all at once
        def peak(n):
            tracemalloc.start()
            try:
                assert main(["sample", "--n", str(n),
                             "--out", str(tmp_path / f"{n}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(2000)    # imports and first-call caches
        small = peak(2000)
        assert peak(200_000) - small < 64 * 1024


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "s.csv"
    # the child must import the package under test, which need not be
    # installed: pytest may have put it on sys.path from the source tree
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "demon_battery", "sample", "--n", "5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_console_script_entry_exits_zero(tmp_path, monkeypatch):
    # pyproject.toml installs demon-battery as cli:entry, which reads
    # sys.argv and exits with main's code
    out = tmp_path / "verify.json"
    monkeypatch.setattr(sys, "argv",
                        ["demon-battery", "verify", "--out", str(out)])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 0
    assert json.loads(out.read_text())["pass"] is True
