import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"seed": "\xff"}'),
        # Python parses no int of more than 4300 digits from a string
        lambda path: path.write_text('{"seed": ' + "1" * 5000 + "}"),
    ], ids=["directory", "not-utf-8", "int-beyond-the-digit-limit"])
    def test_unreadable_config_rejected(self, tmp_path, capsys, make):
        # each died with a traceback and exit 1, a failed verification's
        cfg_path = tmp_path / "conf.json"
        make(cfg_path)
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "v.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [cfg_path]

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
        ("histogram", {"g_tau": 1e308}),
    ])
    def test_value_the_library_rejects_exits_before_any_work(
            self, tmp_path, capsys, command, config):
        # a subnormal bin width, more bins than a block summary may hold
        # or a g_tau whose angle 2 * g_tau overflows fails validation, not
        # the run halfway with a traceback; every subcommand checks the
        # bin count
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

    @pytest.mark.parametrize("omega", [2 ** 63 - 1, 2 ** 64, 10 ** 30])
    def test_int_omega_beyond_int64_runs(self, tmp_path, omega):
        # numpy took an int beyond int64 as an object, and the histogram's
        # bin edges died with a casting error
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"omega": omega, "n_samples": 4}))
        out = tmp_path / "o.csv"
        assert main(["histogram", "--config", str(cfg_path), "--threads",
                     "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[-1]["bin_hi"]) == float(omega)
        assert sum(int(r["raw_count"]) for r in rows) == 4

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

    @pytest.mark.parametrize("omega, code", [
        (sys.float_info.min, 0),
        (math.nextafter(sys.float_info.min, 0.0), 2),
        (1e-310, 2),
        (5e-324, 2),
    ])
    def test_omega_must_be_a_normal_float(self, tmp_path, capsys, omega,
                                          code):
        # at a subnormal omega the energies lose their relative precision,
        # and verify would fail on roundoff: the config is rejected
        cfg_path = tmp_path / "conf.json"
        cfg_path.write_text(json.dumps({"omega": omega}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg_path),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert json.loads(out.read_text())["pass"] is True
        else:
            assert err.startswith("config error: omega must be a number "
                                  "in [2.2250738585072014e-308, ")
            assert err.count("\n") == 1
            assert not out.exists()

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


@pytest.mark.parametrize("command, written", [
    ("histogram", ["histogram.csv", "histogram.json"]),
    ("sweep-g", ["sweep_g.csv"]),
    ("sweep-reset", ["sweep_reset.csv"]),
    ("sample", ["samples.csv"]),
], ids=["histogram", "sweep-g", "sweep-reset", "sample"])
def test_default_out_in_the_working_directory(tmp_path, monkeypatch,
                                              command, written):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--n", "10"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written


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


#: per config key, values that run, then boundary values and wrong types.
#: n_samples and threads are always set and small, and no bin count that
#: runs is large, so that an accepted config runs in milliseconds.
LEAST_NORMAL = sys.float_info.min
CONFIG_VALUES = {
    "seed": ([0, 12345, 2 ** 64 - 1], [2 ** 64, -1, 7.0, True, None, "7"]),
    "n_samples": ([1, 2, 33], [0, -1, 2.0, True, None, "3"]),
    "omega": ([1.0, 3, 1e-8],
              [LEAST_NORMAL, math.nextafter(LEAST_NORMAL, 0.0), 5e-324,
               1e154, 1e160, 2 ** 63 - 1, 2 ** 64, 1e22, 0, -1.0, math.inf,
               math.nan, True, "1", None, [1.0]]),
    "omega_s": ([0, 1.0, math.pi], [1e200, -1.0, math.inf, True, "1"]),
    "g_tau": ([0, math.pi / 8, -1.0], [1e300, math.nan, False, None]),
    "gamma_tau_se": ([0, 1.0, 8.0], [1e308, -1.0, math.inf, True, "8"]),
    "tau_se": ([1.0, 0.5], [1e-320, 1e-10, 1e200, 0, -1.0, True]),
    "reset_mode": (["full", "finite"], ["Full", 1, None]),
    "g_tau_grid": ([[0.1], [0.0, 0.7]],
                   [[0.3, 0.1], [0.5, 0.5], [], [True], [math.nan], [1e300],
                    "0.1", None]),
    "gamma_tau_se_grid": ([[0.0], [0.5, 8.0]],
                          [[0, 1e308], [-1.0], [], [1, 1], [True], 0.5]),
    "bins": ([1, 2, 40], [MAX_BINS + 1, 0, True, 1.5, 10 ** 20, "40"]),
    "threads": ([1, 2], [0, -1, True, 1.5, "2"]),
    "unknown": ([], [1]),
}
ALWAYS_SET = ("n_samples", "threads")
#: a config of values that run, with at most two keys set to an edge value
CONFIGS = st.builds(
    lambda cfg, edges: {**cfg, **dict(edges)},
    st.fixed_dictionaries(
        {key: st.sampled_from(CONFIG_VALUES[key][0]) for key in ALWAYS_SET},
        optional={key: st.sampled_from(runs)
                  for key, (runs, _) in CONFIG_VALUES.items()
                  if runs and key not in ALWAYS_SET}),
    st.lists(st.sampled_from([(key, value)
                              for key, (_, edges) in CONFIG_VALUES.items()
                              for value in edges]), max_size=2))


def json_numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in json_numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


class TestGeneratedConfigs:
    """No config reaches a traceback, a warning or a silent failure: each
    subcommand exits 0 with finite outputs, or 2 with one config error
    line and no file written.  Exit 1 is verify's failure, which no
    accepted config may reach."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(command=st.sampled_from(["histogram", "sweep-g", "sweep-reset",
                                    "sample", "verify"]),
           config=CONFIGS)
    # an int omega beyond int64, and a subnormal omega for verify
    @example(command="histogram",
             config={"omega": 2 ** 64, "n_samples": 2, "threads": 1})
    @example(command="verify",
             config={"omega": 1e-310, "n_samples": 1, "threads": 1})
    def test_exit_code_and_outputs(self, command, config):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ), warnings.catch_warnings():
            warnings.simplefilter("error")
            os.environ.pop(SEED_ENV, None)
            cfg_path = Path(tmp) / "conf.json"
            cfg_path.write_text(json.dumps(config))
            out = Path(tmp) / ("o.json" if command == "verify" else "o.csv")
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            written = sorted(Path(tmp).iterdir())
            if code == 2:
                assert err.getvalue().startswith("config error: ")
                assert err.getvalue().count("\n") == 1
                assert written == [cfg_path]
                return
            assert code == 0, err.getvalue()
            numbers = []
            if command == "verify":
                report = json.loads(out.read_text())
                assert report["pass"] is True
                numbers += json_numbers(report)
            else:
                _, rows = read_csv(out)
                assert rows
                numbers += [float(v) for row in rows for v in row.values()]
            if command == "histogram":
                numbers += json_numbers(json.loads(
                    out.with_suffix(".json").read_text()))
            assert all(map(math.isfinite, numbers))
