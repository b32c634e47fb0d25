"""Pinned output bytes: sha256 digests of ``run_trajectory`` records,
of the ``verify`` report and of every file the other CLI subcommands
write, at fixed seeds, compared with the table in golden_digests.json.

A change that moves a byte updates the table and says why in CHANGES.md.
To print a fresh table, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from demon_battery import cli
from demon_battery.channels import apply_pulse
from demon_battery.demon import (Action, BayesGainPolicy, Ensemble,
                                 EnsembleSampler, PriorState)
from demon_battery.engine import EngineConfig, run_trajectory
from demon_battery.experiments import BLOCK_SIZE, HaarQubitSampler
from demon_battery.states import PureQubit

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (1, 41)
N_CYCLES = 300
RESET_MODES = ("full", "finite")
#: the CLI subcommands that write files from Monte Carlo samples, run at
#: this --n
CLI_COMMANDS = ("histogram", "sweep-g", "sweep-reset", "sample")
CLI_N = 2000
#: the full-reset subcommands, run again at this --n: past two blocks, so
#: their digests see how a point's blocks draw from its one stream
LONG_COMMANDS = ("histogram", "sweep-g")
LONG_N = 2 * BLOCK_SIZE + 7
#: golden["cli"] key -> (command, seed, --n)
CLI_CASES = {f"{command}-seed{seed}": (command, seed, CLI_N)
             for command in CLI_COMMANDS for seed in SEEDS}
CLI_CASES.update({f"{command}-n{LONG_N}-seed{seed}": (command, seed, LONG_N)
                  for command in LONG_COMMANDS for seed in SEEDS})


def _bayes_ensemble():
    return Ensemble.discrete([(PureQubit(math.pi / 3, 0.0), 0.3),
                              (PureQubit(2 * math.pi / 3, 0.4), 0.5),
                              (PureQubit(0.2, 1.0), 0.2)])


def _risk_table():
    """Leave the charged member 1 alone, pulse the others at 0.8 of its
    gain, whatever the outcome: the action follows the posterior, not the
    outcome alone."""
    return np.array([[[0.0, 1.0, 0.0]] * 2, [[0.8, 0.0, 0.8]] * 2])


def _config(policy, reset_mode):
    return EngineConfig.default(g_tau=0.3, gamma_tau_se=1.0,
                                reset_mode=reset_mode, policy=policy)


def _threshold_run(reset_mode, seed):
    gen = np.random.default_rng(seed)
    return run_trajectory(_config(None, reset_mode), N_CYCLES,
                          HaarQubitSampler(gen), gen)


def _bayes_run(reset_mode, recycle_prior, seed):
    ensemble = _bayes_ensemble()
    policy = BayesGainPolicy(table=_risk_table(),
                             prior=PriorState([0.2, 0.5, 0.3]),
                             ensemble=ensemble, recycle_prior=recycle_prior)
    gen = np.random.default_rng(seed)
    return run_trajectory(_config(policy, reset_mode), N_CYCLES,
                          EnsembleSampler(ensemble, gen), gen)


#: case name -> f(seed) giving one trajectory's records
TRAJECTORIES = {
    f"threshold-haar-{mode}": (lambda seed, mode=mode:
                               _threshold_run(mode, seed))
    for mode in RESET_MODES
}
TRAJECTORIES.update({
    f"bayes-{'recycle' if recycle else 'fixed'}-{mode}":
        (lambda seed, mode=mode, recycle=recycle:
         _bayes_run(mode, recycle, seed))
    for recycle in (False, True) for mode in RESET_MODES
})


def _matrix_bytes(m):
    return np.ascontiguousarray(m, dtype="<c16").tobytes()


def record_bytes(rec) -> bytes:
    """Every field of one CollisionRecord: integers and floats packed
    little-endian, states as their little-endian complex128 entries."""
    return (struct.pack("<bb", rec.outcome, int(rec.action))
            + struct.pack("<10d", rec.ancilla_in.theta, rec.ancilla_in.phi,
                          rec.probability, rec.ergotropy_in,
                          rec.ergotropy_out, rec.energy_in, rec.energy_meas,
                          rec.energy_out, rec.pulse_work, rec.delta_e_col)
            + _matrix_bytes(rec.ancilla_out.mat)
            + _matrix_bytes(rec.rho_s_next.mat))


def trajectory_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(record_bytes(rec))
    return h.hexdigest()


def verify_digest(tmp_dir: Path, seed) -> str:
    """sha256 of the file ``demon-battery verify`` writes; seed None
    leaves the default seed."""
    out = tmp_dir / f"verify-{seed}.json"
    argv = ["verify", "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def cli_digests(tmp_dir: Path, command: str, seed: int, n: int) -> list:
    """sha256 of each file ``demon-battery <command>`` writes at --n n:
    its --out, then for the histogram its JSON sidecar."""
    out = tmp_dir / f"{command}-{seed}.csv"
    argv = [command, "--out", str(out), "--seed", str(seed),
            "--n", str(n), "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    written = [out, out.with_suffix(".json")] if command == "histogram" \
        else [out]
    return [hashlib.sha256(path.read_bytes()).hexdigest() for path in written]


def _key(seed) -> str:
    return "default" if seed is None else str(seed)


def current_table(tmp_dir: Path) -> dict:
    return {
        "records": {f"{name}-seed{seed}": trajectory_digest(run(seed))
                    for name, run in TRAJECTORIES.items() for seed in SEEDS},
        "verify": {_key(seed): verify_digest(tmp_dir, seed)
                   for seed in SEEDS + (None,)},
        "cli": {key: cli_digests(tmp_dir, *case)
                for key, case in CLI_CASES.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_trajectory_records_match_golden(golden, name, seed):
    records = TRAJECTORIES[name](seed)
    assert len(records) == N_CYCLES
    assert trajectory_digest(records) == golden["records"][f"{name}-seed{seed}"]


@pytest.mark.parametrize("seed", SEEDS + (None,))
def test_verify_report_matches_golden(golden, tmp_path, monkeypatch, seed):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert verify_digest(tmp_path, seed) == golden["verify"][_key(seed)]


@pytest.mark.parametrize("key", CLI_CASES, ids=[
    f"{command}-{seed}" if n == CLI_N else f"{command}-n{n}-{seed}"
    for command, seed, n in CLI_CASES.values()])
def test_cli_outputs_match_golden(golden, tmp_path, monkeypatch, key):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli_digests(tmp_path, *CLI_CASES[key]) == golden["cli"][key]


def test_golden_table_covers_exactly_the_cases(golden):
    assert sorted(golden["records"]) == sorted(
        f"{name}-seed{seed}" for name in TRAJECTORIES for seed in SEEDS)
    assert sorted(golden["verify"]) == sorted(_key(s) for s in SEEDS + (None,))
    assert sorted(golden["cli"]) == sorted(CLI_CASES)


def test_record_bytes_see_every_field():
    rec = _threshold_run("finite", SEEDS[0])[0]
    moved = {f.name: getattr(rec, f.name) + 1.0 for f in fields(rec)
             if isinstance(getattr(rec, f.name), float)}
    moved.update(outcome=-rec.outcome,
                 action=Action(1 - int(rec.action)),
                 ancilla_in=PureQubit(0.5 * rec.ancilla_in.theta,
                                      rec.ancilla_in.phi),
                 ancilla_out=apply_pulse(rec.ancilla_out),
                 rho_s_next=apply_pulse(rec.rho_s_next))
    assert sorted(moved) == sorted(f.name for f in fields(rec))
    base = record_bytes(rec)
    for name, value in moved.items():
        assert record_bytes(replace(rec, **{name: value})) != base, name


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop(cli.SEED_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current_table(Path(tmp)), sys.stdout, indent=2,
                  sort_keys=True)
    sys.stdout.write("\n")
