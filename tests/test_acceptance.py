"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are pinned here and never derived from the code under
test.  Monte Carlo checks use 3x standard-error bands at the pinned
default seed.
"""

import math
import time

import numpy as np

from demon_battery.channels import (apply_pulse, collide, measure,
                                    reset_closed_form)
from demon_battery.cli import main
from demon_battery.engine import EngineConfig
from demon_battery.experiments import (DEFAULT_G_TAU_GRID,
                                       DEFAULT_GAMMA_TAU_GRID, SweepSpec,
                                       run_histogram_experiment, run_sweep,
                                       verify_energetics)
from demon_battery.states import (DensityMatrix, PureQubit, ergotropy,
                                  ergotropy_pure, ground_state, to_density)

from conftest import (haar_unitary, qubit_hamiltonian, random_density,
                      reset_numeric)

SEED = 12345
OMEGA = 1.0
H_A = qubit_hamiltonian(OMEGA)
#: absolute floor added to 3-sigma bands so zero-variance points (e.g.
#: g tau = pi/4, where every branch ergotropy equals omega exactly) admit
#: float roundoff
SE_FLOOR = 1e-9


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_energetics_oracle_equivalence():
    t0 = time.perf_counter()
    rep = verify_energetics()  # 181 theta points x 5 g tau values
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.max_deviation <= 1e-10 and elapsed < 5.0
    report(1, ok,
           f"channel vs closed forms on {rep.n_points} grid points: "
           f"max deviation {rep.max_deviation:.3e} (tol 1e-10), "
           f"{elapsed:.2f}s (budget 5s)")


def test_criterion_2_figure2_reproduction():
    t0 = time.perf_counter()
    cfg = EngineConfig.default()
    hist = run_histogram_experiment(cfg, 10_000, SEED)
    spec = SweepSpec("g_tau", DEFAULT_G_TAU_GRID, 10_000, cfg, SEED)
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - t0

    target = 0.5 * (1.0 + math.sin(math.pi / 4))
    checks = []
    checks.append(("processed mean",
                   abs(hist.processed.mean - target)
                   <= 3 * hist.processed.std_error))
    checks.append(("raw mean",
                   abs(hist.raw.mean - 0.5) <= 3 * hist.raw.std_error))
    means = [r["processed_mean"] for r in rows]
    for r in rows:
        want = 0.5 * (1.0 + math.sin(2.0 * r["g_tau"]))
        tol = 3 * r["processed_std_error"] + SE_FLOOR
        checks.append((f"sweep point {r['g_tau']:.4f}",
                       abs(r["processed_mean"] - want) <= tol))
    checks.append(("monotone increasing",
                   all(b > a for a, b in zip(means, means[1:]))))
    checks.append(("endpoint g tau=0 -> 1/2",
                   abs(means[0] - 0.5)
                   <= 3 * rows[0]["processed_std_error"] + SE_FLOOR))
    checks.append(("endpoint g tau=pi/4 -> 1",
                   abs(means[-1] - 1.0)
                   <= 3 * rows[-1]["processed_std_error"] + SE_FLOOR))
    checks.append(("runtime", elapsed < 10.0))
    failed = [name for name, ok in checks if not ok]
    report(2, not failed,
           f"histogram mean {hist.processed.mean:.5f} (target {target:.5f}), "
           f"raw {hist.raw.mean:.5f}, 5-point sweep ok, {elapsed:.2f}s "
           f"(budget 10s)" + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_3_figure3_reset_sweep():
    t0 = time.perf_counter()
    cfg = EngineConfig.default()
    full = run_histogram_experiment(cfg, 10_000, SEED)
    spec = SweepSpec("gamma_tau_se", DEFAULT_GAMMA_TAU_GRID, 10_000, cfg, SEED)
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - t0

    checks = []
    for prev, cur in zip(rows, rows[1:]):
        band = 3 * math.hypot(prev["processed_std_error"],
                              cur["processed_std_error"])
        checks.append((f"monotone at {cur['gamma_tau_se']}",
                       cur["processed_mean"]
                       >= prev["processed_mean"] - band))
    checks.append(("matches full reset at gamma tau=8",
                   abs(rows[-1]["processed_mean"] - full.processed.mean)
                   <= 0.01))
    checks.append(("below raw mean at gamma tau=0",
                   rows[0]["processed_mean"] < 0.5))
    checks.append(("runtime", elapsed < 60.0))
    failed = [name for name, ok in checks if not ok]
    report(3, not failed,
           f"means {[round(r['processed_mean'], 4) for r in rows]}, "
           f"full-reset ref {full.processed.mean:.4f}, {elapsed:.2f}s "
           f"(budget 60s)" + (f"; FAILED: {failed}" if failed else ""))


def test_criterion_4_ergotropy_brute_force():
    rng = np.random.default_rng(2024)
    unitaries = np.stack([haar_unitary(rng, 2) for _ in range(100_000)])
    rotated = np.einsum("uji,jk,ukl->uil", unitaries.conj(), H_A,
                        unitaries)
    worst_gap = 0.0
    floor_ok = True
    for _ in range(100):
        rho = DensityMatrix(random_density(rng, 2))
        energies = np.einsum("uij,ji->u", rotated, rho.mat).real
        mean_energy = float(np.trace(rho.mat @ H_A).real)
        w_exact = ergotropy(rho, OMEGA)
        # no sampled unitary may extract more than the sort formula says:
        # the brute-force energy minimum never undercuts the passive energy
        floor_ok &= energies.min() >= (mean_energy - w_exact) - 1e-12
        w_brute = mean_energy - energies.min()
        worst_gap = max(worst_gap, abs(w_brute - w_exact))
    pure_dev = 0.0
    for _ in range(1000):
        psi = PureQubit(float(rng.uniform(0, math.pi)),
                        float(rng.uniform(0, 2 * math.pi)))
        pure_dev = max(pure_dev, abs(ergotropy_pure(psi, OMEGA)
                                     - ergotropy(to_density(psi), OMEGA)))
    ok = floor_ok and worst_gap <= 1e-4 and pure_dev <= 1e-12
    report(4, ok,
           f"10^5-unitary minimization on 100 states: passive-energy floor "
           f"held ({floor_ok}), worst ergotropy gap {worst_gap:.2e} "
           f"(tol 1e-4); pure formula dev {pure_dev:.2e} (tol 1e-12)")


def test_criterion_5_reset_channel_oracle():
    worst = 0.0
    for gamma_tau in (0.1, 1.0, 3.0):
        for phase in (0.0, 1.0, math.pi):
            for sign in (+1, -1):
                amp = np.array([1.0, sign], dtype=complex) / math.sqrt(2)
                start = DensityMatrix(np.outer(amp, amp.conj()))
                got = reset_numeric(start, gamma_tau, phase)
                want = reset_closed_form(sign, gamma_tau, phase)
                worst = max(worst, float(np.max(np.abs(got.mat - want.mat))))
    ok = worst <= 1e-8
    report(5, ok,
           f"RK4 vs closed form over 3x3 grid from both projectors: "
           f"max entry deviation {worst:.2e} (tol 1e-8)")


def test_criterion_6_conservation_identities():
    rng = np.random.default_rng(606)
    rho_s = ground_state()
    worst = dict.fromkeys(("prob", "energy", "ergotropy", "bookkeeping"), 0.0)
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        g_tau = float(rng.uniform(0.0, math.pi / 4))
        branches = measure(collide(rho_s, to_density(PureQubit(theta, phi)),
                                   g_tau))
        total_p = sum(b.probability for b in branches)
        avg_e = sum(b.probability * np.trace(b.ancilla.mat @ H_A).real
                    for b in branches)
        avg_w = sum(b.probability * ergotropy(b.ancilla, OMEGA)
                    for b in branches)
        plus = branches[0]
        flipped = apply_pulse(plus.ancilla)
        net_work = (np.trace(flipped.mat @ H_A).real
                    - np.trace(plus.ancilla.mat @ H_A).real)
        dw = ergotropy(flipped, OMEGA) - ergotropy(plus.ancilla, OMEGA)
        worst["prob"] = max(worst["prob"], abs(total_p - 1.0))
        worst["energy"] = max(worst["energy"],
                              abs(avg_e - (-0.5 * OMEGA * math.cos(theta))))
        worst["ergotropy"] = max(
            worst["ergotropy"],
            abs(avg_w - OMEGA * math.sin(0.5 * theta) ** 2))
        worst["bookkeeping"] = max(worst["bookkeeping"], abs(dw - net_work))
    ok = all(v <= 1e-12 for v in worst.values())
    report(6, ok,
           "1000 random (theta, g tau) pairs: " +
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) +
           " (tol 1e-12 each)")


def test_criterion_7_cli_thread_determinism(tmp_path):
    out_1 = tmp_path / "threads1.csv"
    out_4 = tmp_path / "threads4.csv"
    code_1 = main(["sweep-g", "--n", "2000", "--threads", "1",
                   "--out", str(out_1)])
    code_4 = main(["sweep-g", "--n", "2000", "--threads", "4",
                   "--out", str(out_4)])
    identical = out_1.read_bytes() == out_4.read_bytes()
    ok = code_1 == 0 and code_4 == 0 and identical
    report(7, ok,
           f"sweep-g with --threads 1 vs 4, same seed: byte-identical CSV "
           f"= {identical}")
