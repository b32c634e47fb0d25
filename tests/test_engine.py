import math

import numpy as np
import pytest

from demon_battery import engine
from demon_battery.channels import ResetParams, collide, measure
from demon_battery.demon import (Action, BayesGainPolicy, Ensemble,
                                 EnsembleSampler, PriorState,
                                 threshold_gain_table)
from demon_battery.engine import (EnergyLedger, EngineConfig,
                                  energetics_oracle, run_cycle, run_trajectory)
from demon_battery.experiments import HaarQubitSampler, _angles_from_uniforms
from demon_battery.kernels import simulate_stream
from demon_battery.states import (DensityMatrix, PureQubit, QubitHamiltonian,
                                  ground_state, to_density)

from conftest import StubRng

OMEGA = 1.0
S8 = math.sin(math.pi / 4)  # sin(2 g tau) at the g*tau = pi/8 preset


def cycle(theta, u, cfg=None, phi=0.4):
    cfg = cfg or EngineConfig.default()
    return run_cycle(ground_state(), PureQubit(theta, phi), cfg, StubRng([u]))


class TestRunCycle:
    def test_forced_plus_outcome_charges_fully_from_pole(self):
        rec = cycle(0.0, 0.0)  # u=0 lands in the +1 branch
        assert rec.outcome == +1
        assert rec.action == Action.APPLY_PULSE
        assert abs(rec.probability - 0.5 * (1 + S8)) < 1e-12
        assert abs(rec.ergotropy_out - OMEGA) < 1e-12
        assert abs(rec.ancilla_out.mat[1, 1].real - 1.0) < 1e-12

    def test_forced_minus_outcome_keeps_charged_ancilla(self):
        rec = cycle(math.pi, 0.999)
        assert rec.outcome == -1
        assert rec.action == Action.DO_NOTHING
        assert rec.pulse_work == 0.0
        assert abs(rec.ergotropy_out - OMEGA) < 1e-12

    def test_on_off_work_is_theta_independent(self):
        expected = 1.0 * math.sin(math.pi / 8) ** 2  # omega_s sin^2(g tau)
        for theta in (0.0, 0.9, math.pi / 2, 2.7):
            for u in (0.0, 0.999):
                rec = cycle(theta, u)
                assert abs(rec.delta_e_col - expected) < 1e-12

    def test_record_fields_match_closed_forms(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            g_tau = float(rng.uniform(0.0, math.pi / 4))
            cfg = EngineConfig.default(g_tau=g_tau)
            oracle = energetics_oracle(theta, g_tau, OMEGA)
            for u, outcome in ((0.0, +1), (0.999, -1)):
                rec = cycle(theta, u, cfg)
                assert rec.outcome == outcome
                p = oracle.p_plus if outcome == +1 else 1.0 - oracle.p_plus
                assert abs(rec.probability - p) < 1e-10
                assert abs(rec.ergotropy_in
                           - OMEGA * math.sin(theta / 2) ** 2) < 1e-12
                if outcome == +1:
                    assert abs(rec.ergotropy_out - oracle.w_tilde_plus) < 1e-10
                    assert abs(rec.pulse_work - oracle.w_plus) < 1e-10
                    assert abs(rec.energy_meas - oracle.e_a_plus) < 1e-10
                else:
                    assert abs(rec.ergotropy_out - oracle.w_x_minus) < 1e-10
                    assert abs(rec.energy_meas - oracle.e_a_minus) < 1e-10
                assert abs(rec.pulse_work
                           - (rec.energy_out - rec.energy_meas)) < 1e-14

    def test_full_reset_returns_ground(self):
        rec = cycle(1.2, 0.5)
        assert np.array_equal(rec.rho_s_next.mat, ground_state().mat)

    def test_finite_reset_returns_relaxed_projector(self):
        cfg = EngineConfig.default(reset_mode="finite", gamma_tau_se=1.3,
                                   omega_s=0.9)
        from demon_battery.channels import reset_closed_form
        rec = cycle(1.2, 0.0, cfg)
        want = reset_closed_form(rec.outcome, cfg.reset)
        assert np.max(np.abs(rec.rho_s_next.mat - want.mat)) < 1e-14


class TestRunTrajectory:
    def test_full_reset_system_state_is_constant(self):
        cfg = EngineConfig.default()
        gen = np.random.default_rng(7)
        records = run_trajectory(cfg, 50, HaarQubitSampler(gen), gen)
        for rec in records:
            assert np.array_equal(rec.rho_s_next.mat, ground_state().mat)

    def test_finite_reset_chains_system_state(self):
        cfg = EngineConfig.default(reset_mode="finite", gamma_tau_se=0.8)
        gen = np.random.default_rng(8)
        sampler = HaarQubitSampler(gen)
        records = run_trajectory(cfg, 40, sampler, gen)
        # replay the chain record by record
        gen2 = np.random.default_rng(8)
        sampler2 = HaarQubitSampler(gen2)
        rho_s = ground_state()
        for rec in records:
            psi = sampler2.sample()
            rec2 = run_cycle(rho_s, psi, cfg, gen2)
            assert rec2.outcome == rec.outcome
            assert abs(rec2.ergotropy_out - rec.ergotropy_out) < 1e-15
            rho_s = rec2.rho_s_next

    @pytest.mark.parametrize("g_tau, gamma_tau_se, omega_s",
                             [(0.0, 1e-10, 0.0), (1e-4, 0.0, math.pi)])
    def test_branches_of_tiny_probability_run(self, g_tau, gamma_tau_se,
                                              omega_s):
        # live branches of probability 1e-11 .. 1e-8 used to fail state
        # validation once normalized, on every seed; the kernel, which
        # needs no normalized state, must agree cycle for cycle
        cfg = EngineConfig.default(g_tau=g_tau, gamma_tau_se=gamma_tau_se,
                                   omega_s=omega_s, reset_mode="finite")
        n = 200
        for seed in range(5):
            gen = np.random.default_rng(seed)
            records = run_trajectory(cfg, n, HaarQubitSampler(gen), gen)
            u = np.random.default_rng(seed).random((n, 3))
            thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
            stream = simulate_stream(thetas, phis, u[:, 2], cfg)
            assert np.array_equal([r.outcome for r in records],
                                  stream.outcome)
            w_out = np.array([r.ergotropy_out for r in records])
            assert np.max(np.abs(w_out - stream.w_out)) < 1e-6

    def test_idle_reset_alternates_projectors(self):
        cfg = EngineConfig.default(reset_mode="finite", gamma_tau_se=0.0,
                                   omega_s=0.0)
        gen = np.random.default_rng(9)
        records = run_trajectory(cfg, 30, HaarQubitSampler(gen), gen)
        for rec in records:
            r = rec.rho_s_next.mat
            sign = +1 if rec.outcome == +1 else -1
            assert abs(r[0, 0].real - 0.5) < 1e-14
            assert abs(r[0, 1].real - 0.5 * sign) < 1e-14

    def test_strong_reset_converges_to_full_reset_statistics(self):
        n = 2500
        gen_a = np.random.default_rng(10)
        full = run_trajectory(EngineConfig.default(), n,
                              HaarQubitSampler(gen_a), gen_a)
        gen_b = np.random.default_rng(1234)
        finite = run_trajectory(
            EngineConfig.default(reset_mode="finite", gamma_tau_se=12.0), n,
            HaarQubitSampler(gen_b), gen_b)
        w_full = np.array([r.ergotropy_out for r in full])
        w_fin = np.array([r.ergotropy_out for r in finite])
        se = math.hypot(w_full.std(ddof=1) / math.sqrt(n),
                        w_fin.std(ddof=1) / math.sqrt(n))
        assert abs(w_full.mean() - w_fin.mean()) < 3 * se

    def test_identical_seeds_reproduce_bit_for_bit(self):
        cfg = EngineConfig.default(reset_mode="finite", gamma_tau_se=0.7)
        runs = []
        for _ in range(2):
            gen = np.random.default_rng(77)
            runs.append(run_trajectory(cfg, 60, HaarQubitSampler(gen), gen))
        for a, b in zip(*runs):
            assert a.outcome == b.outcome
            assert a.action == b.action
            assert a.ergotropy_out == b.ergotropy_out
            assert a.pulse_work == b.pulse_work

    def test_rejects_empty_trajectory(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_trajectory(EngineConfig.default(), 0, HaarQubitSampler(gen),
                           gen)

    @pytest.mark.parametrize("count", [True, 2.0, 2.5, "3"])
    def test_rejects_non_int_count(self, count):
        # True ran one collision, and 2.0 failed inside range()
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n_collisions"):
            run_trajectory(EngineConfig.default(), count,
                           HaarQubitSampler(gen), gen)

    def test_bayes_policy_with_simple_table_matches_threshold(self):
        # the engine computes member likelihoods through the channel; with
        # the indicator gain table the decisions must equal the threshold
        # rule's, cycle for cycle
        from demon_battery.demon import (BayesGainPolicy, Ensemble,
                                         EnsembleSampler, PriorState,
                                         threshold_gain_table)
        ensemble = Ensemble.discrete([(PureQubit(0.4, 0.0), 0.5),
                                      (PureQubit(2.8, 0.0), 0.5)])
        policy = BayesGainPolicy(table=threshold_gain_table(),
                                 prior=PriorState.uniform(2),
                                 ensemble=ensemble, recycle_prior=True)
        cfg_bayes = EngineConfig.default(policy=policy)
        cfg_thresh = EngineConfig.default()
        gen_a = np.random.default_rng(99)
        recs_a = run_trajectory(cfg_bayes, 80,
                                EnsembleSampler(ensemble, gen_a), gen_a)
        gen_b = np.random.default_rng(99)
        recs_b = run_trajectory(cfg_thresh, 80,
                                EnsembleSampler(ensemble, gen_b), gen_b)
        for a, b in zip(recs_a, recs_b):
            assert a.outcome == b.outcome
            assert a.action == b.action
        # recycling happened on a per-trajectory copy, not the template
        assert np.allclose(policy.prior.probs, [0.5, 0.5])


class TestEnergeticsOracle:
    def test_no_interaction_limit(self):
        for theta in (0.0, 1.0, 2.0):
            o = energetics_oracle(theta, 0.0, OMEGA)
            assert abs(o.w_processed - 0.5 * OMEGA) < 1e-15
            assert abs(o.p_plus - 0.5) < 1e-15
            assert abs(o.w_avg - 0.5 * OMEGA * math.cos(theta)) < 1e-15

    def test_maximal_interaction_saturates(self):
        o = energetics_oracle(1.1, math.pi / 4, OMEGA)
        assert abs(o.w_processed - OMEGA) < 1e-15

    def test_equator_branch_value(self):
        o = energetics_oracle(math.pi / 2, math.pi / 8, OMEGA)
        assert abs(o.w_x_plus - 0.5 * OMEGA * (1 - S8)) < 1e-15
        assert abs(o.e_a_plus - (-0.5 * OMEGA * S8)) < 1e-15

    def test_zero_work_and_bookkeeping_identities(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            theta = float(rng.uniform(0, math.pi))
            g_tau = float(rng.uniform(0, math.pi / 4 - 1e-3))
            o = energetics_oracle(theta, g_tau, OMEGA)
            p_minus = 1.0 - o.p_plus
            avg_e = o.p_plus * o.e_a_plus + p_minus * o.e_a_minus
            assert abs(avg_e - (-0.5 * OMEGA * math.cos(theta))) < 1e-12
            avg_w = o.p_plus * o.w_x_plus + p_minus * o.w_x_minus
            assert abs(avg_w - OMEGA * math.sin(theta / 2) ** 2) < 1e-12
            assert abs((o.w_tilde_plus - o.w_x_plus) - o.w_plus) < 1e-12

    def test_degenerate_pole_returns_nan(self):
        o = energetics_oracle(math.pi, math.pi / 4, OMEGA)
        assert math.isnan(o.w_x_plus)
        assert abs(o.w_processed - OMEGA) < 1e-15  # averages stay regular


class TestEnergyLedger:
    def test_totals_match_record_sums(self):
        cfg = EngineConfig.default()
        gen = np.random.default_rng(53)
        records = run_trajectory(cfg, 300, HaarQubitSampler(gen), gen)
        ledger = EnergyLedger.from_records(records)
        assert ledger.n == 300
        assert abs(ledger.pulse_work
                   - math.fsum(r.pulse_work for r in records)) < 1e-10
        assert abs(ledger.collision_energy
                   - math.fsum(r.delta_e_col for r in records)) < 1e-10
        assert abs(ledger.ergotropy_gain
                   - math.fsum(r.ergotropy_out - r.ergotropy_in
                               for r in records)) < 1e-10
        assert abs(ledger.measurement_shift
                   - math.fsum(r.energy_meas - r.energy_in
                               for r in records)) < 1e-10


class TestEngineConfig:
    def test_rejects_unknown_reset_mode(self):
        with pytest.raises(ValueError):
            EngineConfig.default(reset_mode="sometimes")

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be"):
            EngineConfig.default(omega=omega)

    def test_rejects_negative_omega_s(self):
        # below zero |0> is the excited state, yet the bath relaxes to it
        with pytest.raises(ValueError, match="omega_s"):
            EngineConfig.default(omega_s=-0.5)
        # ResetParams alone takes either sign: a pure rotation direction
        assert ResetParams(gamma_tau_se=1.0, tau_se=1.0,
                           omega_s=-0.5).phase == -0.5
        assert EngineConfig.default(omega_s=0.0).reset.omega_s == 0.0

    def test_default_accepts_zero_tau_se(self):
        # tau_se fixes only the phase omega_s*tau_se: at 0 the reset
        # still relaxes by gamma_tau_se, with no precession
        reset = EngineConfig.default(gamma_tau_se=1.0, tau_se=0.0).reset
        assert reset.gamma_tau_se == 1.0 and reset.phase == 0.0
        with pytest.raises(ValueError, match="tau_se"):
            EngineConfig.default(tau_se=-1.0)

    def test_default_keeps_gamma_tau_se_exactly(self):
        # a rate 0.5 / 4.55 times 4.55 again is 0.49999999999999994
        cfg = EngineConfig.default(gamma_tau_se=0.5, tau_se=4.55)
        assert cfg.reset.gamma_tau_se == 0.5

    def test_omega_s_delegates_to_reset_params(self):
        cfg = EngineConfig.default(omega_s=2.5)
        assert cfg.reset.omega_s == 2.5
        assert isinstance(cfg.reset, ResetParams)

    def test_trajectory_builds_no_hamiltonian_beyond_its_config(
            self, monkeypatch):
        built = []
        check = QubitHamiltonian.__post_init__

        def counting(h):
            built.append(h)
            check(h)

        monkeypatch.setattr(QubitHamiltonian, "__post_init__", counting)
        cfg = EngineConfig.default(reset_mode="finite")
        assert built == [cfg.h_ancilla]
        gen = np.random.default_rng(5)
        run_trajectory(cfg, 100, HaarQubitSampler(gen), gen)
        assert len(built) == 1


def _bayes_cfg(reset_mode, recycle_prior):
    ensemble = Ensemble.discrete([(PureQubit(math.pi / 3, 0.0), 0.3),
                                  (PureQubit(2 * math.pi / 3, 0.4), 0.5),
                                  (PureQubit(0.2, 1.0), 0.2)])
    policy = BayesGainPolicy(table=threshold_gain_table(),
                             prior=PriorState([0.2, 0.5, 0.3]),
                             ensemble=ensemble, recycle_prior=recycle_prior)
    cfg = EngineConfig.default(g_tau=0.3, gamma_tau_se=1.0,
                               reset_mode=reset_mode, policy=policy)
    return cfg, ensemble


def _record_likelihoods(monkeypatch, mutate=False):
    """Wrap engine.decide to keep a copy of every likelihood vector; with
    ``mutate`` the vector handed over is then overwritten in place."""
    seen = []
    original = engine.decide

    def recorder(policy, x, likelihoods=None):
        seen.append(np.array(likelihoods))
        action = original(policy, x, likelihoods)
        if mutate:
            likelihoods[:] = -1.0
        return action
    monkeypatch.setattr(engine, "decide", recorder)
    return seen


def _recording(monkeypatch, name):
    """Wrap engine.<name> to keep the first argument of every call."""
    seen = []
    original = getattr(engine, name)

    def recorder(*args):
        seen.append(args[0])
        return original(*args)
    monkeypatch.setattr(engine, name, recorder)
    return seen


def _direct_likelihoods(cfg, rho_s, outcome):
    """P(outcome | member) straight from the channel layer."""
    out = []
    for state, _ in cfg.policy.ensemble.members:
        branches = measure(collide(rho_s, to_density(state), cfg.collision))
        out.append(next(b.probability for b in branches
                        if b.outcome == outcome))
    return out


class TestBayesCycles:
    @pytest.mark.parametrize("reset_mode", ["full", "finite"])
    @pytest.mark.parametrize("recycle_prior", [False, True])
    def test_equal_to_direct_channel_every_cycle(self, monkeypatch,
                                                 reset_mode, recycle_prior):
        seen = _record_likelihoods(monkeypatch)
        cfg, ensemble = _bayes_cfg(reset_mode, recycle_prior)
        gen = np.random.default_rng(31)
        records = run_trajectory(cfg, 120, EnsembleSampler(ensemble, gen), gen)
        assert len(seen) == len(records)
        rho_s = ground_state()
        system_states = set()
        for rec, lk in zip(records, seen):
            system_states.add(rho_s.mat.tobytes())
            assert lk.tolist() == _direct_likelihoods(cfg, rho_s, rec.outcome)
            rho_s = rec.rho_s_next
        # finite reset moves the system between |0><0| and two relaxed states
        assert len(system_states) == (1 if reset_mode == "full" else 3)

    def test_shares_no_mutable_state(self, monkeypatch):
        cfg, ensemble = _bayes_cfg("finite", recycle_prior=True)
        template = cfg.policy.prior.probs.copy()
        _record_likelihoods(monkeypatch, mutate=True)
        gen = np.random.default_rng(32)
        run_trajectory(cfg, 60, EnsembleSampler(ensemble, gen), gen)
        seen = _record_likelihoods(monkeypatch)
        gen = np.random.default_rng(33)
        records = run_trajectory(cfg, 60, EnsembleSampler(ensemble, gen), gen)
        rho_s = ground_state()
        for rec, lk in zip(records, seen):
            assert lk.tolist() == _direct_likelihoods(cfg, rho_s, rec.outcome)
            rho_s = rec.rho_s_next
        # recycling happened on per-trajectory copies, not the template
        assert np.array_equal(cfg.policy.prior.probs, template)

    @pytest.mark.parametrize("reset_mode", ["full", "finite"])
    def test_bayes_cycles_use_the_direct_channel_states(self, monkeypatch,
                                                        reset_mode):
        joints = _recording(monkeypatch, "ptrace")
        branch_sets = _recording(monkeypatch, "_sample_branch")
        cfg, ensemble = _bayes_cfg(reset_mode, recycle_prior=True)
        gen = np.random.default_rng(36)
        records = run_trajectory(cfg, 80, EnsembleSampler(ensemble, gen), gen)
        assert len(joints) == len(branch_sets) == len(records)
        rho_s = ground_state()
        for rec, joint, branches in zip(records, joints, branch_sets):
            direct = collide(rho_s, to_density(rec.ancilla_in), cfg.collision)
            assert joint.tobytes() == direct.mat.tobytes()
            want_branches = measure(direct)
            assert len(branches) == len(want_branches)
            for got, want in zip(branches, want_branches):
                assert (got.outcome, got.probability, got.degenerate) == \
                    (want.outcome, want.probability, want.degenerate)
                if want.degenerate:
                    assert got.ancilla is None
                else:
                    assert got.ancilla.mat.tobytes() == \
                        want.ancilla.mat.tobytes()
            rho_s = rec.rho_s_next


class TestLikelihoodTable:
    @pytest.mark.parametrize("reset_mode", ["full", "finite"])
    @pytest.mark.parametrize("recycle_prior", [False, True])
    def test_one_collision_per_member_and_system_state(
            self, monkeypatch, reset_mode, recycle_prior):
        collisions = _recording(monkeypatch, "collide")
        cfg, ensemble = _bayes_cfg(reset_mode, recycle_prior)
        gen = np.random.default_rng(37)
        n = 90
        records = run_trajectory(cfg, n, EnsembleSampler(ensemble, gen), gen)
        starts = [ground_state()] + [r.rho_s_next for r in records[:-1]]
        k = len({s.mat.tobytes() for s in starts})
        assert k == (1 if reset_mode == "full" else 3)
        # n + m*k, where one table per cycle would make n*(m + 1)
        assert len(collisions) == n + ensemble.size * k

    def test_threshold_trajectory_collides_once_per_cycle(self, monkeypatch):
        collisions = _recording(monkeypatch, "collide")
        cfg = EngineConfig.default(reset_mode="finite")
        gen = np.random.default_rng(38)
        run_trajectory(cfg, 50, HaarQubitSampler(gen), gen)
        assert len(collisions) == 50

    def test_run_cycle_on_a_mixed_state_uses_its_own_table(self,
                                                          monkeypatch):
        # a mixed system state that is none of the system candidates
        rho_s = DensityMatrix(np.array([[0.7, 0.2 - 0.1j],
                                        [0.2 + 0.1j, 0.3]]))
        cfg, ensemble = _bayes_cfg("finite", recycle_prior=False)
        seen = _record_likelihoods(monkeypatch)
        psi = ensemble.members[1][0]
        outcomes = set()
        for u in (0.05, 0.95):
            rec = run_cycle(rho_s, psi, cfg, StubRng([u]))
            outcomes.add(rec.outcome)
            assert seen[-1].tolist() == \
                _direct_likelihoods(cfg, rho_s, rec.outcome)
        assert outcomes == {+1, -1}
