import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demon_battery.channels import (SIGMA_X_MEASUREMENT, apply_pulse, collide,
                                    measure, reset_closed_form)
from demon_battery.demon import BayesGainPolicy, PriorState, Ensemble, threshold_gain_table
from demon_battery.engine import (EngineConfig, _sample_branch, run_cycle,
                                  run_trajectory)
from demon_battery import experiments
from demon_battery.experiments import HaarQubitSampler, _angles_from_uniforms
from demon_battery.kernels import (StreamResult, _route, next_start,
                                   prepare_stream_inputs, simulate_stream)
from demon_battery.qmath import SIGMA_X, ptrace
from demon_battery.states import (DensityMatrix, PureQubit, ergotropy,
                                  ground_state, to_density)


def haar_uniforms(n, seed=777):
    return np.random.default_rng(np.random.SeedSequence([seed, 0, 0])).random(
        (n, 3))


def drawn_inputs(n, seed=777):
    u = haar_uniforms(n, seed)
    thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
    return thetas, phis, u[:, 2]


CONFIGS = {
    "full": EngineConfig.default(),
    "finite": EngineConfig.default(reset_mode="finite", gamma_tau_se=1.0),
    # a weak coupling, no relaxation and a half-turn precession
    # (omega_s tau_se = pi): the reset sends |+> to |-> and back, so almost
    # every cycle swaps the two candidates and the outcomes alternate
    "swap": EngineConfig.default(g_tau=0.003, gamma_tau_se=0.0,
                                 omega_s=math.pi, reset_mode="finite"),
}


class TestStreamOrderContract:
    def test_batched_draws_match_sequential_scalars(self):
        # the per-cycle draw order (cos-theta, phi, outcome) must be the
        # row-major layout of one (n, 3) batch from the same seed
        seq = np.random.SeedSequence([5, 1, 2])
        batched = np.random.default_rng(seq).random((50, 3))
        gen = np.random.default_rng(np.random.SeedSequence([5, 1, 2]))
        scalars = np.array([gen.random() for _ in range(150)]).reshape(50, 3)
        assert np.array_equal(batched, scalars)

    def test_sampler_consumes_two_uniforms_per_draw(self):
        seq = np.random.SeedSequence(17)
        gen = np.random.default_rng(seq)
        sampler = HaarQubitSampler(np.random.default_rng(np.random.SeedSequence(17)))
        psi = sampler.sample()
        u = gen.random(2)
        assert abs(psi.theta - math.acos(1 - 2 * u[0])) < 1e-15
        assert abs(psi.phi - 2 * math.pi * u[1]) < 1e-15


@pytest.mark.parametrize("mode", ["full", "finite"])
class TestBackendParity:
    def test_kernel_matches_reference_engine(self, mode):
        cfg = CONFIGS[mode]
        n = 400
        thetas, phis, u = drawn_inputs(n, seed=13)
        stream = simulate_stream(thetas, phis, u, cfg)
        gen = np.random.default_rng(np.random.SeedSequence([13, 0, 0]))
        records = run_trajectory(cfg, n, HaarQubitSampler(gen), gen)
        assert np.array_equal(np.array([r.outcome for r in records]),
                              stream.outcome.astype(int))
        pairs = (
            ("ergotropy_in", stream.w_raw),
            ("ergotropy_out", stream.w_out),
            ("pulse_work", stream.pulse_work),
            ("delta_e_col", stream.delta_e_col),
        )
        for field, arr in pairs:
            got = np.array([getattr(r, field) for r in records])
            assert np.max(np.abs(got - arr)) < 1e-10, field
        p_branch = np.where(stream.outcome == 1, stream.p_plus,
                            1.0 - stream.p_plus)
        probs = np.array([r.probability for r in records])
        assert np.max(np.abs(probs - p_branch)) < 1e-12


def channel_stream(thetas, phis, u_outcome, cfg):
    """Every StreamResult field, cycle by cycle, from the channel layer:
    collide, measure, apply_pulse and ergotropy.  The dephased ancilla is
    the probability-weighted sum of the two measured branches."""
    h_a = cfg.h_ancilla()
    h_s = cfg.reset.h_system()

    def energy(rho):
        return float(np.trace(rho.mat @ h_a.matrix).real)

    rho_s = ground_state()
    rows = []
    for theta, phi, u in zip(thetas, phis, u_outcome):
        psi = to_density(PureQubit(theta, phi))
        joint = collide(rho_s, psi, cfg.collision)
        branches = measure(joint, SIGMA_X_MEASUREMENT)
        branch = _sample_branch(branches, u)
        kept = branch.ancilla
        flipped = apply_pulse(kept, SIGMA_X)
        dephased = DensityMatrix(sum(b.probability * b.ancilla.mat
                                     for b in branches if not b.degenerate))
        sys_after = ptrace(joint.mat, "system")
        rows.append(StreamResult(
            w_raw=ergotropy(psi, h_a),
            p_plus=branches[0].probability,
            outcome=branch.outcome,
            w_keep=ergotropy(kept, h_a),
            w_flip=ergotropy(flipped, h_a),
            w_out=ergotropy(flipped if branch.outcome == 1 else kept, h_a),
            w_dephased=ergotropy(apply_pulse(dephased, SIGMA_X), h_a),
            pulse_work=(energy(flipped) - energy(kept)
                        if branch.outcome == 1 else 0.0),
            delta_e_col=float(np.trace((sys_after - rho_s.mat) @ h_s).real),
        ))
        rho_s = (ground_state() if cfg.reset_mode == "full"
                 else reset_closed_form(branch.outcome, cfg.reset))
    return StreamResult(*map(np.array, zip(*rows)))


class TestChannelParity:
    """The kernel's closed form against the channel layer over random
    parameters; w_keep, w_flip and w_dephased have no other check.

    The examples are derandomized so the suite is deterministic: a free
    search also reaches parameters where the channel layer itself fails,
    because a live branch with probability below about 1e-7 does not
    pass state validation once normalized.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g_tau=st.floats(-math.pi, math.pi),
           gamma_tau_se=st.floats(0.0, 10.0),
           omega=st.floats(0.1, 10.0),
           omega_s=st.floats(0.0, 5.0),
           mode=st.sampled_from(["full", "finite"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(g_tau=math.pi / 4, gamma_tau_se=8.0, omega=1.0, omega_s=1.0,
             mode="full", seed=0)
    @example(g_tau=math.pi / 4, gamma_tau_se=1.0, omega=1.0, omega_s=1.0,
             mode="finite", seed=0)
    def test_all_fields_match_channels(self, g_tau, gamma_tau_se, omega,
                                       omega_s, mode, seed):
        cfg = EngineConfig.default(g_tau=g_tau, omega=omega, omega_s=omega_s,
                                   gamma_tau_se=gamma_tau_se, reset_mode=mode)
        thetas, phis, u = drawn_inputs(24, seed=seed)
        got = simulate_stream(thetas, phis, u, cfg)
        want = channel_stream(thetas, phis, u, cfg)
        assert np.array_equal(got.outcome, want.outcome)
        for field in StreamResult._fields:
            dev = np.max(np.abs(getattr(got, field) - getattr(want, field)))
            assert dev <= 1e-10, field


class TestChainedRouting:
    """Chained outcome routing against the engine at the lengths where
    the pointer-doubling loop changes its number of strides.

    Under the "swap" config the candidate of cycle i depends on the first
    outcome and on the parity of all i - 1 swaps since: a composition that
    drops or repeats any map shows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4097, 10_007])
    def test_outcomes_match_engine(self, n):
        cfg = CONFIGS["swap"]
        thetas, phis, u = drawn_inputs(n, seed=n)
        stream = simulate_stream(thetas, phis, u, cfg)
        gen = np.random.default_rng(np.random.SeedSequence([n, 0, 0]))
        records = run_trajectory(cfg, n, HaarQubitSampler(gen), gen)
        assert np.array_equal(np.array([r.outcome for r in records]),
                              stream.outcome.astype(int))


def route_loop(successor, start):
    """Candidate of every cycle, one cycle at a time."""
    route = []
    c = start
    for row in successor:
        route.append(c)
        c = row[c]
    return np.array(route, dtype=np.intp)


class TestRoute:
    @pytest.mark.parametrize("start", [0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 64, 1000, 4097])
    def test_every_start_matches_loop(self, n, start):
        # arbitrary maps of {0, 1, 2}, not only those the kernel builds
        successor = np.random.default_rng(n).integers(0, 3, size=(n, 3))
        assert np.array_equal(_route(successor, start),
                              route_loop(successor, start))

    def test_single_candidate(self):
        successor = np.zeros((10, 1), dtype=np.intp)
        assert np.array_equal(_route(successor), np.zeros(10, dtype=np.intp))

    def test_next_start_follows_outcome(self):
        assert next_start(+1, CONFIGS["finite"]) == 1
        assert next_start(-1, CONFIGS["finite"]) == 2
        assert next_start(+1, CONFIGS["full"]) == 0
        assert next_start(-1, CONFIGS["full"]) == 0

    @pytest.mark.parametrize("mode, start", [("full", 1), ("finite", 3),
                                             ("finite", -1)])
    def test_start_out_of_range_rejected(self, mode, start):
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError):
            simulate_stream(thetas, phis, u, CONFIGS[mode], start)

    @pytest.mark.parametrize("start", [1, 2])
    def test_start_matches_engine_from_relaxed_state(self, start):
        cfg = CONFIGS["finite"]
        thetas, phis, u = drawn_inputs(300, seed=21)
        stream = simulate_stream(thetas, phis, u, cfg, start)
        gen = np.random.default_rng(np.random.SeedSequence([21, 0, 0]))
        sampler = HaarQubitSampler(gen)
        rho_s = reset_closed_form(+1 if start == 1 else -1, cfg.reset)
        for i in range(300):
            rec = run_cycle(rho_s, sampler.sample(), cfg, gen)
            assert rec.outcome == stream.outcome[i]
            assert abs(rec.ergotropy_out - stream.w_out[i]) < 1e-10
            rho_s = rec.rho_s_next


class TestStreamOutputs:
    def test_bounds_and_action_wiring(self):
        cfg = CONFIGS["full"]
        thetas, phis, u = drawn_inputs(5000, seed=3)
        s = simulate_stream(thetas, phis, u, cfg)
        omega = cfg.omega
        for arr in (s.w_raw, s.w_keep, s.w_flip, s.w_out, s.w_dephased):
            assert arr.min() >= 0.0
            assert arr.max() <= omega + 1e-12
        assert s.p_plus.min() >= 0.0 and s.p_plus.max() <= 1.0
        pulsed = s.outcome == 1
        assert np.array_equal(s.w_out[pulsed], s.w_flip[pulsed])
        assert np.array_equal(s.w_out[~pulsed], s.w_keep[~pulsed])
        assert np.all(s.pulse_work[~pulsed] == 0.0)

    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_empty_stream(self, mode):
        empty = np.zeros(0)
        s = simulate_stream(empty, empty, empty, CONFIGS[mode])
        assert all(len(arr) == 0 for arr in s)

    def test_shape_mismatch_rejected(self):
        cfg = CONFIGS["full"]
        with pytest.raises(ValueError):
            simulate_stream(np.zeros(3), np.zeros(3), np.zeros(4), cfg)

    def test_rejects_bayes_policy(self):
        policy = BayesGainPolicy(
            table=threshold_gain_table(), prior=PriorState.uniform(2),
            ensemble=Ensemble.discrete([(PureQubit(0.0, 0.0), 0.5),
                                        (PureQubit(math.pi, 0.0), 0.5)]))
        cfg = EngineConfig.default(policy=policy)
        with pytest.raises(ValueError):
            prepare_stream_inputs(cfg)


#: the field sets the experiments request: histogram and sweep-reset, then
#: sweep-g; then each field alone, and none but the outcome
FIELD_SETS = ([tuple(f for _, f in experiments._SWEEP_COLUMNS),
               tuple(f for _, f in experiments._G_TAU_COLUMNS)]
              + [(f,) for f in StreamResult._fields] + [()])


class TestFieldSelection:
    @pytest.mark.parametrize("fields", FIELD_SETS, ids=",".join)
    @pytest.mark.parametrize("mode", ["full", "finite", "swap"])
    def test_requested_fields_match_all_fields(self, mode, fields):
        # bit for bit, on the same psi11: a field may not depend on which
        # other fields were asked for.  omega = 1 would hide a regrouped
        # product, since scaling by a power of two is exact.
        cfg = dataclasses.replace(CONFIGS[mode], omega=1.3)
        u = haar_uniforms(5000, seed=31)
        thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
        every = simulate_stream(thetas, phis, u[:, 2], cfg, psi11=u[:, 0])
        some = simulate_stream(thetas, phis, u[:, 2], cfg, psi11=u[:, 0],
                               fields=fields)
        assert all(arr is not None for arr in every)
        for field in StreamResult._fields:
            got = getattr(some, field)
            if field in fields or field == "outcome":
                assert got.dtype == getattr(every, field).dtype, field
                assert np.array_equal(got, getattr(every, field)), field
            else:
                assert got is None, field

    def test_unknown_field_rejected(self):
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="w_in"):
            simulate_stream(thetas, phis, u, CONFIGS["full"],
                            fields=("w_raw", "w_in"))

    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_psi11_shape_checked(self, mode):
        # one value would broadcast silently over the whole stream
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="psi11"):
            simulate_stream(thetas, phis, u, CONFIGS[mode], psi11=np.zeros(1))


class TestUniformFeed:
    """cos(theta) = 1 - 2u gives sin^2(theta/2) = u, so the experiments
    feed u as psi11.  Over 10^5 draws it must reproduce the theta path:
    the same outcomes, and every field within 1e-15, except the fields of
    the measured branch.  Their Bloch z divides by the branch weight,
    which amplifies the one-ulp gap between sin^2(theta/2) and u up to
    2 max(K)/min(K), about 12-fold at g tau = pi/8 (1.6e-15 seen), so
    they get 16 ulps of omega."""

    BRANCH_FIELDS = ("w_keep", "w_flip", "w_out", "pulse_work")

    @pytest.mark.parametrize("g_tau", [math.pi / 8, math.pi / 4, 1e-4])
    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_psi11_u_matches_theta_path(self, mode, g_tau):
        cfg = EngineConfig.default(g_tau=g_tau, gamma_tau_se=1.0,
                                   reset_mode=mode)
        u = haar_uniforms(100_000, seed=43)
        thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])
        fed = simulate_stream(thetas, phis, u[:, 2], cfg, psi11=u[:, 0])
        ref = simulate_stream(thetas, phis, u[:, 2], cfg)
        assert np.array_equal(fed.outcome, ref.outcome)
        for field in StreamResult._fields:
            dev = np.max(np.abs(getattr(fed, field) - getattr(ref, field)))
            tol = (16 * np.finfo(float).eps * cfg.omega
                   if field in self.BRANCH_FIELDS else 1e-15)
            assert dev <= tol, field
