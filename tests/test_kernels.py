import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demon_battery.channels import (CANDIDATE_ROW, apply_pulse, collide,
                                    collision_unitary, measure,
                                    reset_closed_form, system_candidates)
from demon_battery.demon import BayesGainPolicy, PriorState, Ensemble, threshold_gain_table
from demon_battery.engine import (EngineConfig, _sample_branch, run_cycle,
                                  run_trajectory)
from demon_battery import experiments, kernels
from demon_battery.experiments import HaarQubitSampler, _angles_from_uniforms
from demon_battery.kernels import StreamResult, _chain, simulate_stream
from demon_battery.states import (DensityMatrix, PureQubit, ergotropy,
                                  ground_state, to_density)

from conftest import KET_MINUS, KET_PLUS, StubRng, qubit_hamiltonian


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


def assert_engine_matches_kernel(cfg, n, seed):
    """run_trajectory on Haar ancillas against simulate_stream on the
    same uniforms: equal outcomes, fields within 1e-10 and branch
    probabilities within 1e-12."""
    thetas, phis, u = drawn_inputs(n, seed=seed)
    stream = simulate_stream(thetas, phis, u, cfg)
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0, 0]))
    records = run_trajectory(cfg, n, HaarQubitSampler(gen), gen)
    assert np.array_equal(np.array([r.outcome for r in records]),
                          stream.outcome.astype(int))
    pairs = (
        ("ergotropy_in", stream.w_raw),
        ("ergotropy_out", stream.w_out),
        ("pulse_work", stream.pulse_work),
    )
    for field, arr in pairs:
        got = np.array([getattr(r, field) for r in records])
        assert np.max(np.abs(got - arr)) < 1e-10, field
    p_branch = np.where(stream.outcome == 1, stream.p_plus,
                        1.0 - stream.p_plus)
    probs = np.array([r.probability for r in records])
    assert np.max(np.abs(probs - p_branch)) < 1e-12


class TestBackendParity:
    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_kernel_matches_reference_engine(self, mode):
        assert_engine_matches_kernel(CONFIGS[mode], 400, seed=13)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g_tau=st.floats(-math.pi, math.pi),
           gamma_tau_se=st.floats(0.0, 10.0),
           omega=st.floats(0.1, 10.0),
           omega_s=st.floats(0.0, 5.0),
           mode=st.sampled_from(["full", "finite"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(g_tau=math.pi / 4, gamma_tau_se=8.0, omega=1.0, omega_s=1.0,
             mode="full", seed=0)
    @example(g_tau=math.pi / 4, gamma_tau_se=0.0, omega=2.5, omega_s=math.pi,
             mode="finite", seed=0)
    def test_randomized_parameters(self, g_tau, gamma_tau_se, omega,
                                   omega_s, mode, seed):
        # derandomized for a deterministic suite, as TestChannelParity is
        cfg = EngineConfig.default(g_tau=g_tau, omega=omega, omega_s=omega_s,
                                   gamma_tau_se=gamma_tau_se, reset_mode=mode)
        assert_engine_matches_kernel(cfg, 24, seed)


def channel_stream(thetas, phis, u_outcome, cfg):
    """Every StreamResult field, cycle by cycle, from the channel layer:
    collide, measure, apply_pulse and ergotropy.  The dephased ancilla is
    the probability-weighted sum of the two measured branches."""
    omega = cfg.omega
    h_a = qubit_hamiltonian(omega)

    def energy(rho):
        return float(np.trace(rho.mat @ h_a).real)

    rho_s = ground_state()
    rows = []
    for theta, phi, u in zip(thetas, phis, u_outcome):
        psi = to_density(PureQubit(theta, phi))
        joint = collide(rho_s, psi, cfg.g_tau)
        branches = measure(joint)
        branch = _sample_branch(branches, u)
        kept = branch.ancilla
        flipped = apply_pulse(kept)
        dephased = DensityMatrix(sum(b.probability * b.ancilla.mat
                                     for b in branches if not b.degenerate))
        rows.append(StreamResult(
            w_raw=ergotropy(psi, omega),
            p_plus=branches[0].probability,
            outcome=branch.outcome,
            w_keep=ergotropy(kept, omega),
            w_flip=ergotropy(flipped, omega),
            w_out=ergotropy(flipped if branch.outcome == 1 else kept, omega),
            w_dephased=ergotropy(apply_pulse(dephased), omega),
            pulse_work=(energy(flipped) - energy(kept)
                        if branch.outcome == 1 else 0.0),
        ))
        rho_s = (ground_state() if cfg.reset_mode == "full"
                 else reset_closed_form(branch.outcome, cfg.gamma_tau_se,
                                        cfg.phase))
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
    """Chained outcome routing against the engine, at lengths around one
    cycle, the start of the swap run and a 4096 boundary.

    Under the "swap" config the candidate of cycle i depends on the first
    outcome and on the parity of all i - 1 swaps since: a route that
    drops, repeats or ignores any swap shows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4097, 10_007])
    def test_outcomes_match_engine(self, n):
        cfg = CONFIGS["swap"]
        thetas, phis, u = drawn_inputs(n, seed=n)
        stream = simulate_stream(thetas, phis, u, cfg)
        gen = np.random.default_rng(np.random.SeedSequence([n, 0, 0]))
        records = run_trajectory(cfg, n, HaarQubitSampler(gen), gen)
        assert np.array_equal(np.array([r.outcome for r in records]),
                              stream.outcome.astype(int))


def chain_loop(plus_cand, previous):
    """Outcome +1 of every cycle, one cycle at a time: each cycle starts
    in the candidate row the outcome before it selects."""
    plus = []
    for i in range(plus_cand.shape[1]):
        plus.append(bool(plus_cand[CANDIDATE_ROW[previous], i]))
        previous = 1 if plus[-1] else -1
    return np.array(plus, dtype=bool)


class TestRoute:
    # each case is named by the candidate row ``previous`` selects
    @pytest.mark.parametrize("previous", [0, 1, -1],
                             ids=lambda p: str(CANDIDATE_ROW[p]))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 64, 1000, 4097])
    def test_every_start_matches_loop(self, n, previous):
        # sparse and dense +1 make long runs of fixed outcomes; in
        # between, repeats and flips mix with fixed outcomes
        for density in (0.03, 0.5, 0.97):
            rng = np.random.default_rng([n, CANDIDATE_ROW[previous],
                                         int(100 * density)])
            plus_cand = rng.random((3, n)) < density
            assert np.array_equal(_chain(plus_cand, previous),
                                  chain_loop(plus_cand, previous)), density

    def test_runs_of_keeps_and_swaps_match_loop(self):
        # long runs without a fixed outcome: each outcome rests on one
        # fixed outcome far back and on the parity of every flip since
        rng = np.random.default_rng(5)
        n = 4097
        plus_cand = np.empty((3, n), dtype=bool)
        plus_cand[0] = rng.random(n) < 0.5
        plus_cand[1] = rng.random(n) < 0.9   # repeat, or now and then flip
        plus_cand[2] = ~plus_cand[1]
        plus_cand[:, [1000, 3000]] = True    # but for two fixed outcomes
        for previous in (0, 1, -1):
            assert np.array_equal(_chain(plus_cand, previous),
                                  chain_loop(plus_cand, previous))

    def test_single_candidate(self):
        # under full reset a stream has no memory: cut anywhere, its
        # pieces give the outcomes of the whole
        thetas, phis, u = drawn_inputs(1000, seed=4)
        cfg = CONFIGS["full"]
        whole = simulate_stream(thetas, phis, u, cfg).outcome
        head = simulate_stream(thetas[:377], phis[:377], u[:377], cfg)
        tail = simulate_stream(thetas[377:], phis[377:], u[377:], cfg)
        assert np.array_equal(whole, np.concatenate([head.outcome,
                                                     tail.outcome]))

    @pytest.mark.parametrize("previous", [2, -2, 3])
    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_start_out_of_range_rejected(self, mode, previous):
        # the outcome before a stream is 0 (none), +1 or -1: a positional
        # 2 no longer names the relaxed |->
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="previous"):
            simulate_stream(thetas, phis, u, CONFIGS[mode], previous)

    @pytest.mark.parametrize("previous", [1, -1])
    def test_full_reset_ignores_previous(self, previous):
        # full reset restores |0><0| before every cycle, so the outcome
        # before the stream changes nothing
        thetas, phis, u = drawn_inputs(1000, seed=8)
        fresh = simulate_stream(thetas, phis, u, CONFIGS["full"])
        after = simulate_stream(thetas, phis, u, CONFIGS["full"], previous)
        for name in StreamResult._fields:
            assert np.array_equal(getattr(after, name),
                                  getattr(fresh, name)), name

    @pytest.mark.parametrize("previous", [1, -1])
    def test_start_matches_engine_from_relaxed_state(self, previous):
        # a stream after outcome +-1 starts where the engine's chain sits:
        # in the state the reset relaxes |+> or |-> to
        cfg = CONFIGS["finite"]
        thetas, phis, u = drawn_inputs(300, seed=21)
        stream = simulate_stream(thetas, phis, u, cfg, previous=previous)
        gen = np.random.default_rng(np.random.SeedSequence([21, 0, 0]))
        sampler = HaarQubitSampler(gen)
        rho_s = reset_closed_form(previous, cfg.gamma_tau_se, cfg.phase)
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

    @pytest.mark.parametrize("mode", ["full", "finite"])
    @pytest.mark.parametrize("shape", [(), (2, 3), (1, 1)])
    def test_inputs_not_one_dimensional_rejected(self, mode, shape):
        # 0-d inputs failed on len(), 2-D ones in numpy's broadcasting
        values = np.full(shape, 0.5)
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            simulate_stream(values, values, values, CONFIGS[mode])
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            simulate_stream(values, values, values, CONFIGS[mode],
                            psi11=values)

    def test_rejects_bayes_policy(self):
        policy = BayesGainPolicy(
            table=threshold_gain_table(), prior=PriorState.uniform(2),
            ensemble=Ensemble.discrete([(PureQubit(0.0, 0.0), 0.5),
                                        (PureQubit(math.pi, 0.0), 0.5)]))
        cfg = EngineConfig.default(policy=policy)
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="threshold policy"):
            simulate_stream(thetas, phis, u, cfg)


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

    @pytest.mark.parametrize("fields", ["w_out", "outcome", ""])
    def test_str_fields_rejected(self, fields):
        # a str is a sequence of one-letter names, one of which is wrong
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="not the str"):
            simulate_stream(thetas, phis, u, CONFIGS["full"], fields=fields)

    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_psi11_shape_checked(self, mode):
        # one value would broadcast silently over the whole stream
        thetas, phis, u = drawn_inputs(5)
        with pytest.raises(ValueError, match="psi11"):
            simulate_stream(thetas, phis, u, CONFIGS[mode], psi11=np.zeros(1))


class TestInputRange:
    """psi11 and u_outcome must lie in [0, 1]: outside it the closed forms
    give p_plus < 0 or w_out > omega, and NaN gave outcome -1 silently."""

    @pytest.mark.parametrize("bad", [1.5, -1e-12, 1.0 + 1e-12, math.nan])
    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_psi11_out_of_range_rejected(self, mode, bad):
        thetas, phis, u = drawn_inputs(5)
        psi11 = np.sin(0.5 * thetas) ** 2
        psi11[2] = bad
        with pytest.raises(ValueError, match="psi11 must lie in"):
            simulate_stream(thetas, phis, u, CONFIGS[mode], psi11=psi11)

    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_nan_theta_rejected(self, mode):
        thetas, phis, u = drawn_inputs(5)
        thetas[4] = math.nan
        with pytest.raises(ValueError, match="psi11 must lie in"):
            simulate_stream(thetas, phis, u, CONFIGS[mode])

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_u_outcome_out_of_range_rejected(self, mode, bad):
        thetas, phis, u = drawn_inputs(5)
        u = u.copy()
        u[0] = bad
        with pytest.raises(ValueError, match="u_outcome must lie in"):
            simulate_stream(thetas, phis, u, CONFIGS[mode])

    def test_interval_ends_accepted(self):
        ends = np.array([0.0, 1.0])
        s = simulate_stream(np.array([0.0, math.pi]), np.zeros(2), ends,
                            CONFIGS["finite"], psi11=ends)
        assert s.p_plus.min() >= 0.0 and s.p_plus.max() <= 1.0


def one_cycle(cfg, psi11, u):
    """A one-cycle stream from |0><0| at excited population psi11."""
    return simulate_stream(np.zeros(1), np.zeros(1), np.array([u]), cfg,
                           psi11=np.array([psi11]))


class TestOutcomeThresholds:
    """The kernel picks outcomes as engine._sample_branch does: +1 when
    u < p_+, or when the -1 branch is degenerate (p_- = 1 - p_+ below
    DEGENERATE_P); never +1 when p_+ itself is below DEGENERATE_P."""

    def test_certain_plus_at_u_one(self):
        # g tau = pi/4 and psi11 = 0 make p_+ = 1 up to roundoff, so even
        # u = 1, which no p_+ exceeds, gives +1, as in the engine
        cfg = EngineConfig.default(g_tau=math.pi / 4)
        s = one_cycle(cfg, 0.0, 1.0)
        assert s.p_plus[0] > 1.0 - 1e-15
        assert s.outcome.tolist() == [1]
        rec = run_cycle(ground_state(), PureQubit(0.0, 0.0), cfg,
                        StubRng([1.0]))
        assert rec.outcome == 1

    def test_u_equal_to_p_plus_gives_minus(self):
        cfg = CONFIGS["full"]
        p = one_cycle(cfg, 0.3, 0.0).p_plus[0]
        assert one_cycle(cfg, 0.3, p).outcome.tolist() == [-1]
        assert one_cycle(cfg, 0.3, np.nextafter(p, 0.0)).outcome.tolist() \
            == [1]

    def test_plus_branch_at_the_threshold_is_live(self, monkeypatch):
        cfg = CONFIGS["full"]
        p = one_cycle(cfg, 0.3, 0.0).p_plus[0]
        monkeypatch.setattr(kernels, "DEGENERATE_P", p)
        assert one_cycle(cfg, 0.3, 0.0).outcome.tolist() == [1]
        monkeypatch.setattr(kernels, "DEGENERATE_P", np.nextafter(p, 1.0))
        assert one_cycle(cfg, 0.3, 0.0).outcome.tolist() == [-1]

    def test_minus_branch_at_the_threshold_is_live(self, monkeypatch):
        cfg = CONFIGS["full"]
        p = one_cycle(cfg, 0.1, 0.0).p_plus[0]
        # 1 - p and 1 - (1 - p) are exact for p in [1/2, 1]
        assert 0.5 <= p < 1.0 and 1.0 - (1.0 - p) == p
        monkeypatch.setattr(kernels, "DEGENERATE_P", 1.0 - p)
        assert one_cycle(cfg, 0.1, p).outcome.tolist() == [-1]
        monkeypatch.setattr(kernels, "DEGENERATE_P",
                            1.0 - np.nextafter(p, 0.0))
        assert one_cycle(cfg, 0.1, p).outcome.tolist() == [1]


def channel_tables(g_tau, gamma_tau_se, phase, reset_mode):
    """K_x and T of every candidate from the channel layer's 4x4 collision
    unitary and system states, the kernel's closed forms' oracle:
    k_x[c, x, a, b] = <x| R_a rho_c R_b^dag |x> and t[c, a, b] =
    Tr(R_a rho_c R_b^dag), with R_a the unitary's a-block."""
    candidates = np.stack([rho.mat for rho in system_candidates(
        gamma_tau_se, phase, reset_mode)])
    # U[2s+a, 2t+b] vanishes unless a == b, and its a-block is R_a
    u = collision_unitary(g_tau).reshape(2, 2, 2, 2)
    rot = np.stack([u[:, 0, :, 0], u[:, 1, :, 1]])
    # m[c, a, b] = R_a rho_c R_b^dag
    m = np.einsum("asu,cuv,btv->cabst", rot, candidates, rot.conj())
    xbasis = np.stack([KET_PLUS, KET_MINUS])
    k_x = np.einsum("xs,cabst,xt->cxab", xbasis.conj(), m, xbasis)
    return k_x, np.einsum("cabss->cab", m)


#: the closed forms and the 4x4 products agree to a few ulps
TABLE_TOL = 8 * np.finfo(float).eps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g_tau=st.floats(-2.0, 2.0), gamma_tau_se=st.floats(0.0, 6.0),
       phase=st.floats(0.0, 20.0), mode=st.sampled_from(["full", "finite"]))
def test_tables_match_channel_products(g_tau, gamma_tau_se, phase, mode):
    tab = kernels._tables(g_tau, gamma_tau_se, phase, mode)
    k_x, t = channel_tables(g_tau, gamma_tau_se, phase, mode)
    assert len(tab.t_coh2) == len(t) == (1 if mode == "full" else 3)
    pairs = (
        ("k00", tab.k00, k_x[..., 0, 0].ravel()),
        ("k11", tab.k11, k_x[..., 1, 1].ravel()),
        ("k_coh2", tab.k_coh2, np.abs(k_x[..., 0, 1]).ravel() ** 2),
        ("t00", 1.0, t[:, 0, 0]),
        ("t11", 1.0, t[:, 1, 1]),
        ("t_coh2", tab.t_coh2, np.abs(t[:, 0, 1]) ** 2),
    )
    for name, got, want in pairs:
        assert np.max(np.abs(got - want)) <= TABLE_TOL, name


def test_dephased_block_is_psi_times_t():
    """w_dephased pulses the dephased block psi o T.  T[a, a] = 1, so
    its Bloch z is psi00 - psi11 byte for byte, and it holds within
    roundoff of the block built from the channels' T.  A finite-reset
    stream visits |0><0| and both relaxed states."""
    cfg = EngineConfig.default(g_tau=0.17, gamma_tau_se=1.0, omega_s=2.0,
                               reset_mode="finite")
    u = haar_uniforms(64, seed=5)
    psi11 = u[:, 0]
    psi00 = 1.0 - psi11
    s = simulate_stream(np.zeros(64), np.zeros(64), u[:, 2], cfg,
                        psi11=psi11, fields=["w_dephased"])
    # each cycle's candidate row, set by the outcome before it
    rows = np.array([0] + [CANDIDATE_ROW[int(x)] for x in s.outcome[:-1]])
    assert set(rows) == {0, 1, 2}

    def pulsed(d_z, t_coh2):
        d_len = np.sqrt(d_z * d_z + 4.0 * psi00 * psi11 * t_coh2)
        return np.maximum(0.5 * cfg.omega * (d_len + d_z), 0.0)

    tab = kernels._tables(cfg.g_tau, cfg.gamma_tau_se, cfg.phase,
                          cfg.reset_mode)
    want = pulsed(psi00 - psi11, tab.t_coh2[rows])
    assert s.w_dephased.tobytes() == want.tobytes()
    t = channel_tables(cfg.g_tau, cfg.gamma_tau_se, cfg.phase,
                       cfg.reset_mode)[1][rows]
    ref = pulsed(psi00 * t[:, 0, 0].real - psi11 * t[:, 1, 1].real,
                 np.abs(t[:, 0, 1]) ** 2)
    assert np.max(np.abs(s.w_dephased - ref)) <= TABLE_TOL * cfg.omega


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


def _copied(stream):
    return {f: np.copy(getattr(stream, f)) for f in StreamResult._fields}


class TestWorkspace:
    """The kernel writes its temporaries into scratch its thread keeps
    between calls; no result may alias that scratch or depend on what an
    earlier call left in it."""

    @pytest.mark.parametrize("mode", ["full", "finite"])
    def test_second_call_leaves_first_result_intact(self, mode):
        cfg = CONFIGS[mode]
        first_in = haar_uniforms(3000, seed=51)
        first = simulate_stream(first_in[:, 0], first_in[:, 1],
                                first_in[:, 2], cfg, psi11=first_in[:, 0])
        kept = _copied(first)
        other = haar_uniforms(3000, seed=52)
        simulate_stream(other[:, 0], other[:, 1], other[:, 2], cfg,
                        psi11=other[:, 0])
        again = simulate_stream(first_in[:, 0], first_in[:, 1],
                                first_in[:, 2], cfg, psi11=first_in[:, 0])
        for field in StreamResult._fields:
            assert np.array_equal(getattr(first, field), kept[field]), field
            assert np.array_equal(getattr(again, field), kept[field]), field
            assert not np.shares_memory(getattr(first, field),
                                        kernels._workspace.buf), field

    def test_threads_at_once_match_serial(self):
        # more threads than cores and a short switch interval, so the
        # kernels interleave; a shared scratch would mix their streams
        jobs = [(CONFIGS[mode], haar_uniforms(kernels.BLOCK_SIZE,
                                              seed=60 + i))
                for i, mode in enumerate(["full", "finite"] * 2)]

        def run(cfg, u):
            return simulate_stream(u[:, 0], u[:, 1], u[:, 2], cfg,
                                   psi11=u[:, 0])

        serial = [_copied(run(*job)) for job in jobs]
        results = [[] for _ in jobs]

        def worker(i):
            for _ in range(5):
                results[i].append(_copied(run(*jobs[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, results):
            assert len(got) == 5
            for run_fields in got:
                for field in StreamResult._fields:
                    assert np.array_equal(run_fields[field], want[field]), \
                        field

    def test_thread_keeps_at_most_one_block(self):
        # a fresh thread starts without scratch; a stream longer than one
        # block gets scratch of its own, which it does not keep
        n = 1_000_000
        u = haar_uniforms(n, seed=70)
        cfg = CONFIGS["finite"]
        growth = []

        def worker():
            before = tracemalloc.get_traced_memory()[0]
            simulate_stream(u[:, 0], u[:, 1], u[:, 2], cfg, psi11=u[:, 0],
                            fields=("w_raw", "w_out"))
            simulate_stream(u[:10, 0], u[:10, 1], u[:10, 2], cfg,
                            psi11=u[:10, 0])
            growth.append(tracemalloc.get_traced_memory()[0] - before)

        tracemalloc.start()
        try:
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=120)
        finally:
            tracemalloc.stop()
        assert not t.is_alive()
        assert 0 < growth[0] < 2 * 2 ** 20

    @pytest.mark.parametrize("mode, budget", [("full", 56), ("finite", 80)])
    def test_allocation_budget_per_cycle(self, mode, budget):
        # a warm block-sized call as the histogram and sweeps make it;
        # without the workspace it peaked at 122 and 157 B/cycle
        n = kernels.BLOCK_SIZE
        u = haar_uniforms(n, seed=80)
        thetas, phis = _angles_from_uniforms(u[:, 0], u[:, 1])

        def call():
            simulate_stream(thetas, phis, u[:, 2], CONFIGS[mode],
                            psi11=u[:, 0], fields=("w_raw", "w_out"))

        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= budget
