import math

import numpy as np
import pytest

from demon_battery.channels import apply_pulse, collide, measure
from demon_battery.demon import (OUTCOME_ROW, Action, BayesGainPolicy,
                                 Ensemble, EnsembleSampler, PriorState,
                                 ThresholdFlip, bayes_gain, decide, posterior,
                                 threshold_gain_table)
from demon_battery.errors import DegenerateEvidence
from demon_battery.states import (DensityMatrix, PureQubit, ergotropy,
                                  ground_state, to_density)

from conftest import StubRng

OMEGA = 1.0


def likelihood(theta, g_tau=math.pi / 8):
    return 0.5 * (1.0 + math.sin(2 * g_tau) * math.cos(theta))


class TestPosterior:
    def test_uniform_prior_follows_likelihood(self):
        post = posterior(PriorState.uniform(2), np.array([0.8, 0.2]))
        assert np.allclose(post.probs, [0.8, 0.2], atol=1e-14)

    def test_certainty_absorbs(self):
        post = posterior(PriorState(np.array([1.0, 0.0])),
                         np.array([0.3, 0.9]))
        assert np.allclose(post.probs, [1.0, 0.0], atol=1e-14)

    def test_hand_evaluated_update(self):
        # prior (1/4, 3/4) against the theta=0 / theta=pi likelihoods of
        # outcome +1 at g*tau = pi/8
        lk = np.array([likelihood(0.0), likelihood(math.pi)])
        post = posterior(PriorState(np.array([0.25, 0.75])), lk)
        assert abs(post.probs[0] - 0.6601886205085203) < 1e-12
        assert abs(post.probs[1] - 0.3398113794914797) < 1e-12

    def test_constant_likelihood_is_identity(self):
        prior = PriorState(np.array([0.2, 0.3, 0.5]))
        post = posterior(prior, np.array([0.4, 0.4, 0.4]))
        assert np.allclose(post.probs, prior.probs, atol=1e-14)

    def test_degenerate_evidence_raises(self):
        with pytest.raises(DegenerateEvidence):
            posterior(PriorState(np.array([1.0, 0.0])), np.array([0.0, 0.7]))

    def test_evidence_at_the_floor_raises(self):
        # the evidence is exactly EVIDENCE_FLOOR = 1e-14, which underflows
        with pytest.raises(DegenerateEvidence):
            posterior(PriorState(np.array([1.0, 0.0])),
                      np.array([1e-14, 0.7]))

    def test_negative_likelihood_rejected(self):
        with pytest.raises(ValueError):
            posterior(PriorState.uniform(2), np.array([-0.1, 0.5]))

    @pytest.mark.parametrize("lk", [
        [0.3], np.array([0.3]), [0.3, 0.4, 0.5], np.array([[0.3, 0.4]]),
        0.3, [], [0.3, math.nan], [math.inf, 0.5], [0.5, -math.inf],
        np.array([True, False]), [True, False], [True, 0.5], [0.5, "0.5"],
        np.array(["0.5", "0.5"]), np.array([0.5, None])])
    def test_wrong_shape_or_non_finite_likelihoods_rejected(self, lk):
        # a shorter vector would broadcast against the prior, NaN would
        # fail later with the prior's message, and a bool would count as
        # a likelihood of 0 or 1
        with pytest.raises(ValueError, match="likelihoods must be "):
            posterior(PriorState.uniform(2), lk)

    def test_int_and_numpy_number_likelihoods_accepted(self):
        for lk in ((1, 3), np.array([1, 3]), [np.float64(1.0), np.int64(3)]):
            post = posterior(PriorState.uniform(2), lk)
            assert post.probs.tolist() == [0.25, 0.75]


class TestBayesGain:
    def test_simple_table_prefers_pulse_on_plus(self):
        table = threshold_gain_table()
        post = PriorState(np.array([0.4, 0.6]))
        assert np.allclose(bayes_gain(table, post, +1), [0.0, 1.0])
        assert np.allclose(bayes_gain(table, post, -1), [1.0, 0.0])

    def test_ergotropy_valued_table_matches_enumeration(self):
        members = (PureQubit(0.3, 0.0), PureQubit(2.5, 1.0))

        def conditional(outcome, idx):
            joint = collide(ground_state(), to_density(members[idx]),
                            math.pi / 8)
            branch = next(b for b in measure(joint)
                          if b.outcome == outcome)
            return branch.ancilla

        def gain_fn(action, outcome, idx):
            state = conditional(outcome, idx)
            if action == Action.APPLY_PULSE:
                state = apply_pulse(state)
            return ergotropy(state, OMEGA)

        table = np.array([[[gain_fn(a, x, i) for i in range(2)]
                           for x in (+1, -1)] for a in Action])
        post = PriorState(np.array([0.35, 0.65]))
        for outcome in (+1, -1):
            got = bayes_gain(table, post, outcome)
            want = [sum(gain_fn(a, outcome, i) * post.probs[i]
                        for i in range(2))
                    for a in (Action.DO_NOTHING, Action.APPLY_PULSE)]
            assert np.allclose(got, want, atol=1e-14)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError, match="table must be "):
            two_member_policy(table=np.full((2, 2, 1), -1.0))

    def test_nan_gain_rejected(self):
        # NaN fails every comparison, so a check on g < 0 lets it through
        # and decide's argmax then returns DO_NOTHING without complaint
        with pytest.raises(ValueError, match="table must be "):
            two_member_policy(table=np.full((2, 2, 2), math.nan))

    def test_table_kept_as_a_read_only_copy(self):
        given = np.array([[[0, 0], [1, 1]], [[1, 1], [0, 0]]])
        policy = two_member_policy(table=given)
        given[0, 0, 0] = 5
        assert policy.table.dtype == np.float64
        assert policy.table.tolist() == [[[0.0, 0.0], [1.0, 1.0]],
                                         [[1.0, 1.0], [0.0, 0.0]]]
        with pytest.raises(ValueError):
            policy.table[0, 0, 0] = 5.0
        assert policy.trajectory_instance().table.tolist() == \
            policy.table.tolist()

    def test_reassigned_table_is_checked(self):
        policy = two_member_policy()
        policy.table = np.full((2, 2, 2), 3)
        assert policy.table.dtype == np.float64
        assert not policy.table.flags.writeable
        with pytest.raises(ValueError, match="table must be "):
            policy.table = np.full((2, 2, 1), math.nan)
        with pytest.raises(ValueError, match="table must be "):
            policy.table = np.ones((2, 2, 3))
        assert policy.table.tolist() == np.full((2, 2, 2), 3.0).tolist()

    def test_terms_added_in_member_order(self):
        # 1 + 1e-16 rounds back to 1 term by term, but numpy's sum of 9
        # terms adds the small ones together first and lands one ulp up;
        # the gains follow the member-order sum, as a loop over members
        post = PriorState.uniform(9)
        table = np.full((2, 2, 9), 9e-16)
        table[:, :, 0] = 9.0
        for x in (+1, -1):
            terms = table[:, OUTCOME_ROW[x]] * post.probs
            want = [sum(row.tolist()) for row in terms]
            assert bayes_gain(table, post, x).tolist() == want

    def test_member_axis_of_one_is_every_member(self):
        post = PriorState(np.array([0.3, 0.7]))
        one = np.array([[[2.0], [0.5]], [[1.0], [3.0]]])
        for x in (+1, -1):
            assert bayes_gain(one, post, x).tolist() == \
                bayes_gain(np.repeat(one, 2, axis=-1), post, x).tolist()


def two_member_policy(**kwargs):
    ensemble = Ensemble.discrete([(PureQubit(0.0, 0.0), 0.5),
                                  (PureQubit(math.pi, 0.0), 0.5)])
    kwargs.setdefault("table", threshold_gain_table())
    return BayesGainPolicy(prior=PriorState.uniform(2), ensemble=ensemble,
                           **kwargs)


class TestDecide:
    def test_threshold_flip_mapping(self):
        policy = ThresholdFlip()
        assert decide(policy, +1) == Action.APPLY_PULSE
        assert decide(policy, -1) == Action.DO_NOTHING

    def test_bayes_with_simple_table_reproduces_threshold(self):
        policy = two_member_policy()
        for outcome in (+1, -1):
            lk = np.array([likelihood(0.0), likelihood(math.pi)])
            if outcome == -1:
                lk = 1.0 - lk
            assert decide(policy, outcome, lk) == decide(ThresholdFlip(),
                                                         outcome)

    def test_gain_rescaling_leaves_decisions_unchanged(self):
        scaled = 37.0 * threshold_gain_table()
        policy = two_member_policy()
        policy_scaled = two_member_policy(table=scaled)
        lk = np.array([0.85, 0.15])
        for outcome in (+1, -1):
            assert decide(policy, outcome, lk) == \
                decide(policy_scaled, outcome, lk)

    def test_ties_resolve_to_do_nothing(self):
        policy = two_member_policy(table=np.ones((2, 2, 1)))
        assert decide(policy, +1, np.array([0.5, 0.5])) == Action.DO_NOTHING

    def test_bayes_requires_likelihoods(self):
        with pytest.raises(ValueError):
            decide(two_member_policy(), +1)

    @pytest.mark.parametrize("lk", [np.array([0.3]),
                                    np.array([0.3, 0.4, 0.5]),
                                    np.array([math.nan, 0.5])])
    def test_bayes_rejects_likelihoods_not_one_per_member(self, lk):
        with pytest.raises(ValueError, match="likelihoods must be "):
            decide(two_member_policy(), +1, lk)

    def test_threshold_is_optimal_per_outcome(self):
        # over a uniform 181-point theta ensemble, pulsing maximizes the
        # likelihood-weighted final ergotropy on +1 and loses on -1, for
        # every interaction strength up to the maximum
        thetas = np.linspace(0.0, math.pi, 181)
        for g_tau in (0.01, math.pi / 16, math.pi / 8, 3 * math.pi / 16,
                      math.pi / 4):
            gains = {(+1, "keep"): 0.0, (+1, "flip"): 0.0,
                     (-1, "keep"): 0.0, (-1, "flip"): 0.0}
            for theta in thetas:
                joint = collide(ground_state(),
                                to_density(PureQubit(theta, 0.0)), g_tau)
                for branch in measure(joint):
                    if branch.degenerate:
                        continue
                    kept = ergotropy(branch.ancilla, OMEGA)
                    flipped = ergotropy(apply_pulse(branch.ancilla), OMEGA)
                    gains[(branch.outcome, "keep")] += branch.probability * kept
                    gains[(branch.outcome, "flip")] += branch.probability * flipped
            assert gains[(+1, "flip")] > gains[(+1, "keep")]
            assert gains[(-1, "keep")] > gains[(-1, "flip")]


class TestPriorRecycling:
    def test_posterior_becomes_next_prior(self):
        policy = two_member_policy(recycle_prior=True)
        lk = np.array([likelihood(0.0), likelihood(math.pi)])
        decide(policy, +1, lk)
        expected = posterior(PriorState.uniform(2), lk)
        assert np.allclose(policy.prior.probs, expected.probs)

    def test_trajectory_instances_are_isolated(self):
        template = two_member_policy(recycle_prior=True)
        worker_a = template.trajectory_instance()
        worker_b = template.trajectory_instance()
        decide(worker_a, +1, np.array([0.9, 0.1]))
        assert np.allclose(template.prior.probs, [0.5, 0.5])
        assert np.allclose(worker_b.prior.probs, [0.5, 0.5])
        assert not np.allclose(worker_a.prior.probs, [0.5, 0.5])


class TestEnsembles:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            Ensemble.discrete([(PureQubit(0.0, 0.0), 0.6),
                               (PureQubit(1.0, 0.0), 0.6)])
        with pytest.raises(ValueError):
            Ensemble.discrete([(PureQubit(0.0, 0.0), 1.5),
                               (PureQubit(1.0, 0.0), -0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Ensemble.discrete([(PureQubit(0.0, 0.0), bad)])
        with pytest.raises(ValueError, match="finite"):
            Ensemble.discrete([(PureQubit(0.0, 0.0), 1.0),
                               (PureQubit(1.0, 0.0), bad)])
        with pytest.raises(ValueError, match="finite"):
            PriorState([bad])
        with pytest.raises(ValueError, match="finite"):
            PriorState([1.0, bad])

    def test_sampler_roundoff_past_the_last_weight_draws_the_last_member(
            self):
        # the weights sum to 1 - 5e-13, so a uniform above that lies past
        # every cumulative weight
        e = Ensemble.discrete([(PureQubit(0.0, 0.0), 0.3),
                               (PureQubit(math.pi, 0.0), 0.7 - 5e-13)])
        sampler = EnsembleSampler(e, StubRng([1.0 - 2.0 ** -53]))
        assert sampler.sample() is e.members[1][0]

    def test_sampler_distribution_and_guards(self):
        e = Ensemble.discrete([(PureQubit(0.0, 0.0), 0.25),
                               (PureQubit(math.pi, 0.0), 0.75)])
        sampler = EnsembleSampler(e, np.random.default_rng(42))
        draws = [sampler.sample() for _ in range(4000)]
        frac = sum(1 for d in draws if d.theta > 1.0) / len(draws)
        assert abs(frac - 0.75) < 3 * math.sqrt(0.25 * 0.75 / 4000)
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(TypeError, match="pure ensemble members"):
            Ensemble.discrete([(mixed, 1.0)])
        with pytest.raises(TypeError, match="pure ensemble members"):
            Ensemble.discrete([(PureQubit(0.0, 0.0), 0.5), (mixed, 0.5)])
