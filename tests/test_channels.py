import math

import numpy as np
import pytest

from demon_battery.channels import (SIGMA_X_MEASUREMENT, CollisionParams,
                                    Measurement, ResetParams, apply_pulse,
                                    collide, measure, reset_closed_form,
                                    reset_numeric)
from demon_battery.errors import (NotUnitary, StateInvalid,
                                  ZeroProbabilityBranch)
from demon_battery.qmath import KET_MINUS, KET_PLUS, SIGMA_X, kron, projector
from demon_battery.states import (DensityMatrix, PureQubit, QubitHamiltonian,
                                  ergotropy, ground_state, to_density)

from conftest import random_density

H_A = QubitHamiltonian(1.0)


def joint_for(theta, phi=0.9, g_tau=math.pi / 8):
    params = CollisionParams(g_tau)
    return collide(ground_state(), to_density(PureQubit(theta, phi)), params)


class TestCollide:
    def test_zero_coupling_is_identity(self):
        rho_s = ground_state()
        psi = to_density(PureQubit(1.1, 0.4))
        out = collide(rho_s, psi, CollisionParams(0.0))
        assert np.max(np.abs(out.mat - kron(rho_s.mat, psi.mat))) < 1e-14

    def test_ancilla_populations_invariant(self):
        # [H_SA, H_A] = 0: the collision never changes ancilla energy
        rng = np.random.default_rng(31)
        for _ in range(200):
            psi = to_density(PureQubit(float(rng.uniform(0, math.pi)),
                                       float(rng.uniform(0, 2 * math.pi))))
            params = CollisionParams(float(rng.uniform(0, 2)))
            rho_s = DensityMatrix(random_density(rng, 2))
            out = collide(rho_s, psi, params)
            from demon_battery.qmath import ptrace
            marg = ptrace(out.mat, "ancilla")
            assert abs(marg[0, 0].real - psi.mat[0, 0].real) < 1e-12
            assert abs(marg[1, 1].real - psi.mat[1, 1].real) < 1e-12

    def test_system_rotation_angle(self):
        # from |0> the system picks up <sigma_z> = cos(2 g tau)
        out = collide(ground_state(), ground_state(),
                      CollisionParams(math.pi / 8))
        from demon_battery.qmath import ptrace
        sys = ptrace(out.mat, "system")
        assert abs((sys[0, 0] - sys[1, 1]).real - math.cos(math.pi / 4)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        out = joint_for(2.0)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.mat).min() > -1e-12


class TestMeasure:
    def test_uncollided_ground_state_is_unbiased(self):
        joint = collide(ground_state(), to_density(PureQubit(0.7, 0.1)),
                        CollisionParams(0.0))
        plus, minus = measure(joint, SIGMA_X_MEASUREMENT)
        assert abs(plus.probability - 0.5) < 1e-12
        assert abs(minus.probability - 0.5) < 1e-12

    def test_likelihood_closed_form(self):
        # P(x|psi) = (1 + x sin(2 g tau) cos(theta)) / 2
        plus, _ = measure(joint_for(0.0), SIGMA_X_MEASUREMENT)
        assert abs(plus.probability - 0.5 * (1 + math.sin(math.pi / 4))) < 1e-12
        for g_tau in (0.1, math.pi / 8, math.pi / 4):
            plus, minus = measure(joint_for(math.pi / 2, g_tau=g_tau),
                                  SIGMA_X_MEASUREMENT)
            assert abs(plus.probability - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(32)
        meas = SIGMA_X_MEASUREMENT
        for _ in range(1000):
            joint = DensityMatrix(random_density(rng, 4))
            total = sum(b.probability for b in measure(joint, meas))
            assert abs(total - 1.0) < 1e-12

    def test_branch_reconstructs_unnormalized_update(self):
        joint = joint_for(1.3)
        meas = SIGMA_X_MEASUREMENT
        for branch, m_op in zip(measure(joint, meas), meas.kraus):
            k = kron(m_op, np.eye(2))
            unnorm = k @ joint.mat @ k.conj().T
            rebuilt = branch.probability * branch.joint.mat
            assert np.max(np.abs(rebuilt - unnorm)) < 1e-12

    def test_branch_marginals_are_partial_traces(self):
        from demon_battery.qmath import ptrace
        for branch in measure(joint_for(2.2), SIGMA_X_MEASUREMENT):
            assert np.max(np.abs(branch.system.mat
                                 - ptrace(branch.joint.mat, "system"))) < 1e-12
            assert np.max(np.abs(branch.ancilla.mat
                                 - ptrace(branch.joint.mat, "ancilla"))) < 1e-12

    def test_zero_work_measurement_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            g_tau = float(rng.uniform(0, math.pi / 4))
            branches = measure(joint_for(theta, phi, g_tau),
                               SIGMA_X_MEASUREMENT)
            avg = sum(b.probability
                      * np.trace(b.ancilla.mat @ H_A.matrix).real
                      for b in branches)
            assert abs(avg - (-0.5 * math.cos(theta))) < 1e-12

    def test_degenerate_branch_flagged_and_guarded(self):
        z_meas = Measurement(kraus=(projector(np.array([1.0, 0.0])),
                                    projector(np.array([0.0, 1.0]))),
                             labels=(0, 1))
        joint = DensityMatrix(kron(ground_state().mat, ground_state().mat))
        alive, dead = measure(joint, z_meas)
        assert not alive.degenerate and abs(alive.probability - 1.0) < 1e-14
        assert dead.degenerate and dead.joint is None
        with pytest.raises(ZeroProbabilityBranch):
            dead.require_states()

    def test_small_branch_survives_amplified_roundoff(self):
        # the system relaxed from |+> for gamma*tau = 1e-10 gives the -1
        # outcome probability 2.5e-11; normalizing that branch amplifies
        # the roundoff of the products behind it past the 1e-10 state
        # tolerance, though the joint state is valid
        rho_s = reset_closed_form(+1, ResetParams(1e-10, 1.0, 0.0))
        for theta in np.linspace(0.0, math.pi, 13):
            psi = to_density(PureQubit(float(theta), 0.3))
            joint = collide(rho_s, psi, CollisionParams(0.0))
            _, minus = measure(joint, SIGMA_X_MEASUREMENT)
            assert abs(minus.probability - 2.5e-11) < 1e-15
            assert np.max(np.abs(minus.ancilla.mat - psi.mat)) < 1e-4
            assert np.max(np.abs(minus.system.mat
                                 - projector(KET_MINUS))) < 1e-4

    def test_small_branch_beyond_roundoff_still_raises(self):
        # a valid joint state (eigenvalue -5e-11) whose -1 branch of
        # probability 1e-9 is 5% short of positive once normalized
        joint = DensityMatrix(
            kron(projector(KET_PLUS), np.diag([1.0 - 1e-9, 0.0]))
            + kron(projector(KET_MINUS), np.diag([1e-9 + 5e-11, -5e-11])))
        with pytest.raises(StateInvalid):
            measure(joint, SIGMA_X_MEASUREMENT)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            Measurement(kraus=(projector(np.array([1.0, 0.0])),),
                        labels=(0,))


class TestApplyPulse:
    def test_flips_populations(self):
        out = apply_pulse(ground_state(), SIGMA_X)
        assert np.allclose(out.mat, np.diag([0.0, 1.0]))

    def test_involution(self):
        rng = np.random.default_rng(34)
        rho = DensityMatrix(random_density(rng, 2))
        twice = apply_pulse(apply_pulse(rho, SIGMA_X), SIGMA_X)
        assert np.max(np.abs(twice.mat - rho.mat)) < 1e-14

    def test_pulse_work_equals_ergotropy_change(self):
        # on the +1 branch the ergotropy change is exactly the injected work
        plus, _ = measure(joint_for(math.pi / 4), SIGMA_X_MEASUREMENT)
        before = plus.ancilla
        after = apply_pulse(before, SIGMA_X)
        work = (np.trace(after.mat @ H_A.matrix).real
                - np.trace(before.mat @ H_A.matrix).real)
        dw = ergotropy(after, H_A) - ergotropy(before, H_A)
        assert abs(dw - work) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            apply_pulse(ground_state(),
                        np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))


def plus_minus_density(sign):
    amp = np.array([1.0, sign], dtype=complex) / math.sqrt(2)
    return DensityMatrix(np.outer(amp, amp.conj()))


class TestResetClosedForm:
    def test_no_evolution_limit(self):
        p = ResetParams(gamma=0.0, tau_se=0.0, omega_s=3.0)
        for sign in (+1, -1):
            out = reset_closed_form(sign, p)
            assert np.max(np.abs(out.mat - plus_minus_density(sign).mat)) < 1e-14

    def test_full_reset_limit(self):
        p = ResetParams(gamma=60.0, tau_se=1.0, omega_s=1.0)
        out = reset_closed_form(+1, p)
        assert np.max(np.abs(out.mat - ground_state().mat)) < 1e-12

    def test_half_life_point(self):
        # gamma*tau = 2 ln 2: populations (7/8, 1/8), coherence +1/4
        p = ResetParams(gamma=2 * math.log(2), tau_se=1.0, omega_s=0.0)
        out = reset_closed_form(+1, p)
        assert abs(out.mat[0, 0].real - 0.875) < 1e-12
        assert abs(out.mat[1, 1].real - 0.125) < 1e-12
        assert abs(out.mat[0, 1] - 0.25) < 1e-12

    def test_rejects_other_starts(self):
        with pytest.raises(ValueError):
            reset_closed_form(0, ResetParams(1.0, 1.0, 1.0))


class TestResetNumeric:
    def test_identity_when_idle(self):
        rng = np.random.default_rng(35)
        rho = DensityMatrix(random_density(rng, 2))
        p = ResetParams(gamma=0.0, tau_se=1.0, omega_s=0.0)
        out = reset_numeric(rho, p)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_matches_closed_form_from_projectors(self):
        for gamma_tau in (0.3, 1.0):
            p = ResetParams(gamma=gamma_tau, tau_se=1.0, omega_s=0.7)
            for sign in (+1, -1):
                got = reset_numeric(plus_minus_density(sign), p)
                want = reset_closed_form(sign, p)
                assert np.max(np.abs(got.mat - want.mat)) < 1e-8

    def test_pure_decay_from_excited(self):
        # amplitude damping: excited population decays as exp(-gamma t)
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        p = ResetParams(gamma=1.0, tau_se=1.0, omega_s=0.0)
        out = reset_numeric(rho, p)
        assert abs(out.mat[1, 1].real - math.exp(-1.0)) < 1e-10

    def test_cptp_on_random_inputs(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            rho = DensityMatrix(random_density(rng, 2))
            p = ResetParams(gamma=float(rng.uniform(0, 3)), tau_se=1.0,
                            omega_s=float(rng.uniform(-2, 2)))
            out = reset_numeric(rho, p)
            assert abs(np.trace(out.mat).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-8

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            reset_numeric(ground_state(), ResetParams(1.0, 1.0, 1.0), steps=50)

    def test_detects_unstable_integration(self):
        p = ResetParams(gamma=400.0, tau_se=1.0, omega_s=0.0)
        with pytest.raises(StateInvalid):
            reset_numeric(plus_minus_density(+1), p, steps=100)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ResetParams(gamma=-1.0, tau_se=1.0, omega_s=1.0)
        with pytest.raises(ValueError):
            ResetParams(gamma=1.0, tau_se=-1.0, omega_s=1.0)
