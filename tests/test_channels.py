import math

import numpy as np
import pytest

from demon_battery import channels
from demon_battery.channels import (BRANCH_ROUNDOFF, CANDIDATE_ROW,
                                    apply_pulse, collide, measure,
                                    reset_closed_form, system_candidates)
from demon_battery.engine import EngineConfig, _sample_branch
from demon_battery.errors import StateInvalid
from demon_battery.qmath import SIGMA_X, kron, ptrace
from demon_battery.states import (DensityMatrix, PureQubit, ergotropy,
                                  ground_state, to_density)

from conftest import (KET_MINUS, KET_PLUS, projector, qubit_hamiltonian,
                      random_density, reset_numeric)

OMEGA = 1.0
H_A = qubit_hamiltonian(OMEGA)


def joint_for(theta, phi=0.9, g_tau=math.pi / 8):
    return collide(ground_state(), to_density(PureQubit(theta, phi)), g_tau)


class TestCollide:
    def test_zero_coupling_is_identity(self):
        rho_s = ground_state()
        psi = to_density(PureQubit(1.1, 0.4))
        out = collide(rho_s, psi, 0.0)
        assert np.max(np.abs(out.mat - kron(rho_s.mat, psi.mat))) < 1e-14

    def test_ancilla_populations_invariant(self):
        # [H_SA, H_A] = 0: the collision never changes ancilla energy
        rng = np.random.default_rng(31)
        for _ in range(200):
            psi = to_density(PureQubit(float(rng.uniform(0, math.pi)),
                                       float(rng.uniform(0, 2 * math.pi))))
            g_tau = float(rng.uniform(0, 2))
            rho_s = DensityMatrix(random_density(rng, 2))
            out = collide(rho_s, psi, g_tau)
            marg = ptrace(out.mat, "ancilla")
            assert abs(marg[0, 0].real - psi.mat[0, 0].real) < 1e-12
            assert abs(marg[1, 1].real - psi.mat[1, 1].real) < 1e-12

    def test_system_rotation_angle(self):
        # from |0> the system picks up <sigma_z> = cos(2 g tau)
        out = collide(ground_state(), ground_state(), math.pi / 8)
        sys = ptrace(out.mat, "system")
        assert abs((sys[0, 0] - sys[1, 1]).real - math.cos(math.pi / 4)) < 1e-12

    def test_trace_and_positivity_preserved(self):
        out = joint_for(2.0)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.mat).min() > -1e-12


class TestMeasure:
    def test_uncollided_ground_state_is_unbiased(self):
        joint = collide(ground_state(), to_density(PureQubit(0.7, 0.1)), 0.0)
        plus, minus = measure(joint)
        assert abs(plus.probability - 0.5) < 1e-12
        assert abs(minus.probability - 0.5) < 1e-12

    def test_likelihood_closed_form(self):
        # P(x|psi) = (1 + x sin(2 g tau) cos(theta)) / 2
        plus, _ = measure(joint_for(0.0))
        assert abs(plus.probability - 0.5 * (1 + math.sin(math.pi / 4))) < 1e-12
        for g_tau in (0.1, math.pi / 8, math.pi / 4):
            plus, minus = measure(joint_for(math.pi / 2, g_tau=g_tau))
            assert abs(plus.probability - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            joint = DensityMatrix(random_density(rng, 4))
            total = sum(b.probability for b in measure(joint))
            assert abs(total - 1.0) < 1e-12

    def test_branch_reconstructs_unnormalized_update(self):
        # the Kraus update (P_x x I) rho (P_x x I), built here from 4x4
        # operators, is p_x |x><x| x rho_A^x: the reference the block
        # sums of measure are held to
        rng = np.random.default_rng(35)
        kets = {+1: KET_PLUS, -1: KET_MINUS}
        for _ in range(1000):
            joint = DensityMatrix(random_density(rng, 4))
            for branch in measure(joint):
                ket = kets[branch.outcome]
                k = kron(projector(ket), np.eye(2))
                unnorm = k @ joint.mat @ k.conj().T
                rebuilt = branch.probability * kron(projector(ket),
                                                    branch.ancilla.mat)
                assert np.max(np.abs(rebuilt - unnorm)) < 1e-12

    def test_branch_marginals_are_partial_traces(self):
        # after the readout the system is exactly |x><x|, and the
        # ancilla is the other marginal of the normalized Kraus update
        joint = joint_for(2.2)
        for branch, ket in zip(measure(joint), (KET_PLUS, KET_MINUS)):
            k = kron(projector(ket), np.eye(2))
            updated = k @ joint.mat @ k.conj().T / branch.probability
            assert np.max(np.abs(ptrace(updated, "system")
                                 - projector(ket))) < 1e-12
            assert np.max(np.abs(branch.ancilla.mat
                                 - ptrace(updated, "ancilla"))) < 1e-12

    def test_zero_work_measurement_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            g_tau = float(rng.uniform(0, math.pi / 4))
            branches = measure(joint_for(theta, phi, g_tau))
            avg = sum(b.probability
                      * np.trace(b.ancilla.mat @ H_A).real
                      for b in branches)
            assert abs(avg - (-0.5 * math.cos(theta))) < 1e-12

    def test_degenerate_branch_flagged_and_guarded(self):
        # the system in |+> leaves the -1 outcome probability 0
        joint = DensityMatrix(kron(projector(KET_PLUS), ground_state().mat))
        alive, dead = measure(joint)
        assert alive.outcome == +1 and dead.outcome == -1
        assert not alive.degenerate and abs(alive.probability - 1.0) < 1e-14
        assert dead.degenerate and dead.ancilla is None
        # the sampler never picks it, even for u past alive's probability
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert _sample_branch([alive, dead], u) is alive

    def test_small_branch_survives_amplified_roundoff(self):
        # the system relaxed from |+> for gamma*tau = 1e-10 gives the -1
        # outcome probability 2.5e-11; normalizing that branch amplifies
        # the roundoff of the products behind it past the 1e-10 state
        # tolerance, though the joint state is valid
        rho_s = reset_closed_form(+1, 1e-10, 0.0)
        for theta in np.linspace(0.0, math.pi, 13):
            psi = to_density(PureQubit(float(theta), 0.3))
            joint = collide(rho_s, psi, 0.0)
            _, minus = measure(joint)
            assert abs(minus.probability - 2.5e-11) < 1e-15
            assert np.max(np.abs(minus.ancilla.mat - psi.mat)) < 1e-4

    def test_small_branch_beyond_roundoff_still_raises(self):
        # a valid joint state (eigenvalue -5e-11) whose -1 branch of
        # probability 1e-9 is 5% short of positive once normalized
        joint = DensityMatrix(
            kron(projector(KET_PLUS), np.diag([1.0 - 1e-9, 0.0]))
            + kron(projector(KET_MINUS), np.diag([1e-9 + 5e-11, -5e-11])))
        with pytest.raises(StateInvalid):
            measure(joint)

    def test_branch_at_the_threshold_is_live(self, monkeypatch):
        # a branch is degenerate below DEGENERATE_P, not at it
        joint = joint_for(1.1)
        p = measure(joint)[1].probability
        monkeypatch.setattr(channels, "DEGENERATE_P", p)
        assert not measure(joint)[1].degenerate
        monkeypatch.setattr(channels, "DEGENERATE_P", np.nextafter(p, 1.0))
        assert measure(joint)[1].degenerate

    def test_miss_of_exactly_the_budget_is_accepted(self):
        # at probability 1 the budget is BRANCH_ROUNDOFF itself
        b = BRANCH_ROUNDOFF
        m = np.diag([1.0 + b, -b]).astype(complex)
        state = channels._state_within_roundoff(+1, 1.0, m)
        assert np.array_equal(state.mat, np.diag([1.0, 0.0]))
        m = np.diag([1.0 + 2 * b, -np.nextafter(b, 1.0)]).astype(complex)
        with pytest.raises(StateInvalid, match="beyond its roundoff"):
            channels._state_within_roundoff(+1, 1.0, m)


def _measure_as_arrays(joint):
    """(outcome, p, normalized block) per branch, from the 2x2 blocks of
    the 4x4 array in numpy's elementwise complex arithmetic."""
    r = joint.mat.reshape(2, 2, 2, 2)
    diagonal = r[0, :, 0, :] + r[1, :, 1, :]
    crossed = r[0, :, 1, :] + r[1, :, 0, :]
    out = []
    for label in (+1, -1):
        unnorm = 0.5 * (diagonal + label * crossed)
        p = max(float(unnorm.trace().real), 0.0)
        out.append((label, p, unnorm / p if p >= 1e-14 else None))
    return out


def _signed_zero_joints():
    """Valid joint states whose entries carry signed zeros: the sign of
    the measured state's zeros turns on every term of the complex
    products and of the division."""
    upper = (
        {(0, 1): complex(-0.0, -0.1), (2, 3): complex(-0.0, -0.1),
         (0, 3): complex(-0.0, 0.05), (2, 1): complex(-0.0, 0.05)},
        {(i, j): complex(-0.0, 0.0) for i in range(4) for j in range(i + 1, 4)},
        {(0, 1): complex(-0.1, -0.0), (2, 3): complex(-0.1, -0.0),
         (0, 3): complex(-0.0, 0.0), (2, 1): complex(-0.0, 0.0)},
    )
    joints = []
    for entries in upper:
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(np.complex128)
        for (i, j), v in entries.items():
            m[i, j] = v
            m[j, i] = v.conjugate()
        joints.append(DensityMatrix(m))
    return joints


class TestMeasureScalars:
    def _joints(self):
        rng = np.random.default_rng(47)
        joints = _signed_zero_joints()
        joints += [DensityMatrix(random_density(rng, 4)) for _ in range(300)]
        systems = system_candidates(1.0, 1.0, "finite")
        for theta in (0.0, math.pi / 3, math.pi / 2, math.pi):
            for phi in (0.0, math.pi / 2, math.pi, 0.9):
                for g_tau in (0.0, math.pi / 8, math.pi / 4, -0.3):
                    psi = to_density(PureQubit(theta, phi))
                    joints += [collide(rho_s, psi, g_tau)
                               for rho_s in systems]
        return joints

    def test_equals_the_array_expression_bit_for_bit(self):
        for joint in self._joints():
            for got, (label, p, m) in zip(measure(joint),
                                          _measure_as_arrays(joint)):
                assert got.outcome == label
                assert np.float64(got.probability).tobytes() == \
                    np.float64(p).tobytes()
                assert got.degenerate == (m is None)
                if m is not None:
                    assert got.ancilla.mat.tobytes() == m.tobytes()


class TestApplyPulse:
    def test_flips_populations(self):
        out = apply_pulse(ground_state())
        assert np.allclose(out.mat, np.diag([0.0, 1.0]))

    def test_equals_the_sigma_x_product(self):
        # sigma_x only permutes the basis: the product's every entry is
        # one entry of rho, times 1, plus zeros
        rng = np.random.default_rng(33)
        for _ in range(200):
            rho = DensityMatrix(random_density(rng, 2))
            assert np.array_equal(apply_pulse(rho).mat,
                                  SIGMA_X @ rho.mat @ SIGMA_X)

    def test_involution(self):
        rng = np.random.default_rng(34)
        rho = DensityMatrix(random_density(rng, 2))
        twice = apply_pulse(apply_pulse(rho))
        assert np.max(np.abs(twice.mat - rho.mat)) < 1e-14

    def test_pulse_work_equals_ergotropy_change(self):
        # on the +1 branch the ergotropy change is exactly the injected work
        plus, _ = measure(joint_for(math.pi / 4))
        before = plus.ancilla
        after = apply_pulse(before)
        work = (np.trace(after.mat @ H_A).real
                - np.trace(before.mat @ H_A).real)
        dw = ergotropy(after, OMEGA) - ergotropy(before, OMEGA)
        assert abs(dw - work) < 1e-12


def plus_minus_density(sign):
    amp = np.array([1.0, sign], dtype=complex) / math.sqrt(2)
    return DensityMatrix(np.outer(amp, amp.conj()))


class TestResetClosedForm:
    def test_no_evolution_limit(self):
        for sign in (+1, -1):
            out = reset_closed_form(sign, 0.0, 0.0)
            assert np.max(np.abs(out.mat - plus_minus_density(sign).mat)) < 1e-14

    def test_full_reset_limit(self):
        out = reset_closed_form(+1, 60.0, 1.0)
        assert np.max(np.abs(out.mat - ground_state().mat)) < 1e-12

    def test_half_life_point(self):
        # gamma*tau = 2 ln 2: populations (7/8, 1/8), coherence +1/4
        out = reset_closed_form(+1, 2 * math.log(2), 0.0)
        assert abs(out.mat[0, 0].real - 0.875) < 1e-12
        assert abs(out.mat[1, 1].real - 0.125) < 1e-12
        assert abs(out.mat[0, 1] - 0.25) < 1e-12

    def test_rejects_other_starts(self):
        with pytest.raises(ValueError):
            reset_closed_form(0, 1.0, 1.0)

    def test_system_candidates_are_the_reset_states(self):
        # bit for bit what reset_closed_form and ground_state give, built
        # once per parameter set and read-only
        p = (0.8, 1.3 * 0.6)  # gamma_tau_se, phase omega_s*tau_se
        finite = system_candidates(*p, "finite")
        assert system_candidates(*p, "finite") is finite
        assert len(finite) == 3 and len(system_candidates(*p, "full")) == 1
        assert system_candidates(*p, "full")[0].mat.tobytes() \
            == ground_state().mat.tobytes()
        for outcome, want in ((0, ground_state()),
                              (+1, reset_closed_form(+1, *p)),
                              (-1, reset_closed_form(-1, *p))):
            got = finite[CANDIDATE_ROW[outcome]].mat
            assert got.tobytes() == want.mat.tobytes()
            assert not got.flags.writeable


class TestResetNumeric:
    def test_identity_when_idle(self):
        rng = np.random.default_rng(35)
        rho = DensityMatrix(random_density(rng, 2))
        out = reset_numeric(rho, 0.0, 0.0)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_matches_closed_form_from_projectors(self):
        for gamma_tau in (0.3, 1.0):
            for sign in (+1, -1):
                got = reset_numeric(plus_minus_density(sign), gamma_tau, 0.7)
                want = reset_closed_form(sign, gamma_tau, 0.7)
                assert np.max(np.abs(got.mat - want.mat)) < 1e-8

    @pytest.mark.parametrize("tau_se", [0.0, 0.4, 4.55])
    def test_matches_closed_form_at_any_reset_time(self, tau_se):
        # tau_se enters only through the phase omega_s*tau_se
        cfg = EngineConfig.default(gamma_tau_se=1.3, tau_se=tau_se,
                                   omega_s=0.7)
        for sign in (+1, -1):
            got = reset_numeric(plus_minus_density(sign), cfg.gamma_tau_se,
                                cfg.phase)
            want = reset_closed_form(sign, cfg.gamma_tau_se, cfg.phase)
            assert np.max(np.abs(got.mat - want.mat)) < 1e-8

    def test_pure_decay_from_excited(self):
        # amplitude damping: excited population decays as exp(-gamma t)
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        out = reset_numeric(rho, 1.0, 0.0)
        assert abs(out.mat[1, 1].real - math.exp(-1.0)) < 1e-10

    def test_cptp_on_random_inputs(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            rho = DensityMatrix(random_density(rng, 2))
            out = reset_numeric(rho, float(rng.uniform(0, 3)),
                                float(rng.uniform(-2, 2)))
            assert abs(np.trace(out.mat).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.mat).min() >= -1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="gamma_tau_se"):
            reset_closed_form(+1, -1.0, 1.0)
        with pytest.raises(ValueError, match="phase"):
            reset_closed_form(+1, 1.0, -math.inf)
        with pytest.raises(ValueError, match="tau_se"):
            EngineConfig.default(tau_se=-1.0)
