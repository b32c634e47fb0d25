import numpy as np
import pytest

from demon_battery.errors import DimensionMismatch, NotHermitian
from demon_battery.qmath import (IDENTITY_2, IDENTITY_4, SIGMA_X, SIGMA_Y,
                                 SIGMA_Z, eig_hermitian, expm_i, kron,
                                 projector, ptrace)

from conftest import random_density, random_hermitian


class TestEigHermitian:
    def test_already_diagonal(self):
        values, vectors = eig_hermitian(np.diag([-1.0, 1.0]).astype(complex))
        assert np.allclose(values, [-1.0, 1.0])
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_sigma_x_eigenbasis(self):
        values, vectors = eig_hermitian(SIGMA_X)
        assert np.allclose(values, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        # columns match |-> and |+> up to phase
        assert abs(abs(np.vdot(minus, vectors[:, 0])) - 1.0) < 1e-12
        assert abs(abs(np.vdot(plus, vectors[:, 1])) - 1.0) < 1e-12

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            h = random_hermitian(rng, 4)
            values, vectors = eig_hermitian(h)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-12
            assert np.max(np.abs(vectors.conj().T @ vectors - IDENTITY_4)) < 1e-12
            assert np.all(np.diff(values) >= 0)

    def test_density_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4):
            for _ in range(200):
                values, _ = eig_hermitian(random_density(rng, dim))
                assert values.min() >= -1e-12
                assert values.max() <= 1.0 + 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestExpmI:
    def test_sigma_z_pi_is_minus_identity(self):
        assert np.max(np.abs(expm_i(SIGMA_Z, np.pi) + IDENTITY_2)) < 1e-12

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            h = random_hermitian(rng, dim)
            assert np.max(np.abs(expm_i(h, 0.0) - np.eye(dim))) < 1e-15

    def test_collision_generator_vs_rk4_oracle(self):
        # independent oracle: integrate dU/dt = -i H U with RK4
        g, tau = 1.0, np.pi / 8
        h = g * kron(SIGMA_Y, SIGMA_Z)
        steps = 4000
        dt = tau / steps
        u = IDENTITY_4.copy()
        rhs = lambda m: -1j * h @ m
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(expm_i(h, tau) - u)) < 1e-10
        # and the block structure: +/- pi/8 rotations about y
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        exact = expm_i(h, tau).reshape(2, 2, 2, 2)
        rot_minus = np.array([[c, -s], [s, c]])   # ancilla |0> block
        rot_plus = np.array([[c, s], [-s, c]])    # ancilla |1> block
        assert np.allclose(exact[:, 0, :, 0], rot_minus, atol=1e-12)
        assert np.allclose(exact[:, 1, :, 1], rot_plus, atol=1e-12)

    def test_unitarity_and_inverse_property(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            dim = rng.choice([2, 4])
            h = random_hermitian(rng, dim)
            t = float(rng.uniform(-5, 5))
            u = expm_i(h, t)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
            assert np.max(np.abs(u @ expm_i(h, -t) - np.eye(dim))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            expm_i(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), IDENTITY_4)

    def test_interaction_generator(self):
        expected = np.zeros((4, 4), dtype=complex)
        # sigma_y (x) sigma_z under system-major ordering
        expected[0, 2] = -1j
        expected[1, 3] = 1j
        expected[2, 0] = 1j
        expected[3, 1] = -1j
        assert np.max(np.abs(kron(SIGMA_Y, SIGMA_Z) - expected)) == 0.0

    def test_bit_identical_to_numpy_kron(self):
        rng = np.random.default_rng(17)
        signed_zeros = np.array([[0.0, -0.0], [complex(-0.0, 0.0), -0.0j]])
        pairs = [(signed_zeros, SIGMA_Y), (SIGMA_Z, signed_zeros),
                 (np.eye(2), np.arange(6.0).reshape(2, 3))]
        for shape_a, shape_b in [((2, 2), (2, 2)), ((4, 4), (2, 2)),
                                 ((1, 3), (2, 1))] * 20:
            pairs.append((random_hermitian(rng, 4)[:shape_a[0], :shape_a[1]],
                          rng.standard_normal(shape_b)
                          + 1j * rng.standard_normal(shape_b)))
        for a, b in pairs:
            out = kron(a, b)
            ref = np.kron(np.asarray(a, dtype=complex),
                          np.asarray(b, dtype=complex))
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()

    def test_rejects_non_matrices(self):
        with pytest.raises(DimensionMismatch):
            kron(np.ones(2), IDENTITY_2)

    def test_basis_bookkeeping(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        out = kron(p0, p1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0  # system 0, ancilla 1 -> composite index 1
        assert np.array_equal(out, expected)


class TestPtrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            rho_s = random_density(rng, 2)
            rho_a = random_density(rng, 2)
            joint = kron(rho_s, rho_a)
            assert np.max(np.abs(ptrace(joint, "system") - rho_s)) < 1e-14
            assert np.max(np.abs(ptrace(joint, "ancilla") - rho_a)) < 1e-14

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / np.sqrt(2)
        rho = projector(bell)
        for keep in ("system", "ancilla"):
            assert np.max(np.abs(ptrace(rho, keep) - IDENTITY_2 / 2)) < 1e-14

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            x = float(rng.uniform(-2, 2))
            combo = x * a + (1 - x) * b
            lhs = ptrace(combo, "system")
            rhs = x * ptrace(a, "system") + (1 - x) * ptrace(b, "system")
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            assert abs(np.trace(ptrace(a, "ancilla")) - np.trace(a)) < 1e-14

    def test_collision_output_ancilla_populations(self):
        # the interaction commutes with sigma_z on the ancilla, so the
        # ancilla marginal's populations never change
        h = kron(SIGMA_Y, SIGMA_Z)
        u = expm_i(h, np.pi / 8)
        amp = np.array([1.0, 1.0]) / np.sqrt(2)  # theta = pi/2
        joint = kron(np.diag([1.0, 0.0]).astype(complex), projector(amp))
        out = ptrace(u @ joint @ u.conj().T, "ancilla")
        assert abs(out[0, 0] - 0.5) < 1e-12
        assert abs(out[1, 1] - 0.5) < 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            ptrace(IDENTITY_2, "system")

    def test_rejects_unknown_keep(self):
        with pytest.raises(ValueError):
            ptrace(IDENTITY_4, "environment")
