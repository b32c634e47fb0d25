import numpy as np
import pytest

from demon_battery.channels import collision_unitary
from demon_battery.errors import DimensionMismatch
from demon_battery.qmath import IDENTITY_4, SIGMA_Y, SIGMA_Z, kron, ptrace

from conftest import projector, random_density, random_hermitian

IDENTITY_2 = np.eye(2, dtype=np.complex128)


class TestExpmI:
    """exp(-i g tau sigma_y x sigma_z), which collision_unitary sums in
    closed form, against an integrator and its group law."""

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
        exact = collision_unitary(g * tau)
        assert np.max(np.abs(exact - u)) < 1e-10
        # and the block structure: +/- pi/8 rotations about y
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        blocks = exact.reshape(2, 2, 2, 2)
        rot_minus = np.array([[c, -s], [s, c]])   # ancilla |0> block
        rot_plus = np.array([[c, s], [-s, c]])    # ancilla |1> block
        assert np.allclose(blocks[:, 0, :, 0], rot_minus, atol=1e-12)
        assert np.allclose(blocks[:, 1, :, 1], rot_plus, atol=1e-12)

    def test_unitarity_and_inverse_property(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            g_tau = float(rng.uniform(-5, 5))
            u = collision_unitary(g_tau)
            assert np.max(np.abs(u @ u.conj().T - IDENTITY_4)) < 1e-12
            inverse = collision_unitary(-g_tau)
            assert np.max(np.abs(u @ inverse - IDENTITY_4)) < 1e-12


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

    def test_interaction_generator_squares_to_identity(self):
        # what makes the collision unitary's closed form exact
        generator = kron(SIGMA_Y, SIGMA_Z)
        assert np.array_equal(generator @ generator, IDENTITY_4)

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
        u = collision_unitary(np.pi / 8)
        amp = np.array([1.0, 1.0]) / np.sqrt(2)  # theta = pi/2
        joint = kron(np.diag([1.0, 0.0]).astype(complex), projector(amp))
        out = ptrace(u @ joint @ u.conj().T, "ancilla")
        assert abs(out[0, 0] - 0.5) < 1e-12
        assert abs(out[1, 1] - 0.5) < 1e-12

    def test_bit_identical_to_einsum(self):
        # each entry is one two-term sum, so any summation order agrees
        rng = np.random.default_rng(17)
        for _ in range(200):
            r = random_hermitian(rng, 4).reshape(2, 2, 2, 2)
            m = r.reshape(4, 4)
            assert np.array_equal(ptrace(m, "system"),
                                  np.einsum("iaja->ij", r))
            assert np.array_equal(ptrace(m, "ancilla"),
                                  np.einsum("aiaj->ij", r))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            ptrace(IDENTITY_2, "system")

    def test_rejects_unknown_keep(self):
        with pytest.raises(ValueError):
            ptrace(IDENTITY_4, "environment")
