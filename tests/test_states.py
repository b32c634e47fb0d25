import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demon_battery.errors import DimensionMismatch, StateInvalid
from demon_battery.states import (DM_ATOL, DensityMatrix, PureQubit,
                                  QubitHamiltonian, ergotropy, ergotropy_pure,
                                  ground_state, passive_state, to_density)

from conftest import haar_unitary, random_density

OMEGA = 1.0
H_A = QubitHamiltonian(OMEGA)


def random_qubit_density(rng):
    return DensityMatrix(random_density(rng, 2))


class TestTypes:
    def test_pure_qubit_wraps_phi(self):
        psi = PureQubit(1.0, 7.0)
        assert 0.0 <= psi.phi < 2 * math.pi
        assert abs(psi.phi - (7.0 - 2 * math.pi)) < 1e-12

    def test_pure_qubit_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            PureQubit(-0.5, 0.0)
        with pytest.raises(ValueError):
            PureQubit(math.pi + 0.1, 0.0)

    def test_hamiltonian_ground_state_is_zero_ket(self):
        h = QubitHamiltonian(2.5)
        assert np.allclose(h.matrix, np.diag([-1.25, 1.25]))
        assert h.ground_energy == -1.25

    def test_density_matrix_validation(self):
        with pytest.raises(StateInvalid):
            DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex))
        with pytest.raises(StateInvalid):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(StateInvalid):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan)])
    def test_non_finite_entries_rejected(self, dim, bad):
        m = np.eye(dim, dtype=complex) / dim
        m[dim - 1, 0] = bad
        with pytest.raises(StateInvalid, match="non-finite"):
            DensityMatrix(m)
        with pytest.raises(StateInvalid, match="non-finite"):
            DensityMatrix(np.full((dim, dim), bad, dtype=complex))

    def test_pure_qubit_rejects_non_finite_phi(self):
        for phi in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="phi must be finite"):
                PureQubit(1.0, phi)
        with pytest.raises(ValueError):
            PureQubit(math.nan, 0.0)

    def test_density_matrix_is_frozen(self):
        rho = ground_state()
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0

    def test_purity_and_bloch(self):
        psi = PureQubit(math.pi / 2, 0.0)
        rho = to_density(psi)
        assert abs(rho.purity() - 1.0) < 1e-12
        assert np.allclose(rho.bloch_vector(), [1.0, 0.0, 0.0], atol=1e-12)


def _unit_trace_hermitian(least, theta, phi):
    """Eigenvalues (least, 1 - least) on the eigenbasis of the Bloch
    direction (theta, phi), made exactly Hermitian."""
    v = PureQubit(theta, phi).amplitudes()
    p = np.outer(v, v.conj())
    m = least * p + (1.0 - least) * (np.eye(2) - p)
    return 0.5 * (m + m.conj().T)


class TestQubitValidationMatchesEigvalsh:
    """The 2x2 check takes its least eigenvalue in closed form; it must
    accept and reject exactly what the eigvalsh rule does."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(least=st.floats(-1e-9, 1e-9),
           theta=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi))
    @example(least=-DM_ATOL - 2e-15, theta=0.0, phi=0.0)
    @example(least=-DM_ATOL + 2e-15, theta=0.0, phi=0.0)
    @example(least=-DM_ATOL - 2e-15, theta=1.3, phi=2.2)
    @example(least=-DM_ATOL + 2e-15, theta=1.3, phi=2.2)
    def test_accepts_exactly_what_eigvalsh_accepts(self, least, theta, phi):
        m = _unit_trace_hermitian(least, theta, phi)
        reference = float(np.linalg.eigvalsh(m).min())
        # roundoff decides a least eigenvalue at the boundary itself
        assume(abs(reference + DM_ATOL) > 1e-15)
        try:
            DensityMatrix(m)
            accepted = True
        except StateInvalid as exc:
            assert "eigenvalue" in str(exc)
            accepted = False
        assert accepted == (reference >= -DM_ATOL)

    def test_same_messages_as_the_general_rule(self):
        with pytest.raises(StateInvalid, match="not Hermitian within 1e-10"):
            DensityMatrix(np.array([[0.5, 1e-9], [0.0, 0.5]], dtype=complex))
        with pytest.raises(StateInvalid, match="trace 1.4"):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(StateInvalid,
                           match=r"eigenvalue -5.000e-01 < -1e-10"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestToDensity:
    def test_poles_and_equator(self):
        assert np.allclose(to_density(PureQubit(0.0, 0.3)).mat,
                           np.diag([1.0, 0.0]))
        assert np.allclose(to_density(PureQubit(math.pi, 1.1)).mat,
                           np.diag([0.0, 1.0]))
        plus = to_density(PureQubit(math.pi / 2, 0.0)).mat
        assert np.allclose(plus, np.full((2, 2), 0.5), atol=1e-15)

    def test_purity_one_for_samples(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            psi = PureQubit(float(rng.uniform(0, math.pi)),
                            float(rng.uniform(0, 2 * math.pi)))
            assert abs(to_density(psi).purity() - 1.0) < 1e-12


class TestErgotropy:
    def test_excited_state_gives_full_gap(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert abs(ergotropy(rho, QubitHamiltonian(1.7)) - 1.7) < 1e-12

    def test_maximally_mixed_is_passive(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert ergotropy(rho, H_A) == 0.0

    def test_bloch_formula_oracle(self):
        # independent oracle: W = omega*(|r| - r_z)/2 for qubits
        rng = np.random.default_rng(22)
        for _ in range(500):
            rho = random_qubit_density(rng)
            r = rho.bloch_vector()
            expected = 0.5 * OMEGA * (np.linalg.norm(r) - r[2])
            assert abs(ergotropy(rho, H_A) - expected) < 1e-12
        plus = to_density(PureQubit(math.pi / 2, 0.0))  # r = (1, 0, 0)
        assert abs(ergotropy(plus, H_A) - 0.5 * OMEGA) < 1e-12

    def test_sort_formula_is_a_true_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rho = random_qubit_density(rng)
            u = haar_unitary(rng, 2)
            energy = np.trace(rho.mat @ u.conj().T @ H_A.matrix @ u).real
            passive_energy = (np.trace(rho.mat @ H_A.matrix).real
                              - ergotropy(rho, H_A))
            assert energy >= passive_energy - 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            w = ergotropy(random_qubit_density(rng), H_A)
            assert 0.0 <= w <= OMEGA + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ergotropy(ground_state(), np.eye(4, dtype=complex))

    def test_cached_hamiltonian_spectrum_is_exact(self):
        # a QubitHamiltonian's eigenvalues are cached; its matrix is not
        rng = np.random.default_rng(29)
        h = QubitHamiltonian(1.7)
        for _ in range(200):
            rho = random_qubit_density(rng)
            assert ergotropy(rho, h) == ergotropy(rho, h.matrix)
            assert np.array_equal(passive_state(rho, h).mat,
                                  passive_state(rho, h.matrix).mat)


class TestErgotropyPure:
    def test_endpoints(self):
        assert ergotropy_pure(PureQubit(0.0, 0.0), OMEGA) == 0.0
        assert abs(ergotropy_pure(PureQubit(math.pi, 0.0), OMEGA) - OMEGA) < 1e-15
        assert abs(ergotropy_pure(PureQubit(math.pi / 2, 0.0), OMEGA)
                   - 0.5 * OMEGA) < 1e-15

    def test_matches_general_operation(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            psi = PureQubit(float(rng.uniform(0, math.pi)),
                            float(rng.uniform(0, 2 * math.pi)))
            assert abs(ergotropy_pure(psi, OMEGA)
                       - ergotropy(to_density(psi), H_A)) < 1e-12

    def test_phi_independence(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            theta = float(rng.uniform(0, math.pi))
            w0 = ergotropy(to_density(PureQubit(theta, 0.0)), H_A)
            w1 = ergotropy(to_density(PureQubit(theta,
                                                float(rng.uniform(0, 6)))), H_A)
            assert abs(w0 - w1) < 1e-12


class TestPassiveState:
    def test_excited_maps_to_ground(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(passive_state(rho, H_A).mat, np.diag([1.0, 0.0]))

    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert np.allclose(passive_state(rho, H_A).mat, rho.mat)

    def test_output_has_zero_ergotropy(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            rho = random_qubit_density(rng)
            assert ergotropy(passive_state(rho, H_A), H_A) < 1e-10

    def test_energy_matches_ergotropy_deficit(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            rho = random_qubit_density(rng)
            passive = passive_state(rho, H_A)
            lhs = np.trace(rho.mat @ H_A.matrix).real - ergotropy(rho, H_A)
            rhs = np.trace(passive.mat @ H_A.matrix).real
            assert abs(lhs - rhs) < 1e-12
