import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demon_battery.errors import DimensionMismatch, StateInvalid
from demon_battery.engine import EngineConfig
from demon_battery.states import (DM_ATOL, DensityMatrix, PureQubit,
                                  ergotropy, ergotropy_pure, ground_state,
                                  qubit_energy, to_density)

from conftest import haar_unitary, qubit_hamiltonian, random_density

OMEGA = 1.0
H_A = qubit_hamiltonian(OMEGA)


def random_qubit_density(rng):
    return DensityMatrix(random_density(rng, 2))


class TestTypes:
    def test_pure_qubit_wraps_phi(self):
        psi = PureQubit(1.0, 7.0)
        assert 0.0 <= psi.phi < 2 * math.pi
        assert abs(psi.phi - (7.0 - 2 * math.pi)) < 1e-12
        # phi % 2pi rounds to 2pi itself for these: the same state as 0
        for phi in (-1e-20, -5e-324):
            assert PureQubit(1.0, phi).phi == 0.0
            assert PureQubit(1.0, phi) == PureQubit(1.0, 0.0)

    @pytest.mark.parametrize("phi", [0.0, 1.3])
    def test_negative_zero_theta_is_stored_as_zero(self, phi):
        # -0.0 == 0.0, so the two states compare and hash equal: their
        # densities must match byte for byte, signed zeros included
        psi = PureQubit(-0.0, phi)
        assert math.copysign(1.0, psi.theta) == 1.0
        assert to_density(psi).mat.tobytes() == \
            to_density(PureQubit(0.0, phi)).mat.tobytes()

    def test_pure_qubit_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            PureQubit(-0.5, 0.0)
        with pytest.raises(ValueError):
            PureQubit(math.pi + 0.1, 0.0)

    def test_hamiltonian_ground_state_is_zero_ket(self):
        assert np.allclose(qubit_hamiltonian(2.5), np.diag([-1.25, 1.25]))
        assert qubit_energy(ground_state().mat, 2.5) == -1.25

    def test_energy_is_the_trace_against_h(self):
        rng = np.random.default_rng(20)
        for omega in (0.37, 1.0, 12.5):
            h = qubit_hamiltonian(omega)
            for _ in range(200):
                rho = random_qubit_density(rng)
                want = float((rho.mat @ h).trace().real)
                assert abs(qubit_energy(rho.mat, omega) - want) <= \
                    np.finfo(float).eps * omega
        with pytest.raises(DimensionMismatch):
            qubit_energy(np.eye(4, dtype=complex) / 4, OMEGA)

    def test_qubit_energy_takes_a_zero_gap(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        assert qubit_energy(m, 0.0) == 0.0
        assert qubit_energy(m, 2.0) == 0.5

    @pytest.mark.parametrize(
        "omega", [math.nan, math.inf, 0.0, -1.0, -math.inf, True, 10 ** 400],
        ids=["nan", "inf", "0.0", "-1.0", "-inf", "True", "10**400"])
    def test_hamiltonian_rejects_nonpositive_or_non_finite_omega(self, omega):
        # the ancilla gap is checked where it enters, with one message
        for call in (lambda: EngineConfig.default(omega=omega),
                     lambda: ergotropy(ground_state(), omega),
                     lambda: ergotropy_pure(PureQubit(1.0, 0.0), omega)):
            with pytest.raises(ValueError,
                               match="omega must be a finite number > 0"):
                call()

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
            with pytest.raises(ValueError,
                               match="phi must be a finite number"):
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
        assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-12
        assert np.allclose(rho.bloch_vector(), [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(to_density(PureQubit(math.pi / 2,
                                                math.pi / 2)).bloch_vector(),
                           [0.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("m", [
        np.diag([0.5 + 0.5e-10j, 0.5 + 0.5e-10j]),
        np.array([[0.5, 1e-10], [0.0, 0.5]]),
        np.diag([1.0 + 1e-10, 0.0, 0.0, -1e-10]),
        np.diag([1.0 + 1.88e-10, -0.98e-10]),
    ], ids=["trace-imag", "hermitian", "least-eigenvalue",
            "trace-and-eigenvalue"])
    def test_states_at_the_tolerances_are_accepted(self, m):
        # each bound of 1e-10 is met with equality: Im tr, |b - c*|, the
        # 4x4 least eigenvalue; the last is off in trace by 0.9e-10 and
        # has least eigenvalue -0.98e-10, each within its own bound
        DensityMatrix(m)


def _unit_trace_hermitian(least, theta, phi):
    """Eigenvalues (least, 1 - least) on the eigenbasis of the Bloch
    direction (theta, phi), made exactly Hermitian."""
    v = PureQubit(theta, phi).amplitudes()
    p = np.outer(v, v.conj())
    m = least * p + (1.0 - least) * (np.eye(2) - p)
    return 0.5 * (m + m.conj().T)


def _numpy_rule(m):
    """The checks as elementwise numpy calls, for either dimension: what
    DensityMatrix must accept and reject, with these messages."""
    if not np.isfinite(m).all():
        raise StateInvalid("density matrix has non-finite entries")
    if not np.abs(m - m.conj().T).max() <= DM_ATOL:
        raise StateInvalid("density matrix is not Hermitian within 1e-10")
    tr = complex(m.trace())
    if not (abs(tr.real - 1.0) <= DM_ATOL and abs(tr.imag) <= DM_ATOL):
        raise StateInvalid(f"density matrix trace {tr:.12g} != 1 within 1e-10")
    least = float(np.linalg.eigvalsh(m)[0])
    if not least >= -DM_ATOL:
        raise StateInvalid(
            f"density matrix has eigenvalue {least:.3e} < -1e-10")


def _verdict(check, m):
    """None if ``check`` accepts m, else its StateInvalid message."""
    try:
        check(m)
    except StateInvalid as exc:
        return str(exc)
    return None


#: one defect each, as a 2x2 state's entries; padded with zeros to a 4x4
#: state (_padded) it is the same defect, with the same message
SHARED_DEFECTS = {
    "complex-diagonal": (np.diag([0.5 + 1e-9j, 0.5]),
                         "density matrix is not Hermitian within 1e-10"),
    "complex-diagonal-at-tolerance": (np.diag([0.5 + 0.5e-10j, 0.5]), None),
    "off-trace": (np.diag([0.7, 0.7]),
                  "density matrix trace 1.4+0j != 1 within 1e-10"),
    # .conj() leaves every imaginary part -0.0; numpy's trace, summed from
    # +0.0, still reads +0j
    "off-trace-negative-zeros": (np.diag([0.7, 0.7]).astype(complex).conj(),
                                 "density matrix trace 1.4+0j != 1 within "
                                 "1e-10"),
    "negative-eigenvalue": (np.diag([1.5, -0.5]),
                            "density matrix has eigenvalue -5.000e-01 "
                            "< -1e-10"),
}


def _padded(m):
    """The 2x2 ``m`` in the top-left block of a 4x4 zero matrix."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = m
    return out


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
        for m, message in SHARED_DEFECTS.values():
            for x in (m.astype(complex), _padded(m)):
                assert _verdict(DensityMatrix, x) == _verdict(_numpy_rule, x) \
                    == message


#: a tolerance and its neighbours just inside and just outside
NEAR_ATOL = st.sampled_from([0.0, DM_ATOL * (1 - 1e-6), DM_ATOL - 1e-16,
                             DM_ATOL, DM_ATOL + 1e-16, DM_ATOL * (1 + 1e-6),
                             1e-9])


class TestFourByFourValidationMatchesNumpy:
    """The 4x4 finite, Hermiticity and trace checks run on Python scalars;
    they must accept, reject and report exactly as the numpy rule does."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           least=st.floats(-2e-10, 1e-10),
           asym=NEAR_ATOL, asym_entry=st.sampled_from([(0, 0), (0, 3),
                                                       (2, 1), (3, 3)]),
           trace_error=NEAR_ATOL, trace_sign=st.sampled_from([1.0, -1.0]),
           imag_trace=st.booleans(),
           non_finite=st.sampled_from([None, math.nan, math.inf, -math.inf,
                                       complex(0.0, math.nan)]),
           non_finite_entry=st.integers(0, 15))
    @example(seed=0, least=-DM_ATOL - 2e-15, asym=0.0, asym_entry=(0, 3),
             trace_error=0.0, trace_sign=1.0, imag_trace=False,
             non_finite=None, non_finite_entry=0)
    @example(seed=0, least=-DM_ATOL + 2e-15, asym=0.0, asym_entry=(0, 3),
             trace_error=0.0, trace_sign=1.0, imag_trace=False,
             non_finite=None, non_finite_entry=0)
    # a trace whose left-to-right sum exceeds 1 + 1e-10 and whose pairwise
    # sum, numpy's, does not
    @example(seed=14, least=0.0, asym=0.0, asym_entry=(0, 0),
             trace_error=DM_ATOL * (1 + 1e-6), trace_sign=1.0,
             imag_trace=False, non_finite=None, non_finite_entry=0)
    def test_accepts_and_rejects_exactly_as_numpy(
            self, seed, least, asym, asym_entry, trace_error, trace_sign,
            imag_trace, non_finite, non_finite_entry):
        rng = np.random.default_rng(seed)
        rest = rng.dirichlet(np.ones(3)) * (1.0 - least)
        u = haar_unitary(rng, 4)
        m = (u * np.concatenate([[least], rest])) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        i, j = asym_entry
        # on the diagonal, an imaginary part 1j*asym/2 is |m - m^dag| = asym
        m[i, j] += asym if i != j else 0.5j * asym
        k = int(rng.integers(4))
        m[k, k] += trace_sign * trace_error * (1j if imag_trace else 1.0)
        if non_finite is not None:
            m.flat[non_finite_entry] = non_finite
        assert _verdict(DensityMatrix, m) == _verdict(_numpy_rule, m)

    def test_negative_zero_imaginary_diagonal_reads_as_numpy(self):
        # padding with +0j hides the signs of SHARED_DEFECTS' zeros
        m = np.diag([0.35] * 4).astype(complex).conj()
        assert _verdict(DensityMatrix, m) == _verdict(_numpy_rule, m) \
            == "density matrix trace 1.4+0j != 1 within 1e-10"

    def test_covers_every_verdict(self):
        # the numpy rule's four rejections, and acceptance, each reached
        rng = np.random.default_rng(5)
        base = random_density(rng, 4)
        cases = [base, base.copy(), base.copy(), base.copy(), base.copy()]
        cases[1][1, 2] = math.nan
        cases[2][0, 3] += 1.5 * DM_ATOL
        cases[3][2, 2] += 1.5 * DM_ATOL
        u = haar_unitary(rng, 4)
        cases[4] = (u * [-2 * DM_ATOL, 0.3, 0.3, 0.4 + 2 * DM_ATOL]) \
            @ u.conj().T
        cases[4] = 0.5 * (cases[4] + cases[4].conj().T)
        verdicts = [_verdict(_numpy_rule, m) for m in cases]
        assert verdicts[0] is None
        for verdict, word in zip(verdicts[1:], ("non-finite", "Hermitian",
                                                "trace", "eigenvalue")):
            assert word in verdict
        assert [_verdict(DensityMatrix, m) for m in cases] == verdicts


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
            m = to_density(psi).mat
            assert abs(np.trace(m @ m).real - 1.0) < 1e-12


class TestErgotropy:
    def test_excited_state_gives_full_gap(self):
        rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert abs(ergotropy(rho, 1.7) - 1.7) < 1e-12

    def test_maximally_mixed_is_passive(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert ergotropy(rho, OMEGA) == 0.0

    def test_bloch_formula_oracle(self):
        # independent oracle: W = omega*(|r| - r_z)/2 for qubits
        rng = np.random.default_rng(22)
        for _ in range(500):
            rho = random_qubit_density(rng)
            r = rho.bloch_vector()
            expected = 0.5 * OMEGA * (np.linalg.norm(r) - r[2])
            assert abs(ergotropy(rho, OMEGA) - expected) < 1e-12
        plus = to_density(PureQubit(math.pi / 2, 0.0))  # r = (1, 0, 0)
        assert abs(ergotropy(plus, OMEGA) - 0.5 * OMEGA) < 1e-12

    def test_sort_formula_is_a_true_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rho = random_qubit_density(rng)
            u = haar_unitary(rng, 2)
            energy = np.trace(rho.mat @ u.conj().T @ H_A @ u).real
            passive_energy = (np.trace(rho.mat @ H_A).real
                              - ergotropy(rho, OMEGA))
            assert energy >= passive_energy - 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            w = ergotropy(random_qubit_density(rng), OMEGA)
            assert 0.0 <= w <= OMEGA + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ergotropy(DensityMatrix(np.eye(4, dtype=complex) / 4), OMEGA)

    def test_never_negative_on_adversarial_inputs(self):
        # W = omega*(hypot(h, Re c, Im c) - h) is >= 0 with no clamp as
        # long as hypot never returns less than its largest argument:
        # tiny and subnormal c against h from subnormal to huge, h < 0
        # included, and c just too small to move hypot off |h|
        tiny = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-300, 1e-170, 1e-17, 1e-9)
        rng = np.random.default_rng(53)
        hs = [sign * float(m) * 2.0 ** int(e) for sign in (1.0, -1.0)
              for m, e in zip(rng.uniform(0.5, 1.0, 300),
                              rng.integers(-1074, 1024, 300))]
        hs += [sign * math.nextafter(v, to) for sign in (1.0, -1.0)
               for v in (0.5, 0.25, 0.3, 1.0) for to in (0.0, 2.0)]
        for h in hs:
            for x in tiny:
                for y in tiny:
                    assert math.hypot(h, x, y) >= abs(h)
            for k in range(24, 31):
                x, y = abs(h) * 2.0 ** -k * rng.uniform(0.0, 1.0, 2)
                assert math.hypot(h, x, y) >= abs(h)
        # and on valid states, populations off by an ulp from 1/2 and 1
        # with tiny coherences, at tiny and huge gaps
        pops = (0.0, 5e-324, 1e-17, 0.5, math.nextafter(0.5, 0.0),
                math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0)
        for p1 in pops:
            for c in tiny[:6]:
                for cc in (complex(c, 0.0), complex(0.0, c), complex(c, c)):
                    rho = DensityMatrix(np.array([[1.0 - p1, cc.conjugate()],
                                                  [cc, p1]]))
                    for omega in (5e-324, 1e-300, 1.0, 1e300):
                        assert ergotropy(rho, omega) >= 0.0

    def test_closed_form_matches_passive_state_sort(self):
        # the passive-state sort by eigvalsh, floored at 0, which the
        # closed form never goes below
        def sort_rule(rho, omega):
            h = qubit_hamiltonian(omega)
            passive = float(np.dot(np.linalg.eigvalsh(rho.mat)[::-1],
                                   np.linalg.eigvalsh(h)))
            return max(float((rho.mat @ h).trace().real) - passive, 0.0)

        rng = np.random.default_rng(29)
        states = [DensityMatrix(np.eye(2, dtype=complex) / 2),
                  DensityMatrix(np.diag([0.0, 1.0]).astype(complex))]
        states += [random_qubit_density(rng) for _ in range(200)]
        states += [to_density(PureQubit(float(rng.uniform(0, math.pi)),
                                        float(rng.uniform(0, 2 * math.pi))))
                   for _ in range(200)]
        # r_z < 0: more excited than ground population, with coherence
        excited = [DensityMatrix(_unit_trace_hermitian(
            float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 1.4)),
            float(rng.uniform(0, 2 * math.pi)))) for _ in range(200)]
        assert all(rho.bloch_vector()[2] < 0.0 for rho in excited)
        states += excited
        for omega in (0.37, 1.7, 12.5):
            for rho in states:
                assert abs(ergotropy(rho, omega) - sort_rule(rho, omega)) <= \
                    4 * np.finfo(float).eps * omega


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
                       - ergotropy(to_density(psi), OMEGA)) < 1e-12

    def test_phi_independence(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            theta = float(rng.uniform(0, math.pi))
            w0 = ergotropy(to_density(PureQubit(theta, 0.0)), OMEGA)
            phi = float(rng.uniform(0, 6))
            w1 = ergotropy(to_density(PureQubit(theta, phi)), OMEGA)
            assert abs(w0 - w1) < 1e-12

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_omega_not_finite_and_positive(self, omega):
        with pytest.raises(ValueError, match="omega"):
            ergotropy_pure(PureQubit(1.0, 0.0), omega)
