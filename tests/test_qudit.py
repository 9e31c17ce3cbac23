import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bell_state, max_entangled, overlap, overlap_modulus, tensor,
                     tilde_bell_state)
from qkdlab.qudit import (BasisSpec, DensityMatrix, StateVector,
                          conjugate_phi_basis_state, error_operator,
                          optimal_bases, partial_trace, phase_basis, phi_basis_state)

TOL = 1e-12
OMEGA = np.exp(2j * np.pi / 3)

PHI_GRID = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)

phis = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_phi_basis_phi0_l0_is_uniform_real():
    s = phi_basis_state(0.0, 0)
    assert np.allclose(s.amps, np.ones(3) / math.sqrt(3), atol=TOL)


def test_phi_basis_phi0_l1_has_omega_phases():
    s = phi_basis_state(0.0, 1)
    assert np.allclose(s.amps, np.array([1, OMEGA, OMEGA**2]) / math.sqrt(3), atol=TOL)


def reference_state(phi, l):
    """|l_phi> by its own formula, as each state was once built."""
    k = np.arange(3)
    return np.exp(1j * k * (2.0 * math.pi * l / 3.0 + phi)) / math.sqrt(3.0)


def reference_conjugate_state(phi, l):
    k = np.arange(3)
    return np.exp(-1j * k * (2.0 * math.pi * l / 3.0 + phi)) / math.sqrt(3.0)


def test_phase_basis_equals_the_per_state_formulas_bitwise():
    grid = list(np.linspace(-4 * np.pi, 4 * np.pi, 301)) + [b.phi for b in optimal_bases()]
    for phi in grid:
        basis = phase_basis(phi)
        for l in range(3):
            assert np.array_equal(basis[:, l], reference_state(phi, l)), (phi, l)
            assert np.array_equal(basis.conj()[:, l], reference_conjugate_state(phi, l))
            assert np.array_equal(phi_basis_state(phi, l).amps, basis[:, l])
            assert np.array_equal(conjugate_phi_basis_state(phi, l).amps, basis.conj()[:, l])


def test_phi_basis_index_out_of_range():
    with pytest.raises(ValueError):
        phi_basis_state(0.0, 3)
    with pytest.raises(ValueError):
        conjugate_phi_basis_state(0.0, -1)


@given(phis)
@settings(max_examples=50)
def test_phi_basis_unbiased_with_computational(phi):
    for l in range(3):
        s = phi_basis_state(phi, l)
        assert np.allclose(np.abs(s.amps) ** 2, 1.0 / 3.0, atol=TOL)


def test_phi_basis_orthonormal_on_grid():
    for phi in PHI_GRID:
        gram = np.array([[overlap(phi_basis_state(phi, a), phi_basis_state(phi, b))
                          for b in range(3)] for a in range(3)])
        assert np.max(np.abs(gram - np.eye(3))) <= TOL


def test_conjugate_basis_orthonormal_on_grid():
    for phi in PHI_GRID:
        gram = np.array([[overlap(conjugate_phi_basis_state(phi, a),
                                  conjugate_phi_basis_state(phi, b))
                          for b in range(3)] for a in range(3)])
        assert np.max(np.abs(gram - np.eye(3))) <= TOL


@given(phis, st.integers(min_value=0, max_value=2))
@settings(max_examples=50)
def test_conjugate_is_elementwise_conjugate(phi, l):
    assert np.allclose(conjugate_phi_basis_state(phi, l).amps,
                       phi_basis_state(phi, l).amps.conj(), atol=TOL)


def test_conjugate_phi0_l0_real():
    s = conjugate_phi_basis_state(0.0, 0)
    assert np.allclose(s.amps, phi_basis_state(0.0, 0).amps, atol=TOL)


def test_optimal_bases_angles():
    specs = optimal_bases()
    assert len(specs) == 4
    assert specs[0].phi == 0.0
    assert abs(specs[3].phi - math.pi / 2) <= TOL
    expected = [i * math.pi / 6 for i in range(4)]
    assert np.allclose([b.phi for b in specs], expected, atol=TOL)
    for i in range(4):
        for j in range(4):
            diff = specs[i].phi - specs[j].phi
            assert abs(diff / (math.pi / 6) - round(diff / (math.pi / 6))) <= 1e-12


def test_optimal_bases_form_dodecagon():
    angles = sorted((2 * np.pi * l / 3 + b.phi) % (2 * np.pi)
                    for b in optimal_bases() for l in range(3))
    gaps = np.diff(angles + [angles[0] + 2 * np.pi])
    assert np.allclose(gaps, np.pi / 6, atol=TOL)


def test_max_entangled_3_amplitudes():
    s = max_entangled(3)
    expected = np.zeros(9, complex)
    expected[[0, 4, 8]] = 1 / math.sqrt(3)
    assert np.allclose(s.amps, expected, atol=TOL)
    assert s.factors == (3, 3)


def test_max_entangled_requires_dim_two():
    with pytest.raises(ValueError):
        max_entangled(1)


def test_correlation_identity_on_grid():
    # <l_phi (x) l'_phi* | ent> = delta_{ll'} / sqrt(3)
    ent = max_entangled(3)
    for phi in PHI_GRID:
        for l in range(3):
            for lp in range(3):
                bra = tensor(phi_basis_state(phi, l), conjugate_phi_basis_state(phi, lp))
                val = overlap(bra, ent)
                expected = (1 / math.sqrt(3)) if l == lp else 0.0
                assert abs(val - expected) <= TOL


def test_max_entangled_reduced_states_maximally_mixed():
    ent = max_entangled(3)
    for keep in (0, 1):
        rho = partial_trace(ent, keep)
        assert np.max(np.abs(rho.entries - np.eye(3) / 3)) <= TOL


def test_error_operator_special_cases():
    assert np.allclose(error_operator(0, 0), np.eye(3), atol=TOL)
    e10 = error_operator(1, 0)
    assert np.allclose(e10 @ np.array([1, 0, 0]), np.array([0, 1, 0]), atol=TOL)
    e01 = error_operator(0, 1)
    for k in range(3):
        v = np.zeros(3)
        v[k] = 1
        assert np.allclose(e01 @ v, np.exp(2j * np.pi * k / 3) * v, atol=TOL)


def assert_unitary(u):
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= TOL


def test_error_operators_unitary():
    for m in range(3):
        for n in range(3):
            assert_unitary(error_operator(m, n))
            assert not error_operator(m, n).flags.writeable  # callers share the arrays


def test_error_operator_range():
    with pytest.raises(ValueError):
        error_operator(3, 0)
    with pytest.raises(ValueError):
        error_operator(0, -1)


def test_bell_00_is_max_entangled():
    assert np.allclose(bell_state(0, 0).amps, max_entangled(3).amps, atol=TOL)


def test_bell_states_orthonormal():
    states = [bell_state(m, n) for m in range(3) for n in range(3)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert abs(overlap(a, b) - (1.0 if i == j else 0.0)) <= TOL


def test_dimension_two_constructions():
    # the qubit comparison path uses the same generic constructions at N=2
    ent = max_entangled(2)
    assert np.allclose(ent.amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=TOL)
    for m in range(2):
        for n in range(2):
            assert_unitary(error_operator(m, n, dim=2))
    states = [bell_state(m, n, dim=2) for m in range(2) for n in range(2)]
    gram = np.array([[overlap(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(4))) <= TOL
    assert np.max(np.abs(partial_trace(ent, 0).entries - np.eye(2) / 2)) <= TOL


def test_bell_from_shift_and_phase_on_second_register():
    # oracle: direct matrix computation of (1 (x) X^m Z^n) |B_00>
    x = np.zeros((3, 3), complex)
    for k in range(3):
        x[(k + 1) % 3, k] = 1.0
    z = np.diag([OMEGA**k for k in range(3)])
    b00 = bell_state(0, 0).amps
    for m in range(3):
        for n in range(3):
            op = np.kron(np.eye(3), np.linalg.matrix_power(x, m)
                         @ np.linalg.matrix_power(z, n))
            moved = op @ b00
            ov = np.vdot(bell_state(m, n).amps, moved)
            assert abs(abs(ov) - 1.0) <= TOL


def test_tilde_bell_identity_at_phi_zero():
    # B_{m,n} = exp(i m (-2 pi n / 3)) * tilde(-n mod 3, m) at phi = 0
    for m in range(3):
        for n in range(3):
            lhs = bell_state(m, n).amps
            phase = np.exp(1j * m * (-2 * np.pi * n / 3))
            rhs = phase * tilde_bell_state((-n) % 3, m, 0.0).amps
            assert np.max(np.abs(lhs - rhs)) <= TOL


def test_tilde_bell_identity_only_at_phi_multiple_of_two_thirds_pi():
    # the rewriting holds exactly iff phi = 0 mod 2 pi / 3; at the protocol's
    # other angles the individual Bell states do not coincide (only the full
    # constrained cloner map is phase covariant)
    def max_dev(phi):
        worst = 0.0
        for m in range(3):
            for n in range(3):
                phase = np.exp(1j * m * (-2 * np.pi * n / 3 + phi))
                rhs = phase * tilde_bell_state((-n) % 3, m, phi).amps
                worst = max(worst, float(np.max(np.abs(bell_state(m, n).amps - rhs))))
        return worst

    for phi in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        assert max_dev(phi) <= TOL
    for phi in (np.pi / 6, np.pi / 3, np.pi / 2):
        assert max_dev(phi) > 1e-3


def test_tilde_bell_00_is_max_entangled_any_phi():
    for phi in PHI_GRID:
        assert overlap_modulus(tilde_bell_state(0, 0, phi), max_entangled(3)) >= 1 - TOL
        assert np.max(np.abs(tilde_bell_state(0, 0, phi).amps
                             - max_entangled(3).amps)) <= 1e-11


def test_tilde_bell_orthonormal_at_pi_over_six():
    states = [tilde_bell_state(m, n, np.pi / 6) for m in range(3) for n in range(3)]
    gram = np.array([[overlap(a, b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(9))) <= TOL


def test_partial_trace_product_state():
    a = phi_basis_state(0.7, 1)
    b = phi_basis_state(1.9, 2)
    rho = partial_trace(tensor(a, b), keep=0)
    assert np.max(np.abs(rho.entries - np.outer(a.amps, a.amps.conj()))) <= TOL


def test_partial_trace_preserves_trace():
    state = tensor(phi_basis_state(0.3, 0), phi_basis_state(2.1, 1),
                   conjugate_phi_basis_state(0.9, 2))
    for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
        rho = partial_trace(state, keep)
        assert abs(np.trace(rho.entries).real - 1.0) <= TOL


def test_partial_trace_matches_explicit_sum():
    # oracle: index-by-index summation of the reduced matrix
    state = tensor(phi_basis_state(0.4, 0), phi_basis_state(1.2, 2))
    t = state.amps.reshape(3, 3)
    explicit = np.zeros((3, 3), complex)
    for b in range(3):
        explicit += np.outer(t[:, b], t[:, b].conj())
    assert np.max(np.abs(partial_trace(state, 0).entries - explicit)) <= TOL


def test_partial_trace_bad_keep():
    state = max_entangled(3)
    with pytest.raises(ValueError):
        partial_trace(state, keep=())
    with pytest.raises(ValueError):
        partial_trace(state, keep=(2,))


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), factors=(2, 2))


def test_density_matrix_invariants():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2


def test_basis_spec_reduces_phi():
    spec = BasisSpec(2 * np.pi + 0.5)
    assert abs(spec.phi - 0.5) <= 1e-12
    assert np.allclose(phi_basis_state(spec.phi, 1).amps, phi_basis_state(0.5, 1).amps, atol=TOL)
    assert np.allclose(BasisSpec(0.5).matrix().conj()[:, 1],
                       conjugate_phi_basis_state(0.5, 1).amps, atol=TOL)


