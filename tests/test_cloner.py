import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (IDENTITY, DensityMatrix, StateVector, bell_state, clone_outputs,
                     coefficient_rows, eve_joint_distribution, fidelity, norm_squared,
                     phase_covariance_check, phi_basis_state, preset_fidelity,
                     tilde_amplitudes, tilde_coefficients)
from qkdlab.cloner import (ClonerParams, _cloner_terms, clone_state, closed_form_report,
                           fourier_dual, phi_cloner_matrix)
from qkdlab.qudit import error_operator, optimal_bases
from qkdlab.security import PRESETS

# rounded published solution of the crossing problem; off the constraint
# surface by ~2e-5, so analysis functions get the normalized version
ROUNDED_OPTIMUM = ClonerParams(0.8320, 0.1711, 0.2038, 0.2038)
OPTIMUM = ROUNDED_OPTIMUM.normalized()

PHI_GRID = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)


def random_symmetric_params(rng) -> ClonerParams:
    v, x, y = rng.normal(size=3)
    return ClonerParams(v, x, y, y).normalized()


def random_params(rng) -> ClonerParams:
    v, x, y, z = rng.normal(size=4)
    return ClonerParams(v, x, y, z).normalized()


# --- constrained matrix ------------------------------------------------------


def test_matrix_rows():
    mat = phi_cloner_matrix(ClonerParams(0.5, 0.5, 0.25, 0.25).normalized())
    a = mat.real
    assert a[0, 1] == a[0, 2]
    assert np.all(a[1] == a[1, 0]) and np.all(a[2] == a[2, 0])


def test_identity_cloner_matrix():
    mat = phi_cloner_matrix(IDENTITY)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(mat, expected, atol=1e-15)


def test_uniform_params_have_unit_norm():
    p = ClonerParams(1 / 3, 1 / 3, 1 / 3, 1 / 3)
    assert abs(p.norm_squared - 1.0) <= 1e-15
    mat = phi_cloner_matrix(p)
    assert abs(norm_squared(mat) - 1.0) <= 1e-12


def test_rounded_published_values_close_to_surface():
    # the rounded solution sits within 2e-4 of the normalization surface
    assert abs(ROUNDED_OPTIMUM.norm_squared - 1.0) <= 2e-4
    with pytest.raises(ValueError):
        phi_cloner_matrix(ROUNDED_OPTIMUM)  # deviation 1.9e-5 > 1e-8
    mat = phi_cloner_matrix(ROUNDED_OPTIMUM.normalized())
    assert abs(norm_squared(mat) - 1.0) <= 1e-12


# --- Fourier duality ---------------------------------------------------------


def test_dual_of_identity_cloner_is_flat():
    b = fourier_dual(phi_cloner_matrix(IDENTITY))
    assert np.allclose(b, np.full((3, 3), 1 / 3), atol=1e-12)


def test_dual_of_flat_matrix_is_identity_cloner():
    b = fourier_dual(np.full((3, 3), 1 / 3))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(b, expected, atol=1e-12)


def test_dual_preserves_norm_on_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= np.linalg.norm(a)
        assert abs(norm_squared(fourier_dual(a)) - norm_squared(a)) <= 1e-12


def test_dual_is_self_inverse_convention():
    # fixes the convention: the transform undoes itself with no index
    # reflection, so the inverse transform is the same operation
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= np.linalg.norm(a)
        twice = fourier_dual(fourier_dual(a))
        assert np.max(np.abs(twice - a)) <= 1e-12


# --- cloning map -------------------------------------------------------------


def test_identity_cloner_copies_perfectly():
    psi = phi_basis_state(0.9, 2)
    out = clone_outputs(phi_cloner_matrix(IDENTITY), psi)
    assert np.max(np.abs(out.rho_a.entries - np.outer(psi.amps, psi.amps.conj()))) <= 1e-12
    assert abs(fidelity(out.rho_a, psi) - 1.0) <= 1e-12


def test_identity_cloner_second_clone_is_useless():
    # oracle: with flat dual weights the attacker's clone is the uniform
    # mixture over all shifted/phased inputs, evaluated directly here
    psi = phi_basis_state(0.0, 0)
    mix = np.zeros((3, 3), complex)
    for m in range(3):
        for n in range(3):
            s = error_operator(m, n) @ psi.amps
            mix += np.outer(s, s.conj()) / 9.0
    expected = fidelity(DensityMatrix(mix), psi)
    assert abs(expected - 1 / 3) <= 1e-12

    out = clone_outputs(phi_cloner_matrix(IDENTITY), psi)
    assert abs(fidelity(out.rho_b, psi) - 1 / 3) <= 1e-12


def test_optimal_cloner_fidelity_on_phase_states():
    mat = phi_cloner_matrix(OPTIMUM)
    for phi in (0.0, np.pi / 6, 1.234):
        psi = phi_basis_state(phi, 0)
        out = clone_outputs(mat, psi)
        assert abs(fidelity(out.rho_a, psi) - 0.7753) <= 5e-4


def test_mixture_identities_within_1e12():
    rng = np.random.default_rng(99)
    for _ in range(20):
        params = random_params(rng)
        psi = phi_basis_state(rng.uniform(0, 2 * np.pi), rng.integers(0, 3))
        out = clone_outputs(phi_cloner_matrix(params), psi)
        assert out.mixture_dev_a <= 1e-12
        assert out.mixture_dev_b <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_cloner_terms_bell_vectors_equal_the_bell_states_bitwise(d):
    # the terms build |B_{m,-n}> from the shift matrices; the oracle sums
    # it term by term, and every bit must agree
    pairs = [(m, n) for m in range(d) for n in range(d)]
    for (m, n), (_, bell) in zip(pairs, _cloner_terms(d), strict=True):
        assert not bell.flags.writeable  # callers share the arrays
        assert np.array_equal(bell, bell_state(m, (-n) % d, d).amps), (m, n)


def test_clone_state_rejects_wrong_dimension():
    qubit = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        clone_outputs(phi_cloner_matrix(OPTIMUM), qubit)


@pytest.mark.parametrize("mat, amps", [
    (np.full((3, 4), 1 / math.sqrt(12)), np.array([1.0, 0.0, 0.0])),
    (2 * phi_cloner_matrix(IDENTITY), np.array([1.0, 0.0, 0.0])),
    (phi_cloner_matrix(IDENTITY), np.array([1.0, 0.0])),
    (phi_cloner_matrix(IDENTITY), np.array([[1.0], [0.0], [0.0]])),
    (phi_cloner_matrix(IDENTITY), np.array([1.1, 0.0, 0.0])),
    (phi_cloner_matrix(IDENTITY), np.array([math.nan, 0.0, 0.0])),
], ids=["matrix-3x4", "matrix-norm-2", "input-2", "input-3x1", "norm-1.1", "norm-nan"])
def test_clone_state_guards_its_inputs(mat, amps):
    # the one cloning map checks its own inputs: a non-square matrix would
    # otherwise be cut short by the zip over its n * n terms, and a matrix
    # or input off the unit sphere would give joint amplitudes off it too
    with pytest.raises(ValueError):
        clone_state(mat, amps)


def test_cloner_arrays_are_read_only():
    mat = phi_cloner_matrix(OPTIMUM)
    assert mat.shape == (3, 3) and mat.dtype == complex and not mat.flags.writeable
    assert not fourier_dual(mat).flags.writeable
    joint = clone_state(mat, phi_basis_state(0.4, 1).amps)
    assert joint.shape == (27,) and not joint.flags.writeable


# --- fidelity ----------------------------------------------------------------


def test_fidelity_projector_is_one():
    psi = phi_basis_state(0.3, 1)
    rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
    assert abs(fidelity(rho, psi) - 1.0) <= 1e-12


def test_fidelity_maximally_mixed_is_one_third():
    rho = DensityMatrix(np.eye(3) / 3)
    assert abs(fidelity(rho, phi_basis_state(1.1, 2)) - 1 / 3) <= 1e-12


def test_fidelity_dimension_mismatch():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        fidelity(rho, phi_basis_state(0.0, 0))


def test_optimal_cloner_computational_basis_fidelity():
    mat = phi_cloner_matrix(OPTIMUM)
    one = StateVector(np.array([0, 1, 0], complex))
    out = clone_outputs(mat, one)
    assert abs(fidelity(out.rho_a, one) - 0.7507) <= 1e-3


# --- closed forms ------------------------------------------------------------


def test_closed_form_identity_cloner():
    rep = closed_form_report(IDENTITY)
    assert rep.f_a == 1.0 and rep.d_a1 == 0.0
    assert abs(rep.f_b - 1 / 3) <= 1e-15
    assert abs(rep.d_b1 - 1 / 3) <= 1e-15


def test_closed_form_at_optimum():
    rep = closed_form_report(OPTIMUM)
    assert abs(rep.f_a - 0.7753) <= 5e-4
    assert abs(rep.f_b - 0.7355) <= 1e-3
    assert abs(rep.f_a + rep.d_a1 + rep.d_a2 - 1.0) <= 1e-10
    assert abs(rep.f_b + rep.d_b1 + rep.d_b2 - 1.0) <= 1e-10


def test_closed_forms_match_state_level_all_bases():
    rng = np.random.default_rng(5)
    samples = [OPTIMUM] + [random_symmetric_params(rng) for _ in range(4)]
    for params in samples:
        rep = closed_form_report(params)
        mat = phi_cloner_matrix(params)
        for basis in optimal_bases():
            for l in range(3):
                psi = phi_basis_state(basis.phi, l)
                out = clone_outputs(mat, psi)
                assert abs(fidelity(out.rho_a, psi) - rep.f_a) <= 1e-10
                assert abs(fidelity(out.rho_b, psi) - rep.f_b) <= 1e-10
                d1 = phi_basis_state(basis.phi, (l + 1) % 3)
                d2 = phi_basis_state(basis.phi, (l + 2) % 3)
                assert abs(fidelity(out.rho_a, d1) - rep.d_a1) <= 1e-10
                assert abs(fidelity(out.rho_a, d2) - rep.d_a2) <= 1e-10
                assert abs(fidelity(out.rho_b, d1) - rep.d_b1) <= 1e-10
                assert abs(fidelity(out.rho_b, d2) - rep.d_b2) <= 1e-10


def test_closed_form_flags_broken_tie():
    rng = np.random.default_rng(17)
    params = ClonerParams(0.9, 0.2, 0.25, 0.05).normalized()
    rep = closed_form_report(params)
    assert not rep.f_b_closed_form
    # state-level oracle still matches the dual-weight route
    mat = phi_cloner_matrix(params)
    psi = phi_basis_state(0.77, 1)
    out = clone_outputs(mat, psi)
    assert abs(fidelity(out.rho_b, psi) - rep.f_b) <= 1e-10
    assert abs(rep.f_b + rep.d_b1 + rep.d_b2 - 1.0) <= 1e-10


def test_exchanging_clone_roles_via_dual():
    # the receiver-side formulas applied to the dual weights reproduce the
    # attacker-side values
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = random_symmetric_params(rng)
        rep = closed_form_report(params)
        q = np.abs(fourier_dual(phi_cloner_matrix(params))) ** 2
        assert abs(q[:, 0].sum() - rep.f_b) <= 1e-10
        assert abs(q[:, 1].sum() - rep.d_b1) <= 1e-10
        p = np.abs(phi_cloner_matrix(params)) ** 2
        assert abs(p[:, 0].sum() - rep.f_a) <= 1e-10


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=60)
def test_normalization_sum_rule(v, x, y):
    vec = math.sqrt(v * v + 2 * x * x + 6 * y * y)
    if vec < 1e-3:
        return
    rep = closed_form_report(ClonerParams(v, x, y, y).normalized())
    assert abs(rep.f_a + rep.d_a1 + rep.d_a2 - 1.0) <= 1e-10
    assert abs(rep.f_b + rep.d_b1 + rep.d_b2 - 1.0) <= 1e-10


@pytest.mark.parametrize("slot", range(4))
def test_nan_parameters_are_off_the_normalization_surface(slot):
    values = [0.0, 0.0, 0.0, 0.0]
    values[slot] = math.nan
    params = ClonerParams(*values)
    with pytest.raises(ValueError, match="normalization surface"):
        params.require_normalized()
    with pytest.raises(ValueError, match="normalization surface"):
        closed_form_report(params)


@pytest.mark.parametrize("values", [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0),
                                    (1e200, 0.0, 0.0, 0.0), (1e-160,) * 4],
                         ids=["zero", "nan", "overflow", "subnormal-square"])
def test_normalized_needs_a_finite_nonzero_norm(values):
    with pytest.raises(ValueError, match="finite, nonzero norm"):
        ClonerParams(*values).normalized()


def test_norm_squared_overflows_to_inf():
    assert ClonerParams(1e200, 0.0, 0.0, 0.0).norm_squared == math.inf


# --- phase covariance --------------------------------------------------------


def test_phase_covariance_of_constrained_cloners():
    assert phase_covariance_check(phi_cloner_matrix(OPTIMUM), PHI_GRID) <= 1e-10
    assert phase_covariance_check(
        phi_cloner_matrix(IDENTITY), PHI_GRID) <= 1e-14


def test_phase_covariance_check_discriminates():
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    deviations = []
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        a /= np.linalg.norm(a)
        deviations.append(phase_covariance_check(a, grid))
    deviations = np.array(deviations)
    assert deviations.max() > 1e-3
    assert (deviations > 1e-3).sum() >= 16  # generic matrices fail visibly


# --- the attack expansion ----------------------------------------------------


def test_tilde_amplitudes_index_relation():
    mat = phi_cloner_matrix(OPTIMUM)
    at = tilde_amplitudes(mat)
    for m in range(3):
        for n in range(3):
            assert at[n, (-m) % 3] == mat[m, n]


def test_tilde_coefficients_identity_cloner():
    ct = tilde_coefficients(IDENTITY)
    assert np.allclose(ct[0], 1.0, atol=1e-15)
    assert np.allclose(ct[1:], 0.0, atol=1e-15)


def test_tilde_coefficients_at_optimum():
    ct = tilde_coefficients(OPTIMUM)
    assert abs(ct[0, 0] - 1.2396) <= 2e-3  # v + 2y
    assert abs(ct[0, 0] - (OPTIMUM.v + 2 * OPTIMUM.y)) <= 1e-12


def test_tilde_coefficients_match_fourier_definition():
    # the function self-verifies against the Fourier sum; exercising it on
    # random constraint-surface points is the consistency sweep
    rng = np.random.default_rng(404)
    for _ in range(100):
        tilde_coefficients(random_symmetric_params(rng))


def test_tilde_coefficients_requires_tie():
    with pytest.raises(ValueError):
        tilde_coefficients(ClonerParams(0.9, 0.2, 0.25, 0.05).normalized())


def tied_mask(d, v, row0, col0, rest):
    """d x d amplitudes: a[0,0] = v, row0 in the rest of row 0, col0 in the
    rest of column 0, rest everywhere else."""
    a = np.full((d, d), rest)
    a[0, 1:] = row0
    a[1:, 0] = col0
    a[0, 0] = v
    return a


@pytest.mark.parametrize("d", [2, 3])
def test_preset_rows_match_fourier_definition(d):
    # every preset's rows against their definition tilde_amplitudes(a) @ W.T,
    # on unnormalized draws: the phase-covariant mask [[v,x,..],[y,y,..],..],
    # the universal mask [[v,y,..],[y,y,..],..] and the two-basis mask
    # [[v,x,..],[x',y,..],..] in its Fourier basis, rows (v, x', x, y)
    rng = np.random.default_rng(900 + d)
    w = np.exp(2j * math.pi * np.outer(np.arange(d), np.arange(d)) / d)

    def definition(mat):
        return tilde_amplitudes(mat) @ w.T

    for _ in range(50):
        v, x, xp, y = rng.normal(size=4)
        for rows, mat in (
                (coefficient_rows(v, y, x, y, d), tied_mask(d, v, x, y, y)),
                (coefficient_rows(v, y, y, y, d), tied_mask(d, v, y, y, y)),
                (coefficient_rows(v, xp, x, y, d), tied_mask(d, v, x, xp, y))):
            assert np.max(np.abs(definition(mat) - np.array(rows))) <= 1e-12


def preset_mask(preset, amps):
    """The amplitude matrix of a preset's mask at amplitudes in
    ``free_params`` order."""
    if preset.name == "2mub":
        v, x, xp, y = amps
        return tied_mask(3, v, x, xp, y)
    if preset.name == "universal":
        v, y = amps
        return tied_mask(3, v, y, y, y)
    v, x, y = amps
    return tied_mask(preset.dimension, v, x, y, y)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_entries_match_the_mask_in_every_protocol_basis(name):
    # each basis's slots against the mask they declare: the rows spelled
    # out from preset.entries at unnormalized draws against their
    # definition tilde_amplitudes(mask) @ W.T; 2mub's computational basis
    # reads the transposed mask
    preset = PRESETS[name]
    d, k = preset.dimension, preset.dimension - 1
    w = np.exp(2j * math.pi * np.outer(np.arange(d), np.arange(d)) / d)
    rng = np.random.default_rng(417)
    for _ in range(50):
        amps = tuple(rng.normal(size=len(preset.free_params)))
        mask = preset_mask(preset, amps)
        bases = preset.entries(*amps)
        assert len(bases) == (2 if name == "2mub" else 1)
        for ((p, q), (r, s)), mat in zip(bases, (mask.T, mask) if name == "2mub" else (mask,)):
            rows = np.array([[p] + [q] * k] + [[r] + [s] * k] * k)
            assert np.max(np.abs(tilde_amplitudes(mat) @ w.T - rows)) <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_chart_lands_on_the_fixed_fidelity_surface(name):
    # every chart point is a normalized cloner of the preset's mask with
    # receiver fidelity F_A, on both sign branches
    preset = PRESETS[name]
    rng = np.random.default_rng(31)
    for _ in range(200):
        f_a = rng.uniform(0.5, 1.0)
        angles = list(rng.uniform(-math.pi / 2, math.pi / 2, len(preset.e) - 1))
        for sign in (1.0, -1.0):
            amps = preset.chart(f_a, angles, sign)
            assert abs(np.linalg.norm(preset_mask(preset, amps)) - 1.0) <= 1e-12
            values = dict(zip(preset.free_params, amps))
            assert abs(preset_fidelity(preset, values) - f_a) <= 1e-12


def test_eve_joint_identity_cloner():
    table = eve_joint_distribution(IDENTITY, 0)
    expected = np.zeros((3, 3, 3))
    expected[0].flat[::4] = 1 / 3  # alpha=0; beta=gamma uniform
    # alpha = k = 0 always, beta uniform, gamma = beta
    for beta in range(3):
        assert abs(table[0, beta, beta] - 1 / 3) <= 1e-12
    assert abs(table.sum() - 1.0) <= 1e-12
    assert np.count_nonzero(table > 1e-14) == 3


def test_eve_joint_receiver_marginal_matches_closed_form():
    rng = np.random.default_rng(56)
    for _ in range(5):
        params = random_symmetric_params(rng)
        rep = closed_form_report(params)
        for k in range(3):
            table = eve_joint_distribution(params, k)
            marg = table.sum(axis=(1, 2))
            assert abs(marg[k] - rep.f_a) <= 1e-12
            for other in range(3):
                if other != k:
                    assert abs(marg[other] - (1 - rep.f_a) / 2) <= 1e-12


def test_eve_joint_machine_minus_clone_marginal():
    params = OPTIMUM
    rep = closed_form_report(params)
    table = eve_joint_distribution(params, 1)
    pm = np.zeros(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                pm[(c - b) % 3] += table[a, b, c]
    assert abs(pm[0] - rep.f_a) <= 1e-12
    assert abs(pm[1] - (1 - rep.f_a) / 2) <= 1e-12
    assert abs(pm[2] - (1 - rep.f_a) / 2) <= 1e-12


def test_eve_joint_requires_tie_and_valid_index():
    with pytest.raises(ValueError):
        eve_joint_distribution(ClonerParams(0.9, 0.2, 0.25, 0.05).normalized(), 0)
    with pytest.raises(ValueError):
        eve_joint_distribution(OPTIMUM, 5)
