import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.cloner import ClonerParams, closed_form_report, coefficient_rows
from qkdlab.security import (CrossingError, _FIDELITY_BLOCK, _INFEASIBLE, _charted,
                             _crossing_core,
                             _entropy_nats, _iab_iae_rows, _iab_nats, _max_iae_at,
                             _maximize_on, _mean_information, _pattern_search,
                             _restart_points, bob_information,
                             ck_rate_bound, crossing_point, error_rate_table,
                             eve_information,
                             fidelity_from_visibility, info_report,
                             information_sweep, preset_fidelity,
                             preset_information, resolve_preset, PRESETS,
                             shannon_entropy, symmetric_point, thresholds)

ROUNDED_OPTIMUM = ClonerParams(0.8320, 0.1711, 0.2038, 0.2038).normalized()

# frozen with a 40-digit mpmath summation of -sum p log2 p
H_EXAMPLE = 0.9933571751944145


# --- entropy -----------------------------------------------------------------


def test_entropy_uniform_trit_is_one_trit():
    assert abs(shannon_entropy((1 / 3, 1 / 3, 1 / 3), base=3) - 1.0) <= 1e-12


def test_entropy_point_mass_is_zero():
    assert shannon_entropy((1.0, 0.0, 0.0), base=2) == 0.0


def test_entropy_crossing_distribution():
    assert abs(shannon_entropy((0.7753, 0.11235, 0.11235), base=2)
               - H_EXAMPLE) <= 1e-9


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy((0.5, -0.1, 0.6), base=2)
    with pytest.raises(ValueError):
        shannon_entropy((0.5, 0.4), base=2)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6))
@settings(max_examples=80)
def test_entropy_bounds(ps):
    total = sum(ps)
    if total < 1e-6:
        return
    ps = [p / total for p in ps]
    h = shannon_entropy(ps, base=2)
    assert -1e-12 <= h <= math.log2(len(ps)) + 1e-9


# --- receiver / attacker information -----------------------------------------


def test_bob_information_endpoints():
    assert abs(bob_information(1.0, base=3) - 1.0) <= 1e-12
    assert abs(bob_information(1.0, base=2) - math.log2(3)) <= 1e-12
    assert abs(bob_information(1 / 3, base=2)) <= 1e-12


def test_bob_information_rejects_out_of_range():
    with pytest.raises(ValueError):
        bob_information(0.2)
    with pytest.raises(ValueError):
        bob_information(1.1)


@given(st.floats(min_value=0.34, max_value=0.999), st.floats(min_value=1e-4, max_value=0.05))
@settings(max_examples=60)
def test_bob_information_strictly_increasing(f, step):
    hi = min(f + step, 1.0)
    assert bob_information(hi, base=2) > bob_information(f, base=2)


def test_eve_information_identity_cloner_is_zero():
    assert abs(eve_information(ClonerParams.identity(), base=2)) <= 1e-12


def test_eve_conditional_vector_at_optimum():
    v, y = ROUNDED_OPTIMUM.v, ROUNDED_OPTIMUM.y
    f_a = v * v + 2 * y * y
    cond = [(v + 2 * y) ** 2 / (3 * f_a), (v - y) ** 2 / (3 * f_a),
            (v - y) ** 2 / (3 * f_a)]
    assert abs(cond[0] - 0.6607) <= 2e-3
    assert abs(cond[1] - 0.1697) <= 2e-3
    assert abs(sum(cond) - 1.0) <= 1e-12


def test_information_crossing_at_published_optimum():
    for base in (2, 3, "e"):
        i_ae = eve_information(ROUNDED_OPTIMUM, base=base)
        i_ab = bob_information(closed_form_report(ROUNDED_OPTIMUM).f_a, base=base)
        assert abs(i_ae - i_ab) <= 1e-3


def test_eve_information_requires_tie():
    with pytest.raises(ValueError):
        eve_information(ClonerParams(0.9, 0.2, 0.25, 0.05).normalized())


def test_ck_rate_bound():
    assert ck_rate_bound(1.0, 0.0, 0.0) == 1.0
    assert ck_rate_bound(0.5, 0.5, 0.5) == 0.0
    assert abs(ck_rate_bound(0.4, 0.6, 0.3) - 0.1) <= 1e-15


# --- crossing points ----------------------------------------------------------


def test_crossing_3deb_reproduces_published_solution():
    res = crossing_point("3deb", base=2)
    assert abs(res.f_a_star - 0.7753) <= 5e-4
    assert res.residual <= 1e-8
    assert abs(res.error_rate - (1 - res.f_a_star)) <= 1e-15
    p = res.params_star
    assert p["v"] >= 0.0  # sign representative
    for name, ref in (("v", 0.8320), ("x", 0.1711), ("y", 0.2038)):
        assert abs(p[name] - ref) <= 2e-3, (name, p[name], ref)
    assert abs(res.i_ab - res.i_ae) <= 1e-8


def test_crossing_universal():
    res = crossing_point("universal", base=2)
    assert abs(res.f_a_star - 0.7733) <= 1e-3
    assert res.residual <= 1e-8


def test_crossing_2mub():
    res = crossing_point("2mub", base=2)
    assert abs(res.f_a_star - 0.7887) <= 1.5e-3, (
        f"two-basis mask reconstruction gives F_A* = {res.f_a_star:.6f}, "
        f"published value 0.7887")
    # the optimizer lands on the basis-symmetric solution
    assert abs(res.params_star["x"] - res.params_star["xp"]) <= 1e-5


def test_crossing_qubit_closed_form():
    res = crossing_point("qubit", base=2)
    assert abs(res.f_a_star - (0.5 + 1 / math.sqrt(8))) <= 1e-6


@pytest.mark.parametrize("preset", ["2mub", "qubit"])
def test_two_basis_crossings_match_closed_form(preset):
    # Cerf et al. / Bruss-Macchiavello: F* = (1 + 1/sqrt(d)) / 2
    d = PRESETS[preset].dimension
    assert abs(crossing_point(preset).f_a_star - (1 + 1 / math.sqrt(d)) / 2) <= 1e-9


def test_crossing_base_invariance():
    stars = [crossing_point("3deb", base=b).f_a_star for b in (2, 3, "e")]
    assert max(stars) - min(stars) <= 1e-6
    for b in (2, 3, "e"):
        res = crossing_point("3deb", base=b)
        assert abs(res.i_ab - res.i_ae) <= 1e-8
        assert res.residual <= 1e-8


def test_crossing_result_params_fit_cloner():
    res = crossing_point("3deb")
    params = res.cloner_params().normalized()
    rep = closed_form_report(params)
    assert abs(rep.f_a - res.f_a_star) <= 1e-9


def test_cloner_params_only_for_the_qutrit_y_eq_z_family():
    universal = crossing_point("universal")
    p = universal.params_star
    assert universal.cloner_params() == ClonerParams(p["v"], p["y"], p["y"], p["y"])
    for preset in ("2mub", "qubit"):
        with pytest.raises(ValueError):
            crossing_point(preset).cloner_params()


def _cartesian_probes(preset, f_a, rng, n=300):
    """Feasible amplitude assignments at pinned F_A, drawn in the Cartesian
    coordinates of each mask (independent of the search chart), including
    points with y = 0 where the sign branches of y meet."""
    def root(q):
        return math.sqrt(max(q, 0.0))

    probes = []
    if preset in ("3deb", "qubit"):
        k = PRESETS[preset].dimension - 1
        ym = math.sqrt(min(f_a / k, (1 - f_a) / k ** 2))
        for y in [0.0, ym, -ym, *rng.uniform(-ym, ym, n)]:
            for s in (-1.0, 1.0):
                probes.append({"v": root(f_a - k * y * y),
                               "x": s * root((1 - f_a - k * k * y * y) / k), "y": y})
    elif preset == "universal":
        for s in (-1.0, 1.0):
            probes.append({"v": root(f_a - (1 - f_a) / 3), "y": s * root((1 - f_a) / 6)})
    else:
        h = math.sqrt(min(f_a, 1 - f_a))
        points = list(rng.uniform(-h, h, (n, 2)))
        if f_a >= 0.5:  # y = 0 on the circle x^2 + x'^2 = 1 - F
            r = math.sqrt(1 - f_a)
            points += [(r * math.cos(t), r * math.sin(t))
                       for t in np.linspace(-math.pi, math.pi, 41)]
        for x, xp in points:
            rr = x * x + xp * xp
            if rr <= min(f_a, 1 - f_a + 1e-15):
                for s in (-1.0, 1.0):
                    probes.append({"v": root(f_a - rr), "x": x, "xp": xp,
                                   "y": s * root((1 - f_a - rr) / 4)})
    return probes


@pytest.mark.parametrize("preset,f_a", [
    ("3deb", 0.5), ("3deb", 0.7752755323), ("3deb", 0.95),
    ("universal", 0.5), ("universal", 0.7732860898), ("universal", 0.95),
    ("2mub", 0.45), ("2mub", 0.7886751346), ("2mub", 0.92),
    ("qubit", 0.6), ("qubit", 0.8535533906), ("qubit", 0.95),
])
def test_inner_maximum_not_beaten_by_random_probes(preset, f_a):
    # the angle chart reaches every feasible point: no probe of the mask at
    # pinned F_A beats the inner maximum
    best, _ = _max_iae_at(PRESETS[preset], f_a)
    rng = np.random.default_rng(77)
    probes = _cartesian_probes(preset, f_a, rng)
    assert len(probes) >= 2
    for vals in probes:
        assert abs(preset_fidelity(preset, vals) - f_a) <= 1e-12
        assert preset_information(preset, vals, base="e")[1] <= best + 1e-12, vals


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_chart_reaches_both_ends_of_every_axis(name):
    # at F >= 1/2 every point of the ellipsoid sum e_i a_i^2 = 1 - F is
    # feasible, so maximizing +-a_i must reach sqrt((1 - F) / e_i)
    preset = PRESETS[name]
    f_a = 0.8
    for i, e in enumerate(preset.e, start=1):
        for direction in (1.0, -1.0):
            best, _ = _maximize_on(preset, f_a, lambda *amps: direction * amps[i])
            assert abs(best - math.sqrt((1 - f_a) / e)) <= 1e-12, (i, direction)


@pytest.mark.parametrize("f_a,x,xp", [
    (0.90, math.sqrt(0.05), math.sqrt(0.05)),
    (0.92, math.sqrt(0.04), math.sqrt(0.04)),
    (0.95, 0.0, math.sqrt(0.05)),
], ids=["0.90", "0.92", "0.95"])
def test_2mub_inner_maximum_reaches_the_boundary(f_a, x, xp):
    # above F ~ 0.89 the 2mub optimum lies on y = 0, where the two sign
    # branches of y meet; a search that cannot follow the circle
    # x^2 + x'^2 = 1 - F falls short there and overstates security
    vals = {"v": math.sqrt(f_a - x * x - xp * xp), "x": x, "xp": xp, "y": 0.0}
    boundary = preset_information("2mub", vals, base="e")[1]
    best, _ = _max_iae_at(PRESETS["2mub"], f_a)
    assert abs(best - boundary) <= 1e-12


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        crossing_point("bogus")
    assert resolve_preset("12-state").name == "universal"
    assert resolve_preset("ekert91").name == "qubit"


def test_crossing_deterministic_on_cold_resolve():
    base = crossing_point("3deb").params_star
    cold = dict(_crossing_core.__wrapped__("3deb")[1])
    assert cold == base


# --- symmetric point -----------------------------------------------------------


def test_symmetric_point_closed_form():
    res = symmetric_point("3deb")
    assert abs(res.fidelity - (5 + math.sqrt(17)) / 12) <= 1e-4
    assert res.fidelity_gap <= 1e-8


def test_symmetric_point_below_crossing():
    assert symmetric_point("3deb").fidelity < crossing_point("3deb").f_a_star


def test_symmetric_point_only_3deb():
    with pytest.raises(ValueError):
        symmetric_point("qubit")


# --- thresholds -----------------------------------------------------------------


def test_threshold_constants():
    th = thresholds()
    assert abs(th.visibility_threshold - (6 * math.sqrt(3) - 9) / 2) <= 1e-15
    assert abs(th.visibility_threshold - 0.69615) <= 1e-5
    assert abs(th.bell_fidelity_threshold - 0.79744) <= 1e-4
    assert abs(th.qubit_fidelity_threshold - (0.5 + 1 / math.sqrt(8))) <= 1e-15


def test_fidelity_from_visibility_endpoints():
    assert fidelity_from_visibility(1.0) == 1.0
    assert abs(fidelity_from_visibility(0.0) - 1 / 3) <= 1e-15


def test_bell_violation_implies_security_ordering():
    th = thresholds()
    assert th.bell_fidelity_threshold > th.security_threshold_3deb
    assert th.bell_fidelity_threshold > crossing_point("3deb").f_a_star


def test_independent_visibility_cross_check():
    th = thresholds()
    assert abs(th.kaszlikowski_fidelity - 0.7753) <= 1e-4
    assert abs(th.kaszlikowski_fidelity - crossing_point("3deb").f_a_star) <= 1e-4


# --- error-rate table ------------------------------------------------------------


def test_error_rate_table_values():
    rows = {r.preset: r for r in error_rate_table()}
    assert set(rows) == {"3deb", "universal", "2mub", "qubit"}
    for key in rows:
        # computed values reproduce references within 0.1 percentage points
        assert abs(rows[key].delta) <= 0.001, (key, rows[key])
    assert abs(rows["qubit"].error_rate - (1 - (0.5 + 1 / math.sqrt(8)))) <= 1e-6
    labels = [r.protocol for r in error_rate_table()]
    assert labels == ["3DEB", "12-state", "3D-BB84", "Ekert91"]


def test_error_rates_are_computed_not_copied():
    # the solver returns more digits than the published 4-digit references
    for row in error_rate_table():
        assert row.f_a_star != 1 - row.paper_value
        assert abs(row.delta) > 0.0


# --- consolidated report -----------------------------------------------------------


def test_info_report_at_optimum():
    rep = info_report(ROUNDED_OPTIMUM, base=2)
    assert abs(rep.i_ab - rep.i_ae) <= 1e-3
    assert abs(rep.r_bound - (rep.i_ab - rep.i_ae)) <= 1e-15
    assert rep.log_base == "2"
    assert 0 <= rep.i_ae <= math.log2(3)


def test_info_report_identity():
    rep = info_report(ClonerParams.identity(), base=3)
    assert abs(rep.i_ab - 1.0) <= 1e-12
    assert abs(rep.i_ae) <= 1e-12
    assert abs(rep.r_bound - 1.0) <= 1e-12


def test_info_report_rejects_broken_tie():
    with pytest.raises(ValueError):
        info_report(ClonerParams(0.9, 0.2, 0.25, 0.05).normalized())


# --- sweep ------------------------------------------------------------------------


def test_sweep_brackets_the_crossing():
    rows = information_sweep("3deb", 0.70, 0.85, 151, base=2)
    signs = [row["i_ab"] - row["i_ae"] for row in rows]
    changes = [(rows[i]["f_a"], rows[i + 1]["f_a"])
               for i in range(len(signs) - 1)
               if signs[i] < 0 <= signs[i + 1] or signs[i] >= 0 > signs[i + 1]]
    assert len(changes) == 1
    lo, hi = changes[0]
    assert lo <= 0.7753 <= hi


def test_sweep_single_point_at_identity():
    rows = information_sweep("3deb", 1.0, 1.0, 1, base=3)
    assert len(rows) == 1
    assert abs(rows[0]["r_bound"] - 1.0) <= 1e-9


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        information_sweep("3deb", 0.7, 0.9, 0)
    with pytest.raises(ValueError):
        information_sweep("3deb", 0.1, 0.9, 10)


# --- optimizer internals -----------------------------------------------------------


def test_inner_max_feasibility_guard():
    # the universal manifold is fully pinned once F is fixed
    best, vals = _max_iae_at(PRESETS["universal"], 0.7733)
    assert set(vals) == {"v", "y"}
    assert abs(vals["v"] ** 2 + 8 * vals["y"] ** 2 - 1.0) <= 1e-12


def test_iab_nats_matches_entropy():
    f = 0.77
    expected = math.log(3) - shannon_entropy((f, (1 - f) / 2, (1 - f) / 2), base="e")
    assert abs(_iab_nats(f, 3) - expected) <= 1e-12


# --- lockstep search against the scalar search it replaced ---------------------


def _scalar_pattern_search(f, lo, hi, x0, tol=1e-9, initial_step=None, max_sweeps=10_000):
    """The one-search-at-a-time compass search, kept as the reference."""
    ndim = len(lo)
    x = [min(max(x0[i], lo[i]), hi[i]) for i in range(ndim)]
    fx = f(x)
    steps = [initial_step or (hi[i] - lo[i]) / 4.0 for i in range(ndim)]
    for _ in range(max_sweeps):
        if max(steps) <= tol:
            break
        improved = False
        for i in range(ndim):
            for d in (steps[i], -steps[i]):
                xi = min(max(x[i] + d, lo[i]), hi[i])
                if xi == x[i]:
                    continue
                cand = list(x)
                cand[i] = xi
                fc = f(cand)
                if fc > fx:
                    x, fx = cand, fc
                    improved = True
        if not improved:
            steps = [s / 2.0 for s in steps]
    return fx, x


def _scalar_maximize_with_restarts(f, lo, hi, n_restarts=16, coarse_tol=1e-5):
    if all(h - l <= 0 for l, h in zip(lo, hi)):
        x = list(lo)
        return f(x), x
    results = [_scalar_pattern_search(f, lo, hi, x0, tol=coarse_tol)
               for x0 in _restart_points(lo, hi, n_restarts)]
    best_f, best_x = results[0]
    for fv, xv in results[1:]:  # strict > keeps the lowest restart index on ties
        if fv > best_f:
            best_f, best_x = fv, xv
    fp, xp_ = _scalar_pattern_search(f, lo, hi, best_x, tol=1e-9,
                                     initial_step=100 * coarse_tol)
    return (fp, xp_) if fp >= best_f else (best_f, best_x)


def _scalar_maximize_on(preset, f_a, objective):
    """One sign branch after the other, one point per objective call."""
    n = len(preset.e) - 1
    lo, hi = [-math.pi / 2] * n, [math.pi / 2] * n
    best, best_amps = _INFEASIBLE, None
    for sign in (1.0, -1.0):
        def f(u, sign=sign):
            amps = preset.chart(f_a, u, sign)
            return _INFEASIBLE if amps[0] == _INFEASIBLE else float(objective(*amps))
        fv, u = _scalar_maximize_with_restarts(f, lo, hi)
        if fv > best:
            best, best_amps = fv, tuple(float(a) for a in preset.chart(f_a, u, sign))
    return best, best_amps


@pytest.mark.parametrize("name,f_a", [
    *[("3deb", f) for f in (1 / 3 + 1e-9, 0.5, 0.7, 0.7752755323, 0.85, 0.9, 0.95,
                            1 - 1e-9)],
    *[("2mub", f) for f in (1 / 3 + 1e-9, 0.45, 0.6, 0.7886751346, 0.85, 0.889, 0.92,
                            1 - 1e-9)],
    *[("qubit", f) for f in (0.5 + 1e-9, 0.6, 0.7, 0.8, 0.8535533906, 0.9, 0.95,
                             1 - 1e-9)],
])
def test_lockstep_inner_maximum_equals_the_scalar_search(name, f_a):
    preset = PRESETS[name]
    best, vals = _max_iae_at(preset, f_a)
    ref, amps = _scalar_maximize_on(preset, f_a,
                                    lambda *a: _mean_information(preset, a)[1])
    assert best == ref
    assert vals == dict(zip(preset.free_params, amps))


def _plateaus(u):
    # piecewise constant in u_0 (moves inside a step tie and are refused),
    # smooth in u_1; both maxima of +-g lie on faces of the box [-1, 1]^2
    return np.floor(3.0 * u[..., 0]) / 3.0 + np.sin(2.0 * u[..., -1])


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("tol,initial_step", [(1e-5, None), (1e-9, 1e-3)])
def test_lockstep_pattern_search_moves_as_each_search_alone(k, ndim, tol, initial_step):
    rng = np.random.default_rng(5)
    lo, hi = [-1.0] * ndim, [1.0] * ndim
    x0 = rng.uniform(-1.2, 1.2, (k, ndim))  # some starts outside the box
    x0[3::3] = 0.5  # searches tied from the start
    x0[0] = 0.9995  # one step from the face u_0 = 1, where +g is largest
    weight = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    fx, x = _pattern_search(lambda u, idx: weight[idx] * _plateaus(u), lo, hi, x0,
                            tol=tol, initial_step=initial_step)
    assert fx.shape == (k,) and x.shape == (k, ndim)
    for j in range(k):
        ref_f, ref_x = _scalar_pattern_search(
            lambda u: float(weight[j] * _plateaus(np.array(u))), lo, hi, list(x0[j]),
            tol=tol, initial_step=initial_step)
        assert fx[j] == ref_f and list(x[j]) == ref_x, j
    assert x[0, 0] == 1.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_lockstep_restart_ties_keep_the_lowest_restart(name):
    # a step function of the amplitudes: many restarts tie, and the first
    # among equals must win as in the scalar search
    preset = PRESETS[name]
    f_a = 0.8
    scale = math.sqrt((1 - f_a) / preset.e[-1])

    def steps(*amps):
        return np.floor(4.0 * amps[-1] / scale) + np.floor(2.0 * amps[1] / scale)

    best, amps = _maximize_on(preset, f_a, steps)
    assert (best, amps) == _scalar_maximize_on(preset, f_a, steps)


def test_batched_objective_lanes_equal_each_point_alone():
    # live points, F_A = 1 points (x = x' = y = 0: rows of weight 0) and
    # infeasible chart points (v^2 < 0 below F_A = 1/2) in one stack
    preset = PRESETS["2mub"]
    rng = np.random.default_rng(11)
    angles = rng.uniform(-math.pi / 2, math.pi / 2, (6, 2))
    angles[:2] = 0.0  # x = sqrt(1 - F): infeasible at F = 0.3
    signs = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
    stacks = [preset.chart(f, angles, signs) for f in (0.8, 1.0, 0.3)]
    amps = tuple(np.concatenate(a) for a in zip(*stacks))
    infeasible = amps[0] == _INFEASIBLE
    assert infeasible.sum() >= 2 and np.all(amps[0][6:12] == 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_ab, i_ae = _mean_information(preset, amps)
        for lane in range(len(amps[0])):
            for alone in (tuple(a[lane:lane + 1] for a in amps),
                          tuple(a[lane] for a in amps)):
                ab, ae = _mean_information(preset, alone)
                assert (ab, ae) == (i_ab[lane], i_ae[lane]), lane
        assert np.all(np.isfinite(i_ab)) and np.all(np.isfinite(i_ae))
        # at F_A = 1 only row m = 0 is live: the other rows add exactly 0
        row0 = math.log(3) - float(_entropy_nats([1 / 3] * 3))
        assert np.all(i_ae[6:12] == row0) and np.all(i_ab[6:12] == math.log(3))
        # rows of weight in (0, 1e-15] add exactly what empty rows add
        tiny = coefficient_rows(0.8, 0.2, 1e-8, 1e-8)
        empty = coefficient_rows(0.8, 0.2, 0.0, 0.0)
        pair = _iab_iae_rows(np.stack([tiny, empty], axis=-1), 3)
        assert 0.0 < sum(c * c for c in tiny[1]) <= 1e-15
        assert pair[0][0] == pair[0][1] and pair[1][0] == pair[1][1]
        values = _charted(preset, 0.3, lambda *a: _mean_information(preset, a)[1])(
            angles, signs)
        assert np.all(values[infeasible[12:]] == _INFEASIBLE)
        assert np.all(values[~infeasible[12:]] == i_ae[12:][~infeasible[12:]])


# --- fidelity batches against one fidelity at a time ---------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fidelity_batch_equals_one_fidelity_at_a_time(name):
    # the crossing solver's bracket grid: 2mub lanes below F = 1/2 are partly
    # infeasible, universal has no angle, the last lane is F = 1 - 1e-9
    preset = PRESETS[name]
    grid = np.linspace(1 / preset.dimension + 1e-9, 1 - 1e-9, 13)
    assert len(grid) <= _FIDELITY_BLOCK

    def objective(*amps):
        return _mean_information(preset, amps)[1]

    batch = _maximize_on(preset, grid, objective)
    assert batch == [_maximize_on(preset, f, objective) for f in grid]
    assert all(amps is not None for _, amps in batch)


@pytest.mark.parametrize("name", ["3deb", "2mub"])
def test_sweep_across_fidelity_blocks_equals_each_point_alone(name):
    points = _FIDELITY_BLOCK + 3
    rows = information_sweep(name, 0.70, 0.85, points, base="e")
    assert len(rows) == points
    for row, f_a in zip(rows, np.linspace(0.70, 0.85, points)):
        best, vals = _max_iae_at(PRESETS[name], float(f_a))
        assert (row["f_a"], row["i_ae"], row["params"]) == (f_a, best, vals)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_chart_with_a_fidelity_per_lane_equals_each_fidelity_alone(name):
    preset = PRESETS[name]
    rng = np.random.default_rng(3)
    f_a = np.array([0.3, 0.45, 0.5, 0.7752755323, 0.9, 1.0, 1 - 1e-9, 0.6])
    angles = rng.uniform(-math.pi / 2, math.pi / 2, (len(f_a), len(preset.e) - 1))
    signs = np.where(np.arange(len(f_a)) % 3 == 0, -1.0, 1.0)
    lanes = preset.chart(f_a, angles, signs)
    for k, f in enumerate(f_a):
        alone = preset.chart(float(f), angles[k:k + 1], signs[k:k + 1])
        assert [a[k] for a in lanes] == [a[0] for a in alone], k


def test_sweep_memory_does_not_grow_with_points():
    def traced_peak(points):
        tracemalloc.start()
        try:
            information_sweep("3deb", 0.70, 0.85, points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block, eight_blocks = traced_peak(_FIDELITY_BLOCK), traced_peak(8 * _FIDELITY_BLOCK)
    # the returned rows grow with the points (about 250 B each); the search
    # state must not: one unbounded batch of 256 fidelities peaks near 5 MB
    row_budget = 1024 * 7 * _FIDELITY_BLOCK
    assert eight_blocks <= one_block + row_budget
