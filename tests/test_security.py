import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from oracles import IDENTITY, preset_fidelity, shannon_entropy
from qkdlab import security
from qkdlab.cli import main
from qkdlab.cloner import ClonerParams, _coefficient_entries, closed_form_report
from qkdlab.security import (CrossingError, _FIDELITY_BLOCK, _GRID0, _INFEASIBLE, _STARTS,
                             _crossing_core, _iae, _entropy_nats, _iab_nats, _lanes,
                             _local_maxima, _maximize_on, _mean_information,
                             _rows_information, bob_information,
                             ck_rate_bound, crossing_point, error_rate_table,
                             eve_information,
                             fidelity_from_visibility, info_report,
                             information_sweep, preset_information,
                             resolve_preset, PRESETS, symmetric_point, thresholds)

ROUNDED_OPTIMUM = ClonerParams(0.8320, 0.1711, 0.2038, 0.2038).normalized()

# frozen with a 40-digit mpmath summation of -sum p log2 p
H_EXAMPLE = 0.9933571751944145


def _max_iae(preset, f_a):
    """The maximized I_AE (nats) and its amplitudes at pinned F_A, or a list
    of such pairs for an array of fidelities."""
    return _maximize_on(preset, f_a, _iae(preset))


def _named(preset, amps):
    """Amplitudes as the {parameter: value} dict a sweep row carries."""
    return dict(zip(preset.free_params, amps))


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


@pytest.mark.parametrize("ps", [(0.5, 0.5, math.nan), (math.nan, 1.0), (math.nan,)])
def test_entropy_rejects_nan(ps):
    with pytest.raises(ValueError, match="not a number"):
        shannon_entropy(ps, base=2)


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
    assert abs(eve_information(IDENTITY, base=2)) <= 1e-12


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


def test_eve_information_rejects_nan():
    with pytest.raises(ValueError, match="normalization surface"):
        eve_information(ClonerParams(math.nan, 0.0, 0.0, 0.0))


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


@pytest.mark.parametrize("base", [math.nan, math.inf, "1e400", None, "nan"], ids=repr)
def test_log_bases_that_are_not_finite_numbers_above_one_are_rejected(monkeypatch, base):
    def solve(*args):
        raise AssertionError("the crossing was solved before its log base was checked")

    monkeypatch.setattr(security, "_crossing_core", solve)
    with pytest.raises(ValueError, match="log base"):
        bob_information(0.9, base=base)
    with pytest.raises(ValueError, match="log base"):
        eve_information(ROUNDED_OPTIMUM, base=base)
    with pytest.raises(ValueError, match="log base"):
        info_report(ROUNDED_OPTIMUM, base=base)
    with pytest.raises(ValueError, match="log base"):
        information_sweep("3deb", 0.70, 0.85, 3, base=base)
    with pytest.raises(ValueError, match="log base"):
        crossing_point("3deb", base=base)


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


def test_crossing_point_solves_the_preset_object_it_is_given():
    # the solve is keyed on the preset itself, not on its name: a universal
    # mask renamed to a registered name or to one no registry holds solves
    # as universal, and its cloner parameters come from its own mask
    universal = crossing_point("universal")
    for name in ("3deb", "custom"):
        renamed = crossing_point(replace(PRESETS["universal"], name=name))
        assert renamed.preset == name
        assert (renamed.f_a_star, renamed.params_star) == (universal.f_a_star,
                                                           universal.params_star)
        assert renamed.cloner_params() == universal.cloner_params()
    # a mask with no cloner map keeps none under the name of one that has it
    with pytest.raises(ValueError, match="does not map"):
        crossing_point(replace(PRESETS["qubit"], name="3deb")).cloner_params()
    with pytest.raises(ValueError, match="defined for the 3deb preset"):
        symmetric_point(replace(PRESETS["universal"], name="3deb"))


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
    best, _ = _max_iae(PRESETS[preset], f_a)
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
    best, _ = _max_iae(PRESETS["2mub"], f_a)
    assert abs(best - boundary) <= 1e-12


def _closed_form_maximum(name, f_a):
    """Amplitudes of the known inner maxima: (v, x, y) = (F, 1 - F,
    sqrt(F (1 - F))) for the qubit cloner at every F, and (v, x, x', y) =
    (F, sqrt(F (1 - F) / 2), sqrt(F (1 - F) / 2), (1 - F) / 2) for 2mub
    below its regime switch."""
    if name == "qubit":
        return f_a, 1 - f_a, math.sqrt(f_a * (1 - f_a))
    x = math.sqrt(f_a * (1 - f_a) / 2)
    return f_a, x, x, (1 - f_a) / 2


@pytest.mark.parametrize("name,fidelities", [
    ("qubit", np.linspace(0.5, 1.0, 42)[1:-1]),
    ("2mub", np.linspace(0.34, 0.89, 40)),
])
def test_inner_maximum_equals_the_closed_form(name, fidelities):
    # an oracle independent of the search: the maximizer, one batch per
    # preset, reaches I_AE at the closed-form amplitudes
    preset = PRESETS[name]
    found = _max_iae(preset, fidelities)
    for f_a, (best, _) in zip(fidelities, found):
        closed = float(_mean_information(preset, _closed_form_maximum(name, f_a))[1])
        assert abs(best - closed) <= 1e-12, f_a


def test_2mub_closed_form_stops_at_the_regime_switch():
    # above F ~ 0.8949837 the 2mub maximum leaves the closed form for the
    # y = 0 face (test_2mub_inner_maximum_reaches_the_boundary)
    preset = PRESETS["2mub"]
    best, _ = _max_iae(preset, 0.9)
    closed = float(_mean_information(preset, _closed_form_maximum("2mub", 0.9))[1])
    assert best - closed > 1e-9


# the inner maxima of the compass search that preceded the nested grid, at
# 400 fidelities per preset: 300 over (1/d, 1), then 100 on [0.885, 0.8955]
# (the 2mub ridge below its regime switch) or on [0.70, 0.90]
INNER_MAXIMA = json.loads(
    (Path(__file__).resolve().parent / "data" / "inner_maxima_reference.json").read_text())


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_inner_maxima_reach_the_recorded_maxima(name):
    # one-sided: a maximizer may find more than the recorded maximum, not less
    ref = INNER_MAXIMA[name]
    assert len(ref["f_a"]) == len(ref["i_ae"]) == 400
    found = _max_iae(PRESETS[name], np.array(ref["f_a"]))
    misses = [(f, best - r) for f, r, (best, _) in zip(ref["f_a"], ref["i_ae"], found)
              if not best >= r - 1e-12]
    assert not misses


# angles per axis of the dense grid, and how far a grid value may lie above
# the solver's maximum: 1e-12 on one angle, 1e-7 on 2mub's two
DENSE_GRID = {"3deb": (2 ** 20, 1e-12), "2mub": (1024, 1e-7), "qubit": (2 ** 20, 1e-12)}


@pytest.mark.parametrize("name", sorted(DENSE_GRID))
def test_no_dense_grid_point_beats_the_inner_maximum(name):
    # an oracle independent of the search: at the crossing F*, a dense grid
    # over the chart's box on both sign branches finds nothing above the
    # maximum, scanned in chunks of 2^16 points
    preset, (per_axis, bound) = PRESETS[name], DENSE_GRID[name]
    n = len(preset.e) - 1
    f_star = crossing_point(name).f_a_star
    best, _ = _max_iae(preset, f_star)
    axis = np.linspace(-math.pi / 2, math.pi / 2, per_axis)
    objective, top = _iae(preset), -math.inf
    for start in range(0, per_axis ** n, 1 << 16):
        index = np.arange(start, min(start + (1 << 16), per_axis ** n))
        angles = axis[np.stack(np.unravel_index(index, (per_axis,) * n), axis=-1)]
        for sign in (1.0, -1.0):
            amps = preset.chart(f_star, angles, np.full(len(index), sign))
            top = max(top, float(objective(*amps)[amps[0] != _INFEASIBLE].max()))
    assert top - best <= bound, top - best


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        crossing_point("bogus")
    assert resolve_preset("12-state").name == "universal"
    assert resolve_preset("ekert91").name == "qubit"


def test_crossing_deterministic_on_cold_resolve():
    base = crossing_point("3deb").params_star
    cold = dict(_crossing_core.__wrapped__(PRESETS["3deb"])[1])
    assert cold == base


# --- the crossing solver's bracket grid and endpoint handoff -------------------


def _bracket_grid(preset):
    return np.linspace(1 / preset.dimension + 1e-9, 1 - 1e-9, 13)


# grid points nested by a cold solve: from the rightmost one whose level-0 g
# is > 0 to the right end; universal has no angle, so its nests do nothing
NESTED_GRID_POINTS = {"3deb": 6, "universal": 6, "2mub": 5, "qubit": 5}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def recorded_cold_solve(request):
    """A cold crossing solve with its grid's level 0, its grid nests and
    every I_AE maximization recorded."""
    calls = {"level0": [], "nested": [], "maximize": []}
    level0, branch_maxima = security._level0, security._branch_maxima
    maximize_on, inside = security._maximize_on, []

    def level0_spy(preset, block, objective):
        found = level0(preset, block, objective)
        if not inside:
            calls["level0"].append((list(block), found))
        return found

    def branch_spy(preset, block, fp, up):
        found = branch_maxima(preset, block, fp, up)
        if not inside:
            calls["nested"].append((list(block), found))
        return found

    def maximize_spy(preset, f_a, objective):
        inside.append(f_a)
        try:
            found = maximize_on(preset, f_a, objective)
        finally:
            inside.pop()
        calls["maximize"].append((f_a, found))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(security, "_level0", level0_spy)
        mp.setattr(security, "_branch_maxima", branch_spy)
        mp.setattr(security, "_maximize_on", maximize_spy)
        result = _crossing_core.__wrapped__(PRESETS[request.param])
    return PRESETS[request.param], result, calls


def _level0_g(preset, grid, fu):
    """g at level 0 of each grid point, from its pairs' level-0 maxima."""
    fp0 = fu[:, 0]
    return [fp0[w] - _iab_nats(f, preset.dimension)
            for f, w in zip(grid, security._winning_branches(fp0))]


def test_bracket_endpoints_are_polished_once_and_equal_the_point_maxima(recorded_cold_solve):
    # level 0 runs once over the whole grid; the grid points from the
    # rightmost one positive at level 0 on are nested, each once, and the
    # nested values are final: each equals that fidelity's maximum alone
    preset, result, calls = recorded_cold_solve
    assert result == _crossing_core(preset)
    grid = list(_bracket_grid(preset))
    assert [block for block, _ in calls["level0"]] == [grid]
    nested = [(f, pair) for block, found in calls["nested"] for f, pair in zip(block, found)]
    fids = [f for f, _ in nested]
    assert fids == grid[-NESTED_GRID_POINTS[preset.name]:]
    g0 = _level0_g(preset, grid, calls["level0"][0][1][1])
    assert g0[grid.index(fids[0])] > 0.0 and all(g <= 0.0 for g in g0[grid.index(fids[0]) + 1:])
    assert fids[0] < result[0] < fids[-1]
    for f, pair in nested:
        assert pair == _max_iae(preset, float(f))


def test_brent_maximizes_only_away_from_the_bracket_endpoints(recorded_cold_solve):
    # 13 grid values and Brent's two endpoint values come from the grid
    preset, (_, _, _, iterations), calls = recorded_cold_solve
    single = [f_a for f_a, _ in calls["maximize"]]
    assert all(np.ndim(f) == 0 for f in single)
    assert len(single) == len(set(single)) == iterations - 15
    assert not set(single) & set(_bracket_grid(preset))


# objective calls per stage of a cold crossing solve -- the grid (its level
# 0, then the nests of its points from the rightmost one positive at level
# 0), then each Brent step -- and the g count; a kernel that keeps every
# float bit-equal leaves every count as it is.  A stage makes one level-0
# call per 1024 points, then one call per level, 32 levels, for each 1024
# points of a level; universal has no angle and no level after 0
STAGE_CALLS = {
    "3deb": ([33] * 5, 19),
    "universal": ([1] * 6, 20),
    "2mub": ([37] + [33] * 5, 20),
    "qubit": ([33] * 6, 20),
}


@pytest.mark.parametrize("name", sorted(STAGE_CALLS))
def test_cold_solve_makes_the_pinned_objective_calls_per_stage(monkeypatch, name):
    lanes, calls = security._lanes, []

    def counted_lanes(preset, objective, f_lane, s_lane):
        calls.append(0)  # every stage builds its lanes once

        def counted(*amps):
            calls[-1] += 1
            return objective(*amps)
        return lanes(preset, counted, f_lane, s_lane)

    monkeypatch.setattr(security, "_lanes", counted_lanes)
    evals = _crossing_core.__wrapped__(PRESETS[name])[3]
    assert (calls, evals) == STAGE_CALLS[name]


@pytest.mark.parametrize("lane", [0, 1])
def test_grid_signs_read_both_sign_branches(monkeypatch, lane):
    # qubit's I_AE is even in x, so its two branches are mirror images and
    # either alone brackets the crossing; one branch pushed far down in the
    # grid's level 0 and in its nests must not move the solve or the grid
    # points it nests, as the other ties it bit for bit
    expected = _crossing_core(PRESETS["qubit"])
    level0, nest_pairs, grid_lanes, nested = security._level0, security._nest_pairs, [], []

    def level0_low(preset, block, objective):
        f, fu, u = level0(preset, block, objective)
        if len(block) > 1:
            grid_lanes.append(f)
            fu = fu.copy()
            fu[lane::2] -= 10.0
        return f, fu, u

    def nest_low(f, fu, u, pairs):
        fp, up = nest_pairs(f, fu, u, pairs)
        if f in grid_lanes:
            nested.append(pairs.tolist())
            fp = fp.copy()
            fp[pairs % 2 == lane] -= 10.0
        return fp, up

    monkeypatch.setattr(security, "_level0", level0_low)
    monkeypatch.setattr(security, "_nest_pairs", nest_low)
    assert _crossing_core.__wrapped__(PRESETS["qubit"]) == expected
    assert len(grid_lanes) == 1
    assert nested == [list(range(26 - 2 * NESTED_GRID_POINTS["qubit"], 26))]


def _full_grid_crossing(preset):
    """The crossing solve with all 13 grid points nested in one
    ``_maximize_on`` batch: the reference of ``_crossing_core``, which
    nests only the grid points that can hold the rightmost sign change."""
    name, d = preset.name, preset.dimension
    lo, hi = 1.0 / d + 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 13).tolist()
    iae = security._iae(preset)
    solved = dict(zip(grid, _maximize_on(preset, np.array(grid), iae)))
    gv = [solved[f][0] - _iab_nats(f, d) for f in grid]
    evals = len(grid)
    bracket = None
    for i in range(len(grid) - 1):
        if gv[i] > 0.0 >= gv[i + 1]:
            bracket = i  # rightmost sign change wins
    if bracket is None:
        raise CrossingError(f"no information crossing found for preset {name!r} in "
                            f"[{lo:.4f}, {hi:.4f}]")

    def g(f_a):
        nonlocal evals
        evals += 1
        if f_a not in solved:
            solved[f_a] = _maximize_on(preset, f_a, iae)
        return solved[f_a][0] - _iab_nats(f_a, d)

    f_star = security._root(g, grid[bracket], grid[bracket + 1], f"preset {name!r}", 200)
    best, amps = solved[f_star]
    residual = abs(best - _iab_nats(f_star, d))
    if residual > security.RESIDUAL_TOL * math.log(2.0):
        raise CrossingError(f"crossing solver did not converge for {name!r}: "
                            f"residual {residual:.2e}")
    return f_star, tuple(sorted(zip(preset.free_params, amps))), residual, evals


def _solve_or_error(solve, preset):
    try:
        return solve(preset)
    except CrossingError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_crossing_equals_the_full_grid_batch(name):
    assert _crossing_core.__wrapped__(PRESETS[name]) == _full_grid_crossing(PRESETS[name])


_F_GRID = np.linspace(1 / 3 + 1e-9, 1 - 1e-9, 13)  # 3deb's bracket grid
_T_TOP = 0.75  # chart angle of the hill's top, 0.035 from the level-0 point pi/4


def _shaped_iae(g_of_f, bump_of_f):
    """A 3deb I_AE objective that sets g(F) = max I_AE - I_AB by hand: I_AB
    plus ``g_of_f(F)``, a hill of height 0.01 in the chart angle t that
    peaks at ``_T_TOP``, and a bump of height ``bump_of_f(F)`` and width
    0.005 on its top, which level 0 misses (exp(-49)) and nesting finds."""
    def objective(v, x, y):
        f = v * v + 2.0 * y * y
        t = np.arcsin(np.clip(y / np.sqrt((1.0 - f) / 4.0), -1.0, 1.0))
        e = (1.0 - f) / 2.0
        iab = math.log(3.0) - _entropy_nats(np.stack([f, e, e]))
        return (iab + g_of_f(f) + 0.01 * np.cos(t - _T_TOP)
                + bump_of_f(f) * np.exp(-((t - _T_TOP) / 0.005) ** 2))
    return lambda preset: objective


def _tent(center, height, width=0.03):
    return lambda f: height * np.maximum(0.0, 1.0 - np.abs(f - center) / width)


def _recorded_grid_stages(monkeypatch):
    """The grid's level-0 values and the pairs of every nest, as recorded."""
    level0, nest_pairs, seen = security._level0, security._nest_pairs, {"nests": []}

    def level0_spy(preset, block, objective):
        found = level0(preset, block, objective)
        seen.setdefault("level0", found[1])
        return found

    def nest_spy(f, fu, u, pairs):
        seen["nests"].append(pairs.tolist())
        return nest_pairs(f, fu, u, pairs)

    monkeypatch.setattr(security, "_level0", level0_spy)
    monkeypatch.setattr(security, "_nest_pairs", nest_spy)
    return seen


def test_a_point_lifted_by_nesting_moves_the_bracket_right(monkeypatch):
    # g = 0.76 - F at level 0, so the level-0 signs change between grid
    # points 7 and 8; a bump at point 10 that only nesting finds lifts g
    # there from -0.13 to +0.17, and the bracket moves to points 10 and 11
    monkeypatch.setattr(security, "_iae", _shaped_iae(lambda f: 0.75 - f,
                                                      _tent(_F_GRID[10], 0.3)))
    expected = _full_grid_crossing(PRESETS["3deb"])
    seen = _recorded_grid_stages(monkeypatch)
    result = _crossing_core.__wrapped__(PRESETS["3deb"])
    assert result == expected
    g0 = _level0_g(PRESETS["3deb"], _F_GRID.tolist(), seen["level0"])
    assert g0[7] > 0.0 >= g0[8] and g0[10] <= 0.0
    assert _F_GRID[10] < result[0] < _F_GRID[11]
    # points 7 to 12 nested together, then one fidelity per Brent step
    assert seen["nests"][0] == list(range(14, 26))
    assert all(pairs == [0, 1] for pairs in seen["nests"][1:])


@pytest.mark.parametrize("g_of_f,crossing", [
    (lambda f: 0.2 - _tent(_F_GRID[4], 0.5)(f), True),  # g <= 0 at point 4 alone
    (lambda f: 0.2 + 0.0 * f, False),  # g > 0 everywhere
    (lambda f: -0.2 + 0.0 * f, False),  # g < 0 everywhere, at level 0 too
], ids=["dip", "above", "below"])
def test_a_nested_part_above_zero_falls_back_to_the_whole_grid(monkeypatch, g_of_f, crossing):
    # when g stays > 0 on every nested point, the rest of the grid is nested
    # too and read as the full batch reads it: the same bracket and root, or
    # the same CrossingError
    monkeypatch.setattr(security, "_iae", _shaped_iae(g_of_f, lambda f: 0.0 * f))
    expected = _solve_or_error(_full_grid_crossing, PRESETS["3deb"])
    seen = _recorded_grid_stages(monkeypatch)
    assert _solve_or_error(_crossing_core.__wrapped__, PRESETS["3deb"]) == expected
    assert isinstance(expected, tuple) == crossing
    if crossing:
        assert _F_GRID[3] < expected[0] < _F_GRID[4]
    if g_of_f(0.5) > 0:  # point 12 alone, then points 0 to 11
        assert seen["nests"][:2] == [[24, 25], list(range(24))]
    else:  # no point positive at level 0: the whole grid at once
        assert seen["nests"][0] == list(range(26))


def _lift_right_endpoint(monkeypatch):
    # Brent reads the grid's own values at the bracket endpoints, so the
    # maximizer cannot make them disagree with the grid; g lifted above
    # zero at the right endpoint, as Brent sees it, makes the signs agree
    brentq = security._brentq

    def lifted(f, a, b, *args, **kwargs):
        return brentq(lambda x: f(x) + (1.0 if x == b else 0.0), a, b, *args, **kwargs)

    monkeypatch.setattr(security, "_brentq", lifted)


def _cap_brent_iterations(monkeypatch):
    brentq = security._brentq
    monkeypatch.setattr(security, "_brentq", lambda *a, **k: brentq(*a, **{**k, "maxiter": 2}))


def _sink_the_grid(monkeypatch):
    # I_AE pushed far below I_AB: g < 0 at every grid point
    iae = security._iae
    monkeypatch.setattr(security, "_iae", lambda preset: lambda *amps: iae(preset)(*amps) - 10.0)


@pytest.mark.parametrize("break_solver,message", [
    (_lift_right_endpoint, r"failed for preset 'qubit' on the bracket \[0\.\d{10}, "
                           r"0\.\d{10}\]: f\(a\) and f\(b\) must have different signs"),
    (_cap_brent_iterations, r"failed for preset 'qubit' on the bracket \[0\.\d{10}, "
                            r"0\.\d{10}\]: Failed to converge after 2 iterations"),
    (_sink_the_grid, r"no information crossing found for preset 'qubit'"),
], ids=["same-sign", "maxiter", "no-crossing"])
def test_crossing_failures_are_non_convergence(monkeypatch, break_solver, message):
    break_solver(monkeypatch)
    with pytest.raises(CrossingError, match=message):
        _crossing_core.__wrapped__(PRESETS["qubit"])
    monkeypatch.setattr(security, "_crossing_core", _crossing_core.__wrapped__)
    result = CliRunner().invoke(main, ["crossing", "--preset", "qubit"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


# --- symmetric point -----------------------------------------------------------


def test_symmetric_point_closed_form():
    res = symmetric_point("3deb")
    assert abs(res.fidelity - (5 + math.sqrt(17)) / 12) <= 1e-4
    assert res.fidelity_gap <= 1e-8


def test_symmetric_point_below_crossing():
    assert symmetric_point("3deb").fidelity < crossing_point("3deb").f_a_star


def test_symmetric_point_maximizes_each_fidelity_once(monkeypatch):
    # the root is a point brentq evaluated: it is read back, not re-solved
    expected = symmetric_point()
    maximize_on, fidelities = security._maximize_on, []

    def spy(preset, f_a, objective):
        fidelities.append(f_a)
        return maximize_on(preset, f_a, objective)

    monkeypatch.setattr(security, "_maximize_on", spy)
    assert symmetric_point() == expected
    assert len(fidelities) == len(set(fidelities))


def _lift_max_fb(monkeypatch):
    # max F_B lifted by 1 beats F over the whole bracket: no sign change
    maximize_on = security._maximize_on

    def lifted(preset, f_a, objective):
        best, amps = maximize_on(preset, f_a, objective)
        return best + 1.0, amps

    monkeypatch.setattr(security, "_maximize_on", lifted)


@pytest.mark.parametrize("break_solver,message", [
    (_lift_max_fb, r"failed for the symmetric point on the bracket \[0\.4000000000, "
                   r"0\.9500000000\]: f\(a\) and f\(b\) must have different signs"),
    (_cap_brent_iterations, r"failed for the symmetric point on the bracket \[0\.4000000000, "
                            r"0\.9500000000\]: Failed to converge after 2 iterations"),
], ids=["same-sign", "maxiter"])
def test_symmetric_failures_are_non_convergence(monkeypatch, break_solver, message):
    break_solver(monkeypatch)
    with pytest.raises(CrossingError, match=message):
        symmetric_point()
    result = CliRunner().invoke(main, ["symmetric"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


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
    rep = info_report(IDENTITY, base=3)
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
    with pytest.raises(ValueError, match="at most"):
        information_sweep("3deb", 0.7, 0.9, security._SWEEP_POINTS_MAX + 1)


# --- optimizer internals -----------------------------------------------------------


def test_inner_max_feasibility_guard():
    # the universal manifold is fully pinned once F is fixed
    best, (v, y) = _max_iae(PRESETS["universal"], 0.7733)
    assert abs(v ** 2 + 8 * y ** 2 - 1.0) <= 1e-12


def test_iab_nats_matches_entropy():
    f = 0.77
    expected = math.log(3) - shannon_entropy((f, (1 - f) / 2, (1 - f) / 2), base="e")
    assert abs(_iab_nats(f, 3) - expected) <= 1e-12


# --- the batched nested grid against one point at a time ----------------------


def _scalar_nested_grid(f, n):
    """The nested grid of one (fidelity, sign) pair, one point per call of
    ``f``, kept as the reference of the batched ``_nested_grid``."""
    half = _GRID0 // 2
    axis = [i / half * (math.pi / 2) for i in range(-half, half + 1)]
    points = list(itertools.product(axis, repeat=n))
    values = [f(list(p)) for p in points]

    def is_peak(i):
        # >= each neighbour after i and > each before it, along every axis
        for a in range(n):
            stride = _GRID0 ** (n - 1 - a)
            digit = i // stride % _GRID0
            if digit > 0 and not _key(values[i]) > _key(values[i - stride]):
                return False
            if digit < _GRID0 - 1 and not _key(values[i]) >= _key(values[i + stride]):
                return False
        return True

    ranked = sorted(range(len(points)), key=lambda i: (not is_peak(i), -_key(values[i]), i))
    best = None
    for i in ranked[:_STARTS]:
        fu, u = _scalar_nest(f, list(points[i]), values[i], math.pi / (_GRID0 - 1))
        if best is None or _key(fu) > _key(best[0]):
            best = (fu, u)
    return best


def _scalar_nest(f, u, fu, spacing):
    """The levels after level 0 from one start, one point per call of ``f``."""
    n = len(u)
    offsets = [o for o in itertools.product(range(-2, 3), repeat=n) if any(o)]
    while n and spacing >= security.PARAM_TOL / 10:
        spacing /= 2
        top = None
        for o in offsets:
            cand = [u[a] + spacing * o[a] for a in range(n)]
            fc = f(cand)
            if top is None or _key(fc) > _key(top[0]):
                top = (fc, cand)
        if top[0] > fu:
            fu, u = top
    return fu, u


def _key(value):
    return -math.inf if math.isnan(value) else value


def _scalar_maximize_on(preset, f_a, objective):
    """One sign branch after the other, one point per objective call."""
    n = len(preset.e) - 1
    best, best_amps = _INFEASIBLE, None
    for sign in (1.0, -1.0):
        def f(u, sign=sign):
            amps = preset.chart(f_a, u, sign)
            return _INFEASIBLE if amps[0] == _INFEASIBLE else float(objective(*amps))
        fv, u = _scalar_nested_grid(f, n)
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
    *[("universal", f) for f in (1 / 3 + 1e-9, 0.5, 0.7732860898, 0.9, 1 - 1e-9)],
])
def test_lockstep_inner_maximum_equals_the_scalar_search(name, f_a):
    preset = PRESETS[name]
    best, amps = _max_iae(preset, f_a)
    assert (best, amps) == _scalar_maximize_on(preset, f_a,
                                               lambda *a: _mean_information(preset, a)[1])


def _plateaus(u):
    # piecewise constant in u_0 (moves inside a step tie and are refused),
    # smooth in u_1
    return np.floor(3.0 * u[..., 0]) / 3.0 + np.sin(2.0 * u[..., -1])


def _low_bits(u):
    # chaotic in the low bits: the 53-bit significand modulo a prime, so
    # points one ulp apart have unrelated values, and whether u + s is
    # formed the same way decides the moves
    return sum(np.fmod(np.frexp(u[..., j])[0] * 2.0 ** 53, 997.0) / 997.0
               for j in range(u.shape[-1]))


def _nan_band(u):
    # NaN on the band 0.1 < u_0 < 0.5, next to the maximum of +g at
    # u_0 = pi/6: a NaN value is never accepted, and a search that starts
    # in the band never moves
    return np.where(np.abs(u[..., 0] - 0.3) < 0.2, np.nan, np.sin(3.0 * u).sum(axis=-1))


@pytest.mark.parametrize("k", [1, 2, 32])
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("tol,initial_step", [(1e-5, None), (1e-9, 1e-3)])
def test_lockstep_pattern_search_moves_as_each_search_alone(monkeypatch, k, ndim, tol,
                                                            initial_step):
    # the nested grid's later levels from k starts at once, stopped at a
    # spacing of tol / 10 (PARAM_TOL = tol) and begun at the level-0
    # spacing (None) or a finer one
    monkeypatch.setattr(security, "PARAM_TOL", tol)
    spacing = math.pi / (_GRID0 - 1) if initial_step is None else initial_step
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1.2, 1.2, (k, ndim))
    x0[3::3] = 0.5  # searches tied from the start
    x0[0] = 0.9995  # one step of the finer spacing below a step of _plateaus
    weight = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    for objective in (_plateaus, _low_bits, _nan_band):
        def f(u, idx, objective=objective):
            return weight[idx] * objective(u)
        f0 = f(x0, np.arange(k))
        fx, x = security._nest(f, x0.copy(), f0.copy(), np.arange(k), spacing)
        assert fx.shape == (k,) and x.shape == (k, ndim)
        # moves only on a strict gain: never down, and never off a NaN start
        assert np.all((fx >= f0) | np.isnan(f0))
        assert np.array_equal(x[np.isnan(f0)], x0[np.isnan(f0)])
        for j in range(k):
            ref_f, ref_x = _scalar_nest(
                lambda u: float(weight[j] * objective(np.array(u))), list(x0[j]), f0[j],
                spacing)
            assert np.array_equal(fx[j], ref_f, equal_nan=True) and list(x[j]) == ref_x, \
                (objective, j)


def test_sign_branch_pick_equals_the_scalar_search():
    # universal has no angle, so each (fidelity, sign) pair is its one
    # point: at F = 0.5 the + branch is NaN and - wins, at F = 0.2 both
    # branches have v^2 < 0, and at F = 0.8 they tie exactly and + wins
    preset = PRESETS["universal"]
    block = np.array([0.5, 0.2, 0.8])

    def stub(v, y):
        return np.where(y > 0.2, np.nan, y * y)

    found = _maximize_on(preset, block, stub)
    assert found == [_scalar_maximize_on(preset, f, stub) for f in block]
    assert found[0][1][1] < 0 and found[1] == (_INFEASIBLE, None) and found[2][1][1] > 0


def test_qubit_sign_branches_tie_and_the_plus_branch_wins():
    # qubit's I_AE is even in x: the branches' maxima tie bit for bit and +
    # (x >= 0) wins; a branch that is NaN wherever it lies never wins
    preset = PRESETS["qubit"]
    fids = np.array([0.6, 0.8535533906, 0.95])
    fp, _ = security._nested_grid(preset, fids, _iae(preset))
    assert np.array_equal(fp[0::2], fp[1::2])
    assert all(amps[1] > 0 for _, amps in _max_iae(preset, fids))
    for nan_side in (1.0, -1.0):
        def half_nan(v, x, y, nan_side=nan_side):
            return np.where(np.sign(x) == nan_side, np.nan, _iae(preset)(v, x, y))
        best, amps = _maximize_on(preset, 0.8, half_nan)
        assert np.sign(amps[1]) == -nan_side
        assert best == _max_iae(preset, 0.8)[0]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_lockstep_restart_ties_keep_the_lowest_restart(name):
    # a step function of the amplitudes: many level-0 points and nested
    # starts tie, and the first among equals must win as in the scalar search
    preset = PRESETS[name]
    f_a = 0.8
    scale = math.sqrt((1 - f_a) / preset.e[-1])

    def steps(*amps):
        return np.floor(4.0 * amps[-1] / scale) + np.floor(2.0 * amps[1] / scale)

    best, amps = _maximize_on(preset, f_a, steps)
    assert (best, amps) == _scalar_maximize_on(preset, f_a, steps)


def test_local_maxima_count_a_plateau_once_and_pad_with_the_largest_points():
    # one axis: the plateau at indices 2-4 counts once, at its first point,
    # so the two maxima are padded with the largest other point; NaN counts
    # as -inf
    line = [0.0, 1.0, 3.0, 3.0, 3.0, 2.0, 2.5, 1.0, 0.5, 0.4, 0.1, 0.0, np.nan]
    assert _local_maxima(np.array([line])).tolist() == [[2, 6, 3]]
    assert _local_maxima(np.array([[np.nan, 1.0, np.nan]])).tolist() == [[1, 0, 2]]
    # two axes, as at the chart pole t_1 = 0: every t_2 gives the same value,
    # a plateau along t_2 that counts once, at t_2's first point
    pole = np.repeat(-(np.arange(13) - 6.0) ** 2, 13).reshape(1, 13, 13)
    assert _local_maxima(pole).tolist() == [[6 * 13, 6 * 13 + 1, 6 * 13 + 2]]
    # one point per grid, as with no angle: one start
    assert _local_maxima(np.array([[2.0], [np.nan]])).tolist() == [[0], [0]]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_one_point_call_cap_gives_the_same_maxima(monkeypatch, name):
    # every lane is bit-equal to its point alone, so the cap on the points
    # per objective call changes no value
    preset, fids, sizes = PRESETS[name], np.array([0.7752755323, 0.9]), []

    def counted(*amps):
        sizes.append(len(amps[0]))
        return _iae(preset)(*amps)

    expected = _maximize_on(preset, fids, counted)
    assert max(sizes) <= security._CALL_POINTS
    sizes.clear()
    monkeypatch.setattr(security, "_CALL_POINTS", 1)
    assert _maximize_on(preset, fids, counted) == expected
    assert set(sizes) == {1}


@pytest.mark.parametrize("k", [1, 2, 32, 33])
def test_pattern_search_over_zero_coordinates_returns_the_start_values(k):
    # the universal preset's search: with no angle, level 0 is the one point
    # of each (fidelity, sign) pair, nothing moves, and a block of
    # fidelities costs one objective call
    preset, calls = PRESETS["universal"], []
    fids = np.linspace(0.5, 0.95, k)

    def counted(*amps):
        calls.append(len(amps[0]))
        return _iae(preset)(*amps)

    found = _maximize_on(preset, fids, counted)
    assert calls == [2 * len(fids[i:i + _FIDELITY_BLOCK])
                     for i in range(0, k, _FIDELITY_BLOCK)]
    for f, (best, amps) in zip(fids, found):
        start = preset.chart(float(f), np.empty(0), math.copysign(1.0, amps[1]))
        assert (best, amps) == (float(_iae(preset)(*start)), tuple(map(float, start)))


# (F, angle) of infeasible chart points: v^2 < 0 at angles all ``angle``
INFEASIBLE_AT = {
    "2mub": (0.3, 0.0),  # x = sqrt(1 - F): v^2 < 0 below F = 1/2
    "3deb": (0.3, math.pi / 2),  # y = sqrt(1 - F) / 2: below F = 1/3
    "qubit": (0.3, math.pi / 2),  # y = sqrt(1 - F): below F = 1/2
    "universal": (0.2, 0.0),  # no angle; y = sqrt((1 - F) / 6): below F = 1/4
}


@pytest.mark.parametrize("name", sorted(INFEASIBLE_AT))
def test_batched_objective_lanes_equal_each_point_alone(name):
    # live points, F_A = 1 points (every amplitude after v is 0: rows of
    # weight 0) and infeasible chart points (v^2 < 0) in one stack
    preset, (f_low, corner) = PRESETS[name], INFEASIBLE_AT[name]
    d = preset.dimension
    rng = np.random.default_rng(11)
    angles = rng.uniform(-math.pi / 2, math.pi / 2, (6, len(preset.e) - 1))
    angles[:2] = corner  # infeasible at F = f_low
    signs = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
    stacks = [preset.chart(f, angles, signs) for f in (0.8, 1.0, f_low)]
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
        row0 = math.log(d) - float(_entropy_nats([1 / d] * d))
        assert np.all(i_ae[6:12] == row0) and np.all(i_ab[6:12] == math.log(d))
        # rows of weight in (0, 1e-15] add exactly what empty rows add
        tiny = _coefficient_entries(0.8, 0.2, 1e-8, 1e-8)
        empty = _coefficient_entries(0.8, 0.2, 0.0, 0.0)
        w, pair = _rows_information(np.stack([tiny, empty], axis=-1), 3)
        assert 0.0 < sum(c * c for c in tiny[1]) <= 1e-15
        h = _entropy_nats(w, security._spread(3))
        assert h[0] == h[1] and pair[0] == pair[1]
        # the maximizer's objective computes I_AE alone, bit-equal
        assert np.all(_iae(preset)(*amps) == i_ae)
        values = _lanes(preset, lambda *a: _mean_information(preset, a)[1],
                        np.full(6, f_low), signs)(angles, np.arange(6))
        assert np.all(values[infeasible[12:]] == _INFEASIBLE)
        assert np.all(values[~infeasible[12:]] == i_ae[12:][~infeasible[12:]])


def _full_rows_information(rows, dim):
    """(w, I_AE) from all dim x dim coefficient rows c[m, j], the route the
    four-entry ``_rows_information`` replaced: its bit-for-bit reference."""
    logd = math.log(dim)
    c2 = np.square(np.asarray(rows, dtype=float))
    w = c2[:, 0]
    for j in range(1, dim):
        w = w + c2[:, j]
    w = w / dim
    live = w > 1e-15
    cond = c2 / np.where(live, dim * w, 1.0)[:, None]
    terms = np.where(live, w * (logd - _entropy_nats(cond.swapaxes(0, 1))), 0.0)
    i_ae = 0.0
    for t in terms:
        i_ae = i_ae + t
    return w, i_ae


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_distinct_entries_give_the_full_rows_information(name):
    # random chart points, F_A = 1 points (rows of weight 0) and infeasible
    # ones (v = _INFEASIBLE), every protocol basis, all in one batch
    preset = PRESETS[name]
    d, spread = preset.dimension, security._spread(preset.dimension)
    rng = np.random.default_rng(7)
    f_a = np.concatenate((rng.uniform(1 / d, 1.0, 40), [1.0, 1.0, 1 - 1e-9, 0.2, 0.2]))
    angles = rng.uniform(-math.pi / 2, math.pi / 2, (len(f_a), len(preset.e) - 1))
    amps = preset.chart(f_a, angles, np.where(np.arange(len(f_a)) % 2 == 0, 1.0, -1.0))
    assert np.any(amps[0] == _INFEASIBLE)
    entries = np.asarray(preset.entries(*amps)).swapaxes(0, 1).swapaxes(1, 2)
    w, i_ae = _rows_information(entries, d)
    w_full, i_ae_full = _full_rows_information(entries[spread][:, spread], d)
    assert np.array_equal(w[spread], w_full) and np.array_equal(i_ae, i_ae_full)
    assert np.array_equal(_entropy_nats(w, spread), _entropy_nats(w_full))


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
        best, amps = _max_iae(PRESETS[name], float(f_a))
        assert (row["f_a"], row["i_ae"], row["params"]) == (f_a, best, _named(PRESETS[name], amps))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_chart_with_a_fidelity_per_lane_equals_each_fidelity_alone(name):
    preset = PRESETS[name]
    rng = np.random.default_rng(3)
    f_a = np.array([0.3, 0.45, 0.5, 0.7752755323, 0.9, 1.0, 1 - 1e-9, 0.6])
    angles = rng.uniform(-math.pi / 2, math.pi / 2, (len(f_a), len(preset.e) - 1))
    signs = np.where(np.arange(len(f_a)) % 3 == 0, -1.0, 1.0)
    lanes = preset.chart(f_a, angles, signs)
    radii = preset.radii(f_a)  # computed once per lane, as _lanes does
    assert [list(a) for a in preset.chart(f_a, angles, signs, radii)] == [list(a) for a in lanes]
    for k, f in enumerate(f_a):
        alone = preset.chart(float(f), angles[k:k + 1], signs[k:k + 1])
        assert [a[k] for a in lanes] == [a[0] for a in alone], k
        alone = preset.chart(f_a[k:k + 1], angles[k:k + 1], signs[k:k + 1], radii[k:k + 1])
        assert [a[k] for a in lanes] == [a[0] for a in alone], k
        # one fidelity for every lane: the amplitudes keep the batch shape,
        # which universal, with no angle, takes from the signs alone
        batch = preset.chart(float(f), angles, signs)
        assert all(np.shape(a) == f_a.shape for a in batch)
        assert [a[k] for a in lanes] == [a[k] for a in batch], k


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
