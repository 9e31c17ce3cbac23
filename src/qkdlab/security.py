"""Information-theoretic security analysis of the qutrit protocol.

The central quantity is the information crossing point: the largest
receiver fidelity F_A for which an attack cloner exists whose information
about the sender's trit matches the receiver's.  Beyond that fidelity the
one-way secret key rate bound max(I_AB - I_AE, I_AB - I_BE) is positive.

The attacker's information is evaluated for the strategy of measuring
both her clone and the machine register in the disclosed basis family:
the difference of the two outcomes (mod 3) reproduces the receiver's
error m exactly, and conditionally on m her clone outcome carries the
distribution |c[m, j]|^2 over the offset j between her outcome and the
sender's trit.  For each supported protocol the coefficient rows c[m, :]
have closed forms in the cloner parameters with four distinct entries,
c[0] = (p, q, ..., q) and every c[m > 0] = (r, s, ..., s)
(``cloner._coefficient_entries``).  The objective computes I_AE from
those four entries per basis, in the float operations of the full rows;
see ``_rows_information``.

Three cloner families tie slots of the amplitude matrix together; their
masks are in the docstrings of ``_phase_covariant`` and next to the
``PRESETS`` entries.  They give four protocol presets:

* the phase-covariant family, a function of the dimension d:
  ``3deb`` (d = 3, the paper's four phase bases) and ``qubit`` (d = 2,
  the qubit cloner behind the Ekert91 comparison numbers);
* ``universal``  -- clones every state with the same fidelity (12-state
  protocol);
* ``2mub``       -- the two-basis qutrit protocol (3D-BB84); information
  is averaged over the computational and Fourier bases.

At pinned F_A every family has the same shape: the amplitudes a_i after v
lie on an ellipsoid sum_i e_i a_i^2 = 1 - F_A, and v^2 = F_A -
sum_i g_i a_i^2.  Each preset declares its two weight tuples e and g and
the entries of its coefficient rows per protocol basis (``ProtocolPreset``);
one angle chart, ``ProtocolPreset.chart``, maps a point of the box
[-pi/2, pi/2]^(k-1) and a sign branch onto the ellipsoid.  One maximizer,
``_maximize_on``, searches that box for the attacker's information, the
symmetric point and the information sweep alike.

The 2mub and qubit masks are reconstructions validated against their
published crossing fidelities ((1 + 1/sqrt(d))/2: 0.7887 and
1/2 + 1/sqrt(8)); the tests report any mismatch rather than forcing
agreement.

The crossing solver follows a two-level strategy: an outer scalar
root-find on F_A of g(F) = [max I_AE over the constraint surface at fixed
F] - I_AB(F), with the inner maximization done by a deterministic
derivative-free nested grid on each sign branch (``_nested_grid``).  Level
0 is a grid of 13 points per chart angle; each (fidelity, sign) pair then
nests from its three largest level-0 local maxima, each later level a
5-point grid per angle around the best point so far at half the spacing.
Nothing is drawn at random.  Every level evaluates the objective on the
stacked points of all lanes, at most ``_CALL_POINTS`` per call, so the
chart and the objective take arrays of points.  The objective computes
I_AE alone; I_AB is a closed form in F_A.  ``_maximize_on`` searches one
fidelity or an array of them, each lane with its own F_A and radii.  Every
lane of a batch is bit-equal to its point evaluated on its own, and every
preset and caller takes this one path; the universal preset, whose
ellipsoid leaves no angle, is its level-0 point alone.  The crossing
solver runs level 0 once on its 13-point bracket grid and nests only the
points from the rightmost one whose level-0 g is > 0 on: a nest never
lowers a value, so the rightmost sign change lies among them, and the
nested values are final (``_crossing_core``).

Brent's method is ``brent.brentq``, a port of scipy's ``brentq.c`` that
the tests check ``==`` against ``scipy.optimize.brentq``, so scipy is not
a runtime dependency.  Both root-finds call it through ``_root``, which
turns a same-sign bracket, a NaN or running out of iterations into
``CrossingError``.

The crossing condition is invariant under the choice of log base, so the
base only affects reported information values.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .brent import brentq as _brentq
from .cloner import ClonerParams, FidelityReport, _coefficient_entries, closed_form_report

LOG3 = math.log(3.0)

RESIDUAL_TOL = 1e-8
PARAM_TOL = 1e-9
#: the most fidelities one information sweep takes; 10,000 2mub points take
#: about 10 s and 40 MB peak RSS on one core of a 2-vCPU Xeon VM
_SWEEP_POINTS_MAX = 100_000
#: level-0 points per chart angle of the inner maximizer, both faces included
_GRID0 = 13
#: level-0 local maxima each (fidelity, sign) pair nests from
_STARTS = 3
#: the most points one objective call takes
_CALL_POINTS = 1024
#: fidelities per batch of the inner maximizer: it bounds a sweep's memory
#: (``_crossing_core`` runs ``_level0`` on its 13 grid points directly)
_FIDELITY_BLOCK = 32
_INFEASIBLE = -1e18
_BRANCHES = np.array([1.0, -1.0])

#: Published reference values the computed results are compared against.
REFERENCE_ERROR_RATES = {
    "3deb": 0.2247,
    "universal": 0.2267,
    "2mub": 0.2113,
    "qubit": 0.1464,
}

PROTOCOL_LABELS = {
    "3deb": "3DEB",
    "universal": "12-state",
    "2mub": "3D-BB84",
    "qubit": "Ekert91",
}


class CrossingError(RuntimeError):
    """No crossing in the feasible fidelity range, or non-convergence."""


def _log_of_base(base) -> float:
    """ln(base); ValueError unless the base is "e" or a finite number above 1."""
    if base in ("e", "E", math.e):
        return 1.0
    try:
        b = float(base)
    except (TypeError, ValueError):
        b = math.nan
    if not 1.0 < b < math.inf:  # also true for NaN
        raise ValueError(f"log base must be a finite number above 1, got {base!r}")
    return math.log(b)


def _base_label(base) -> str:
    if base in ("e", "E", math.e):
        return "e"
    b = float(base)
    return str(int(b)) if b == int(b) else str(b)


def _entropy_nats(ps, spread=None):
    """-sum_i p_i log(p_i) in nats over the leading axis of ``ps``, with
    p_i = ps[spread[i]] if ``spread`` is given (indices may repeat).

    Terms are added in index order and entries at or below 1e-15
    contribute nothing, so a stack of distributions ps[i, ...] gives one
    entropy per trailing index, each equal to that distribution's alone.
    """
    p = np.asarray(ps, dtype=float)
    live = p > 1e-15
    terms = np.log(p, out=np.zeros(p.shape), where=live)
    np.multiply(terms, p, out=terms, where=live)
    acc = 0.0
    for i in range(len(terms)) if spread is None else spread:
        acc = acc - terms[i]
    return acc


def bob_information(f_a: float, base=2) -> float:
    """Receiver's information log(3) - H[F_A, (1-F_A)/2, (1-F_A)/2]."""
    if not (1.0 / 3.0 - 1e-12 <= f_a <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {f_a!r} outside [1/3, 1]")
    return _iab_nats(f_a, 3) / _log_of_base(base)


def _spread(dim: int) -> list[int]:
    """The distinct entry each of the dim rows, or row entries, reads."""
    return [0] + [1] * (dim - 1)


def _rows_information(entries, dim: int):
    """(w, I_AE) from coefficient rows c[m, j]: the error distribution w and
    the attacker's information in nats.

    ``entries[a, b]`` is c[m, j] for the m and j that read a and b in
    ``_spread(dim)``.  P(error = m) = w[m] = sum_j c[m,j]^2 / dim;
    conditionally on m the offset between the attacker's clone outcome and
    the sender's symbol is distributed as c[m,j]^2 / (dim P(m)).  Axes
    after a and b are a batch (protocol bases, points): w has shape
    (2, *batch) and I_AE one value per batch index, each bit-equal to that
    index's alone, as every sum runs over all dim indices in order and rows
    of weight <= 1e-15 add exactly 0.  The receiver's information,
    log(dim) - H(w), is left to the callers that read it.
    """
    logd, spread = math.log(dim), _spread(dim)
    c2 = np.square(np.asarray(entries, dtype=float))
    w = c2[:, 0] + c2[:, 1]
    for j in spread[2:]:
        w += c2[:, j]
    w /= dim
    live = w > 1e-15
    c2 /= np.where(live, dim * w, 1.0)[:, None]  # the conditional distributions
    h = _entropy_nats(c2.swapaxes(0, 1), spread)  # H(cond[m, :]) for both rows
    np.subtract(logd, h, out=h)
    terms = np.where(live, np.multiply(w, h, out=h), 0.0)
    i_ae = 0.0 + terms[0]
    for m in spread[1:]:
        i_ae += terms[m]
    return w, i_ae


def eve_information(params: ClonerParams, base=2) -> float:
    """Attacker's average information for a y = z constrained cloner.

    I_AE = F_A I(A:E | m=0) + (1-F_A) I(A:E | m!=0) with F_A = v^2 + 2y^2;
    the m = 0 conditional is [(v+2y)^2, (v-y)^2, (v-y)^2] / (3 F_A) and the
    m != 0 one is [2(x+2y)^2, 2(x-y)^2, 2(x-y)^2] / (3 (1-F_A)).  Branches
    whose weight vanishes are skipped, so the F_A = 1 limit is exact.
    """
    params.require_normalized()
    params.require_symmetric()
    return float(_iae(PRESETS["3deb"])(params.v, params.x, params.y)) / _log_of_base(base)


def ck_rate_bound(i_ab: float, i_ae: float, i_be: float) -> float:
    """One-way secret key rate lower bound max(I_AB - I_AE, I_AB - I_BE)."""
    return max(i_ab - i_ae, i_ab - i_be)


# ---------------------------------------------------------------------------
# protocol presets


@dataclass(frozen=True)
class ProtocolPreset:
    """A protocol's cloner family: amplitude-matrix slots tied to parameters.

    The amplitudes are ``free_params`` in order, v first.  At pinned F_A
    the amplitudes a_1, ..., a_k after v lie on the ellipsoid
    sum_i e_i a_i^2 = 1 - F_A, and v = sqrt(F_A - sum_i g_i a_i^2) >= 0
    (the overall sign of the amplitudes is quotiented away).  The two
    weight tuples ``e`` and ``g`` are the whole search geometry; ``chart``
    maps k - 1 angles and a sign branch onto the ellipsoid.  The rest is:

    * ``entries(*amplitudes)`` -- the four distinct entries of each
      protocol basis's coefficient rows, from which the objective computes
      I_AE in the float operations of the full rows;
    * ``cloner(*amplitudes)`` -- the same point as (v, x, y, z = y) qutrit
      cloner parameters, or ``None`` for masks outside that family.
    """

    name: str
    dimension: int
    free_params: tuple[str, ...]
    e: tuple[float, ...]
    g: tuple[float, ...]
    entries: Callable[..., tuple]
    cloner: Callable[..., ClonerParams] | None = None

    def amplitudes_of(self, values: dict[str, float]) -> tuple[float, ...]:
        return tuple(values[p] for p in self.free_params)

    def radii(self, f_a):
        """sqrt((1 - F_A) / e_i), shape (*shape(f_a), k)."""
        return np.sqrt(np.divide.outer(1.0 - np.asarray(f_a), self.e))

    def chart(self, f_a, angles, signs, radii=None):
        """The amplitudes (v, a_1, ..., a_k) at pinned F_A, one array each.

        ``angles`` has shape (K, k - 1) and ``signs`` shape (K,), or
        (k - 1,) and a scalar for one point; each amplitude then has shape
        (K,), or is 0-d.  ``f_a`` is one fidelity for every point or one
        per point, shape (K,).  a_i = sqrt((1 - F_A) / e_i) s_i, with s the
        hyperspherical unit vector s_1 = sign cos t_1,
        s_2 = sin t_1 cos t_2, ..., s_k = sin t_1 ... sin t_{k-1}.  With
        every angle in [-pi/2, pi/2] the two signs cover the ellipsoid, and
        they meet on the faces t_1 = +-pi/2 of that box.  Where v^2 < 0 the
        point is infeasible and v is ``_INFEASIBLE``.  ``radii`` are
        ``self.radii(f_a)`` unless given.
        """
        angles = np.asarray(angles, dtype=float)
        cos, sin = np.cos(angles), np.sin(angles)
        if radii is None:
            radii = self.radii(f_a)
        amps, v2, r = [], f_a, None  # r: the product of the sines so far
        for i, g in enumerate(self.g):
            a = radii[..., i] if r is None else radii[..., i] * r
            if i < angles.shape[-1]:
                a, r = a * cos[..., i], sin[..., i] if r is None else r * sin[..., i]
            if not i:  # the sign also gives a_1 the batch shape with no angle
                a = a * signs
            if g:
                v2 = v2 - g * a * a
            amps.append(a)
        return (np.where(v2 < 0, _INFEASIBLE, np.sqrt(np.maximum(v2, 0.0))), *amps)


def _phase_covariant(name: str, d: int) -> ProtocolPreset:
    """The phase-covariant cloners of dimension d: the mask
    [[v,x,...,x],[y,y,...,y],...,[y,y,...,y]].

    Normalization v^2 + (d-1) x^2 + d(d-1) y^2 = 1 and the fidelity
    F_A = v^2 + (d-1) y^2 give the ellipsoid (d-1) x^2 + (d-1)^2 y^2 =
    1 - F_A and v^2 = F_A - (d-1) y^2.  d = 3 is the paper's attack on its
    four phase bases, d = 2 the qubit cloner behind the Ekert91 comparison.
    """
    return ProtocolPreset(
        name, d, ("v", "x", "y"), e=(d - 1, (d - 1) ** 2), g=(0, d - 1),
        entries=lambda v, x, y: (_coefficient_entries(v, y, x, y, d),),
        cloner=(lambda v, x, y: ClonerParams(v, x, y, y)) if d == 3 else None)


PRESETS = {
    "3deb": _phase_covariant("3deb", 3),
    # the universal cloners [[v,y,y],[y,y,y],[y,y,y]] clone every state
    # with the same fidelity: v^2 + 8y^2 = 1 and F_A = v^2 + 2y^2 leave
    # 6y^2 = 1 - F_A, no freedom beyond the sign
    "universal": ProtocolPreset(
        "universal", 3, ("v", "y"), e=(6,), g=(2,),
        entries=lambda v, y: (_coefficient_entries(v, y, y, y),),
        cloner=lambda v, y: ClonerParams(v, y, y, y)),
    # the two-basis cloners [[v,x,x],[x',y,y],[x',y,y]]: x^2 + x'^2 + 4y^2
    # = 1 - F_A and v^2 = F_A - x^2 - x'^2; computational-basis rows
    # first, the Fourier basis swaps x and x'
    "2mub": ProtocolPreset(
        "2mub", 3, ("v", "x", "xp", "y"), e=(1, 1, 4), g=(1, 1, 0),
        entries=lambda v, x, xp, y: (_coefficient_entries(v, x, xp, y),
                                     _coefficient_entries(v, xp, x, y))),
    "qubit": _phase_covariant("qubit", 2),
}

_PRESET_ALIASES = {"12-state": "universal", "3d-bb84": "2mub", "ekert91": "qubit"}


def resolve_preset(name: str | ProtocolPreset) -> ProtocolPreset:
    if isinstance(name, ProtocolPreset):
        return name
    key = name.lower()
    key = _PRESET_ALIASES.get(key, key)
    try:
        return PRESETS[key]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(PRESETS)}") from None


def _basis_information(preset: ProtocolPreset, amps):
    """``_rows_information`` of each of the preset's protocol bases, stacked
    into the batch after any point axes of the amplitudes: (w, I_AE) with
    shapes (2, bases, ...) and (bases, ...)."""
    entries = np.asarray(preset.entries(*amps), dtype=float)  # [basis, a, b, ...]
    return _rows_information(entries.swapaxes(0, 1).swapaxes(1, 2), preset.dimension)


def _mean_information(preset: ProtocolPreset, amps):
    """(I_AB, I_AE) in nats, averaged over the preset's protocol bases;
    the amplitudes may be arrays of points."""
    w, i_ae = _basis_information(preset, amps)
    i_ab = math.log(preset.dimension) - _entropy_nats(w, _spread(preset.dimension))
    return sum(i_ab) / len(i_ab), sum(i_ae) / len(i_ae)


def preset_information(preset, values: dict[str, float], base=2) -> tuple[float, float]:
    """(I_AB, I_AE) for a parameter assignment of a preset's mask.

    Both quantities are averaged over the preset's protocol bases; only
    the two-basis mask has more than one inequivalent basis.
    """
    preset = resolve_preset(preset)
    lb = _log_of_base(base)
    i_ab, i_ae = _mean_information(preset, preset.amplitudes_of(values))
    return float(i_ab) / lb, float(i_ae) / lb


# ---------------------------------------------------------------------------
# nested-grid inner maximization


def _lanes(preset: ProtocolPreset, objective, f_lane, s_lane):
    """``objective`` on the chart: ``f(u, k)`` gives the values at the angles
    ``u``, shape (m, n), of lanes ``k``, lane k at fidelity ``f_lane[k]`` on
    sign branch ``s_lane[k]``, and ``_INFEASIBLE`` where v^2 < 0.  One call
    of ``objective`` takes at most ``_CALL_POINTS`` points; as every lane is
    bit-equal to its point alone, the cap changes no value.  Lane radii are
    computed once.  Each point's fidelity, sign and radii are gathered one
    part at a time, and kept once the same array ``k`` comes again, as on
    every level of a nest."""
    radii, last = preset.radii(f_lane), [None, None]  # k, and its gathers once it came again

    def gather(kp):
        return f_lane[kp], s_lane[kp], radii[kp]

    def chart(u, f_part, s_part, r_part):  # frees a one-off part's gathers before the objective
        return preset.chart(f_part, u, s_part, r_part)

    def f(u, k):
        parts = [slice(at, at + _CALL_POINTS) for at in range(0, len(k), _CALL_POINTS)]
        if k is not last[0]:
            last[:] = k, None
        elif last[1] is None:
            last[1] = [gather(k[part]) for part in parts]
        values = np.empty(len(k))
        for i, part in enumerate(parts):
            amps = chart(u[part], *(last[1][i] if last[1] else gather(k[part])))
            out = values[part]
            out[...] = objective(*amps)
            out[amps[0] == _INFEASIBLE] = _INFEASIBLE
        return values
    return f


def _local_maxima(values):
    """Flat indices of the ``_STARTS`` largest discrete local maxima of each
    grid ``values[p]``, shape (P, G, ..., G) with n grid axes, padded with
    the largest other points where a grid has fewer.

    A point is a local maximum if it is >= each neighbour after it and >
    each neighbour before it along every grid axis, so a plateau counts
    once, at its first point: the chart pole t_1 = 0, where every t_2 gives
    the same amplitudes, is one maximum.  NaN counts as -inf; among equal
    values the lower index comes first.  Returns shape (P, min(_STARTS, G^n)).
    """
    key = np.where(np.isnan(values), -np.inf, values)
    peak = np.ones(key.shape, dtype=bool)
    for axis in range(1, key.ndim):
        k, p = np.moveaxis(key, axis, -1), np.moveaxis(peak, axis, -1)  # views
        p[..., 1:] &= k[..., 1:] > k[..., :-1]
        p[..., :-1] &= k[..., :-1] >= k[..., 1:]
    key, peak = key.reshape(len(key), -1), peak.reshape(len(key), -1)
    return np.lexsort((-key, ~peak))[:, :_STARTS]


def _nest(f, u, fu, lane, spacing):
    """The levels after level 0 of the nested grid: a pattern search of each
    start ``u[i]``, shape (K, n), of value ``fu[i]`` on lane ``lane[i]`` of
    ``f(u, k)``, all K in lockstep and each bit-equal to its search alone.

    Each level halves ``spacing`` and evaluates the 5^n - 1 points on +-1
    and +-2 of it around each start; a start moves to its best new point
    (the first among equals, NaN never) only on a strict gain.  The levels
    stop once the spacing is below ``PARAM_TOL`` / 10.  Updates ``u`` and
    ``fu`` in place and returns them as (fu, u).
    """
    n = u.shape[1]
    offsets = np.array([o for o in itertools.product(range(-2, 3), repeat=n) if any(o)],
                       dtype=float)
    cand_lane, rows = np.repeat(lane, len(offsets)), np.arange(len(u))
    while n and spacing >= PARAM_TOL / 10:
        spacing /= 2
        cand = u[:, None, :] + spacing * offsets  # (K, 5^n - 1, n)
        values = f(cand.reshape(-1, n), cand_lane).reshape(len(u), -1)
        j = np.where(np.isnan(values), -np.inf, values).argmax(axis=1)
        top = values[rows, j]
        move = top > fu
        np.copyto(u, cand[rows, j], where=move[:, None])
        np.copyto(fu, top, where=move)
    return fu, u


def _level0(preset: ProtocolPreset, block, objective):
    """Level 0 of the nested grid on a block of M fidelities.

    Pair m * 2 + s is fidelity m on sign branch s; it searches the box
    [-pi/2, pi/2]^n of the chart's n angles.  Level 0 evaluates ``_GRID0``
    points per angle, both faces and t = 0 included, for every pair in one
    batch, and picks each pair's ``_STARTS`` largest level-0 local maxima
    (``_local_maxima``).  Returns the pairs' objective ``f`` (``_lanes``),
    the starts' values, shape (2M, S), and their angles, shape (2M, S, n).
    A pair's first start is its level-0 maximum: the first point of a
    grid's maximum is a local maximum, and local maxima rank by value.
    """
    n = len(preset.e) - 1
    f_pair, s_pair = np.repeat(block, 2), np.tile(_BRANCHES, len(block))
    f = _lanes(preset, objective, f_pair, s_pair)
    half = _GRID0 // 2
    axis = np.arange(-half, half + 1) / half * (math.pi / 2)
    grid = np.array(list(itertools.product(axis, repeat=n))).reshape(_GRID0 ** n, n)
    pairs = len(f_pair)
    level0 = f(np.tile(grid, (pairs, 1)), np.repeat(np.arange(pairs), len(grid)))
    level0 = level0.reshape(pairs, len(grid))
    start = _local_maxima(level0.reshape((pairs,) + (_GRID0,) * n))
    return f, np.take_along_axis(level0, start, axis=1), grid[start]


def _nest_pairs(f, fu, u, pairs):
    """The later levels (``_nest``) of ``pairs`` from their level-0 starts
    ``fu`` and ``u`` (``_level0``'s rows of those pairs).  With no angle
    (n = 0) level 0 is the one point of each pair.  Returns the value,
    shape (P,), and the angles, shape (P, n), of each pair's best start,
    the first among equals."""
    p, starts, n = u.shape
    fu, u = _nest(f, u.reshape(p * starts, n), fu.ravel(), np.repeat(pairs, starts),
                  math.pi / (_GRID0 - 1))
    fu, u = fu.reshape(p, starts), u.reshape(p, starts, n)
    best, rows = np.where(np.isnan(fu), -np.inf, fu).argmax(axis=1), np.arange(p)
    return fu[rows, best], u[rows, best]


def _nested_grid(preset: ProtocolPreset, block, objective):
    """The inner maximization of ``_maximize_on`` on a block of M fidelities:
    level 0 (``_level0``), then every pair nested from its starts
    (``_nest_pairs``), each later level evaluating 5 points per angle
    around each start's best point, on +-1 spacing of the level before, so
    at half its spacing, until the spacing is below ``PARAM_TOL`` / 10.
    Returns each pair's value, shape (2M,), and angles, shape (2M, n).
    """
    f, fu, u = _level0(preset, block, objective)
    return _nest_pairs(f, fu, u, np.arange(len(fu)))


def _winning_branches(fp):
    """Each fidelity's winning pair among the pair values ``fp``, shape (2M,):
    the - branch wins if strictly above the + branch, which counts as
    ``_INFEASIBLE`` unless above it, so + wins ties and NaN never wins."""
    plus = np.where(fp[0::2] > _INFEASIBLE, fp[0::2], _INFEASIBLE)
    return 2 * np.arange(len(plus)) + (fp[1::2] > plus)


def _branch_maxima(preset: ProtocolPreset, block, fp, up):
    """(best, amplitudes) of each fidelity of ``block`` from its pairs'
    values ``fp`` and angles ``up``, or ``(_INFEASIBLE, None)`` when no
    value is above ``_INFEASIBLE``; one ``chart`` call gives the winners'
    amplitudes."""
    win = _winning_branches(fp)
    amps = preset.chart(block, up[win], _BRANCHES[win % 2])
    return [(float(fp[w]), tuple(float(a[m]) for a in amps)) if fp[w] > _INFEASIBLE
            else (_INFEASIBLE, None) for m, w in enumerate(win)]


def _maximize_on(preset: ProtocolPreset, f_a, objective):
    """Maximize objective(*amplitudes) over the preset manifold at pinned F_A.

    The manifold is the preset's ellipsoid, searched through its angle
    chart on the box [-pi/2, pi/2]^(k-1) on both sign branches; the seam
    between the branches is a face of that box.  ``objective`` takes one
    amplitude array per free parameter, shape (K,), and returns the K
    values as an array.

    ``f_a`` is one fidelity, or a 1-D array of them searched together in
    blocks of at most ``_FIDELITY_BLOCK`` by ``_nested_grid``, each lane
    with its own F_A and sign and bit-equal to its point alone; the sign
    branches are picked by ``_winning_branches``.  Returns (best,
    amplitudes) for one fidelity, ``(_INFEASIBLE, None)`` when no value is
    above ``_INFEASIBLE``, and a list of such pairs for an array.
    """
    fids = np.atleast_1d(np.asarray(f_a, dtype=float))
    found = []
    for start in range(0, len(fids), _FIDELITY_BLOCK):
        block = fids[start:start + _FIDELITY_BLOCK]
        found += _branch_maxima(preset, block, *_nested_grid(preset, block, objective))
    return found if np.ndim(f_a) else found[0]


def _iae(preset: ProtocolPreset):
    """I_AE in nats, averaged over the protocol bases, as an objective of
    amplitude arrays; I_AB is not computed."""
    def objective(*amps):
        i_ae = _basis_information(preset, amps)[1]  # never -0.0, so 0 + I and I / 1 are I
        return i_ae[0] if len(i_ae) == 1 else sum(i_ae) / len(i_ae)
    return objective


def _iab_nats(f_a: float, dim: int) -> float:
    e = (1.0 - f_a) / (dim - 1)
    return math.log(dim) - float(_entropy_nats([f_a] + [e] * (dim - 1)))


# ---------------------------------------------------------------------------
# Brent's method


def _root(g, lo, hi, what, maxiter):
    """Root of g in [lo, hi]; any failure of ``_brentq`` raises ``CrossingError``."""
    try:
        return _brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        raise CrossingError(f"Brent's method failed for {what} on the bracket "
                            f"[{lo:.10f}, {hi:.10f}]: {exc}") from exc


# ---------------------------------------------------------------------------
# crossing point


@dataclass(frozen=True)
class CrossingResult:
    """Solution of max F_A subject to I_AE = I_AB on a preset's manifold."""

    preset: str
    f_a_star: float
    params_star: dict[str, float]
    error_rate: float
    residual: float
    iterations: int
    log_base: str
    i_ab: float
    i_ae: float

    def cloner_params(self) -> ClonerParams:
        """The solution as (v, x, y, z = y) cloner parameters (3deb, universal)."""
        preset = PRESETS[self.preset]
        if preset.cloner is None:
            raise ValueError(f"preset {self.preset!r} does not map onto "
                             "(v, x, y, z = y) qutrit cloner parameters")
        return preset.cloner(*preset.amplitudes_of(self.params_star))


@lru_cache(maxsize=None)
def _crossing_core(preset_name: str) -> tuple[float, tuple, float, int]:
    """Base-independent crossing solve; returns (F*, params items, residual nats, iters).

    Brent's method finds the root of g(F) = max I_AE(F) - I_AB(F) inside
    the rightmost sign change of g on a 13-point grid.  Level 0 of the
    nested grid runs once on all 13 points (``_level0``), and only the
    points from the rightmost one whose level-0 g is > 0 on are nested
    (``_nest_pairs``).  That is exact: a nest moves only on a strict gain
    and each pair's level-0 maximum is one of its starts, so a point's
    final g is at least its level-0 g, and the rightmost sign change lies
    among the nested points.  If g stays > 0 on all of them, the rest of
    the grid is nested too.  The nested values equal each fidelity's
    maximum alone, so Brent reads its two endpoint values from them; ``g``
    maximizes only the fidelities off the grid.  Points are amplitude
    tuples throughout; the parameter names are attached once, to the
    returned items.  ``iters`` counts every g request, the 13 grid points
    included.  A Brent run that does not converge raises ``CrossingError``.
    """
    preset = PRESETS[preset_name]
    d = preset.dimension
    lo, hi = 1.0 / d + 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 13).tolist()
    iab = [_iab_nats(f, d) for f in grid]
    iae = _iae(preset)
    f, fu, u = _level0(preset, np.array(grid), iae)
    fp0 = fu[:, 0]  # each pair's level-0 maximum, a lower bound of its final value
    g0 = fp0[_winning_branches(fp0)] - iab
    right = max([m for m in range(len(grid)) if g0[m] > 0.0], default=0)
    solved, gv, bracket = {}, {}, None
    for first, last in (right, len(grid)), (0, right):  # the rest, if g > 0 on all of them
        pairs = np.arange(2 * first, 2 * last)
        found = _branch_maxima(preset, np.array(grid[first:last]),
                               *_nest_pairs(f, fu[pairs], u[pairs], pairs))
        for m, pair in zip(range(first, last), found):
            solved[grid[m]], gv[m] = pair, pair[0] - iab[m]
        bracket = max((i for i in range(first, last - 1) if gv[i] > 0.0 >= gv[i + 1]),
                      default=None)  # rightmost sign change wins
        if bracket is not None or not right:
            break
    if bracket is None:
        raise CrossingError(
            f"no information crossing found for preset {preset_name!r} in "
            f"[{lo:.4f}, {hi:.4f}]")
    ends, evals = grid[bracket:bracket + 2], len(grid)

    def g(f_a: float) -> float:
        nonlocal evals
        evals += 1
        if f_a not in solved:
            solved[f_a] = _maximize_on(preset, f_a, iae)
        return solved[f_a][0] - _iab_nats(f_a, d)

    f_star = _root(g, ends[0], ends[1], f"preset {preset_name!r}", maxiter=200)
    best, amps = solved[f_star]  # _brentq returns a point it has evaluated
    residual = abs(best - _iab_nats(f_star, d))
    # the 1e-8 budget must survive conversion into any supported log base;
    # base 2 has the smallest divisor
    if residual > RESIDUAL_TOL * math.log(2.0):
        raise CrossingError(
            f"crossing solver did not converge for {preset_name!r}: "
            f"residual {residual:.2e}")
    return f_star, tuple(sorted(zip(preset.free_params, amps))), residual, evals


def crossing_point(preset="3deb", base=2) -> CrossingResult:
    """Locate the fidelity where the attacker's information meets the receiver's."""
    preset = resolve_preset(preset)
    lb = _log_of_base(base)
    f_star, items, residual_nats, iters = _crossing_core(preset.name)
    vals = dict(items)
    i_ab, i_ae = preset_information(preset, vals, base=base)
    return CrossingResult(
        preset=preset.name,
        f_a_star=f_star,
        params_star=vals,
        error_rate=1.0 - f_star,
        residual=residual_nats / lb,
        iterations=iters,
        log_base=_base_label(base),
        i_ab=i_ab,
        i_ae=i_ae,
    )


# ---------------------------------------------------------------------------
# symmetric point


@dataclass(frozen=True)
class SymmetricResult:
    fidelity: float
    params: dict[str, float]
    fidelity_gap: float


def symmetric_point(preset="3deb") -> SymmetricResult:
    """Largest common fidelity F_A = F_B on the constrained (y = z) surface.

    Solved as a root-find on h(F) = [max F_B over the F_A = F manifold] - F:
    below the symmetric point the attacker-side clone can still beat F,
    above it it cannot, so the root is the maximal common value.  A Brent
    run that does not converge raises ``CrossingError``.
    """
    preset = resolve_preset(preset)
    if preset.name != "3deb":
        raise ValueError("symmetric point is defined for the 3deb preset")

    solved = {}

    def max_fb(f_a: float):
        if f_a not in solved:
            solved[f_a] = _maximize_on(preset, f_a, lambda v, x, y:
                                       (1.0 + 6.0 * y * y + 8.0 * x * y + 4.0 * v * y) / 3.0)
        return solved[f_a]

    f_sym = _root(lambda f: max_fb(f)[0] - f, 0.40, 0.95, "the symmetric point", maxiter=100)
    params = preset.cloner(*solved[f_sym][1]).normalized()  # a point _brentq evaluated
    rep = closed_form_report(params)
    gap = abs(rep.f_a - rep.f_b)
    if gap > RESIDUAL_TOL:
        raise CrossingError(f"symmetric point did not converge: |F_A - F_B| = {gap:.2e}")
    return SymmetricResult(fidelity=rep.f_a,
                           params={"v": params.v, "x": params.x, "y": params.y},
                           fidelity_gap=gap)


# ---------------------------------------------------------------------------
# thresholds and the comparison table


def fidelity_from_visibility(v: float) -> float:
    """Fidelity of the noise-admixed entangled state: (2/3) V + 1/3."""
    return 2.0 * v / 3.0 + 1.0 / 3.0


@dataclass(frozen=True)
class ThresholdConstants:
    """Nonlocality and security threshold constants for the comparison."""

    visibility_threshold: float
    bell_fidelity_threshold: float
    qubit_fidelity_threshold: float
    security_threshold_3deb: float
    kaszlikowski_visibility: float
    kaszlikowski_fidelity: float


def thresholds() -> ThresholdConstants:
    v_thr = (6.0 * math.sqrt(3.0) - 9.0) / 2.0
    return ThresholdConstants(
        visibility_threshold=v_thr,
        bell_fidelity_threshold=fidelity_from_visibility(v_thr),
        qubit_fidelity_threshold=0.5 + 1.0 / math.sqrt(8.0),
        security_threshold_3deb=1.0 - REFERENCE_ERROR_RATES["3deb"],
        kaszlikowski_visibility=0.6629,
        kaszlikowski_fidelity=fidelity_from_visibility(0.6629),
    )


@dataclass(frozen=True)
class ErrorRateRow:
    protocol: str
    preset: str
    f_a_star: float
    error_rate: float
    paper_value: float
    delta: float


def error_rate_table() -> list[ErrorRateRow]:
    """Acceptable error rate 1 - F_A* per protocol, computed from the
    crossing solver and compared against the published reference values."""
    rows = []
    for key in ("3deb", "universal", "2mub", "qubit"):
        res = crossing_point(key, base=2)
        err = 1.0 - res.f_a_star
        ref = REFERENCE_ERROR_RATES[key]
        rows.append(ErrorRateRow(
            protocol=PROTOCOL_LABELS[key],
            preset=key,
            f_a_star=res.f_a_star,
            error_rate=err,
            paper_value=ref,
            delta=err - ref,
        ))
    return rows


# ---------------------------------------------------------------------------
# consolidated report


@dataclass(frozen=True)
class InfoReport:
    """Fidelities, disturbances, information and rate bound of one cloner."""

    f_a: float
    f_b: float
    d_a1: float
    d_a2: float
    d_b1: float
    d_b2: float
    i_ab: float
    i_ae: float
    r_bound: float
    log_base: str
    f_b_closed_form: bool

    def __post_init__(self):
        lim = LOG3 / _log_of_base(self.log_base)
        if not (-1e-9 <= self.i_ab <= lim + 1e-9 and -1e-9 <= self.i_ae <= lim + 1e-9):
            raise ValueError("information out of range for a trit")


def info_report(params: ClonerParams, base=2) -> InfoReport:
    """Full closed-form report for a constrained y = z cloner."""
    rep: FidelityReport = closed_form_report(params)
    i_ab = bob_information(rep.f_a, base)
    i_ae = eve_information(params, base)
    return InfoReport(
        f_a=rep.f_a, f_b=rep.f_b,
        d_a1=rep.d_a1, d_a2=rep.d_a2, d_b1=rep.d_b1, d_b2=rep.d_b2,
        i_ab=i_ab, i_ae=i_ae,
        r_bound=ck_rate_bound(i_ab, i_ae, i_ae),
        log_base=_base_label(base),
        f_b_closed_form=rep.f_b_closed_form,
    )


def information_sweep(preset="3deb", start=0.70, stop=0.85, points=151, base=2):
    """Rows of (F_A, best-attack params, F_B, I_AB, I_AE, R_bound) on a grid.

    At each grid fidelity the attack is optimized (I_AE maximized) on the
    preset manifold, which makes the sign change of I_AB - I_AE locate the
    crossing point.  Every row is kept in memory, so a grid of more than
    ``_SWEEP_POINTS_MAX`` points is refused before any is allocated.
    """
    preset = resolve_preset(preset)
    if points < 1:
        raise ValueError("grid needs at least one point")
    if points > _SWEEP_POINTS_MAX:
        raise ValueError(f"grid takes at most {_SWEEP_POINTS_MAX} points, got {points}")
    d = preset.dimension
    if not (1.0 / d <= start <= stop <= 1.0):
        raise ValueError(f"fidelity grid [{start}, {stop}] outside [1/{d}, 1]")
    lb = _log_of_base(base)
    rows = []
    grid = np.linspace(start, stop, points)
    for f_a, (best, amps) in zip(grid, _maximize_on(preset, grid, _iae(preset))):
        f_a = float(f_a)
        if best <= _INFEASIBLE / 2:
            continue
        i_ab = _iab_nats(f_a, d) / lb
        i_ae = best / lb
        f_b = None
        if preset.cloner is not None:
            f_b = closed_form_report(preset.cloner(*amps).normalized()).f_b
        rows.append({
            "f_a": f_a,
            "params": dict(zip(preset.free_params, amps)),
            "f_b": f_b,
            "i_ab": i_ab,
            "i_ae": i_ae,
            "r_bound": i_ab - i_ae,
        })
    return rows
