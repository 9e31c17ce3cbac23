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
have closed forms in the cloner parameters (``cloner.coefficient_rows``),
so both I_AB and I_AE reduce to short entropy expressions; see
``_iab_iae_rows``.

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
one set of coefficient rows per protocol basis (see ``ProtocolPreset``);
one angle chart, ``ProtocolPreset.chart``, maps a point of the box
[-pi/2, pi/2]^(k-1) and a sign branch onto the ellipsoid.  One maximizer,
``_maximize_on``, searches that box for the attacker's information, the
symmetric point and the information sweep alike; the universal preset is
the case with no angle at all.

The 2mub and qubit masks are reconstructions validated against their
published crossing fidelities ((1 + 1/sqrt(d))/2: 0.7887 and
1/2 + 1/sqrt(8)); the tests report any mismatch rather than forcing
agreement.

The crossing solver follows a two-level strategy: an outer scalar
root-find on F_A of g(F) = [max I_AE over the constraint surface at fixed
F] - I_AB(F), with the inner maximization done by a deterministic
derivative-free pattern search from 16 fixed-seed restarts on each sign
branch.  The searches run in lockstep (``_pattern_search``): every
compass move evaluates the objective once, on the stacked candidates of
the searches still active, so the chart, the coefficient rows and the
entropy helper all take arrays of points.  One batch may hold several
fidelities, laid out fidelity x sign x restart with each lane carrying
its own F_A; ``_maximize_on`` takes one fidelity or an array of them and
searches at most ``_FIDELITY_BLOCK`` fidelities per batch, so the
13-point bracket grid of the crossing solver is one batch and a sweep's
memory does not grow with its length.  Brent's steps and the symmetric
point are sequential and use the one-fidelity form.  Each search still
makes the moves it would make alone, and every lane of a batch is
bit-equal to its point evaluated on its own.  The crossing condition is
invariant under the choice of log base, so the base only affects
reported information values.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .cloner import ClonerParams, FidelityReport, closed_form_report, coefficient_rows

LOG3 = math.log(3.0)

RESIDUAL_TOL = 1e-8
PARAM_TOL = 1e-9
N_RESTARTS = 16
_COARSE_TOL = 1e-5
_RESTART_SEED = 0x3DEB
#: fidelities per lockstep batch of the inner maximizer: at least the 13
#: of the crossing solver's bracket grid, and a bound on a sweep's memory
_FIDELITY_BLOCK = 32
_INFEASIBLE = -1e18

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
    if base in ("e", "E", math.e):
        return 1.0
    b = float(base)
    if b <= 1.0:
        raise ValueError(f"log base must exceed 1, got {base!r}")
    return math.log(b)


def _base_label(base) -> str:
    if base in ("e", "E", math.e):
        return "e"
    b = float(base)
    return str(int(b)) if b == int(b) else str(b)


def shannon_entropy(p, base=2) -> float:
    """-sum p_i log(p_i); entries below 1e-15 contribute nothing."""
    lb = _log_of_base(base)
    p = tuple(p)  # read twice below; a one-pass iterable must still work
    total = 0.0
    for pi in p:
        if pi < -1e-12:
            raise ValueError(f"negative probability {pi!r}")
        total += pi
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return float(_entropy_nats(p)) / lb


def _entropy_nats(ps):
    """-sum_i p_i log(p_i) in nats over the leading axis of ``ps``.

    Terms are added in index order and entries at or below 1e-15
    contribute nothing, so a stack of distributions ps[i, ...] gives one
    entropy per trailing index, each equal to that distribution's alone.
    """
    p = np.asarray(ps, dtype=float)
    live = p > 1e-15
    terms = np.log(p, out=np.zeros(p.shape), where=live)
    np.multiply(terms, p, out=terms, where=live)
    acc = 0.0
    for t in terms:
        acc = acc - t
    return acc


def bob_information(f_a: float, base=2) -> float:
    """Receiver's information log(3) - H[F_A, (1-F_A)/2, (1-F_A)/2]."""
    if not (1.0 / 3.0 - 1e-12 <= f_a <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {f_a!r} outside [1/3, 1]")
    return _iab_nats(f_a, 3) / _log_of_base(base)


def _iab_iae_rows(rows, dim: int):
    """(I_AB, I_AE) in nats from coefficient rows c[m, j].

    P(error = m) = sum_j c[m,j]^2 / dim; conditionally on m the offset
    between the attacker's clone outcome and the sender's symbol is
    distributed as c[m,j]^2 / (dim P(m)).  Axes after m and j are a batch
    (protocol bases, points): the result holds one (I_AB, I_AE) per batch
    index, each bit-equal to that index's alone, as every sum runs in
    index order and rows of weight <= 1e-15 add exactly 0.
    """
    logd = math.log(dim)
    c2 = np.square(np.asarray(rows, dtype=float))
    w = c2[:, 0]
    for j in range(1, dim):
        w = w + c2[:, j]
    w = w / dim
    live = w > 1e-15
    cond = c2 / np.where(live, dim * w, 1.0)[:, None]
    s = cond[:, 0]
    for j in range(1, dim):
        s = s + cond[:, j]
    bad = live & (np.abs(s - 1.0) > 1e-9)
    if np.count_nonzero(bad):
        raise ValueError(f"conditional distribution sums to {float(s[bad][0])!r}")
    # one entropy call: h[0] is H(w), h[1 + m] is H(cond[m, :])
    h = _entropy_nats(np.concatenate((w[:, None], cond.swapaxes(0, 1)), axis=1))
    terms = np.where(live, w * (logd - h[1:]), 0.0)
    i_ae = 0.0
    for t in terms:
        i_ae = i_ae + t
    return logd - h[0], i_ae


def eve_information(params: ClonerParams, base=2) -> float:
    """Attacker's average information for a y = z constrained cloner.

    I_AE = F_A I(A:E | m=0) + (1-F_A) I(A:E | m!=0) with F_A = v^2 + 2y^2;
    the m = 0 conditional is [(v+2y)^2, (v-y)^2, (v-y)^2] / (3 F_A) and the
    m != 0 one is [2(x+2y)^2, 2(x-y)^2, 2(x-y)^2] / (3 (1-F_A)).  Branches
    whose weight vanishes are skipped, so the F_A = 1 limit is exact.
    """
    params.require_normalized()
    params.require_symmetric()
    _, i_ae = _iab_iae_rows(coefficient_rows(params.v, params.y, params.x, params.y), 3)
    return float(i_ae) / _log_of_base(base)


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

    * ``rows(*amplitudes)`` -- one set of coefficient rows c[m, :] per
      protocol basis;
    * ``cloner(*amplitudes)`` -- the same point as (v, x, y, z = y) qutrit
      cloner parameters, or ``None`` for masks outside that family.
    """

    name: str
    dimension: int
    free_params: tuple[str, ...]
    e: tuple[float, ...]
    g: tuple[float, ...]
    rows: Callable[..., tuple]
    cloner: Callable[..., ClonerParams] | None = None

    def amplitudes_of(self, values: dict[str, float]) -> tuple[float, ...]:
        return tuple(values[p] for p in self.free_params)

    def chart(self, f_a, angles, signs):
        """The amplitudes (v, a_1, ..., a_k) at pinned F_A, one array each.

        ``angles`` has shape (K, k - 1) and ``signs`` shape (K,), or
        (k - 1,) and a scalar for one point; each amplitude then has shape
        (K,), or is 0-d.  ``f_a`` is one fidelity for every point or one
        per point, shape (K,).  a_i = sqrt((1 - F_A) / e_i) s_i, with s the
        hyperspherical unit vector s_1 = sign cos t_1,
        s_2 = sin t_1 cos t_2, ..., s_k = sin t_1 ... sin t_{k-1}.  With
        every angle in [-pi/2, pi/2] the two signs cover the ellipsoid, and
        they meet on the faces t_1 = +-pi/2 of that box.  Where v^2 < 0 the
        point is infeasible and v is ``_INFEASIBLE``.
        """
        angles = np.asarray(angles, dtype=float)
        cos, sin = np.cos(angles), np.sin(angles)
        # r starts with the batch shape, so that amplitudes have it even
        # with no angle at all (universal)
        amps, v2, r = [], f_a, np.ones(np.shape(signs))
        radii = np.sqrt(np.divide.outer(1.0 - np.asarray(f_a), self.e))
        for i, g in enumerate(self.g):
            a = radii[..., i] * r
            if i < angles.shape[-1]:
                a, r = a * cos[..., i], r * sin[..., i]
            if g:
                v2 = v2 - g * a * a
            amps.append(a)
        amps[0] = amps[0] * signs
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
        rows=lambda v, x, y: (coefficient_rows(v, y, x, y, d),),
        cloner=(lambda v, x, y: ClonerParams(v, x, y, y)) if d == 3 else None)


PRESETS = {
    "3deb": _phase_covariant("3deb", 3),
    # the universal cloners [[v,y,y],[y,y,y],[y,y,y]] clone every state
    # with the same fidelity: v^2 + 8y^2 = 1 and F_A = v^2 + 2y^2 leave
    # 6y^2 = 1 - F_A, no freedom beyond the sign
    "universal": ProtocolPreset(
        "universal", 3, ("v", "y"), e=(6,), g=(2,),
        rows=lambda v, y: (coefficient_rows(v, y, y, y),),
        cloner=lambda v, y: ClonerParams(v, y, y, y)),
    # the two-basis cloners [[v,x,x],[x',y,y],[x',y,y]]: x^2 + x'^2 + 4y^2
    # = 1 - F_A and v^2 = F_A - x^2 - x'^2; computational-basis rows
    # first, the Fourier basis swaps x and x'
    "2mub": ProtocolPreset(
        "2mub", 3, ("v", "x", "xp", "y"), e=(1, 1, 4), g=(1, 1, 0),
        rows=lambda v, x, xp, y: (coefficient_rows(v, x, xp, y),
                                  coefficient_rows(v, xp, x, y))),
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


def _mean_information(preset: ProtocolPreset, amps):
    """(I_AB, I_AE) in nats, averaged over the preset's protocol bases;
    the amplitudes may be arrays of points."""
    rowsets = np.asarray(preset.rows(*amps), dtype=float)  # [basis, m, j, ...]
    i_ab, i_ae = _iab_iae_rows(rowsets.swapaxes(0, 1).swapaxes(1, 2), preset.dimension)
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


def preset_fidelity(preset, values: dict[str, float]) -> float:
    """Protocol-averaged fidelity of the receiver's clone: the mean weight
    of the error-free row m = 0 over the protocol bases."""
    preset = resolve_preset(preset)
    rowsets = preset.rows(*preset.amplitudes_of(values))
    return (sum(sum(c * c for c in rows[0]) for rows in rowsets)
            / (len(rowsets) * preset.dimension))


# ---------------------------------------------------------------------------
# derivative-free inner maximization


def _pattern_search(f, lo, hi, x0, tol=PARAM_TOL, initial_step=None, max_sweeps=10_000):
    """Maximize over a box by compass search with step halving, K searches
    in lockstep.

    ``x0`` is a (K, n) array of starting points and ``lo``, ``hi`` the box
    corners, shape (n,).  ``f(u, k)`` returns the objective, shape (m,),
    of searches ``k`` (an index array of length m) at the points ``u``,
    shape (m, n).  At each (coordinate, +-step) move the searches still
    active are evaluated together; each one accepts a strictly better
    point, halves its own steps after a sweep with no gain and stops once
    its steps are within ``tol``, so it makes the moves it would make
    alone.  Returns the values (K,) and the points (K, n).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x = np.minimum(np.maximum(np.array(x0, dtype=float), lo), hi)
    fx = f(x, np.arange(len(x)))
    steps = np.zeros_like(x) + (initial_step or (hi - lo) / 4.0)
    for _ in range(max_sweeps):
        active = steps.max(axis=1) > tol
        if not np.count_nonzero(active):
            break
        improved = np.zeros(len(x), dtype=bool)
        for i in range(x.shape[1]):
            for d in (steps[:, i], -steps[:, i]):
                xi = np.minimum(np.maximum(x[:, i] + d, lo[i]), hi[i])
                k = (active & (xi != x[:, i])).nonzero()[0]
                if k.size == 0:
                    continue
                cand = x[k]
                cand[:, i] = xi[k]
                fc = f(cand, k)
                up = fc > fx[k]
                if np.count_nonzero(up):
                    k, cand, fc = k[up], cand[up], fc[up]
                    x[k], fx[k], improved[k] = cand, fc, True
        steps[active & ~improved] /= 2.0
    return fx, x


def _restart_points(lo, hi, n_restarts: int) -> list[list[float]]:
    """Fixed-seed restart grid: box midpoint plus pseudo-random interior points."""
    ndim = len(lo)
    pts = [[(lo[i] + hi[i]) / 2.0 for i in range(ndim)]]
    rng = np.random.Generator(np.random.Philox(key=_RESTART_SEED))
    for _ in range(n_restarts - 1):
        u = rng.random(ndim)
        pts.append([float(lo[i] + u[i] * (hi[i] - lo[i])) for i in range(ndim)])
    return pts


def _charted(preset: ProtocolPreset, f_a, objective):
    """``objective`` as a function of chart points at pinned F_A (one value,
    or one per point): it maps angles (K, n) and signs (K,) to the K
    values, ``_INFEASIBLE`` where v^2 < 0."""
    def f(angles, signs):
        amps = preset.chart(f_a, angles, signs)
        return np.where(amps[0] == _INFEASIBLE, _INFEASIBLE, objective(*amps))
    return f


def _maximize_on(preset: ProtocolPreset, f_a, objective):
    """Maximize objective(*amplitudes) over the preset manifold at pinned F_A.

    The manifold is the preset's ellipsoid, searched through its angle
    chart on the box [-pi/2, pi/2]^(k-1) on both sign branches; the seam
    between the branches is a face of that box.  ``objective`` takes one
    amplitude array per free parameter, shape (K,), and returns the K
    values as an array.

    ``f_a`` is one fidelity, or a 1-D array of them searched together in
    blocks of at most ``_FIDELITY_BLOCK``.  For the M fidelities of a
    block, the 16 restarts of both branches run as one lockstep batch of
    M x 2 x 16 searches (lane (m * 2 + s) * 16 + r: fidelity m, sign s,
    restart r) to ``_COARSE_TOL``.  Each (fidelity, sign) pair's best
    restart, the lowest index among equals, is then polished from step
    100 * ``_COARSE_TOL`` down to ``PARAM_TOL``, the M x 2 polishes again
    in lockstep.  Each lane carries its own F_A and sign and makes the
    moves it would make alone.  Returns (best, amplitudes) for one
    fidelity, with amplitudes None when no point is feasible, and a list
    of such pairs for an array.
    """
    n = len(preset.e) - 1
    lo, hi = [-math.pi / 2] * n, [math.pi / 2] * n
    branches = np.array([1.0, -1.0])

    def lanes(f_lane, s_lane):
        return lambda u, k: _charted(preset, f_lane[k], objective)(u, s_lane[k])

    fids = np.atleast_1d(np.asarray(f_a, dtype=float))
    found = []
    for start in range(0, len(fids), _FIDELITY_BLOCK):
        block = fids[start:start + _FIDELITY_BLOCK]
        pairs = 2 * len(block)  # (fidelity, sign) lanes m * 2 + s
        f_pair, s_pair = np.repeat(block, 2), np.tile(branches, len(block))
        if n == 0:
            u = np.empty((pairs, 0))
            fv = _charted(preset, f_pair, objective)(u, s_pair)
        else:
            starts = np.tile(_restart_points(lo, hi, N_RESTARTS), (pairs, 1))
            fc, uc = _pattern_search(
                lanes(np.repeat(block, 2 * N_RESTARTS), np.repeat(s_pair, N_RESTARTS)),
                lo, hi, starts, tol=_COARSE_TOL)
            win = (fc.reshape(pairs, N_RESTARTS).argmax(axis=1)
                   + N_RESTARTS * np.arange(pairs))
            fp, up = _pattern_search(lanes(f_pair, s_pair), lo, hi, uc[win],
                                     tol=PARAM_TOL, initial_step=100 * _COARSE_TOL)
            keep = fp >= fc[win]
            fv, u = np.where(keep, fp, fc[win]), np.where(keep[:, None], up, uc[win])
        for m, fid in enumerate(block):
            best, best_amps = _INFEASIBLE, None
            for lane in (2 * m, 2 * m + 1):
                if fv[lane] > best:
                    best = float(fv[lane])
                    best_amps = tuple(float(a) for a in
                                      preset.chart(fid, u[lane], s_pair[lane]))
            found.append((best, best_amps))
    return found if np.ndim(f_a) else found[0]


def _max_iae_at(preset: ProtocolPreset, f_a):
    """Maximize I_AE (nats), averaged over the protocol bases, with the
    fidelity pinned; returns the maximum and its parameter assignment, or
    a list of such pairs for a 1-D array of fidelities."""
    def named(best, amps):
        return best, ({} if amps is None else dict(zip(preset.free_params, amps)))

    found = _maximize_on(preset, f_a, lambda *amps: _mean_information(preset, amps)[1])
    return [named(*pair) for pair in found] if np.ndim(f_a) else named(*found)


def _iab_nats(f_a: float, dim: int) -> float:
    e = (1.0 - f_a) / (dim - 1)
    return math.log(dim) - float(_entropy_nats([f_a] + [e] * (dim - 1)))


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
    """Base-independent crossing solve; returns (F*, params items, residual nats, iters)."""
    preset = PRESETS[preset_name]
    d = preset.dimension
    lo, hi = 1.0 / d + 1e-9, 1.0 - 1e-9
    grid = np.linspace(lo, hi, 13)
    gv = [best - _iab_nats(f, d) for f, (best, _) in zip(grid, _max_iae_at(preset, grid))]
    evals = len(grid)
    solved = {}

    def g(f_a: float) -> float:
        nonlocal evals
        evals += 1
        solved[f_a] = _max_iae_at(preset, f_a)
        return solved[f_a][0] - _iab_nats(f_a, d)

    bracket = None
    for i in range(len(grid) - 1):
        if gv[i] > 0.0 >= gv[i + 1]:
            bracket = (grid[i], grid[i + 1])  # rightmost sign change wins
    if bracket is None:
        raise CrossingError(
            f"no information crossing found for preset {preset_name!r} in "
            f"[{lo:.4f}, {hi:.4f}]")

    f_star = brentq(g, bracket[0], bracket[1], xtol=1e-13, rtol=8.9e-16, maxiter=200)
    best, vals = solved[f_star]  # brentq returns a point it has evaluated
    residual = abs(best - _iab_nats(f_star, d))
    # the 1e-8 budget must survive conversion into any supported log base;
    # base 2 has the smallest divisor
    if residual > RESIDUAL_TOL * math.log(2.0):
        raise CrossingError(
            f"crossing solver did not converge for {preset_name!r}: "
            f"residual {residual:.2e}")
    return f_star, tuple(sorted(vals.items())), residual, evals


def crossing_point(preset="3deb", base=2) -> CrossingResult:
    """Locate the fidelity where the attacker's information meets the receiver's."""
    preset = resolve_preset(preset)
    f_star, items, residual_nats, iters = _crossing_core(preset.name)
    vals = dict(items)
    lb = _log_of_base(base)
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
    above it it cannot, so the root is the maximal common value.
    """
    preset = resolve_preset(preset)
    if preset.name != "3deb":
        raise ValueError("symmetric point is defined for the 3deb preset")

    def max_fb(f_a: float):
        return _maximize_on(preset, f_a, lambda v, x, y:
                            (1.0 + 6.0 * y * y + 8.0 * x * y + 4.0 * v * y) / 3.0)

    f_sym = brentq(lambda f: max_fb(f)[0] - f, 0.40, 0.95, xtol=1e-13, rtol=8.9e-16)
    params = preset.cloner(*max_fb(f_sym)[1]).normalized()
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
    params.require_normalized()
    params.require_symmetric()
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
    crossing point.
    """
    preset = resolve_preset(preset)
    if points < 1:
        raise ValueError("grid needs at least one point")
    d = preset.dimension
    if not (1.0 / d <= start <= stop <= 1.0):
        raise ValueError(f"fidelity grid [{start}, {stop}] outside [1/{d}, 1]")
    lb = _log_of_base(base)
    rows = []
    grid = np.linspace(start, stop, points)
    for f_a, (best, vals) in zip(grid, _max_iae_at(preset, grid)):
        f_a = float(f_a)
        if best <= _INFEASIBLE / 2:
            continue
        i_ab = _iab_nats(f_a, d) / lb
        i_ae = best / lb
        f_b = None
        if preset.cloner is not None:
            p = preset.cloner(*preset.amplitudes_of(vals))
            f_b = closed_form_report(p.normalized()).f_b
        rows.append({
            "f_a": f_a,
            "params": vals,
            "f_b": f_b,
            "i_ab": i_ab,
            "i_ae": i_ae,
            "r_bound": i_ab - i_ae,
        })
    return rows
