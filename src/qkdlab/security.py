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
derivative-free pattern search from 16 fixed-seed restarts.  The crossing
condition is invariant under the choice of log base, so the base only
affects reported information values.
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
_RESTART_SEED = 0x3DEB

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
    return _entropy_nats(p) / lb


def _entropy_nats(ps) -> float:
    acc = 0.0
    for p in ps:
        if p > 1e-15:
            acc -= p * math.log(p)
    return acc


def bob_information(f_a: float, base=2) -> float:
    """Receiver's information log(3) - H[F_A, (1-F_A)/2, (1-F_A)/2]."""
    if not (1.0 / 3.0 - 1e-12 <= f_a <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {f_a!r} outside [1/3, 1]")
    return _iab_nats(f_a, 3) / _log_of_base(base)


def _iab_iae_rows(rows, dim: int) -> tuple[float, float]:
    """(I_AB, I_AE) in nats from coefficient rows c[m, :].

    P(error = m) = sum_j c[m,j]^2 / dim; conditionally on m the offset
    between the attacker's clone outcome and the sender's symbol is
    distributed as c[m,j]^2 / (dim P(m)).
    """
    logd = math.log(dim)
    weights = [sum(c * c for c in row) / dim for row in rows]
    i_ab = logd - _entropy_nats(weights)
    i_ae = 0.0
    for w, row in zip(weights, rows):
        if w > 1e-15:
            cond = [c * c / (dim * w) for c in row]
            s = sum(cond)
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"conditional distribution sums to {s!r}")
            i_ae += w * (logd - _entropy_nats(cond))
    return i_ab, i_ae


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
    return i_ae / _log_of_base(base)


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

    def chart(self, f_a: float, angles, sign: float) -> tuple[float, ...] | None:
        """The amplitudes (v, a_1, ..., a_k) at pinned F_A, or ``None``
        where v^2 < 0.

        a_i = sqrt((1 - F_A) / e_i) s_i, with s the hyperspherical unit
        vector s_1 = sign cos t_1, s_2 = sin t_1 cos t_2, ...,
        s_k = sin t_1 ... sin t_{k-1}.  With every angle in [-pi/2, pi/2]
        the two signs cover the ellipsoid, and they meet on the faces
        t_1 = +-pi/2 of that box.
        """
        amps, v2, r = [], f_a, 1.0
        for e, g, t in zip(self.e, self.g, (*angles, 0.0)):
            a = math.sqrt((1.0 - f_a) / e) * r * math.cos(t)
            r *= math.sin(t)
            v2 -= g * a * a
            amps.append(a)
        if v2 < 0:
            return None
        amps[0] *= sign
        return (math.sqrt(v2), *amps)


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


def _mean_information(preset: ProtocolPreset, amps) -> tuple[float, float]:
    """(I_AB, I_AE) in nats, averaged over the preset's protocol bases."""
    pairs = [_iab_iae_rows(rows, preset.dimension) for rows in preset.rows(*amps)]
    return (sum(i_ab for i_ab, _ in pairs) / len(pairs),
            sum(i_ae for _, i_ae in pairs) / len(pairs))


def preset_information(preset, values: dict[str, float], base=2) -> tuple[float, float]:
    """(I_AB, I_AE) for a parameter assignment of a preset's mask.

    Both quantities are averaged over the preset's protocol bases; only
    the two-basis mask has more than one inequivalent basis.
    """
    preset = resolve_preset(preset)
    lb = _log_of_base(base)
    i_ab, i_ae = _mean_information(preset, preset.amplitudes_of(values))
    return i_ab / lb, i_ae / lb


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
    """Maximize f over a box by compass search with step halving."""
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


def _restart_points(lo, hi, n_restarts: int) -> list[list[float]]:
    """Fixed-seed restart grid: box midpoint plus pseudo-random interior points."""
    ndim = len(lo)
    pts = [[(lo[i] + hi[i]) / 2.0 for i in range(ndim)]]
    rng = np.random.Generator(np.random.Philox(key=_RESTART_SEED))
    for _ in range(n_restarts - 1):
        u = rng.random(ndim)
        pts.append([float(lo[i] + u[i] * (hi[i] - lo[i])) for i in range(ndim)])
    return pts


def _maximize_with_restarts(f, lo, hi, n_restarts=N_RESTARTS, coarse_tol=1e-5):
    """Restarts locate the basin at coarse tolerance; the best point is then
    polished down to the full parameter tolerance."""
    if all(h - l <= 0 for l, h in zip(lo, hi)):
        x = list(lo)
        return f(x), x
    results = [_pattern_search(f, lo, hi, x0, tol=coarse_tol)
               for x0 in _restart_points(lo, hi, n_restarts)]
    best_f, best_x = results[0]
    for fv, xv in results[1:]:  # strict > keeps the lowest restart index on ties
        if fv > best_f:
            best_f, best_x = fv, xv
    fp, xp_ = _pattern_search(f, lo, hi, best_x, tol=PARAM_TOL,
                              initial_step=100 * coarse_tol)
    return (fp, xp_) if fp >= best_f else (best_f, best_x)


_INFEASIBLE = -1e18


def _maximize_on(preset: ProtocolPreset, f_a: float, objective):
    """Maximize objective(*amplitudes) over the preset manifold at pinned F_A.

    The manifold is the preset's ellipsoid, searched through its angle
    chart on the box [-pi/2, pi/2]^(k-1) once per sign branch; the seam
    between the branches is a face of that box.  Returns (best,
    amplitudes), with amplitudes None when no point is feasible.
    """
    n = len(preset.e) - 1
    lo, hi = [-math.pi / 2] * n, [math.pi / 2] * n
    chart = preset.chart
    best, best_amps = _INFEASIBLE, None
    for sign in (1.0, -1.0):
        def f(u, sign=sign):
            amps = chart(f_a, u, sign)
            return _INFEASIBLE if amps is None else objective(*amps)
        fv, u = _maximize_with_restarts(f, lo, hi)
        if fv > best:
            best, best_amps = fv, chart(f_a, u, sign)
    return best, best_amps


def _max_iae_at(preset: ProtocolPreset, f_a: float) -> tuple[float, dict[str, float]]:
    """Maximize I_AE (nats), averaged over the protocol bases, with the
    fidelity pinned; returns the maximum and its parameter assignment."""
    rows, d = preset.rows, preset.dimension

    def i_ae(*amps):
        rowsets = rows(*amps)
        total = 0.0
        for r in rowsets:
            total += _iab_iae_rows(r, d)[1]
        return total / len(rowsets)

    best, amps = _maximize_on(preset, f_a, i_ae)
    return best, ({} if amps is None else dict(zip(preset.free_params, amps)))


def _iab_nats(f_a: float, dim: int) -> float:
    e = (1.0 - f_a) / (dim - 1)
    return math.log(dim) - _entropy_nats([f_a] + [e] * (dim - 1))


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
    evals = 0

    def g(f_a: float) -> float:
        nonlocal evals
        evals += 1
        best, _ = _max_iae_at(preset, f_a)
        return best - _iab_nats(f_a, d)

    grid = np.linspace(lo, hi, 13)
    gv = [g(f) for f in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if gv[i] > 0.0 >= gv[i + 1]:
            bracket = (grid[i], grid[i + 1])  # rightmost sign change wins
    if bracket is None:
        raise CrossingError(
            f"no information crossing found for preset {preset_name!r} in "
            f"[{lo:.4f}, {hi:.4f}]")

    f_star = brentq(g, bracket[0], bracket[1], xtol=1e-13, rtol=8.9e-16, maxiter=200)
    best, vals = _max_iae_at(preset, f_star)
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
    for f_a in np.linspace(start, stop, points):
        f_a = float(f_a)
        best, vals = _max_iae_at(preset, f_a)
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
