"""State-level oracles for the tests.

The library keeps the closed forms and the plain arrays a session needs;
the tests check them against these explicit constructions: checked state
and density-matrix types with partial traces, entangled and Bell states,
state overlaps, both reduced clones with their mixture cross-check, clone
fidelities read off reduced states, the phase-basis rewriting of a cloner
and its outcome tables, entropies from their definition, and the plug-in
information bias allowance.

Equality checks on states are absolute with tolerance ``TOL`` = 1e-12.
Every construction here involves only roots of unity and short sums, so
there are no conditioning issues.  States that differ by a global phase
are treated as equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qkdlab.cloner import (ClonerParams, _cloner_terms, _coefficient_entries, clone_state,
                           fourier_dual, phi_cloner_matrix, readout_table)
from qkdlab.qudit import BasisSpec, phase_basis
from qkdlab.security import _entropy_nats, _log_of_base, _spread, resolve_preset

TOL = 1e-12

# --- states ------------------------------------------------------------------


@dataclass
class StateVector:
    """Pure state of one or more qudits, unit norm enforced at construction."""

    amps: np.ndarray
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if not self.factors:
            self.factors = (self.amps.size,)
        self.factors = tuple(int(f) for f in self.factors)
        if math.prod(self.factors) != self.amps.size:
            raise ValueError(
                f"factors {self.factors} do not multiply to dim {self.amps.size}")
        norm = np.linalg.norm(self.amps)
        if abs(norm - 1.0) > TOL:
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        self.amps.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    entries: np.ndarray
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = self.entries.shape[0]
        if self.entries.ndim != 2 or self.entries.shape[1] != d:
            raise ValueError("density matrix must be square")
        if not self.factors:
            self.factors = (d,)
        self.factors = tuple(int(f) for f in self.factors)
        if math.prod(self.factors) != d:
            raise ValueError("factors inconsistent with dimension")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > TOL:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(self.entries).real - 1.0) > TOL:
            raise ValueError("density matrix trace != 1")
        if np.min(np.linalg.eigvalsh(self.entries)) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        self.entries.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_density(state: StateVector | DensityMatrix) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        return state
    return DensityMatrix(np.outer(state.amps, state.amps.conj()), state.factors)


def partial_trace(state: StateVector | DensityMatrix,
                  keep: int | tuple[int, ...] | list[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``."""
    rho = as_density(state)
    dims = list(rho.factors)
    n = len(dims)
    if isinstance(keep, int):
        keep = (keep,)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep={keep} inconsistent with {n} subsystems")
    t = rho.entries.reshape(dims + dims)
    removed = 0
    for i in range(n):
        if i in keep:
            continue
        ax = i - removed
        t = np.trace(t, axis1=ax, axis2=ax + (n - removed))
        removed += 1
    kept_dims = tuple(dims[i] for i in keep)
    d = math.prod(kept_dims)
    return DensityMatrix(t.reshape(d, d), kept_dims)


def phi_basis_state(phi: float, l: int) -> StateVector:
    """Column l of :func:`qkdlab.qudit.phase_basis`."""
    if l not in (0, 1, 2):
        raise ValueError(f"index must be 0, 1 or 2, got {l}")
    return StateVector(np.ascontiguousarray(phase_basis(phi)[:, int(l)]), (3,))



def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    return complex(np.vdot(a.amps, b.amps))


def overlap_modulus(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equals 1 iff the states agree up to a global phase."""
    return abs(overlap(a, b))


def max_entangled(n: int) -> StateVector:
    """N^{-1/2} sum_k |k>|k> on two N-dimensional registers."""
    if n < 2:
        raise ValueError(f"need dimension >= 2, got {n}")
    amps = np.zeros(n * n, dtype=complex)
    for k in range(n):
        amps[k * n + k] = 1.0 / math.sqrt(n)
    return StateVector(amps, (n, n))


def bell_state(m: int, n: int, dim: int = 3) -> StateVector:
    """Generalized Bell state: N^{-1/2} sum_k exp(2 pi i k n / N) |k>|k+m>."""
    if not (0 <= m < dim and 0 <= n < dim):
        raise ValueError(f"Bell indices ({m},{n}) out of range for dim {dim}")
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        amps[k * dim + (k + m) % dim] = np.exp(2j * math.pi * k * n / dim)
    return StateVector(amps / math.sqrt(dim), (dim, dim))


def tilde_bell_state(m: int, n: int, phi: float) -> StateVector:
    """Bell-type state written in the phase bases:

    3^{-1/2} sum_k exp(2 pi i k n / 3) |k_phi> |(k+m)_phi*>.
    """
    if not (0 <= m < 3 and 0 <= n < 3):
        raise ValueError(f"indices ({m},{n}) out of range")
    basis = phase_basis(phi)
    amps = np.zeros(9, dtype=complex)
    for k in range(3):
        w = np.exp(2j * math.pi * k * n / 3.0)
        amps += w * np.kron(basis[:, k], basis[:, (k + m) % 3].conj())
    return StateVector(amps / math.sqrt(3.0), (3, 3))


def tensor(*states: StateVector) -> StateVector:
    amps = states[0].amps
    factors: tuple[int, ...] = states[0].factors
    for s in states[1:]:
        amps = np.kron(amps, s.amps)
        factors = factors + s.factors
    return StateVector(amps, factors)


# --- cloners -----------------------------------------------------------------

IDENTITY = ClonerParams(1.0, 0.0, 0.0, 0.0)


@dataclass
class CloneOutputs:
    """Tripartite cloner output plus both reduced clones.

    ``mixture_dev_a``/``mixture_dev_b`` report the largest entrywise gap
    between each reduced state and its independent mixture-formula
    construction; both are ~1e-15 for a correctly normalized cloner.
    """

    joint: StateVector
    rho_a: DensityMatrix
    rho_b: DensityMatrix
    mixture_dev_a: float
    mixture_dev_b: float


def clone_outputs(mat: np.ndarray, psi: StateVector) -> CloneOutputs:
    """:func:`qkdlab.cloner.clone_state` of ``psi`` with both reduced clones,
    each also rebuilt as the mixture of shifted/phased inputs weighted by
    |a[m,n]|^2 (clone A) or by the squared Fourier-dual amplitudes (clone B).

    Registers of the joint state are ordered (A, B, C) = (receiver's clone,
    attacker's clone, machine), first factor slowest.
    """
    n = len(mat)
    joint_state = StateVector(clone_state(mat, psi.amps), (n, n, n))
    rho_a = partial_trace(joint_state, keep=(0,))
    rho_b = partial_trace(joint_state, keep=(1,))

    p = (np.abs(mat) ** 2).reshape(-1)
    q = (np.abs(fourier_dual(mat)) ** 2).reshape(-1)
    mix_a = np.zeros((n, n), dtype=complex)
    mix_b = np.zeros((n, n), dtype=complex)
    for (shift, _), pw, qw in zip(_cloner_terms(n), p, q):
        shifted = shift @ psi.amps
        proj = np.outer(shifted, shifted.conj())
        mix_a += pw * proj
        mix_b += qw * proj
    dev_a = float(np.max(np.abs(mix_a - rho_a.entries)))
    dev_b = float(np.max(np.abs(mix_b - rho_b.entries)))

    return CloneOutputs(joint_state, rho_a, rho_b, dev_a, dev_b)


def norm_squared(mat: np.ndarray) -> float:
    """sum |a[m, n]|^2."""
    return float(np.sum(np.abs(mat) ** 2))


def tilde_amplitudes(mat: np.ndarray) -> np.ndarray:
    """Amplitudes of the same cloner rewritten in the phase bases.

    Index relation: atilde[n, -m mod N] = a[m, n].
    """
    n = len(mat)
    at = np.empty_like(mat)
    for p in range(n):
        for q in range(n):
            at[p, q] = mat[(-q) % n, p]
    return at


def fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi>."""
    if rho.dim != psi.dim:
        raise ValueError("dimension mismatch between state and density matrix")
    val = complex(psi.amps.conj() @ rho.entries @ psi.amps)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real: {val!r}")
    return float(val.real)


def phase_covariance_check(mat: np.ndarray, phi_grid) -> float:
    """Largest gap between state-level phase-basis fidelity and sum_m p[m,0].

    For constrained matrices the gap is at numerical noise (<= 1e-10); a
    generic normalized matrix shows a phi-dependent fidelity and fails by
    a visible margin, so the check discriminates.
    """
    reference = float((np.abs(mat) ** 2)[:, 0].sum())
    worst = 0.0
    for phi in phi_grid:
        for l in range(3):
            psi = phi_basis_state(phi, l)
            out = clone_outputs(mat, psi)
            worst = max(worst, abs(fidelity(out.rho_a, psi) - reference))
    return worst


def coefficient_rows(v: float, s: float, t: float, y: float, d: int = 3):
    """Coefficient rows c[m, :] of a tied amplitude mask in a phase basis.

    The mask has a[0, 0] = v, s in the rest of column 0, t in the rest of
    row 0 and y everywhere else.  In a phase basis of dimension d its rows
    are

        c[0]   = (v + (d-1) s, v - s, ..., v - s)
        c[m>0] = (t + (d-1) y, t - y, ..., t - y)

    the row-wise Fourier transform of the rewritten amplitudes (see
    :func:`tilde_amplitudes`), built from the four distinct entries of
    ``_coefficient_entries``, which every protocol preset reads.
    """
    k = d - 1
    (p, q), (r, u) = _coefficient_entries(v, s, t, y, d)
    return ((p,) + (q,) * k,) + ((r,) + (u,) * k,) * k


def tilde_coefficients(params: ClonerParams) -> np.ndarray:
    """Coefficients ct[m, j] of the y = z cloner expanded in a phase basis.

    These are the rows of :func:`coefficient_rows` for the mask
    [[v,x,x],[y,y,y],[y,y,y]]; they are checked against their definition,
    the row-wise Fourier transform of the rewritten amplitudes, before
    being returned.
    """
    params.require_normalized()
    params.require_symmetric()
    v, x, y = params.v, params.x, params.y
    ct = np.array(coefficient_rows(v, y, x, y))

    at = tilde_amplitudes(phi_cloner_matrix(params))
    w = np.exp(2j * math.pi * np.outer(np.arange(3), np.arange(3)) / 3.0)
    ct_def = at @ w.T
    if np.max(np.abs(ct_def.imag)) > 1e-12 or np.max(np.abs(ct_def.real - ct)) > 1e-12:
        raise AssertionError("closed-form tilde coefficients disagree with "
                             "their Fourier definition")
    return ct


def eve_joint_distribution(params: ClonerParams, k: int,
                           verify_phi: float = math.pi / 6.0) -> np.ndarray:
    """Outcome table P[alpha, beta, gamma] of the full attack on |k_phi>.

    alpha is the receiver's outcome (register A, phase basis), beta the
    attacker's clone outcome (register B, same basis), gamma the machine
    outcome (register C, conjugate basis).  Only triples with
    alpha - k == gamma - beta (mod 3) occur; the common difference is the
    receiver's error.  The table is validated against the squared
    amplitudes of the explicitly constructed clone state at ``verify_phi``.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"input index must be 0, 1 or 2, got {k}")
    ct = tilde_coefficients(params)
    table = np.zeros((3, 3, 3))
    for m in range(3):
        for beta in range(3):
            table[(k + m) % 3, beta, (beta + m) % 3] = ct[m, (k - beta) % 3] ** 2 / 3.0
    if abs(table.sum() - 1.0) > 1e-12:
        raise AssertionError("attack outcome table does not sum to 1")

    cols = BasisSpec(verify_phi).matrix()
    state_table = readout_table(clone_state(phi_cloner_matrix(params), cols[:, k]), cols)
    if np.max(np.abs(table - state_table)) > 1e-12:
        raise AssertionError("attack outcome table disagrees with the "
                             "state-level construction")
    return table


# --- information -------------------------------------------------------------


def shannon_entropy(p, base=2) -> float:
    """-sum p_i log(p_i); entries below 1e-15 contribute nothing."""
    lb = _log_of_base(base)
    p = tuple(p)  # read twice below; a one-pass iterable must still work
    total = 0.0
    for pi in p:
        if not pi >= -1e-12:  # also true for NaN
            raise ValueError(f"probability {pi!r} is negative or not a number")
        total += pi
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return float(_entropy_nats(p)) / lb


def preset_fidelity(preset, values: dict[str, float]) -> float:
    """Protocol-averaged fidelity of the receiver's clone: the mean weight
    of the error-free row m = 0 over the protocol bases."""
    preset = resolve_preset(preset)
    entries = preset.entries(*preset.amplitudes_of(values))
    return (sum(sum(row0[b] * row0[b] for b in _spread(preset.dimension)) for row0, _ in entries)
            / (len(entries) * preset.dimension))


def mi_bias_bound(cells: int, rounds: int, base: float = 2.0,
                  safety: float = 4.0) -> float:
    """Plug-in mutual-information bias allowance: safety * (K-1) / (2 N ln base)."""
    return safety * (cells - 1) / (2.0 * rounds * math.log(base))
