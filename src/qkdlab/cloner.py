"""Qutrit cloning machines built from a 3x3 amplitude matrix.

A cloner is specified by complex amplitudes ``a[m, n]`` attached to the
shift/phase error operators.  Acting on an input state |psi> it produces

    sum_{m,n} a[m,n] (U_{m,n}|psi>)_A  |B_{m,-n mod 3}>_{B,C}

on three registers: A is the imperfect copy resent to the receiver, B is
the copy kept by the attacker, C is the machine (ancilla).  Tracing the
joint state gives the two clones as mixtures of shifted/phased inputs
weighted by |a[m,n]|^2 (clone A) and by the squared Fourier-dual
amplitudes |b[m,n]|^2 (clone B).

The attack on the phase-basis protocol restricts the amplitudes to the
constrained form

    [[v, x, x],
     [y, y, y],
     [z, z, z]]

with v^2 + 2x^2 + 3y^2 + 3z^2 = 1.  Every cloner of this family copies
all states of every phase basis with the same fidelity (checked
numerically by ``test_phase_covariance_of_constrained_cloners`` in
``tests/test_cloner.py``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qudit import DensityMatrix, StateVector, error_operator, partial_trace

PARAM_NORM_TOL = 1e-8
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class ClonerParams:
    """Real parameters (v, x, y, z) of the constrained amplitude matrix."""

    v: float
    x: float
    y: float
    z: float

    @property
    def norm_squared(self) -> float:
        try:
            return self.v**2 + 2 * self.x**2 + 3 * self.y**2 + 3 * self.z**2
        except OverflowError:  # float ** raises where float * gives inf
            return math.inf

    def normalized(self) -> "ClonerParams":
        """Rescaled onto the normalization surface; ValueError unless the norm
        squared is a finite normal float (a subnormal one has lost precision)."""
        norm_squared = self.norm_squared
        if not sys.float_info.min <= norm_squared < math.inf:  # also false for NaN
            raise ValueError(f"cloner parameters {self} need a finite, nonzero norm "
                             "whose square is a normal float")
        s = math.sqrt(norm_squared)
        return ClonerParams(self.v / s, self.x / s, self.y / s, self.z / s)

    @property
    def symmetric(self) -> bool:
        """Whether the two lower rows are tied (y == z)."""
        return abs(self.y - self.z) <= SYMMETRY_TOL

    def require_normalized(self, remedy: str = "call .normalized() first") -> None:
        dev = abs(self.norm_squared - 1.0)
        if not dev <= PARAM_NORM_TOL:  # also true for NaN
            raise ValueError(
                f"parameters off the normalization surface by {dev:.2e}; {remedy}")

    def require_symmetric(self) -> None:
        if not self.symmetric:
            raise ValueError(f"y != z ({self.y} vs {self.z}); "
                             "this quantity assumes the y = z tie")


@dataclass
class AmplitudeMatrix:
    """N x N complex cloner amplitudes a[m, n], unit Frobenius norm."""

    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("amplitude matrix must be square")
        self.a.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def weights(self) -> np.ndarray:
        """p[m, n] = |a[m, n]|^2."""
        return np.abs(self.a) ** 2


def phi_cloner_matrix(params: ClonerParams) -> AmplitudeMatrix:
    """Constrained amplitude matrix [[v,x,x],[y,y,y],[z,z,z]].

    Raises unless the parameters sit on the normalization surface within
    1e-8.  The returned matrix is always exactly unit Frobenius norm.
    """
    params.require_normalized()
    params = params.normalized()
    v, x, y, z = params.v, params.x, params.y, params.z
    return AmplitudeMatrix(np.array([[v, x, x], [y, y, y], [z, z, z]]))


def fourier_dual(mat: AmplitudeMatrix) -> AmplitudeMatrix:
    """b[m,n] = (1/N) sum_{x,y} exp(2 pi i (n x - m y) / N) a[x,y].

    The kernel is unitary, so norms are preserved, and self-inverse: the
    inverse transform is the same operation, with no index reflection
    (frozen by the convention test in the suite).
    """
    n = mat.dim
    w = np.exp(2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n)
    b = np.einsum("nx,my,xy->mn", w, w.conj(), mat.a) / n
    return AmplitudeMatrix(b)


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


@lru_cache(maxsize=None)
def _cloner_terms(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(U_{m,nn} matrix, |B_{m,-nn}> amplitudes) of each term, nn fastest.

    The Bell state |B_{m,k}> = n^{-1/2} sum_j exp(2 pi i j k / n) |j>|j+m>
    is the transposed U_{m,k} over sqrt(n), read row-major.  Both arrays
    are read-only, so every caller can share them.
    """
    terms = []
    for m in range(n):
        for nn in range(n):
            bell = (error_operator(m, (-nn) % n, n).T / math.sqrt(n)).reshape(-1)
            bell.flags.writeable = False
            terms.append((error_operator(m, nn, n), bell))
    return tuple(terms)


def clone_amplitudes(mat: AmplitudeMatrix, amps: np.ndarray) -> np.ndarray:
    """Amplitudes of the (A, B, C) output for the input amplitudes ``amps``.

    The joint state of :func:`clone_state`, with neither its input checks
    nor its reduced states.
    """
    n = mat.dim
    joint = np.zeros(n**3, dtype=complex)
    for (shift, bell), weight in zip(_cloner_terms(n), mat.a.reshape(-1)):
        joint += weight * np.outer(shift @ amps, bell).reshape(-1)
    return joint


def clone_state(mat: AmplitudeMatrix, input_state: StateVector) -> CloneOutputs:
    """Apply the cloning map to a single-qutrit input.

    Registers of the joint state are ordered (A, B, C) = (receiver's clone,
    attacker's clone, machine), first factor slowest.
    """
    n = mat.dim
    if input_state.dim != n:
        raise ValueError("input dimension does not match the cloner")
    if abs(np.linalg.norm(input_state.amps) - 1.0) > 1e-9:
        raise ValueError("input state must be normalized")

    joint_state = StateVector(clone_amplitudes(mat, input_state.amps), (n, n, n))
    rho_a = partial_trace(joint_state, keep=(0,))
    rho_b = partial_trace(joint_state, keep=(1,))

    p = mat.weights().reshape(-1)
    q = fourier_dual(mat).weights().reshape(-1)
    mix_a = np.zeros((n, n), dtype=complex)
    mix_b = np.zeros((n, n), dtype=complex)
    for (shift, _), pw, qw in zip(_cloner_terms(n), p, q):
        shifted = shift @ input_state.amps
        proj = np.outer(shifted, shifted.conj())
        mix_a += pw * proj
        mix_b += qw * proj
    dev_a = float(np.max(np.abs(mix_a - rho_a.entries)))
    dev_b = float(np.max(np.abs(mix_b - rho_b.entries)))

    return CloneOutputs(joint_state, rho_a, rho_b, dev_a, dev_b)


@dataclass(frozen=True)
class FidelityReport:
    """Closed-form fidelities and disturbances of the two clones.

    ``f_b_closed_form`` records whether the y = z closed form for the
    attacker's clone applied; when the tie is broken those entries are
    computed from the Fourier-dual weights instead.
    """

    f_a: float
    d_a1: float
    d_a2: float
    f_b: float
    d_b1: float
    d_b2: float
    f_b_closed_form: bool


def closed_form_report(params: ClonerParams) -> FidelityReport:
    """Fidelity/disturbance closed forms for a constrained cloner.

    F_A = v^2 + y^2 + z^2 and D_A1 = D_A2 = x^2 + y^2 + z^2 hold for any
    (y, z).  The attacker-side closed forms assume y = z; otherwise the
    dual-weight route is used and flagged.
    """
    params.require_normalized()
    v, x, y, z = params.v, params.x, params.y, params.z
    f_a = v * v + y * y + z * z
    d_a = x * x + y * y + z * z
    if params.symmetric:
        f_b = (v * v + 2 * x * x + 12 * y * y + 8 * x * y + 4 * v * y) / 3.0
        d_b1 = d_b2 = (v * v + 2 * x * x + 3 * y * y - 4 * x * y - 2 * v * y) / 3.0
        symmetric = True
    else:
        q = fourier_dual(phi_cloner_matrix(params)).weights()
        f_b = float(q[:, 0].sum())
        d_b1 = float(q[:, 1].sum())
        d_b2 = float(q[:, 2].sum())
        symmetric = False
    if abs(f_a + 2 * d_a - 1.0) > 1e-10:
        raise ValueError("fidelity/disturbance normalization check failed")
    return FidelityReport(f_a, d_a, d_a, f_b, d_b1, d_b2, symmetric)


def _coefficient_entries(v, s, t, y, d: int = 3):
    """The four distinct coefficients ((c[0, 0], c[0, 1]), (c[m, 0], c[m, 1]))
    of a tied amplitude mask in a phase basis of dimension d.

    The mask has a[0, 0] = v, s in the rest of column 0, t in the rest of
    row 0 and y everywhere else.  Its coefficient rows, the row-wise Fourier
    transform of the amplitudes rewritten in the phase bases
    (atilde[n, -m mod d] = a[m, n]), are

        c[0]   = (v + (d-1) s, v - s, ..., v - s)
        c[m>0] = (t + (d-1) y, t - y, ..., t - y)

    so every other entry of a row repeats its second one, and every row
    m > 0 repeats row 1.  Every protocol preset reads these entries.
    """
    k = d - 1
    return (v + k * s, v - s), (t + k * y, t - y)


def readout_table(joint: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """P[alpha, beta, gamma] of the joint amplitudes of one cloned qudit.

    ``cols`` holds the basis states of registers A and B as columns; the
    machine (register C) is read in their complex conjugates.
    """
    d = len(cols)
    t = joint.reshape(d, d, d)
    amps = np.einsum("abc,ai,bj,ck->ijk", t, cols.conj(), cols.conj(), cols)
    return np.abs(amps) ** 2
