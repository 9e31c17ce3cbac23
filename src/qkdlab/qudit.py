"""Exact linear algebra for small qudit systems.

Conventions, fixed once and used everywhere:

* Multipartite amplitudes are stored row-major over the subsystem list,
  first factor slowest (``numpy.kron`` order).
* Equality checks are absolute with tolerance 1e-12.  Every construction
  here involves only roots of unity and short sums, so there are no
  conditioning issues.
* States that differ by a global phase are treated as equal.

Dimension ``N`` is a runtime parameter, but only N=3 (and N=2 where the
qubit comparison needs it) are exercised by the rest of the package.

Every phase-basis state is a column of the one matrix :func:`phase_basis`;
a conjugate basis is its ``.conj()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-12

TWO_PI = 2.0 * math.pi


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


def phase_basis(phi: float) -> np.ndarray:
    """Columns |l_phi> = 3^{-1/2} sum_k exp(i k (2 pi l / 3 + phi)) |k>, l = 0, 1, 2."""
    k = np.arange(3)
    return np.exp(1j * np.outer(k, TWO_PI * k / 3.0 + phi)) / math.sqrt(3.0)


@dataclass(frozen=True)
class BasisSpec:
    """A measurement basis of the phase family, given by its angle."""

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    def matrix(self) -> np.ndarray:
        """The three basis states as columns."""
        return phase_basis(self.phi)


def phi_basis_state(phi: float, l: int) -> StateVector:
    """Column l of :func:`phase_basis`."""
    if l not in (0, 1, 2):
        raise ValueError(f"index must be 0, 1 or 2, got {l}")
    return StateVector(np.ascontiguousarray(phase_basis(phi)[:, int(l)]), (3,))


def conjugate_phi_basis_state(phi: float, l: int) -> StateVector:
    """Componentwise complex conjugate of :func:`phi_basis_state`."""
    return StateVector(phi_basis_state(phi, l).amps.conj(), (3,))


def optimal_bases() -> list[BasisSpec]:
    """The four phase bases used by the protocol: phi_i = 2*pi*i/12, i = 0..3.

    Their 12 component states have phase angles {2*pi*l/3 + phi_i} forming
    twelve equally spaced points mod 2*pi (a regular dodecagon on the
    great circle through the computational equator).
    """
    return [BasisSpec(TWO_PI * i / 12.0) for i in range(4)]


def error_operator(m: int, n: int, dim: int = 3) -> np.ndarray:
    """Unitary shifting |k> by m (mod dim) with phase exp(2 pi i k n / dim).

    Shifts the computational basis by ``m`` units and the Fourier-transformed
    basis by ``n`` units.  The (dim, dim) matrix is read-only.
    """
    if not (0 <= m < dim and 0 <= n < dim):
        raise ValueError(f"shift indices ({m},{n}) out of range for dim {dim}")
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[(k + m) % dim, k] = np.exp(2j * math.pi * k * n / dim)
    u.flags.writeable = False
    return u


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
