"""Exact linear algebra for small qudit systems, on plain ndarrays.

Multipartite amplitudes are stored row-major over the subsystem list,
first factor slowest (``numpy.kron`` order).

Dimension ``N`` is a runtime parameter, but only N=3 (and N=2 where the
qubit comparison needs it) are exercised by the rest of the package.

Every phase-basis state is a column of the one matrix :func:`phase_basis`;
a conjugate basis is its ``.conj()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


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


def conjugate_phi_basis_state(phi: float, l: int) -> np.ndarray:
    """Componentwise complex conjugate of column l of :func:`phase_basis`,
    as a read-only (3,) array."""
    if l not in (0, 1, 2):
        raise ValueError(f"index must be 0, 1 or 2, got {l}")
    amps = phase_basis(phi)[:, int(l)].conj()
    amps.flags.writeable = False
    return amps


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
