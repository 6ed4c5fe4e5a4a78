"""Particle (electron) sector on a periodic position-space box.

Provides the 3D spectral discretization of 1/2 p^2 - alphaZ/|x|, its ground
state as a unit l2 vector over the grid points, and the l=1 radial resolvent
matrix element that feeds the second-order binding expansion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .model import ParameterError

__all__ = [
    "PositionGrid",
    "AtomicState",
    "atomic_ground",
    "coulomb_potential",
    "radial_resolvent_l1",
]


@dataclass(frozen=True)
class PositionGrid:
    """Periodic box [-L, L)^3 sampled on n points per axis.

    The momentum lattice is exactly dual to the position lattice, so a
    plane wave with wave vector on the reciprocal lattice is an exact
    eigenvector of the spectral Laplacian.
    """

    n: int
    L: float

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ParameterError(f"n must be even and >= 2, got {self.n}")
        if not (0.0 < self.L < math.inf):
            raise ParameterError(f"L must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def dk(self) -> float:
        """Reciprocal-lattice spacing pi/L."""
        return math.pi / self.L

    @property
    def point_count(self) -> int:
        return self.n**3

    @cached_property
    def axis(self) -> np.ndarray:
        """1D coordinates -L, -L+h, ..., L-h (origin included), h times the
        integers from -n/2, so x -> -x is exactly index i -> -i mod n."""
        return self.h * np.arange(-(self.n // 2), self.n // 2)

    @cached_property
    def freqs(self) -> np.ndarray:
        """1D momentum values matching numpy's FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def radius(self) -> np.ndarray:
        x = self.axis
        return np.sqrt(
            x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
        )

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """|k|^2 on the momentum mesh; 1/2 * this is the kinetic symbol."""
        q = self.freqs
        return q[:, None, None] ** 2 + q[None, :, None] ** 2 + q[None, None, :] ** 2

    @cached_property
    def even_unfold(self) -> np.ndarray:
        """(n, n/2 + 1) isometry W from the reflection-even half of an axis
        (i -> -i mod n, which is x -> -x and q -> -q) to the whole axis:
        column a is the unit even vector on the indices a and -a mod n, so
        W^T folds an even vector into sqrt(m_a) times its values at 0..n/2,
        m_a = 1 at a in {0, n/2} and 2 elsewhere, keeping inner products."""
        n = self.n
        i = np.arange(n)
        half = np.minimum(i, n - i)
        unfold = np.zeros((n, n // 2 + 1))
        unfold[i, half] = np.where((half == 0) | (half == n // 2), 1.0, math.sqrt(0.5))
        return unfold

    @cached_property
    def even_transform(self) -> np.ndarray:
        """The DFT of one axis on its reflection-even half, W^T F W: the real
        symmetric E_ab = sqrt(m_a m_b) cos(2 pi a b / n), a, b = 0..n/2, with
        E^2 = n I, so F^-1 there is E / n."""
        a = np.arange(self.n // 2 + 1)
        root = np.sqrt(np.where((a == 0) | (a == self.n // 2), 1.0, 2.0))
        return np.outer(root, root) * np.cos((2.0 * math.pi / self.n) * (np.outer(a, a) % self.n))

    def lattice_units(self, k) -> np.ndarray:
        """Express a wave vector in units of dk, requiring exact lattice fit."""
        k = np.asarray(k, dtype=float)
        if k.shape != (3,):
            raise ParameterError("wave vector must have three components")
        m = k / self.dk
        if np.max(np.abs(m - np.round(m))) > 1e-9:
            raise ParameterError(
                f"wave vector {k.tolist()} is not on the reciprocal lattice"
            )
        return np.round(m).astype(int)

    def plane_wave(self, k) -> np.ndarray:
        """e^{i k.x} on the mesh for a reciprocal-lattice vector k."""
        self.lattice_units(k)
        x = self.axis
        kx = np.asarray(k, dtype=float)
        return (
            np.exp(1j * kx[0] * x)[:, None, None]
            * np.exp(1j * kx[1] * x)[None, :, None]
            * np.exp(1j * kx[2] * x)[None, None, :]
        )


@dataclass(eq=False)
class AtomicState:
    """Discrete atomic ground state with its analytic references."""

    grid: PositionGrid
    alphaZ: float
    energy: float
    psi: np.ndarray  # (n^3,) unit l2 vector in the grid's point order
    residual: float
    iterations: int

    @property
    def analytic_energy(self) -> float:
        return -0.5 * self.alphaZ**2

    @property
    def discretization_error(self) -> float:
        return abs(self.energy - self.analytic_energy)

    def analytic_state(self) -> np.ndarray:
        """e^{-alphaZ |x|} sampled flat and scaled to a unit l2 vector."""
        raw = np.exp(-self.alphaZ * self.grid.radius).ravel()
        return raw / np.linalg.norm(raw)

    def overlap_with_analytic(self) -> float:
        return abs(float(self.psi @ self.analytic_state()))


def coulomb_potential(grid: PositionGrid, alphaZ: float) -> np.ndarray:
    """-alphaZ / max(|x|, h/2) on the mesh, shape (n, n, n): the Coulomb
    attraction softened at half a grid step, the one potential of the atom
    and of the gross model."""
    return -alphaZ / np.maximum(grid.radius, grid.h / 2.0)


def atomic_ground(grid: PositionGrid, alphaZ: float) -> AtomicState:
    """Ground state of 1/2 p^2 + coulomb_potential(grid, alphaZ) on the box.

    The kinetic term is applied spectrally (exact on lattice plane waves);
    the Coulomb singularity is softened at the scale of half a grid step.
    All downstream variational checks use the discrete energy returned
    here as their reference, so the softening cannot flip an inequality.
    """
    if not (0.0 <= alphaZ < math.inf):
        raise ParameterError(f"alphaZ must be finite and >= 0, got {alphaZ}")

    if alphaZ == 0.0:
        psi = np.full(grid.point_count, 1.0 / math.sqrt(grid.point_count))
        return AtomicState(grid, 0.0, 0.0, psi, 0.0, 0)

    bohr = 1.0 / alphaZ
    if bohr / grid.h < 4.0:
        warnings.warn(
            f"grid resolves the Bohr radius with only {bohr / grid.h:.2f} "
            "points per unit; expect a poor atomic energy",
            stacklevel=2,
        )
    if bohr > grid.L:
        warnings.warn(
            f"Bohr radius {bohr:.4g} exceeds the box half-width L={grid.L:.4g}; "
            "the atom does not fit the box and its energy measures the box",
            stacklevel=2,
        )

    # The solve runs on plane-wave coefficients s = F psi, where the kinetic
    # term is diagonal and the preconditioner one division; F / sqrt(N) is
    # unitary, so the energy and residual are position space's.  U, the
    # kinetic symbol and the seed are even along each axis (x -> -x is index
    # i -> -i mod n), so the solve runs on the (n/2 + 1)^3 even cube, folded
    # by W^T on each axis: there F is E (x) E (x) E, E = grid.even_transform,
    # and F^-1 that over N, six real matmuls per product.
    cut = (slice(grid.n // 2 + 1),) * 3
    shape = (grid.n // 2 + 1,) * 3
    even = grid.even_transform
    kinetic = 0.5 * grid.laplacian_symbol[cut].ravel()
    potential = coulomb_potential(grid, alphaZ)[cut] / grid.point_count

    def matvec(s: np.ndarray) -> np.ndarray:
        out = _each_axis(even, potential * _each_axis(even, s.reshape(shape))).ravel()
        out += kinetic * s
        return out

    def precond(r: np.ndarray, sigma: float) -> np.ndarray:
        r /= kinetic + sigma
        return r

    from .spectral import lanczos_lowest

    fold = _each_axis(grid.even_unfold.T, np.exp(-alphaZ * grid.radius))
    energy, vec, residual, iterations = lanczos_lowest(
        matvec, fold.size, seed=_each_axis(even, fold).ravel(),
        tol=1e-12, maxit=500, precond=precond,
    )
    # F / sqrt(N) is unitary, so E (x) E (x) E / sqrt(N) is orthogonal
    vec = _each_axis(even, vec.reshape(shape)) / math.sqrt(grid.point_count)
    vec = _each_axis(grid.even_unfold, vec).ravel()
    psi = vec if vec.sum() >= 0.0 else -vec
    return AtomicState(grid, alphaZ, energy, psi, residual, iterations)


def _each_axis(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix`` applied along each axis of the real 3D array v: one matmul
    per axis, the next axis cycled to the front after each."""
    for _ in range(3):
        v = (matrix @ v.reshape(v.shape[0], -1)).reshape(len(matrix), *v.shape[1:])
        v = v.transpose(1, 2, 0)
    return v


# ---------------------------------------------------------------------------
# l=1 radial resolvent
# ---------------------------------------------------------------------------

_RADIAL_R_MAX = 40.0
_RADIAL_POINTS = 4000


@cache
def _radial_pieces() -> tuple[float, np.ndarray, np.ndarray]:
    """Static parts of the unit-coupling l=1 radial problem: the step dr,
    the banded matrix ``ab`` at sigma = 0 in solve_banded's (1, 1) layout,
    and the right-hand side.

    The reduced equation for u(r) = r * (resolvent applied to the radial
    profile) reads
        -1/2 u'' + (1/r^2 - 1/r + 1/2 + sigma) u = r f(r),
    with f(r) = pi^{-1/2} e^{-r} the radial profile of each Cartesian
    component of grad psi_at at alphaZ = 1; the matrix element is
    4 pi * int (r f) u dr summed over the three components.
    """
    dr = _RADIAL_R_MAX / (_RADIAL_POINTS + 1)
    r = dr * np.arange(1, _RADIAL_POINTS + 1)
    ab = np.empty((3, _RADIAL_POINTS))
    ab[0] = ab[2] = -0.5 / dr**2
    ab[1] = 1.0 / dr**2 + 1.0 / r**2 - 1.0 / r + 0.5
    return dr, ab, r * np.exp(-r) / math.sqrt(math.pi)


def radial_resolvent_l1(alphaZ: float, omega_shift: float) -> float:
    """<p psi_at, (H_at - E_at + shift)^{-1} p psi_at> via the l=1 channel.

    Scaling removes alphaZ: the value equals the unit-coupling matrix
    element evaluated at shift/(alphaZ)^2. Bounded by (alphaZ)^2/shift
    (resolvent norm against |p psi_at|^2 = (alphaZ)^2) and monotone
    decreasing in the shift.
    """
    if not (omega_shift > 0.0):
        raise ParameterError(f"omega_shift must be > 0, got {omega_shift}")
    if alphaZ < 0.0:
        raise ParameterError(f"alphaZ must be >= 0, got {alphaZ}")
    if alphaZ == 0.0:
        return 0.0

    from scipy.linalg import solve_banded  # imported here: scipy.linalg is slow to load

    dr, ab, rhs = _radial_pieces()
    ab = ab.copy()  # the cached matrix stays at sigma = 0
    ab[1] += omega_shift / alphaZ**2
    u = solve_banded((1, 1), ab, rhs)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("radial linear solve produced non-finite values")
    return 4.0 * math.pi * float(rhs @ u) * dr
