"""Particle (electron) sector on a periodic position-space box.

Provides the 3D spectral discretization of 1/2 p^2 - alphaZ/|x|, the grid
sectors the atom and the coupled solves run on (``GridSector``), the atom's
ground state (a ``spectral.SpectralResult``, as every solve returns, whose
vector is a unit l2 vector over the grid points), and the l=1 radial
resolvent matrix element that feeds the second-order binding expansion, by
one tridiagonal sweep over all the shifts it is asked for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .model import ParameterError

if TYPE_CHECKING:  # spectral imports this module; atomic_ground imports it on call
    from .spectral import SpectralResult

__all__ = [
    "PositionGrid",
    "GridSector",
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


def _plane_wave(xs, k) -> np.ndarray:
    """e^{i k.x} on the mesh of the per-axis coordinates ``xs``."""
    ex, ey, ez = (np.exp(1j * kl * x) for kl, x in zip(k, xs))
    return ex[:, None, None] * ey[None, :, None] * ez[None, None, :]


class GridSector:
    """The points of ``grid`` a solve keeps, their symbols and their
    transform F.  An axis in ``whole`` keeps its n points and the FFT; any
    other keeps, when ``even``, its reflection-even indices 0..n/2, where F
    is E = ``grid.even_transform`` and W = ``grid.even_unfold`` embeds them
    in the whole axis, and otherwise the one point q = 0 (x = -L), where F
    is 1 and W the first unit column.  Arrays are Fock-major, (R, X)."""

    def __init__(self, grid: PositionGrid, whole: tuple[int, ...], even: bool):
        n = self.n = grid.n
        self.grid = grid
        self.cut = tuple(slice(None) if axis in whole else slice(n // 2 + 1 if even else 1)
                         for axis in range(3))  # the kept indices of each axis
        self.xs = tuple(grid.axis[c] for c in self.cut)  # per-axis coordinates
        self.shape = tuple(len(x) for x in self.xs)
        self.size = math.prod(self.shape)
        qs = np.meshgrid(*(grid.freqs[c] for c in self.cut), indexing="ij", copy=False)
        self.psym = np.stack(qs).reshape(3, -1)  # (3, X) p_l symbols
        self.kin = 0.5 * (self.psym**2).sum(axis=0)  # (X,) kinetic symbol
        cut_axes = tuple(1 + axis for axis in range(3) if axis not in whole)  # axes of (R, *shape)
        self._fft_axes = tuple(1 + axis for axis in whole)
        self._even_axes = cut_axes if even else ()
        # (array axis, W, the unfold of position values: W, or the constant column 1/n at q = 0)
        pair = (grid.even_unfold,) * 2 if even else (np.eye(n, 1), np.full((n, 1), 1.0 / n))
        self._folds = tuple((axis, *pair) for axis in cut_axes)

    def phases(self, k: np.ndarray) -> np.ndarray:
        """e^{i k_j . x} at the sector's points for each row k_j of k, (M, X)."""
        return np.stack([_plane_wave(self.xs, kj).ravel() for kj in k])

    def forward(self, u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """F u, all passes written into ``out`` (u itself transforms in place;
        None takes a new array, complex once an FFT runs)."""
        return self._transform(np.fft.fftn, u, out, self.grid.even_transform)

    def inverse(self, s: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """F^-1 s, as ``forward``: the inverse FFT, and E / n on the even axes."""
        return self._transform(np.fft.ifftn, s, out, self.grid.even_transform / self.n)

    def _transform(self, fn, u: np.ndarray, out: np.ndarray | None, even: np.ndarray) -> np.ndarray:
        cube = (-1,) + self.shape
        if out is None:
            out = np.empty(u.shape, dtype=complex if self._fft_axes else u.dtype)
        view, u = out.reshape(cube), u.reshape(cube)
        if self._fft_axes:
            fn(u, axes=self._fft_axes, out=view)  # looked up per call, so a counter sees it
            u = view
        for axis in self._even_axes:
            u = _along_axis(even, u, axis, view)
        return out

    def fold(self, v: np.ndarray) -> np.ndarray:
        """W^T on each cut axis: the whole grid's plane-wave coefficients (or
        the atom's even seed values), (R, n^3), onto the sector's, (R, X)."""
        v = v.reshape((-1,) + (self.n,) * 3)
        for axis, unfold, _ in self._folds:
            v = _along_axis(unfold.T, v, axis, None)
        return v.reshape(len(v), -1)

    def unfold(self, u: np.ndarray) -> np.ndarray:
        """The sector's position values, (R, X), as the whole grid's, (R, n^3):
        W on an even axis, the column 1/n on a q = 0 axis, so unfold(F^-1 s)
        is the whole grid's F^-1 W s, with no whole-grid transform."""
        u = u.reshape((-1,) + self.shape)
        for axis, _, spread in self._folds:
            u = _along_axis(spread, u, axis, None)
        return u.reshape(len(u), -1)


def _along_axis(matrix: np.ndarray, v: np.ndarray, axis: int, out: np.ndarray | None) -> np.ndarray:
    """The real ``matrix`` applied along one axis of v, real or complex: one
    real matmul on the float view, which keeps a complex v's real and
    imaginary parts in its last axis, or on the last axis one matmul by the
    transpose, not one narrow product per row.  ``out`` may be v itself
    (matmul buffers the overlap); None takes a new array of v's type."""
    lead = math.prod(v.shape[:axis])
    if out is None:
        out = np.empty(v.shape[:axis] + (len(matrix),) + v.shape[axis + 1:], dtype=v.dtype)
    if lead == 0:  # no rows, as the lowered block at N_max = 0; reshape(0, -1) has no answer
        return out
    if axis == v.ndim - 1:
        np.matmul(v.reshape(lead, -1), matrix.T, out=out.reshape(lead, -1))
    else:
        np.matmul(matrix, v.view(float).reshape(lead, v.shape[axis], -1),
                  out=out.view(float).reshape(lead, len(matrix), -1))
    return out


def coulomb_potential(grid: PositionGrid, alphaZ: float) -> np.ndarray:
    """-alphaZ / max(|x|, h/2) on the mesh, shape (n, n, n): the Coulomb
    attraction softened at half a grid step, the one potential of the atom
    and of the gross model."""
    return -alphaZ / np.maximum(grid.radius, grid.h / 2.0)


def atomic_ground(grid: PositionGrid, alphaZ: float) -> SpectralResult:
    """Ground state of 1/2 p^2 + coulomb_potential(grid, alphaZ) on the box,
    as a ``spectral.SpectralResult`` whose vector is the unit l2 vector over
    the n^3 points in the grid's order, its sum made nonnegative.

    The kinetic term is applied spectrally (exact on lattice plane waves);
    the Coulomb singularity is softened at the scale of half a grid step.
    All downstream variational checks use the discrete energy returned
    here as their reference, so the softening cannot flip an inequality;
    the continuum level -(alphaZ)^2/2 is ``closedform.atomic_level``.
    """
    if not (0.0 <= alphaZ < math.inf):
        raise ParameterError(f"alphaZ must be finite and >= 0, got {alphaZ}")

    from .spectral import SpectralResult, lanczos_lowest

    if alphaZ == 0.0:
        psi = np.full(grid.point_count, 1.0 / math.sqrt(grid.point_count))
        return SpectralResult(energy=0.0, vector=psi, residual=0.0, iterations=0)

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
    # i -> -i mod n), so the solve runs on the (n/2 + 1)^3 even cube, the
    # GridSector with no whole axis (the gross solve's uncoupled axes run the
    # same code): F is E on every axis, six real matmuls per product.  The
    # seed, even, folds in position space before its transform.
    sector = GridSector(grid, (), True)
    potential = coulomb_potential(grid, alphaZ)[sector.cut].ravel()

    def matvec(s: np.ndarray) -> np.ndarray:
        out = sector.inverse(s, None)
        out *= potential
        out = sector.forward(out, out)
        out += sector.kin * s
        return out

    def precond(r: np.ndarray, sigma: float) -> np.ndarray:
        r /= sector.kin + sigma
        return r

    seed = sector.forward(sector.fold(np.exp(-alphaZ * grid.radius)), None)
    energy, vec, residual, iterations = lanczos_lowest(
        matvec, sector.size, seed=seed.ravel(), tol=1e-12, maxit=500, precond=precond,
    )
    # F / sqrt(N) is unitary, so sqrt(N) F^-1 keeps the unit norm
    vec = sector.unfold(sector.inverse(vec, vec)).ravel() * math.sqrt(grid.point_count)
    psi = vec if vec.sum() >= 0.0 else -vec
    return SpectralResult(energy=energy, vector=psi, residual=residual, iterations=iterations)


# ---------------------------------------------------------------------------
# l=1 radial resolvent
# ---------------------------------------------------------------------------

_RADIAL_R_MAX = 40.0
_RADIAL_POINTS = 4000


@cache
def _radial_pieces() -> tuple[float, float, np.ndarray, np.ndarray]:
    """Static parts of the unit-coupling l=1 radial problem: the step dr,
    the off-diagonal and the diagonal at sigma = 0 of its symmetric
    tridiagonal matrix, and the right-hand side.

    The reduced equation for u(r) = r * (resolvent applied to the radial
    profile) reads
        -1/2 u'' + (1/r^2 - 1/r + 1/2 + sigma) u = r f(r),
    with f(r) = pi^{-1/2} e^{-r} the radial profile of each Cartesian
    component of grad psi_at at alphaZ = 1; the matrix element is
    4 pi * int (r f) u dr summed over the three components.
    """
    dr = _RADIAL_R_MAX / (_RADIAL_POINTS + 1)
    r = dr * np.arange(1, _RADIAL_POINTS + 1)
    diag = 1.0 / dr**2 + 1.0 / r**2 - 1.0 / r + 0.5
    return dr, -0.5 / dr**2, diag, r * np.exp(-r) / math.sqrt(math.pi)


def radial_resolvent_l1(alphaZ: float, omega_shift):
    """<p psi_at, (H_at - E_at + shift)^{-1} p psi_at> via the l=1 channel,
    at one shift (a float) or at an array of shifts (an array).

    Scaling removes alphaZ: the value equals the unit-coupling matrix
    element evaluated at shift/(alphaZ)^2. Bounded by (alphaZ)^2/shift
    (resolvent norm against |p psi_at|^2 = (alphaZ)^2) and monotone
    decreasing in the shift.

    One forward Thomas sweep serves every shift.  A is strictly diagonally
    dominant, diag - 2|off| = (1/r - 1/2)^2 + 1/4 + sigma > 0 (no pivoting),
    and symmetric, A = L D L^T: rhs . A^-1 rhs = sum y_i^2 / D_i, L y = rhs.
    """
    shifts = np.asarray(omega_shift, dtype=float)
    if not np.all(shifts > 0.0):
        raise ParameterError(f"omega_shift must be > 0, got {omega_shift}")
    if alphaZ < 0.0:
        raise ParameterError(f"alphaZ must be >= 0, got {alphaZ}")

    dr, off, diag, rhs = _radial_pieces()
    # sigma = inf, at alphaZ = 0 or past the float range, gives the element 0
    with np.errstate(over="ignore", divide="ignore"):
        sigma = shifts / alphaZ**2
    pivot, y = diag[0] + sigma, rhs[0]
    total = y * y / pivot
    for d, b in zip(diag[1:].tolist(), rhs[1:].tolist()):
        y = b - (off / pivot) * y
        pivot = (d + sigma) - (off * off) / pivot
        total = total + y * y / pivot
    if not np.all(np.isfinite(total)):
        raise RuntimeError("radial linear solve produced non-finite values")
    value = 4.0 * math.pi * dr * total
    return float(value) if shifts.ndim == 0 else value
