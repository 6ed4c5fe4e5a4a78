"""Particle (electron) sector on a periodic position-space box.

Provides the 3D spectral discretization of 1/2 p^2 - alphaZ/|x|, its ground
state, diagonal multiplication operators for the position functions used by
the moment and localization checks, and the l=1 radial resolvent matrix
element that feeds the second-order binding expansion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ParameterError

__all__ = [
    "PositionGrid",
    "AtomicState",
    "atomic_ground",
    "coulomb_potential",
    "position_operator",
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
        """1D coordinates -L, -L+h, ..., L-h (origin included)."""
        return -self.L + self.h * np.arange(self.n)

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
    psi: np.ndarray  # (n, n, n), normalized so that sum(psi^2) h^3 = 1
    residual: float
    iterations: int

    @property
    def analytic_energy(self) -> float:
        return -0.5 * self.alphaZ**2

    @property
    def discretization_error(self) -> float:
        return abs(self.energy - self.analytic_energy)

    def analytic_state(self) -> np.ndarray:
        """pi^{-1/2} (alphaZ)^{3/2} e^{-alphaZ |x|} sampled and renormalized."""
        g = self.grid
        if self.alphaZ == 0.0:
            return np.full((g.n,) * 3, (2.0 * g.L) ** -1.5)
        raw = np.exp(-self.alphaZ * g.radius)
        return raw / (np.linalg.norm(raw) * g.h**1.5)

    def overlap_with_analytic(self) -> float:
        ref = self.analytic_state()
        return abs(float(np.sum(self.psi * ref)) * self.grid.h**3)


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
        psi = np.full((grid.n,) * 3, (2.0 * grid.L) ** -1.5)
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

    # the operator is real: real FFTs, the symbol on the half spectrum
    kinetic = 0.5 * grid.laplacian_symbol[..., : grid.n // 2 + 1]
    potential = coulomb_potential(grid, alphaZ)
    shape = (grid.n,) * 3

    def matvec(v: np.ndarray) -> np.ndarray:
        u = v.reshape(shape)
        out = np.fft.irfftn(kinetic * np.fft.rfftn(u), s=shape, axes=(0, 1, 2))
        out += potential * u
        return out.ravel()

    def precond(r: np.ndarray, sigma: float) -> np.ndarray:
        spec = np.fft.rfftn(r.reshape(shape)) / (kinetic + sigma)
        return np.fft.irfftn(spec, s=shape, axes=(0, 1, 2)).ravel()

    from .spectral import lanczos_lowest

    energy, vec, residual, iterations = lanczos_lowest(
        matvec, grid.point_count, seed=np.exp(-alphaZ * grid.radius).ravel(),
        tol=1e-12, maxit=500, precond=precond,
    )
    vec = vec.real
    if vec.sum() < 0.0:
        vec = -vec
    psi = vec.reshape(shape) / grid.h**1.5
    return AtomicState(grid, alphaZ, energy, psi, residual, iterations)


# ---------------------------------------------------------------------------
# position functions
# ---------------------------------------------------------------------------

def position_operator(
    grid: PositionGrid,
    name: str,
    *,
    beta: float | None = None,
    R: float | None = None,
    c: float = 1.0,
):
    """Diagonal of the multiplication operator for a named position function,
    flat in the grid's point order.

    Names: abs_x -> |x|; x_squared -> |x|^2; log3 -> log(3 + c|x|);
    exp_beta -> e^{beta |x|}; g_r -> chi_R(|x|) sqrt(log(3 + c|x|)) with the
    linear cutoff ramp chi_R = 0 below R/2, 1 above R.
    """
    r = grid.radius
    if name == "abs_x":
        diag = r.copy()  # the grid caches r; callers own what is returned
    elif name == "x_squared":
        diag = r**2
    elif name == "log3":
        if c <= 0.0:
            raise ParameterError(f"log3 needs c > 0, got {c}")
        diag = np.log(3.0 + c * r)
    elif name == "exp_beta":
        if beta is None or beta < 0.0:
            raise ParameterError("exp_beta needs beta >= 0")
        if beta * grid.L >= 700.0:
            raise ParameterError(
                f"beta*L = {beta * grid.L:.1f} would overflow exp; need < 700"
            )
        if beta * float(r.max()) >= 709.0:
            raise ParameterError("exp(beta |x|) overflows at the box corner")
        diag = np.exp(beta * r)
    elif name == "g_r":
        if R is None or R <= 0.0:
            raise ParameterError("g_r needs a radius R > 0")
        if c <= 0.0:
            raise ParameterError(f"g_r needs c > 0, got {c}")
        chi = np.clip((2.0 * r - R) / R, 0.0, 1.0)
        diag = chi * np.sqrt(np.log(3.0 + c * r))
    else:
        raise ParameterError(f"unknown position function {name!r}")
    return diag.ravel()


# ---------------------------------------------------------------------------
# l=1 radial resolvent
# ---------------------------------------------------------------------------

_RADIAL_R_MAX = 40.0
_RADIAL_POINTS = 4000
_radial_cache: dict[str, np.ndarray] = {}


def _radial_pieces() -> dict[str, np.ndarray]:
    """Static parts of the unit-coupling l=1 radial problem.

    The reduced equation for u(r) = r * (resolvent applied to the radial
    profile) reads
        -1/2 u'' + (1/r^2 - 1/r + 1/2 + sigma) u = r f(r),
    with f(r) = pi^{-1/2} e^{-r} the radial profile of each Cartesian
    component of grad psi_at at alphaZ = 1; the matrix element is
    4 pi * int (r f) u dr summed over the three components.
    """
    if not _radial_cache:
        dr = _RADIAL_R_MAX / (_RADIAL_POINTS + 1)
        r = dr * np.arange(1, _RADIAL_POINTS + 1)
        rhs = r * np.exp(-r) / math.sqrt(math.pi)
        _radial_cache["dr"] = np.array(dr)
        _radial_cache["diag_static"] = 1.0 / dr**2 + 1.0 / r**2 - 1.0 / r + 0.5
        _radial_cache["off"] = np.full(_RADIAL_POINTS, -0.5 / dr**2)
        _radial_cache["rhs"] = rhs
    return _radial_cache


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

    pieces = _radial_pieces()
    sigma = omega_shift / alphaZ**2
    npts = _RADIAL_POINTS
    ab = np.empty((3, npts))
    ab[0] = pieces["off"]
    ab[1] = pieces["diag_static"] + sigma
    ab[2] = pieces["off"]
    u = solve_banded((1, 1), ab, pieces["rhs"])
    if not np.all(np.isfinite(u)):
        raise RuntimeError("radial linear solve produced non-finite values")
    return 4.0 * math.pi * float(pieces["rhs"] @ u) * float(pieces["dr"])
