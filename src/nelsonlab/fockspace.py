"""Truncated boson sector: mode grids, occupation basis, ladder operators.

The field is discretized on a finite set of momentum modes covering the
cutoff shell; the Fock space is truncated by a *total* occupation cap so the
dimension stays C(M + N_max, N_max).  Every operator is assembled as a scipy
sparse matrix and is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from .model import DomainError, ParameterError, ScaleFrame

_TWO_PI_CUBED = (2.0 * math.pi) ** 3
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Discretized momentum shell: row ``k[j]`` is the j-th mode's wave
    vector and ``w[j]`` its quadrature weight (the (2 pi)^-3 volume factor
    is folded into the weight).  ``soft_boundary`` is the soft/hard split
    radius in the grid's own units (1.0 in the base frame)."""

    k: np.ndarray
    w: np.ndarray
    kappa: float
    lam: float
    soft_boundary: float = 1.0

    def __post_init__(self):
        if self.k.ndim != 2 or self.k.shape[1] != 3 or self.k.shape[0] != self.w.shape[0]:
            raise ParameterError("mode arrays must have shapes (M, 3) and (M,)")
        if np.any(self.w <= 0.0):
            raise ParameterError("mode weights must be positive")

    @property
    def count(self) -> int:
        return self.k.shape[0]

    @property
    def omega(self) -> np.ndarray:
        """Massless dispersion |k| per mode."""
        return np.linalg.norm(self.k, axis=1)

    @property
    def soft_mask(self) -> np.ndarray:
        return self.omega < self.soft_boundary

    @property
    def soft_count(self) -> int:
        return int(np.count_nonzero(self.soft_mask))

    @property
    def hard_count(self) -> int:
        return self.count - self.soft_count


def _fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors (deterministic golden-angle spiral)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def build_modes(kappa: float, lam: float, n_radial: int, n_angular: int) -> ModeGrid:
    """Product quadrature over the shell kappa <= |k| <= lam.

    Radial: Gauss-Legendre nodes on [kappa, lam] with the r^2 Jacobian in the
    weight (a single radial node is placed at the shell midpoint and carries
    the exact r^2 moment, i.e. the shell volume).  Angular: one node along
    +z with weight 4 pi, or an n-point golden-angle spiral with equal
    weights.  All weights carry the (2 pi)^-3 convention of the smeared
    coupling, so sum(w) * (2 pi)^3 = shell volume up to Gauss exactness.
    """
    if not (0.0 <= kappa < lam) or math.isinf(lam):
        raise ParameterError(f"need 0 <= kappa < lam < inf, got [{kappa}, {lam}]")
    if n_radial < 1 or n_angular < 1:
        raise ParameterError("n_radial and n_angular must be >= 1")

    if n_radial == 1:
        r = np.array([0.5 * (kappa + lam)])
        r2w = np.array([(lam**3 - kappa**3) / 3.0])  # exact second moment
    else:
        x, wx = np.polynomial.legendre.leggauss(n_radial)
        r = 0.5 * (lam - kappa) * x + 0.5 * (lam + kappa)
        r2w = r * r * (0.5 * (lam - kappa) * wx)

    if n_angular == 1:
        dirs = np.array([[0.0, 0.0, 1.0]])
        ang_w = np.array([4.0 * math.pi])
    else:
        dirs = _fibonacci_sphere(n_angular)
        ang_w = np.full(n_angular, 4.0 * math.pi / n_angular)

    k = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = (r2w[:, None] * ang_w[None, :]).reshape(-1) / _TWO_PI_CUBED
    return ModeGrid(k=k, w=w, kappa=kappa, lam=lam)


def scale_modes(grid: ModeGrid, frame: ScaleFrame) -> ModeGrid:
    """Push a base-frame grid into a scale frame: wave vectors stretch by
    rho^(-2 tau), weights (momentum-volume elements) by rho^(-6 tau), and the
    soft/hard boundary moves with the wave vectors."""
    s = frame.r_of(-2.0 * frame.tau)
    return ModeGrid(
        k=grid.k * s,
        w=grid.w * s**3,
        kappa=grid.kappa * s,
        lam=grid.lam * s,
        soft_boundary=grid.soft_boundary * s,
    )


def snap_modes_to_lattice(grid: ModeGrid, dk: float) -> ModeGrid:
    """Round every mode vector to the nearest reciprocal-lattice point
    (multiples of dk per axis) so plane-wave shifts are exact on the box.

    Raises :class:`DomainError` when a mode rounds to the zero vector or two
    modes collide."""
    if not (dk > 0.0):
        raise ParameterError(f"dk must be positive, got {dk}")
    snapped = np.round(grid.k / dk) * dk
    norms = np.linalg.norm(snapped, axis=1)
    if np.any(norms == 0.0):
        raise DomainError("a mode snapped to the zero vector; refine the box")
    keys = {tuple(np.round(row / dk).astype(int)) for row in snapped}
    if len(keys) != snapped.shape[0]:
        raise DomainError("two modes snapped to the same lattice point")
    return replace(grid, k=snapped)


class FockBasis:
    """Occupation-number basis with a total cap: all (n_1 .. n_M) with
    sum <= n_max, enumerated by total occupation then lexicographically.
    The vacuum is index 0 and the dimension is C(M + n_max, n_max)."""

    def __init__(self, mode_count: int, n_max: int):
        if mode_count < 1 or n_max < 0:
            raise ParameterError("need mode_count >= 1 and n_max >= 0")
        self.mode_count = int(mode_count)
        self.n_max = int(n_max)
        # comb[p, r] = C(r + p, p) counts occupations of p modes by <= r bosons
        self._comb = np.array([[math.comb(r + p, p) for r in range(self.n_max + 1)]
                               for p in range(self.mode_count + 1)])
        # shell by shell: raise each state of the last shell in every mode and
        # keep each new state once, ordered by its index (_indices)
        m = self.mode_count
        shells = [np.zeros((1, m), dtype=np.int32)]
        for _ in range(self.n_max):
            raised = (shells[-1][:, None, :] + np.eye(m, dtype=np.int32)).reshape(-1, m)
            shells.append(raised[np.unique(self._indices(raised), return_index=True)[1]])
        self.occupations = np.concatenate(shells)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ) -> int:
        row = np.asarray(occ, dtype=np.int64)
        if row.shape != (self.mode_count,) or row.min() < 0 or row.sum() > self.n_max:
            raise KeyError(tuple(occ))
        return int(self._indices(row[None])[0])

    def _indices(self, occ: np.ndarray) -> np.ndarray:
        """Index of each occupation row of ``occ``, counting the states with
        fewer bosons, then mode by mode those with fewer bosons in that mode."""
        m, comb = self.mode_count, self._comb
        left = occ.sum(axis=1)
        index = np.where(left > 0, comb[m, left - 1], 0)
        for i in range(m - 1):
            index += comb[m - 1 - i, left] - comb[m - 1 - i, left - occ[:, i]]
            left = left - occ[:, i]
        return index

    def totals(self) -> np.ndarray:
        return self.occupations.sum(axis=1)


def vacuum_vector(basis: FockBasis) -> np.ndarray:
    v = np.zeros(basis.dim)
    v[0] = 1.0
    return v


def ladder_ops(basis: FockBasis, j: int):
    """(a_j, adag_j, n_j) as CSR matrices.  a_j lowers mode j by one boson
    (always landing inside the basis), adag_j is its transpose, and
    n_j = adag_j a_j is the diagonal occupation of mode j."""
    if not (0 <= j < basis.mode_count):
        raise ParameterError(f"mode index {j} out of range")
    occ = basis.occupations
    raisable = occ[:, j] > 0
    src = np.nonzero(raisable)[0]
    vals = np.sqrt(occ[src, j].astype(float))
    lowered = occ[src].copy()
    lowered[:, j] -= 1
    dst = basis._indices(lowered)
    shape = (basis.dim, basis.dim)
    a = sparse.csr_matrix((vals, (dst, src)), shape=shape)
    # adag_j and n_j hold one entry in each of the (sorted) rows src
    rows = np.concatenate(([0], np.cumsum(raisable)))
    adag = sparse.csr_matrix((vals, dst, rows), shape=shape)
    n_j = sparse.csr_matrix((occ[src, j].astype(float), src, rows), shape=shape)
    return a, adag, n_j


def number_operator(basis: FockBasis, grid: ModeGrid | None = None,
                    region: str = "all") -> sparse.csr_matrix:
    """Diagonal total/soft/hard boson number operator."""
    if region == "all":
        diag = basis.totals().astype(float)
    elif region in ("soft", "hard"):
        if grid is None:
            raise ParameterError("soft/hard number operators need the mode grid")
        if grid.count != basis.mode_count:
            raise ParameterError("grid and basis disagree on the mode count")
        mask = grid.soft_mask if region == "soft" else ~grid.soft_mask
        diag = basis.occupations[:, mask].sum(axis=1).astype(float)
    else:
        raise ParameterError(f"unknown region {region!r}")
    return sparse.diags(diag, format="csr")


def field_energy(basis: FockBasis, grid: ModeGrid) -> sparse.csr_matrix:
    """H_f = sum_j omega_j n_j (diagonal, nonnegative, vacuum value 0)."""
    if grid.count != basis.mode_count:
        raise ParameterError("grid and basis disagree on the mode count")
    diag = basis.occupations.astype(float) @ grid.omega
    return sparse.diags(diag, format="csr")


def displacement(basis: FockBasis, j: int, eta: complex) -> sparse.csr_matrix:
    """Single-mode coherent displacement exp(eta adag_j - conj(eta) a_j),
    computed densely (the generator is anti-Hermitian, so the result is
    unitary even under the occupation cap) and re-sparsified at 1e-14."""
    if not (math.isfinite(eta.real) and math.isfinite(abs(eta))):
        raise ParameterError(f"eta must be finite, got {eta!r}")
    if basis.dim > 4000:
        raise ParameterError(
            f"dense displacement limited to dimension 4000, got {basis.dim}"
        )
    a, adag, _ = ladder_ops(basis, j)
    gen = (eta * adag - np.conj(eta) * a).toarray()
    dense = expm(gen)
    dense[np.abs(dense) < 1e-14] = 0.0
    return sparse.csr_matrix(dense)
