"""Truncated boson sector: mode grids, occupation basis, ladder operators.

The field is discretized on a finite set of momentum modes covering the
cutoff shell; the Fock space is truncated by a *total* occupation cap so the
dimension stays C(M + N_max, N_max).  The ladder operators of all modes are
index tables over the basis, built in one call with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterError

_TWO_PI_CUBED = (2.0 * math.pi) ** 3
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
SOFT_BOUNDARY = 1.0  # the soft/hard split |k| < 1 of the photon-number ceilings


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Discretized momentum shell: row ``k[j]`` is the j-th mode's wave
    vector and ``w[j]`` its quadrature weight (the (2 pi)^-3 volume factor
    is folded into the weight), both in defining units."""

    k: np.ndarray
    w: np.ndarray

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
        return self.omega < SOFT_BOUNDARY


def _fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors (deterministic golden-angle spiral)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN_ANGLE * i
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1] by
    Golub-Welsch (Math. Comp. 23, 1969): the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, and twice the squared first
    components of its unit eigenvectors.  numpy.polynomial stays unloaded."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * vecs[0] ** 2


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
        x, wx = _gauss_legendre(n_radial)
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
    return ModeGrid(k=k, w=w)


class FockBasis:
    """Occupation-number basis with a total cap: all (n_1 .. n_M) with
    sum <= n_max, enumerated by total occupation then lexicographically.
    The vacuum is index 0 and the dimension is C(M + n_max, n_max).

    The occupations and the raising table come from one pass over the
    shells.  Shell t + 1 raises each state of shell t in every mode j at or
    after its last occupied mode l (every mode for the vacuum), j
    descending: each state is made once, from the parent that lacks one
    boson in its last occupied mode, and in lexicographic order.
    ``_raising[j, k]``, over the K states below the top shell, is the index
    of state k raised in mode j: made by the pass where j >= l, and for j <
    l the parent's raise in j raised in l, a step the pass made from that
    state.  ``_comb`` and ``_indices`` give the closed-form rank."""

    def __init__(self, mode_count: int, n_max: int):
        if mode_count < 1 or n_max < 0:
            raise ParameterError("need mode_count >= 1 and n_max >= 0")
        self.mode_count = m = int(mode_count)
        self.n_max = int(n_max)
        # comb[p, r] = C(r + p, p) counts occupations of p modes by <= r bosons
        self._comb = np.array([[math.comb(r + p, p) for r in range(self.n_max + 1)]
                               for p in range(m + 1)])
        dim = math.comb(m + self.n_max, m)
        self.occupations = occ = np.zeros((dim, m), dtype=np.int32)
        self._raising = np.empty((m, dim - math.comb(m - 1 + self.n_max, m - 1)), dtype=np.int64)
        modes = np.arange(m)[:, None]
        start, last = 0, np.zeros(1, dtype=np.int64)  # shell 0, the vacuum
        for _ in range(self.n_max):
            stop = start + last.size  # shell t is [start, stop), shell t + 1 starts at stop
            counts = m - last  # children of each state, mode m - 1 first
            first = stop + np.cumsum(counts) - counts
            raised = self._raising[:, start:stop]
            np.add(first, m - 1 - modes, out=raised)  # right where j >= last
            if start:  # below the last mode: the parent's raise, then one step
                below = modes < last
                raised[below] = (first[self._raising[:, parent] - start] + (m - 1 - last))[below]
            parent = np.repeat(np.arange(start, stop), counts)
            children = np.arange(stop, stop + parent.size)
            last = (m - 1) - (children - np.repeat(first, counts))  # the mode each child raised
            occ[children] = occ[parent]
            occ[children, last] += 1
            start = stop
        self._raising.flags.writeable = False  # ladder_ops hands it out

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

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


def ladder_ops(basis: FockBasis):
    """The raising tables ``(src, val)`` of all modes, each (M, K), over the
    states below the top shell, the first K of the basis: state k raised in
    mode j is state ``src[j, k]``, with amplitude
    ``val[j, k] = sqrt(n_j(k) + 1)``.  So adag_j maps k to src[j, k], a_j
    maps src[j, k] back to k with the same amplitude, and a_j sends every
    state with n_j = 0 to zero.  ``src`` is the table the basis built with
    its shells (``FockBasis``), read-only since every model on the basis
    reads it."""
    src = basis._raising
    return src, np.sqrt(basis.occupations[: src.shape[1]].T + 1.0, order="C")
