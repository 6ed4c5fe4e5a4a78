"""Ground-state observables: photon numbers, spatial moments, decoupled overlaps.

``ground_state_report`` forms |psi|^2 once and reads every observable of a
solved ground state from it.  It keeps the particle density, which the
verification suite weighs for the moments the report does not carry; the
public functions below give the report's values one at a time.

All states are flat coupled vectors in the solver's Fock-major layout,
``state[d * X + x]`` with ``X`` the particle points, and are treated as
l2-normalized (the routines renormalize defensively so a global phase or
scale never matters).  The atomic reference ``AtomicState.psi`` is a unit l2
vector over the same points, read as is.  States, grids and moments are in
defining units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .fockspace import FockBasis, ModeGrid
from .model import ParameterError
from .particle import AtomicState, PositionGrid


def _as_matrix(state: np.ndarray, basis: FockBasis) -> tuple[np.ndarray, float]:
    """A flat coupled vector as a (D, n_points) view and its nonzero l2 norm;
    ``np.divide(*_as_matrix(...))`` is the unit-normalized copy."""
    v = np.asarray(state).ravel()
    if v.size == 0 or v.size % basis.dim != 0:
        raise ParameterError(
            f"state length {v.size} is not a multiple of the Fock dimension {basis.dim}"
        )
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ParameterError("cannot form observables of the zero vector")
    return v.reshape(basis.dim, -1), nrm


def sector_weights(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Probability carried by each Fock sector, summed over the particle grid."""
    mat = np.divide(*_as_matrix(state, basis))
    return np.sum((mat.conj() * mat).real, axis=1)


def position_density(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Probability at each particle point, summed over the Fock sectors."""
    mat = np.divide(*_as_matrix(state, basis))
    return np.sum((mat.conj() * mat).real, axis=0)


def vacuum_sector_weight(state: np.ndarray, basis: FockBasis) -> float:
    """<1 (x) P_Omega>: total probability of the zero-photon sector, Fock
    index 0."""
    return float(sector_weights(state, basis)[0])


class PhotonNumbers(NamedTuple):
    total: float
    soft: float
    hard: float


def photon_number(state: np.ndarray, basis: FockBasis, modes: ModeGrid) -> PhotonNumbers:
    """Expected photon numbers (total, soft, hard) in the given state.

    Soft means mode frequency below the grid's soft/hard boundary.  The
    total is formed as soft + hard so the split is exact by construction.
    """
    if modes.count != basis.mode_count:
        raise ParameterError(
            f"mode grid has {modes.count} modes but the basis indexes {basis.mode_count}"
        )
    return _photons(sector_weights(state, basis), basis, modes)


def _photons(weights: np.ndarray, basis: FockBasis, modes: ModeGrid) -> PhotonNumbers:
    # the soft and hard photons of each state, summed exactly on the integer occupations
    occ, mask = basis.occupations, modes.soft_mask
    soft = float(weights @ (occ @ mask).astype(float))
    hard = float(weights @ (occ @ ~mask).astype(float))
    return PhotonNumbers(total=soft + hard, soft=soft, hard=hard)


# the report's moments, each a function of |x| on the grid's points
_MOMENTS = {
    "abs_x": lambda r: r,
    "x_squared": lambda r: r**2,
    "log3": lambda r: np.log(3.0 + r),
}


def spatial_moment(state: np.ndarray, grid: PositionGrid, basis: FockBasis, f_name: str) -> float:
    """<f(|x|) (x) 1> for f in abs_x, x_squared, log3: the density weighed
    by f at each grid point."""
    if f_name not in _MOMENTS:
        raise ParameterError(f"f_name must be one of {tuple(_MOMENTS)}, got {f_name!r}")
    return float(_MOMENTS[f_name](grid.radius.ravel()) @ position_density(state, basis))


def overlap_with_decoupled(
    state: np.ndarray, atomic: AtomicState, basis: FockBasis
) -> tuple[float, float]:
    """(overlap_P, overlap_Q) against the decoupled product reference.

    overlap_P = |<psi_at (x) Omega, psi>|^2 is the weight on the product of
    the discrete atomic ground state with the Fock vacuum; overlap_Q is the
    weight of (1 - P_at) (x) P_Omega, i.e. the rest of the vacuum sector,
    formed as ||row - <psi_at, row> psi_at||^2 on the vacuum row, so a small
    weight keeps its digits instead of being the difference of two near 1.
    """
    return _overlaps(np.divide(*_as_matrix(state, basis))[0], atomic)


def _overlaps(row: np.ndarray, atomic: AtomicState) -> tuple[float, float]:
    npts = atomic.psi.size
    if row.size != npts:
        raise ParameterError(
            f"state has {row.size} grid points but the atomic state has {npts}"
        )
    amp = np.vdot(atomic.psi, row)
    rest = row - amp * atomic.psi
    return float(abs(amp) ** 2), float(np.vdot(rest, rest).real)


@dataclass(frozen=True)
class GroundStateReport:
    """Observable summary of a coupled ground state.

    Moments are defining-units expectations keyed by operator name.
    Invariants: overlap_p + overlap_q <= vacuum_weight <= 1, every moment is
    nonnegative, and n_f_soft + n_f_hard == n_f_total exactly.  ``density``
    is the probability at each particle point, the one |psi|^2 every moment
    weighs; it is kept for further moments and left out of the printed report.
    """

    energy: float
    n_f_total: float
    n_f_soft: float
    n_f_hard: float
    moments: dict
    overlap_p: float
    overlap_q: float
    vacuum_weight: float
    density: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        """The printed fields: every one but the density."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def ground_state_report(model, result) -> GroundStateReport:
    """Assemble the full observable report for a solved coupled model.

    ``model`` is an assembled coupled model exposing grid/modes/basis and the
    atomic reference; ``result`` is the eigensolver output for its ground
    state.
    """
    if model.grid is None:
        raise ParameterError("observable reports need a particle sector")
    mat, nrm = _as_matrix(result.vector, model.basis)  # one norm for every observable
    # |psi|^2 one Fock row at a time, normalized into ``row`` (the bits of v / nrm), so no
    # (D, X) temporary; conj(psi) psi, not re^2 + im^2: numpy's complex product fuses re^2
    # into the sum, so re^2 + im^2 differs in the last bit and the printed moments with it
    prob, row = np.empty(mat.shape), np.empty(mat.shape[1], dtype=mat.dtype)
    square = np.empty(mat.shape[1], dtype=complex)
    for d in range(len(mat)):  # by index, so no view of prob outlives ``del``
        np.divide(mat[d], nrm, out=row)
        prob[d] = np.multiply(np.conjugate(row, out=square), row, out=square).real
    weights, density = np.sum(prob, axis=1), np.sum(prob, axis=0)
    del prob, square  # freed before the overlaps
    nums = _photons(weights, model.basis, model.modes)
    r = model.grid.radius.ravel()
    moments = {name: float(f(r) @ density) for name, f in _MOMENTS.items()}
    overlap_p, overlap_q = _overlaps(np.divide(mat[0], nrm, out=row), model.atomic_reference())
    return GroundStateReport(
        energy=float(result.energy),
        n_f_total=nums.total,
        n_f_soft=nums.soft,
        n_f_hard=nums.hard,
        moments=moments,
        overlap_p=overlap_p,
        overlap_q=overlap_q,
        vacuum_weight=float(weights[0]),
        density=density,
    )
