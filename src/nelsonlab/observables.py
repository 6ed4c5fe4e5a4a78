"""Ground-state observables: photon numbers, spatial moments, decoupled overlaps.

``ground_state_report`` forms |psi|^2 once (``_probabilities``) and reads
every observable of a solved ground state from it.  It keeps the particle
density, which the verification suite weighs for the moments the report does
not carry.  The four public functions below give the report's values one at
a time, each from the same one pass; they remain as the benchmark tracer's
span names.

All states are flat coupled vectors in the solver's Fock-major layout,
``state[d * X + x]`` with ``X`` the particle points, and are treated as
l2-normalized (the routines renormalize defensively so a global phase or
scale never matters).  The atomic reference, ``particle.atomic_ground``'s
``SpectralResult``, has as its vector a unit l2 vector over the same points,
read as is.  States, grids and moments are in defining units.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .fockspace import FockBasis, ModeGrid
from .model import ParameterError
from .particle import PositionGrid
from .spectral import SpectralResult


def _probabilities(state: np.ndarray, basis: FockBasis) -> tuple[np.ndarray, ...]:
    """|psi|^2 of a flat coupled vector, normalized once, summed each way:
    the weight of each Fock state (D,), the density at each particle point
    (X,), and the unit vacuum row psi(0, .) (X,) that the overlaps read."""
    v = np.asarray(state).ravel()
    if v.size == 0 or v.size % basis.dim != 0:
        raise ParameterError(
            f"state length {v.size} is not a multiple of the Fock dimension {basis.dim}"
        )
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ParameterError("cannot form observables of the zero vector")
    mat = v.reshape(basis.dim, -1)
    # one Fock row at a time, normalized into ``row`` (the bits of v / nrm), so no (D, X)
    # temporary; conj(psi) psi, not re^2 + im^2: numpy's complex product fuses re^2 into
    # the sum, so re^2 + im^2 differs in the last bit and the printed moments with it
    prob, row = np.empty(mat.shape), np.empty(mat.shape[1], dtype=mat.dtype)
    square = np.empty(mat.shape[1], dtype=complex)
    for d in range(len(mat)):
        np.divide(mat[d], nrm, out=row)
        prob[d] = np.multiply(np.conjugate(row, out=square), row, out=square).real
    return np.sum(prob, axis=1), np.sum(prob, axis=0), np.divide(mat[0], nrm, out=row)


def vacuum_sector_weight(state: np.ndarray, basis: FockBasis) -> float:
    """<1 (x) P_Omega>: total probability of the zero-photon sector, Fock
    index 0."""
    return float(_probabilities(state, basis)[0][0])


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
    return _photons(_probabilities(state, basis)[0], basis, modes)


def _photons(weights: np.ndarray, basis: FockBasis, modes: ModeGrid) -> PhotonNumbers:
    mask = modes.soft_mask  # each state's soft and hard photons: mode sums of 0/1, so exact
    soft, hard = (float(weights @ basis.mode_sum(m.astype(float))) for m in (mask, ~mask))
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
    return float(_MOMENTS[f_name](grid.radius.ravel()) @ _probabilities(state, basis)[1])


def overlap_with_decoupled(
    state: np.ndarray, atomic: SpectralResult, basis: FockBasis
) -> tuple[float, float]:
    """(overlap_P, overlap_Q) against the decoupled product reference.

    overlap_P = |<psi_at (x) Omega, psi>|^2 is the weight on the product of
    the discrete atomic ground state with the Fock vacuum; overlap_Q is the
    weight of (1 - P_at) (x) P_Omega, i.e. the rest of the vacuum sector,
    formed as ||row - <psi_at, row> psi_at||^2 on the vacuum row, so a small
    weight keeps its digits instead of being the difference of two near 1.
    """
    return _overlaps(_probabilities(state, basis)[2], atomic.vector)


def _overlaps(row: np.ndarray, psi_at: np.ndarray) -> tuple[float, float]:
    if row.size != psi_at.size:
        raise ParameterError(
            f"state has {row.size} grid points but the atomic state has {psi_at.size}"
        )
    amp = np.vdot(psi_at, row)
    rest = row - amp * psi_at
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
    weights, density, row = _probabilities(result.vector, model.basis)
    nums = _photons(weights, model.basis, model.modes)
    r = model.grid.radius.ravel()
    moments = {name: float(f(r) @ density) for name, f in _MOMENTS.items()}
    overlap_p, overlap_q = _overlaps(row, model.atomic_reference().vector)
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
