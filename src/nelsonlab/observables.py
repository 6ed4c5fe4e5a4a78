"""Ground-state observables: photon numbers, spatial moments, decoupled overlaps.

All states are flat coupled vectors ordered like the solver's matvec,
``state[x_flat * D + d]`` with ``D`` the Fock dimension, and are treated as
l2-normalized (the routines renormalize defensively so a global phase or
scale never matters).  Spatial moments are always reported in defining
(base-frame) units: when the state was computed in a dilated frame, pass the
frame and the conversion happens internally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .closedform import exp_moment_precondition
from .fockspace import FockBasis, ModeGrid
from .model import DomainError, ParameterError, ModelParams, ScaleFrame, base_frame
from .particle import AtomicState, PositionGrid, position_operator


def _as_matrix(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Reshape a flat coupled vector to (n_points, D) and unit-normalize."""
    v = np.asarray(state).ravel()
    if v.size == 0 or v.size % basis.dim != 0:
        raise ParameterError(
            f"state length {v.size} is not a multiple of the Fock dimension {basis.dim}"
        )
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ParameterError("cannot form observables of the zero vector")
    return (v / nrm).reshape(-1, basis.dim)


def sector_weights(state: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Probability carried by each Fock sector, summed over the particle grid."""
    mat = _as_matrix(state, basis)
    return np.sum((mat.conj() * mat).real, axis=0)


def vacuum_sector_weight(state: np.ndarray, basis: FockBasis) -> float:
    """<1 (x) P_Omega>: total probability of the zero-photon sector."""
    w = sector_weights(state, basis)
    totals = basis.totals()
    return float(w[totals == 0].sum())


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
    w = sector_weights(state, basis)
    occ = basis.occupations.astype(float)
    mask = modes.soft_mask
    soft = float(w @ (occ @ mask.astype(float)))
    hard = float(w @ (occ @ (~mask).astype(float)))
    return PhotonNumbers(total=soft + hard, soft=soft, hard=hard)


_MOMENT_NAMES = ("abs_x", "x_squared", "log3", "exp_beta")


def spatial_moment(
    state: np.ndarray,
    grid: PositionGrid,
    basis: FockBasis,
    f_name: str,
    params: ModelParams | None = None,
    *,
    frame: ScaleFrame | None = None,
    beta: float | None = None,
) -> float:
    """<f(|x|) (x) 1> in defining units for f in abs_x, x_squared, log3, exp_beta.

    ``grid`` holds the solver-frame coordinates; with a dilated ``frame`` the
    operator is rescaled internally so the returned moment is always the
    defining-units one (|x| = rho^-tau |x'|).  ``beta`` (defining units) is
    required for exp_beta; when ``params`` is supplied the exponential-moment
    window 1/2 - 2/R - (beta^2/4)(4 pi/(e^2 Z))^2 > 0 for some R > 4 is
    checked first and a violation raises DomainError.
    """
    if f_name not in _MOMENT_NAMES:
        raise ParameterError(f"f_name must be one of {_MOMENT_NAMES}, got {f_name!r}")
    fr = base_frame() if frame is None else frame
    stretch = fr.r_of(-fr.tau)  # defining length per frame length

    mat = _as_matrix(state, basis)
    density = np.einsum("xd,xd->x", mat.conj(), mat).real

    if f_name == "abs_x":
        diag = position_operator(grid, "abs_x") * stretch
    elif f_name == "x_squared":
        diag = position_operator(grid, "x_squared") * stretch**2
    elif f_name == "log3":
        diag = position_operator(grid, "log3", c=stretch)
    else:
        if beta is None or not (beta > 0.0):
            raise ParameterError("exp_beta needs beta > 0 in defining units")
        if params is not None:
            # margin is largest as R -> infinity; any representative R > 4 set
            if exp_moment_precondition(params.e, params.Z, beta, 1e300) <= 0.0:
                raise DomainError(
                    f"exponential moment outside its window: beta={beta} is too "
                    f"large for e={params.e}, Z={params.Z}"
                )
        diag = position_operator(grid, "exp_beta", beta=beta * stretch)
    return float(diag @ density)


def overlap_with_decoupled(
    state: np.ndarray, atomic: AtomicState, basis: FockBasis
) -> tuple[float, float]:
    """(overlap_P, overlap_Q) against the decoupled product reference.

    overlap_P = |<psi_at (x) Omega, psi>|^2 is the weight on the product of
    the discrete atomic ground state with the Fock vacuum; overlap_Q is the
    weight of (1 - P_at) (x) P_Omega, i.e. the rest of the vacuum sector.
    """
    mat = _as_matrix(state, basis)
    npts = atomic.psi.size
    if mat.shape[0] != npts:
        raise ParameterError(
            f"state has {mat.shape[0]} grid points but the atomic state has {npts}"
        )
    ref = atomic.psi.ravel() * atomic.grid.h**1.5  # unit l2 vector
    ref = ref / np.linalg.norm(ref)
    vac_idx = basis.index_of((0,) * basis.mode_count)
    col = mat[:, vac_idx]
    amp = np.vdot(ref, col)
    overlap_p = float(abs(amp) ** 2)
    vac_weight = float(np.vdot(col, col).real)
    overlap_q = max(vac_weight - overlap_p, 0.0)
    return overlap_p, overlap_q


@dataclass(frozen=True)
class GroundStateReport:
    """Observable summary of a coupled ground state.

    Moments are defining-units expectations keyed by operator name.
    Invariants: overlap_p + overlap_q <= vacuum_weight <= 1, every moment is
    nonnegative, and n_f_soft + n_f_hard == n_f_total exactly.
    """

    energy: float
    n_f_total: float
    n_f_soft: float
    n_f_hard: float
    moments: dict
    overlap_p: float
    overlap_q: float
    vacuum_weight: float

    def to_dict(self) -> dict:
        return asdict(self)


def ground_state_report(model, result) -> GroundStateReport:
    """Assemble the full observable report for a solved coupled model.

    ``model`` is an assembled coupled model exposing grid/modes/basis and the
    atomic reference; ``result`` is the eigensolver output for its ground
    state.
    """
    if model.grid is None:
        raise ParameterError("observable reports need a particle sector")
    state = result.vector
    nums = photon_number(state, model.basis, model.modes)
    moments = {
        name: spatial_moment(state, model.grid, model.basis, name, model.params, frame=model.frame)
        for name in ("abs_x", "x_squared", "log3")
    }
    overlap_p, overlap_q = overlap_with_decoupled(
        state, model.atomic_reference(), model.basis
    )
    return GroundStateReport(
        energy=float(result.energy),
        n_f_total=nums.total,
        n_f_soft=nums.soft,
        n_f_hard=nums.hard,
        moments=moments,
        overlap_p=overlap_p,
        overlap_q=overlap_q,
        vacuum_weight=vacuum_sector_weight(state, model.basis),
    )
