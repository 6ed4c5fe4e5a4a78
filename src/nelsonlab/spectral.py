"""Hamiltonian assembly on the particle x Fock tensor basis and spectra.

Builds the three model variants (the dressed arrangement of the coupled
model, its translation-invariant V=0 relative, and the fixed-momentum
fiber model), finds ground states by preconditioned LOBPCG, and checks the
commutator and soft-mode decomposition identities as exact matrix
statements.

The eigensolver is single-vector LOBPCG (A. V. Knyazev, SIAM J. Sci.
Comput. 23, 2001), named lanczos_lowest still because the benchmark tracer
wraps that name.  Each step is one Rayleigh-Ritz on S = [x, w, p] from the
Gram matrices S*HS and S*S, restricted to the eigenvectors of S*S above a
fixed relative floor (U. Hetmaniuk and R. Lehoucq, J. Comput. Phys. 218,
2006, on the basis and its stability); the solver runs in the seed's
scalar type.  Its preconditioner is the part of H that is diagonal
where the matvec goes by FFT, T = F^-1 (|q|^2/2 + H_f + sigma)^-1 F, the
plane-wave choice of Teter, Payne and Allan (Phys. Rev. B 40, 1989); on
the fiber F is the identity.  sigma = max(-theta, 0) + _SHIFT_MARGIN, with
theta the current Ritz value, keeps T positive and close to (H - theta)^-1
away from the potential and the coupling, so the step count no longer
follows the kinetic width (pi/h)^2/2.  The effective-mass solves use the
same diagonal in conjugate gradients.

Conventions.  A state vector has shape (n^3 * D,) with the Fock index
fastest, viewed as (X, D) = (n^3, D); the matvec copies it once into the
Fock-major (D, X) layout and back, and transforms it as (D, n, n, n).
States and products take the scalar type the model's tables need:
complex128 on the grid variants, where the phases and the FFTs enter, and
float64 on the fiber, whose tables are all real.  A complex vector keeps
complex arithmetic on either.
The dressed-model coupling attaches to mode j the real 3-vector
    g_j = sqrt(w_j) * k_j * beta(k_j) / sqrt(2 w_j_disp)
with beta(k) = (|k| + rho2tau*|k|^2/2)^{-1}, and the three field
components are A_l = sum_j g_{jl} * phase_j(x) (x) a_j with
phase_j = e^{i r(tau) k_j . x}.  In a scale frame the linear term
carries e*rho^tau and the quadratic term e^2 rho^{2 tau}; the attractive
coefficient is alphaZ rho^{-tau}.  With the frame grid (L' = rho^tau L)
and frame modes (scale_modes) the assembled matrix equals
rho^{-2 tau} times the base-frame matrix, exactly.

The field coupling has one kernel on one ladder table of all modes (see
_ladder_table): a_j maps into the lowered block, the first K states, and
adag_j reads only from it.  ``components(u)`` gives the stack A_l u from one
gather u[_src], held as (C, K+1, X): the lowered block and one zero row,
where the clipped gathers of ``contract`` land for the states above it.
``contract(V)`` gives sum_l A_l V_l; their adjoints raise, each state adding
the at most min(M, N_max) entries of all modes that land on it.  No call
loops over the modes.  The matvec is
    H u = F^-1[ (|q|^2/2) F u + c sum_l q_l F(A_l u) ] + (U + H_f) u
          + (c^2/2) sum_l A_l (A u)_l + sum_l A*_l V_l,
    V_l = c p_l u + (c^2/2) (2 A_l u + A*_l u),
with c the linear coefficient and U the external potential (gross
variant only).  The sums over l run over the C coupled axes only: the
kernel drops the columns of g that are exactly zero, so every kept
product is the one the three-axis sum makes; C = 1 on the +z grid of one
angular node, 2 on the telescoping model's lattice, 3 on the golden-angle
spiral.  One forward FFT of u feeds the kinetic term and the C p_l u:
2 + 2C FFTs per matvec (1 + C forward, 1 + C inverse), the 2C of the
coupling on the lowered block only, since A u lives there and A* reads
only that block of V.  ``apply_D`` keeps all three axes in its particle
part d . p.  The fiber is the same kernel on one point, with phase 1 and
p_l the diagonal -P_f,l (no FFT), so it is a real symmetric matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .closedform import TELESCOPING_EPS, c_uv
from .fockspace import FockBasis, ModeGrid, ladder_ops, vacuum_vector
from .model import (
    ConvergenceError,
    DomainError,
    ModelParams,
    ParameterError,
    ScaleFrame,
    base_frame,
    coulomb_coefficient,
)
from .particle import AtomicState, PositionGrid, atomic_ground, coulomb_potential

__all__ = [
    "SpectralResult",
    "AssembledModel",
    "lanczos_lowest",
    "assemble",
    "lanczos_ground",
    "pull_through_residual",
    "soft_decomposition_residual",
    "effective_mass_numeric",
    "effective_mass_riemann",
]

_DIM_LIMIT = 500_000
_WORKSET_VECTORS = 8  # held: x, w, p, their products, one scratch; one spare for a transient
_WORKSET_BYTES_LIMIT = 2 * 2**30  # the eigensolver's vectors, counted at 16 bytes a value
_GRAM_FLOOR = 1e-14  # keeps eigenvalues of the unit-diagonal S*S above this times the largest
_SHIFT_MARGIN = 0.05  # sigma = max(-energy, 0) + margin in the diagonal preconditioner
_PCG_MAXIT = 5000
_PCG_TOL = 1e-10  # the inertia converges quadratically in the solves' residual
_VARIANTS = ("gross", "v0", "fiber")


@dataclass
class SpectralResult:
    energy: float
    vector: np.ndarray
    residual: float
    iterations: int


def lanczos_lowest(matvec, dim, seed, tol, maxit, *, precond):
    """Lowest eigenpair of a Hermitian operator by single-vector LOBPCG.

    The name stayed from the Lanczos solver this replaced, because the
    benchmark's tracer wraps it by name.  Each step is one Rayleigh-Ritz on
    S = [x, w, p] (Knyazev 2001), x the Ritz vector, w = precond(H x -
    theta x, sigma) and p the previous search direction.  The Gram matrices
    <s_i, H s_j> and <s_i, s_j> come from ``np.vdot`` of the held vectors,
    and ``_ritz_coefficients`` drops a direction that S spans only by
    rounding (Hetmaniuk and Lehoucq 2006).  One product per step gives H w;
    H x and H p are carried as the same combinations as x and p.  Ritz
    values never rise (up to rounding), so the energy is at most the seed's
    Rayleigh quotient.  ``precond`` applies a positive definite
    approximation of (H - theta)^-1, given sigma = max(-theta, 0) +
    _SHIFT_MARGIN (module docstring).

    The combinations run in place, so the solver holds at most seven
    vectors, x, H x, p, H p, w, H w and a scratch vector that takes the
    residual, within the _WORKSET_VECTORS that the guard counts; the
    operator's and the preconditioner's own temporaries come on top.
    The products and preconditioned residuals it is handed are overwritten,
    the seed never is.  They must fit the seed's scalar type: a real seed
    keeps real arithmetic, and a product or preconditioned residual of a
    wider type raises ParameterError.  The residual handed to ``precond``
    is the solver's own: ``precond`` may scale it in place and return it or
    a view.

    The carried H x drifts by rounding, so a residual that meets
    tol * max(1, |theta|) is confirmed by a fresh product before it is
    returned, and iteration resumes from that product if it fails.
    Returns (energy, vector, residual, iterations), iterations counting the
    operator products; raises ConvergenceError when maxit products miss
    tol, and ParameterError, before any product, on maxit < 1, on a tol
    that is not finite and positive, on a zero seed, or on a working set of
    _WORKSET_VECTORS vectors at 16 bytes a value over _WORKSET_BYTES_LIMIT.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    if not maxit >= 1:
        raise ParameterError(f"maxit must be >= 1, got {maxit}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    need = _WORKSET_VECTORS * dim * 16
    if need > _WORKSET_BYTES_LIMIT:
        raise ParameterError(f"eigensolver working set for dim={dim} needs {need} "
                             f"bytes, over the guard of {_WORKSET_BYTES_LIMIT}")
    x = np.asarray(seed, dtype=complex if np.iscomplexobj(seed) else float)
    del seed  # lanczos_ground hands over its only reference
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ParameterError("seed vector must be nonzero")
    x = x / norm  # a new array: x may be the caller's seed

    def fitted(v, what):
        v = np.asarray(v)
        if np.result_type(v, x) != x.dtype:
            raise ParameterError(f"{what} has type {v.dtype}, wider than the seed's {x.dtype}")
        return v.astype(x.dtype, copy=False)

    hx = fitted(matvec(x), "a product")
    products, fresh = 1, True
    p = hp = scratch = None
    while True:
        theta = float(np.vdot(x, hx).real)
        r = np.multiply(theta, x, out=scratch)
        np.subtract(hx, r, out=r)
        residual = float(np.linalg.norm(r))
        converged = residual <= tol * max(1.0, abs(theta))
        if converged and fresh:
            return theta, x, residual, products
        if products >= maxit:
            raise ConvergenceError(f"LOBPCG did not reach tol={tol} in {maxit} products "
                                   f"(last residual {residual:.3e}, energy {theta:.12g})")
        products += 1
        if converged:  # confirm the carried residual with a fresh product
            scratch, hx = r, None  # drop the carried product before the fresh one
            hx, fresh = fitted(matvec(x), "a product"), True
            continue
        w = fitted(precond(r, max(-theta, 0.0) + _SHIFT_MARGIN), "a preconditioned residual")
        scratch = None if np.may_share_memory(w, r) else r  # w may be r or a view of it
        del r
        hw, fresh = fitted(matvec(w), "a product"), False
        S, HS = ((x, w), (hx, hw)) if p is None else ((x, w, p), (hx, hw, hp))
        c = _ritz_coefficients(np.array([[np.vdot(a, b) for b in S] for a in S]),
                               np.array([[np.vdot(a, hb) for hb in HS] for a in S]))
        del S, HS  # the old p must not outlive the next product
        np.multiply(c[1], w, out=w)
        np.multiply(c[1], hw, out=hw)
        if p is not None:
            np.add(w, np.multiply(c[2], p, out=p), out=w)
            np.add(hw, np.multiply(c[2], hp, out=hp), out=hw)
        p, hp = w, hw  # the new search direction and its product
        del w, hw
        np.add(np.multiply(c[0], x, out=x), p, out=x)
        np.add(np.multiply(c[0], hx, out=hx), hp, out=hx)
        norm = np.linalg.norm(x)
        x /= norm
        hx /= norm


def _ritz_coefficients(overlap, gram):
    """The coefficients in S of the lowest Ritz vector, given S*S and S*HS.

    Both are scaled to a unit diagonal of S*S (a zero column stays zero)
    and projected onto the eigenvectors of S*S above _GRAM_FLOOR times the
    largest, so w or p in the span of the others, or zero, drops out
    instead of dividing by rounding."""
    sq = overlap.diagonal().real
    scale = np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=sq > 0.0)
    scale2 = np.outer(scale, scale)
    lam, vecs = np.linalg.eigh((overlap + overlap.conj().T) * (scale2 / 2.0))
    keep = lam > _GRAM_FLOOR * lam[-1]
    basis = vecs[:, keep] / np.sqrt(lam[keep])
    reduced = basis.conj().T @ ((gram + gram.conj().T) * (scale2 / 2.0)) @ basis
    return scale * (basis @ np.linalg.eigh(reduced)[1][:, 0])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AssembledModel:
    """One Hamiltonian variant realized as a structured matvec.

    The coupling vectors g and the phase table are kept so the identity
    checks can rebuild individual interaction pieces.  A state vector,
    viewed as (X, D) by ``_to2``, is handled inside the matvec as a
    Fock-major (D, X) array, X particle points (1 on the fiber) by D Fock
    states; the momentum symbols act in the representation reached by
    ``_fft`` (the identity on the fiber, where p_l is the diagonal -P_f,l).
    Arrays are allocated in the type of the input and ``_dtype`` combined.
    """

    variant: str
    params: ModelParams
    frame: ScaleFrame
    grid: PositionGrid | None
    modes: ModeGrid
    basis: FockBasis
    dim: int
    g: np.ndarray  # (M, 3) real coupling vectors
    lin_coef: float  # e * rho^tau
    quad_coef: float  # e^2 rho^(2 tau) / 2
    _shape: tuple = field(repr=False, default=None)  # (X, D)
    _cube: tuple = field(repr=False, default=None)  # (n, n, n); None on the fiber
    _kin: np.ndarray = field(repr=False, default=None)  # kinetic symbol
    _psym: np.ndarray = field(repr=False, default=None)  # (3, ...) p_l symbols
    _axes: np.ndarray = field(repr=False, default=None)  # (C,) axes where g has a nonzero column
    _pot: np.ndarray = field(repr=False, default=None)  # (X,) particle potential
    _hf: np.ndarray = field(repr=False, default=None)  # (D, 1) field energy
    _phase: np.ndarray = field(repr=False, default=None)  # (M, X) kernel phases; None = 1
    _coupling: np.ndarray = field(repr=False, default=None)  # (M, C) couplings on the coupled axes
    _src: np.ndarray = field(repr=False, default=None)  # (M, K) raised state of each entry
    _val: np.ndarray = field(repr=False, default=None)  # (M, K, 1) sqrt(n) of each entry
    _slots: np.ndarray = field(repr=False, default=None)  # (R, D) entries raising into a state
    _atomic: AtomicState | None = field(repr=False, default=None)

    @property
    def _dtype(self) -> np.dtype:
        """The scalar type the tables need: complex128 once a phase table or
        an FFT enters (the grid variants), float64 on the fiber."""
        return np.dtype(float if self._phase is None and self._cube is None else complex)

    def _type(self, v) -> np.dtype:
        """The type of a result on input v: a complex v keeps complex arithmetic."""
        return np.result_type(v, self._dtype)

    def _to2(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        return v.astype(self._type(v), copy=False).reshape(self._shape)

    def _fock_major(self, v: np.ndarray) -> np.ndarray:
        return np.array(np.reshape(v, self._shape).T, dtype=self._type(v), order="C")

    def _fft(self, u: np.ndarray) -> np.ndarray:
        if self._cube is None:
            return u
        return np.fft.fftn(u.reshape((-1,) + self._cube), axes=(1, 2, 3)).reshape(u.shape)

    def _ifft(self, s: np.ndarray) -> np.ndarray:
        if self._cube is None:
            return s
        return np.fft.ifftn(s.reshape((-1,) + self._cube), axes=(1, 2, 3)).reshape(s.shape)

    # -- the field-coupling kernel -------------------------------------------

    def apply_a(self, v: np.ndarray, j: int) -> np.ndarray:
        u, K = self._to2(v), self._src.shape[1]
        out = np.zeros_like(u)
        out[:, :K] = self._val[j, :, 0] * u[:, self._src[j]]
        return out.ravel()

    def apply_adag(self, v: np.ndarray, j: int) -> np.ndarray:
        u, K = self._to2(v), self._src.shape[1]
        out = np.zeros_like(u)
        out[:, self._src[j]] = self._val[j, :, 0] * u[:, :K]
        return out.ravel()

    def _raise(self, buf: np.ndarray, rows: int, out=None) -> np.ndarray:
        """The first ``rows`` states, each the sum of the at most R rows of
        ``buf`` (M K ladder entries, then a zero pad row) that raise into it;
        repeated targets add.  The indices are in range, so ``take`` may
        write to ``out`` directly (mode "clip"; the default mode buffers it)."""
        out = np.take(buf, self._slots[0, :rows], axis=0, out=out, mode="clip")  # unbuffered
        for slot in self._slots[1:, :rows]:
            out += np.take(buf, slot, axis=0)
        return out

    def _adjoint_components(self, u: np.ndarray, rows: int) -> np.ndarray:
        """The first ``rows`` rows of A*_l u for every coupled axis l: one
        raise per l."""
        w = u[: self._src.shape[1]] * self._val
        if self._phase is not None:
            w *= self._phase.conj()[:, None, :]
        buf = np.zeros((self._src.size + 1, u.shape[1]), dtype=self._type(u))
        entries = buf[:-1].reshape(w.shape)
        out = np.empty((self._coupling.shape[1], rows, u.shape[1]), dtype=buf.dtype)
        for o, gl in zip(out, self._coupling.T):
            np.multiply(gl[:, None, None], w, out=entries)
            self._raise(buf, rows, out=o)
        return out

    def components(self, u: np.ndarray) -> np.ndarray:
        """A_l u for every coupled axis l on the lowered block plus one zero
        row, shape (C, K+1, X).

        u is Fock-major, (D, X).  A_l u = sum_j coupling_jl phase_j a_j u
        fills the lowered block from one gather u[_src], and its rows at and
        above K vanish: ``contract`` gathers them from the zero row, where
        its clipped indices land.
        """
        K = self._src.shape[1]
        lowered = np.take(u, self._src, axis=0)
        lowered *= self._val
        if self._phase is not None:
            lowered *= self._phase[:, None, :]
        out = np.empty((self._coupling.shape[1], K + 1, u.shape[1]), dtype=self._type(u))
        out[:, :K] = np.tensordot(self._coupling, lowered, axes=(0, 0))
        out[:, K] = 0.0
        return out

    def contract(self, V: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """sum_l A_l V_l over the C coupled axes, V of shape (C, D, X);
        sum_l A*_l V_l when adjoint.

        Forms sum_l coupling_jl V_l on the entries of each mode first, then
        gathers (A) or raises (A*) once; A* reads only the lowered block.
        The gather clips its indices, so A also takes the (C, K+1, X) stack
        of ``components``, whose last row is zero.
        """
        M, K = self._src.shape
        if adjoint:
            buf = np.zeros((self._src.size + 1, V.shape[2]), dtype=self._type(V))
            entries = buf[:-1].reshape(self._src.shape + V.shape[2:])
            np.matmul(self._coupling, V[:, :K].reshape(len(V), -1), out=entries.reshape(M, -1))
            entries *= self._val
            if self._phase is not None:
                entries *= self._phase.conj()[:, None, :]
            return self._raise(buf, self._slots.shape[1])
        lowered = np.zeros(self._src.shape + V.shape[2:], dtype=self._type(V))
        term = np.empty_like(lowered)
        for Vl, gl in zip(V, self._coupling.T):
            np.take(Vl, self._src, axis=0, out=term, mode="clip")  # unbuffered
            term *= gl[:, None, None]
            lowered += term
        lowered *= self._val
        if self._phase is not None:
            lowered *= self._phase[:, None, :]
        out = np.zeros((self._slots.shape[1],) + V.shape[2:], dtype=lowered.dtype)
        out[:K] = lowered.sum(axis=0)
        return out

    def apply_D(self, v: np.ndarray, direction) -> np.ndarray:
        """Velocity along a real 3-vector d: d . (p + (linear coefficient)(A + A*)).

        This is i[H, d . x] (on the fiber, d . dH/dP at P = 0); the field
        part acts only along the coupled axes, and d . p takes all three.
        """
        d = np.asarray(direction, dtype=float)
        u = self._fock_major(v)
        out = self._ifft(np.tensordot(d, self._psym, axes=1) * self._fft(u))
        if self.lin_coef != 0.0:
            du = d[self._axes, None, None] * u
            out += self.lin_coef * (self.contract(du) + self.contract(du, adjoint=True))
        return out.T.ravel()

    # -- the Hamiltonian ----------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        u = self._fock_major(v)
        K = self._src.shape[1]
        c, q = self.lin_coef, self.quad_coef
        spec = self._fft(u)
        out = self._kin * spec
        if self.lin_coef != 0.0:
            Au = self.components(u)
            # kinetic and p.A share the inverse transform; A u lives in the lowered block
            for ell, axis in enumerate(self._axes):  # no view of Au outlives ``del Au``
                out[:K] += (c * self._psym[axis, :K]) * self._fft(Au[ell, :K])
        out = self._ifft(out)
        out += self._hf * u
        if self._pot is not None:
            out += self._pot * u
        if self.lin_coef != 0.0:
            # everything A* acts on, V = c p u + q (2 A u + A* u), in one
            # contraction; A* reads only the lowered block of V
            V = self._adjoint_components(u, K)
            V *= q
            for ell, axis in enumerate(self._axes):
                V[ell] += self._ifft((c * self._psym[axis, :K]) * spec[:K])
                V[ell] += (2.0 * q) * Au[ell, :K]
            del spec  # dropped before the contractions to keep the peak memory down
            out += q * self.contract(Au)
            del Au
            out += self.contract(V, adjoint=True)
        return out.T.ravel()

    def precondition(self, v: np.ndarray, sigma: float) -> np.ndarray:
        """(kinetic + H_f + sigma)^-1 v: the diagonal of H in the representation
        reached by ``_fft``, without the potential and the coupling."""
        u = self._fock_major(v)
        return self._ifft(self._fft(u) / (self._kin + self._hf + sigma)).T.ravel()

    def atomic_reference(self) -> AtomicState:
        """Discrete atomic ground state in this model's frame (cached)."""
        if self.grid is None:
            raise ParameterError("the fiber variant has no particle factor")
        if self._atomic is None:
            strength = (0.0 if self.variant == "v0"
                        else coulomb_coefficient(self.params, self.frame))
            self._atomic = atomic_ground(self.grid, strength)
        return self._atomic


def _ladder_table(basis: FockBasis) -> dict:
    """The raising tables of all modes, one ``ladder_ops`` call per mode.
    States come by total occupation, so a_j is nonzero only into the first
    K, the states below the top shell: row k of a_j holds sqrt(n_j + 1) at
    _src[j, k], k raised in mode j.  _slots[r, s] is the r-th entry (flat
    index j K + k) raising into s, or the zero pad M K.  The basis builds
    the tables of all modes on the first call and gives them up here, so
    the model holds the only copy."""
    tables = [ladder_ops(basis, j) for j in range(basis.mode_count)]
    src = np.stack([t[0] for t in tables])
    val = np.stack([t[1] for t in tables])[:, :, None]
    del tables
    basis._raised = None
    target = src.ravel()
    order = np.argsort(target, kind="stable")
    counts = np.bincount(target, minlength=basis.dim)
    rank = np.arange(target.size) - (np.cumsum(counts) - counts)[target[order]]
    slots = np.full((max(counts.max(), 1), basis.dim), target.size, dtype=np.intp)
    slots[rank, target[order]] = order
    return dict(_src=src, _val=val, _slots=slots)


def assemble(
    params: ModelParams,
    frame: ScaleFrame,
    grid: PositionGrid | None,
    modes: ModeGrid,
    basis: FockBasis,
    variant: str = "gross",
) -> AssembledModel:
    """Build one Hamiltonian variant as a structured operator.

    The caller provides the mode grid already expressed in the target
    frame (see fockspace.scale_modes); the frame only supplies the
    coefficient factors and the phase stretch r(tau).
    """
    if variant not in _VARIANTS:
        raise ParameterError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if modes.count != basis.mode_count:
        raise ParameterError("mode grid and Fock basis disagree on the mode count")
    if variant == "fiber":
        dim = basis.dim
        if frame.tau != 0.0:
            raise ParameterError("the fiber variant is defined in the base frame only (tau = 0)")
        if grid is not None:
            raise ParameterError("the fiber variant takes grid=None")
    else:
        if grid is None:
            raise ParameterError(f"variant {variant!r} needs a position grid")
        dim = grid.point_count * basis.dim
    if dim > _DIM_LIMIT:
        raise ParameterError(
            f"dimension {dim} exceeds the assembly guard {_DIM_LIMIT}"
        )
    if variant == "gross" and params.e != 0.0:
        try:
            window_ok = c_uv(params.e, params.Z) < 1.0
        except DomainError:
            window_ok = False
        if not window_ok:
            warnings.warn(
                "coupling outside the small-charge window of the dressed "
                "arrangement; assembling anyway",
                stacklevel=2,
            )

    rho_tau = frame.r_of(frame.tau)
    rho2tau = frame.r_of(2.0 * frame.tau)
    k = modes.k
    omega = modes.omega
    if np.any(omega == 0.0):
        raise ParameterError("mode grid contains a zero mode")
    beta = 1.0 / (omega + 0.5 * rho2tau * omega**2)
    g = np.sqrt(modes.w)[:, None] * k * (beta / np.sqrt(2.0 * omega))[:, None]
    axes = np.flatnonzero(g.any(axis=0))  # the kernel carries only the axes g reaches

    lin_coef = params.e * rho_tau
    quad_coef = 0.5 * params.e**2 * rho2tau

    common = dict(
        variant=variant,
        params=params,
        frame=frame,
        grid=grid,
        modes=modes,
        basis=basis,
        dim=dim,
        g=g,
        lin_coef=lin_coef,
        quad_coef=quad_coef,
        _hf=(basis.occupations @ omega)[:, None],  # field energy on the occupation basis
        _axes=axes,
        _coupling=g[:, axes],
        **_ladder_table(basis),
    )

    if variant == "fiber":
        # one point, phase 1, p_l the diagonal -P_f,l (total momentum P = 0)
        pf = basis.occupations @ k  # (D, 3)
        return AssembledModel(
            **common,
            _shape=(1, basis.dim),
            _kin=0.5 * np.sum(pf**2, axis=1)[:, None],
            _psym=-pf.T[:, :, None],
        )

    q = grid.freqs
    psym = np.stack(np.broadcast_arrays(q[:, None, None], q[None, :, None], q[None, None, :]))

    pot = None
    if variant == "gross":
        pot = coulomb_potential(grid, coulomb_coefficient(params, frame)).ravel()
    # v0 carries no external potential

    x = grid.axis
    phase = np.empty((modes.count, grid.point_count), dtype=complex)
    for j in range(modes.count):
        kj = rho_tau * k[j]
        phase[j] = (
            np.exp(1j * kj[0] * x)[:, None, None]
            * np.exp(1j * kj[1] * x)[None, :, None]
            * np.exp(1j * kj[2] * x)[None, None, :]
        ).ravel()

    model = AssembledModel(
        **common,
        _shape=(grid.point_count, basis.dim),
        _cube=(grid.n, grid.n, grid.n),
        _kin=0.5 * grid.laplacian_symbol.ravel(),
        _psym=psym.reshape(3, 1, -1),
        _pot=pot,
        _phase=phase,
    )

    # cheap sampled symmetry check; the exhaustive one lives in the tests
    rng = np.random.default_rng(97)

    def draw():  # real vectors for a real operator
        x = rng.standard_normal(dim)
        return x if model._dtype == float else x + 1j * rng.standard_normal(dim)

    u, v = draw(), draw()
    left = np.vdot(u, model.matvec(v))
    right = np.vdot(np.asarray(model.matvec(u)), v)
    if abs(left - right) > 1e-10 * max(1.0, abs(left), abs(right)):
        raise RuntimeError("assembled operator failed the symmetry sample")
    return model


def lanczos_ground(model: AssembledModel, tol: float, maxit: int) -> SpectralResult:
    """Ground state of an assembled model by ``lanczos_lowest`` (LOBPCG,
    Knyazev 2001, each step one Rayleigh-Ritz from Gram matrices as in
    Hetmaniuk and Lehoucq 2006), to ``tol`` within ``maxit`` products.

    The seed is the discrete atomic ground state tensored with the Fock
    vacuum (gross variant), the constant mode tensored with the vacuum
    (v0), or the bare vacuum (fiber), in the model's scalar type, so the
    fiber solve runs in float64 and the grid variants in complex128;
    seeding with the atomic state guarantees the returned energy is at most
    the discrete atomic energy, since the first Rayleigh quotient already
    equals it.  Ritz values never rise: each Rayleigh-Ritz step minimizes
    over a subspace that holds the previous Ritz vector, and the returned
    energy is the Rayleigh quotient of the returned vector, so it is at
    most <seed, H seed>.  The solve is preconditioned by
    ``model.precondition``.  The seed is built in the call, so the solver
    holds its only reference and drops it after normalizing.
    """
    energy, vec, residual, iters = lanczos_lowest(
        model.matvec, model.dim, seed=_default_seed(model),
        tol=tol, maxit=maxit, precond=model.precondition,
    )
    return SpectralResult(energy=energy, vector=vec, residual=residual, iterations=iters)


def _default_seed(model: AssembledModel) -> np.ndarray:
    if model.variant == "fiber":
        return vacuum_vector(model.basis)  # real, as the fiber operator is
    if model.variant == "gross":
        psi = model.atomic_reference().psi.ravel()
    else:
        psi = np.full(model.grid.point_count, 1.0)
    psi = psi / np.linalg.norm(psi)
    return np.kron(psi, vacuum_vector(model.basis)).astype(model._dtype)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _cap_projector_mask(basis: FockBasis) -> np.ndarray:
    """Mask selecting occupation totals at most N_max - 1."""
    return basis.totals() <= basis.n_max - 1


def pull_through_residual(model: AssembledModel, j: int) -> float:
    """Norm of the compressed commutator defect for mode j.

    Checks [a_j, H] = w_j a_j + c * conj(phase_j) (g_j . D) as matrices,
    compressed to the occupation totals <= N_max - 1 where the truncated
    ladder algebra is exact; the norm is estimated by power iteration on
    the defect (30 steps) and must vanish in the discrete model.
    """
    if model.variant != "gross":
        raise ParameterError("the commutator identity check runs on the gross variant")
    if not (0 <= j < model.modes.count):
        raise ParameterError(f"mode index {j} out of range")

    mask = np.repeat(_cap_projector_mask(model.basis)[None, :], model.dim // model.basis.dim, axis=0).ravel()
    omega_j = model.modes.omega[j]
    phase = model._phase[j][:, None]
    gj = model.g[j]

    def defect(v: np.ndarray) -> np.ndarray:
        v = np.where(mask, v, 0.0)
        hv = model.matvec(v)
        lhs = model.apply_a(hv, j) - model.matvec(model.apply_a(v, j))
        # commutator [a_j, H] applied, minus its closed form
        rhs = -omega_j * model.apply_a(v, j)
        rhs = rhs - model.lin_coef * (np.conj(phase) * model._to2(model.apply_D(v, gj))).ravel()
        out = lhs + rhs
        return np.where(mask, out, 0.0)

    def defect_adjoint(v: np.ndarray) -> np.ndarray:
        v = np.where(mask, v, 0.0)
        hv = model.matvec(v)
        lhs = model.matvec(model.apply_adag(v, j)) - model.apply_adag(hv, j)
        rhs = -omega_j * model.apply_adag(v, j)
        rhs = rhs - model.lin_coef * model.apply_D((model._to2(v) * phase).ravel(), gj)
        out = lhs + rhs
        return np.where(mask, out, 0.0)

    rng = np.random.default_rng(1234 + j)
    z = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    z = np.where(mask, z, 0.0)
    z /= np.linalg.norm(z)
    sigma = 0.0
    for _ in range(30):
        w = defect(z)
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            return 0.0
        z = defect_adjoint(w / nw)
        sigma = np.linalg.norm(z)
        if sigma < 1e-300:
            return 0.0
        z /= sigma
    return float(math.sqrt(sigma * nw)) if sigma > 0 else 0.0


def _lattice_scalar(grid: PositionGrid, value: float) -> float:
    """Round a scalar to the nearest reciprocal-lattice multiple."""
    return grid.dk * round(value / grid.dk)


def soft_decomposition_residual(model: AssembledModel, k_lattice) -> dict:
    """Defect norms of the two-step soft-mode decomposition.

    The probe wave vector k (on the reciprocal lattice, |k| < 1) is
    processed through two telescoping steps with scale parameters
    f1 = |k|^eps rounded to the lattice, eps = TELESCOPING_EPS, and
    f2 = -f1, producing in
    step one four retained vectors, a forwarded operator I1 and a dipole
    error term, and in step two four retained vectors and a terminal
    forwarded operator I2 (no error term, since the shifts cancel).
    Returns {"res1", "res2"}, the norms of the two defects; both vanish
    when every phase shift stays inside the spectral band of the state,
    which holds for the translation-invariant variant seeded at zero
    total momentum.
    """
    if model.variant == "fiber":
        raise ParameterError("the decomposition check needs a particle factor")
    grid = model.grid
    k = np.asarray(k_lattice, dtype=float)
    grid.lattice_units(k)
    knorm = float(np.linalg.norm(k))
    if not (0.0 < knorm < 1.0):
        raise ParameterError(f"|k| must lie in (0, 1), got {knorm}")

    target = knorm**TELESCOPING_EPS
    f1 = _lattice_scalar(grid, target)
    if f1 == 0.0 or abs(f1 - target) > 0.1 * target:
        raise DomainError(
            f"lattice rounding moves |k|^eps = {target:.6g} to "
            f"{f1:.6g}, more than 10%; refine the box"
        )

    ground = lanczos_ground(model, tol=1e-12, maxit=400)
    psi = ground.vector
    energy = ground.energy

    def phase_mul(v: np.ndarray, gvec: np.ndarray) -> np.ndarray:
        ph = grid.plane_wave(gvec)
        return (model._to2(v) * ph.reshape(-1, 1)).ravel()

    def g_minus_e(v: np.ndarray) -> np.ndarray:
        return model.matvec(v) - energy * v

    ez = np.eye(3)

    # ---- step one -------------------------------------------------------
    i0_psi = -phase_mul(model.apply_D(psi, k), k)

    kept = np.zeros(model.dim, dtype=complex)
    kept += -0.5 * float(np.sum(k)) * f1 * phase_mul(psi, k)
    kept += (float(np.sum(k)) / f1) * g_minus_e(phase_mul(psi, k))
    z1sq = np.array([knorm**2 + 2.0 * k[j] * f1 + f1**2 for j in range(3)])
    kept += -0.5 / f1 * float(np.sum(k * z1sq)) * phase_mul(psi, k)
    i1_psi = np.zeros(model.dim, dtype=complex)
    err1 = np.zeros(model.dim, dtype=complex)
    for j in range(3):
        if k[j] == 0.0:
            continue
        z1j = k + f1 * ez[j]
        shifted = phase_mul(psi, -f1 * ez[j])  # the inner phase reduction
        offdiag = k.copy()
        offdiag[j] = 0.0
        kept += -(k[j] / f1) * phase_mul(model.apply_D(shifted, offdiag), z1j)
        cj = -k[j] * (k[j] + f1) / f1
        i1_psi += cj * phase_mul(model.apply_D(psi, ez[j]), z1j)
        err1 += cj * phase_mul(model.apply_D(shifted - psi, ez[j]), z1j)
    res1 = float(np.linalg.norm(i0_psi - kept - i1_psi - err1))

    # ---- step two -------------------------------------------------------
    kept2 = np.zeros(model.dim, dtype=complex)
    i2_psi = np.zeros(model.dim, dtype=complex)
    for j in range(3):
        if k[j] == 0.0:
            continue
        z1j = k + f1 * ez[j]
        cj = -k[j] * (k[j] + f1) / f1
        kept2 += -0.5 * cj * f1 * phase_mul(psi, z1j)
        kept2 += (cj / f1) * g_minus_e(phase_mul(psi, z1j))
        lifted = phase_mul(psi, f1 * ez[j])  # the second-step phase reduction
        kept2 += -0.5 * (cj / f1) * knorm**2 * phase_mul(lifted, k)
        offdiag = k.copy()
        offdiag[j] = 0.0
        kept2 += -(cj / f1) * phase_mul(model.apply_D(lifted, offdiag), k)
        i2_psi += -(cj / f1) * k[j] * phase_mul(model.apply_D(lifted, ez[j]), k)
    res2 = float(np.linalg.norm(i1_psi - kept2 - i2_psi))

    return {"res1": res1, "res2": res2}


# ---------------------------------------------------------------------------
# effective mass
# ---------------------------------------------------------------------------


def effective_mass_riemann(modes: ModeGrid) -> float:
    """Mode-grid quadrature of the second-order inertia integrand,
    (2/3) sum_j w_j |k_j|^2 beta^3 / (2 w_j_disp)."""
    omega = modes.omega
    beta = 1.0 / (omega + 0.5 * omega**2)
    return float((2.0 / 3.0) * np.sum(modes.w * omega**2 * beta**3 / (2.0 * omega)))


def _pcg(op, b: np.ndarray, precond, tol: float) -> np.ndarray:
    """Solve op y = b, op Hermitian positive definite, by conjugate gradients
    preconditioned by ``precond``, to ||b - op y|| <= tol ||b|| (the
    recursively updated residual), or until <r, precond(r)> or <d, op d>
    underflows to 0: for op and precond of moderate scale, r or d is then 0
    to working precision and y as exact as it gets.
    Raises ConvergenceError at once when <d, op d> is negative or a scalar
    is not finite, and after _PCG_MAXIT products."""
    y, r = np.zeros_like(b), b.copy()
    d = z = precond(r)
    rz, bound = np.vdot(r, z).real, tol * np.linalg.norm(b)
    for products in range(1, _PCG_MAXIT + 1):
        if rz == 0.0 or np.linalg.norm(r) <= bound:
            return y
        od = op(d)
        dod = np.vdot(d, od).real
        if dod == 0.0:
            return y
        if not (math.isfinite(rz) and math.isfinite(dod) and dod > 0.0):
            raise ConvergenceError(f"fiber linear solve broke down after {products} products "
                                   f"(<r, z> = {rz:.3e}, <d, op d> = {dod:.3e})")
        step = rz / dod
        y += step * d
        r -= step * od
        z = precond(r)
        rz, rz_old = np.vdot(r, z).real, rz
        d = z + (rz / rz_old) * d
    raise ConvergenceError(f"fiber linear solve did not reach tol={tol} in {_PCG_MAXIT} products")


def effective_mass_numeric(
    params: ModelParams,
    modes: ModeGrid,
    basis: FockBasis,
) -> float:
    """m_eff/m from second-order travel of the zero-momentum fiber.

    Solves (H0 - E0) y_l = W_l psi0 on the complement of the ground
    state, W_l the Hermitian velocity coupling -(momentum carried by the
    field) + (linear coefficient)(A0 + A0*)_l, and returns
    1 / (1 - (2/3) sum_l <W_l psi0, y_l>); equals 1 exactly at e = 0.  The
    solves are conjugate gradients preconditioned by the diagonal
    (kinetic + H_f - E0 + _SHIFT_MARGIN)^-1, to ||residual|| <= _PCG_TOL
    ||W_l psi0||.  The fiber operator is real, so all of it runs in float64.
    """
    if params.e == 0.0:
        return 1.0
    model = assemble(params, base_frame(), None, modes, basis, variant="fiber")
    ground = lanczos_ground(model, tol=1e-12, maxit=min(600, model.dim + 2))
    psi0, e0 = ground.vector, ground.energy
    sigma = max(-e0, 0.0) + _SHIFT_MARGIN

    def op(v: np.ndarray) -> np.ndarray:
        # (H0 - E0) on the complement of psi0, the identity along it
        along = np.vdot(psi0, v)
        v = v - along * psi0
        w = model.matvec(v) - e0 * v
        return w - np.vdot(psi0, w) * psi0 + along * psi0

    total = 0.0
    for ell, direction in enumerate(np.eye(3)):
        b = model.apply_D(psi0, direction)
        grad = np.vdot(psi0, b)
        if abs(grad) > 1e-8:
            raise DomainError(
                f"fiber ground state carries momentum in direction {ell}: "
                f"<W> = {grad.real:.3e}"
            )
        b = b - grad * psi0
        y = _pcg(op, b, lambda r: model.precondition(r, sigma), _PCG_TOL)
        y = y - np.vdot(psi0, y) * psi0
        total += float(np.vdot(b, y).real)

    m_over_meff = 1.0 - (2.0 / 3.0) * total
    if m_over_meff <= 0.0:
        raise DomainError("second-order inertia exceeded the cap; cutoffs too strong")
    return 1.0 / m_over_meff
