"""Hamiltonian assembly on the particle x Fock tensor basis and spectra.

Builds the three model variants (the dressed arrangement of the coupled
model, its translation-invariant V=0 relative, and the fixed-momentum
fiber model), finds ground states by preconditioned LOBPCG, and checks two
operator identities: the pull-through commutator by a Gaussian-probe upper
bound on the norm of its defect on the solved sector, and the soft-mode
decomposition by the exact norms of its remainders on the ground state,
formed on the V=0 model's total-momentum blocks (``AssembledModel.block``).

The eigensolver is single-vector LOBPCG (A. V. Knyazev, SIAM J. Sci.
Comput. 23, 2001), named lanczos_lowest still because the benchmark tracer
wraps that name.  Each step is one Rayleigh-Ritz on S = [x, w, p] from the
Gram matrices S*HS and S*S, restricted to the eigenvectors of S*S above a
fixed relative floor (U. Hetmaniuk and R. Lehoucq, J. Comput. Phys. 218,
2006, on the basis and its stability); the solver runs in the seed's
scalar type.  The grid solves run on plane-wave coefficients s = F u, F
the discrete Fourier transform over the particle axes, where the part of
H without the potential and the coupling is diagonal: the preconditioner
T = (|q|^2/2 + H_f + sigma)^-1 is one division, with no FFT, the
plane-wave choice of Teter, Payne and Allan (Phys. Rev. B 40, 1989); on
the fiber F is the identity.  sigma = max(-theta, 0) + _SHIFT_MARGIN, with
theta the current Ritz value, keeps T positive and close to (H - theta)^-1
away from the potential and the coupling, so the step count no longer
follows the kinetic width (pi/h)^2/2.  The effective-mass solves use the
same diagonal in conjugate gradients.

The grid ground states are solved on a ``particle.GridSector`` of the
axes no mode reaches (``AssembledModel._sector``, ``lanczos_ground``), the
one the atom solves on, built and sampled on the first solve: a copy of the
model that, as its blocks do, holds the particle tables the model never
holds.  v0 commutes with the particle momentum there (Lee, Low and Pines,
Phys. Rev. 90, 297, 1953) and keeps q = 0: dimension D n^C.
Gross commutes with x -> -x there and keeps the n/2 + 1 even indices,
dimension D n^C (n/2 + 1)^(3 - C), where the transform is the real E, one
real matmul; the coupled axes keep the FFT.

Conventions.  A state vector has shape (D * n^3,), Fock-major with the
particle index fastest, state[d * X + x], viewed as (D, X) = (D, n^3) and
transformed as (D, n, n, n); position vectors and plane-wave coefficients
share that one layout, so no product transposes.  ``lanczos_ground`` maps
its seed into plane-wave coefficients once and its Ritz vector back once.
The transforms write all three axis passes into one buffer, often their
input's own.
States and products take the scalar type the model's tables need:
complex128 on the grid variants, where the phases and the FFTs enter, and
float64 on the fiber, whose tables are all real.  A complex vector keeps
complex arithmetic on either.
The dressed-model coupling attaches to mode j the real 3-vector
    g_j = sqrt(w_j) * k_j * beta(k_j) / sqrt(2 w_j_disp)
with beta(k) = (|k| + |k|^2/2)^{-1}, and the three field components are
A_l = sum_j g_{jl} * phase_j(x) (x) a_j with phase_j = e^{i k_j . x}.  The
linear term carries e, the quadratic term e^2/2 and the attraction alphaZ,
all in defining units.

The field coupling has one kernel on one ladder table of all modes (see
_ladder_table): a_j maps into the lowered block, the first K states, and
adag_j reads only from it.  ``components(u, G)`` gives the field operators
of the columns of an (M, L) coupling G on the lowered block, as (L, K, X),
from one gather u[_src]; ``contract_adjoint(V, G)`` sums their adjoints on
all D states, raising once.  G is ``_coupling`` in the product and the one
column g . d in the velocity d . (A + A*).  No call loops over the modes.
The two-photon terms live on the first K' states, those with at most
N_max - 2 photons (K' = 0 at N_max <= 1): A (A u) lands only there, and A*
u reaches the lowered block only from there, so ``contract`` fills the K'
rows of sum_l A_l V_l and ``_adjoint_components`` raises A*_l u from the
(M, K') entries alone, never the M K whose gathers would give exact zeros.
One kernel (``_parts``) gives
H u = F^-1 S + P,
    S = (|q|^2/2) F u + c sum_l q_l F(A_l u),
    P = (U + H_f) u + (c^2/2) sum_l A_l (A u)_l + sum_l A*_l V_l,
    V_l = c p_l u + (c^2/2) (2 A_l u + A*_l u),
with c the linear coefficient and U the external potential (gross
variant only); ``matvec`` returns F^-1 S + P on position vectors and
``plane_matvec`` S + F P on plane-wave coefficients.  The sums over l run
over the C coupled axes only: the kernel drops the columns of g that are
exactly zero, so every kept product is the one the three-axis sum makes;
C = 1 on the +z grid of one angular node, 2 on the telescoping model's
lattice, 3 on the golden-angle spiral.  F u, which ``plane_matvec`` is
handed, feeds the kinetic term and the C p_l u, and the kinetic and p.A
terms share one transform: 2 + 2C FFTs per product at either end, the 2C
of the coupling on the lowered block only, since A u lives there and A*
reads only that block of V.  So a grid LOBPCG step makes 2 + 2C FFTs, the
product's, where a position-space solve made 4 + 2C with the
preconditioner's pair.  ``apply_D`` keeps all three axes in its particle
part d . p.  The fiber is the same kernel on one point, with phase 1 and
p_l the diagonal -P_f,l (no FFT), so it is a real symmetric matrix.

v0 and the fiber commute with the total momentum P = p + P_f, and
``AssembledModel.block(P)`` is the same kernel again on one point per Fock
state, p_l the diagonal P_l - P_f,l: on a grid with reciprocal-lattice
modes the plane waves e^{i (P - P_f(n)) . x}, p wrapped into the grid's
zone [-pi/h, pi/h) as the grid's symbols are, dimension D; the fiber is
its own block at P = 0.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closedform import TELESCOPING_EPS, c_uv
from .fockspace import FockBasis, ModeGrid, ladder_ops
from .model import ConvergenceError, DomainError, ModelParams, ParameterError
from .particle import GridSector, PositionGrid, atomic_ground, coulomb_potential

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
_GRAM_FLOOR = 1e-14  # keeps eigenvalues of the unit-diagonal S*S above this times the largest
_SHIFT_MARGIN = 0.05  # sigma = max(-energy, 0) + margin in the diagonal preconditioner
_PCG_MAXIT = 5000
_PCG_TOL = 1e-10  # the inertia converges quadratically in the solves' residual
_PULL_PROBES = 6  # the pull-through bound fails with probability 10^-6 per mode
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
    residual; the operator's and the preconditioner's own temporaries come
    on top.  Every caller's dimension is within ``assemble``'s guard.  For
    ``lanczos_ground`` the preconditioner is a diagonal division with no
    FFT: it returns one new vector and, on the grid variants, holds a real
    (D, X) denominator, half a complex vector, while it divides.
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
    that is not finite and positive, or on a zero seed.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    if not maxit >= 1:
        raise ParameterError(f"maxit must be >= 1, got {maxit}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
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


def _normal(seed: int, shape) -> np.ndarray:
    """Standard normal draws, a fixed stream for each seed: SplitMix64 (G. L.
    Steele, D. Lea and C. H. Flood, OOPSLA 2014) on the counter 1, 2, ...,
    its top 53 bits as uniforms on [0, 1), then Box-Muller on the two
    halves of the stream.  numpy.random stays unloaded."""
    n = math.prod(shape)
    half = -(-n // 2)
    z = np.arange(1, 2 * half + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = (2.0 * math.pi) * u[half:]
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n].reshape(shape)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class AssembledModel:
    """One Hamiltonian variant realized as a structured matvec.

    The constructor derives the Fock tables from its six inputs and checks
    none of them; ``assemble`` guards the inputs.  It holds no particle
    table (reading one raises AttributeError): its solved sector
    (``_sector``) and its blocks (``block``) are copies sharing every Fock
    table, each building and sampling its own (``_particle_tables``,
    ``_on_points``).  The coupling vectors g and the phase table are kept so
    the identity checks can rebuild individual interaction pieces.  A state
    vector is Fock-major, viewed as (D, X) by ``_to2``: D Fock states by X
    particle points (1 on the fiber and a block); the momentum symbols act
    in the representation reached by ``_fft`` (the identity on one point,
    where p_l is the diagonal P_l - P_f,l).  Arrays are allocated in the
    type of the input and ``_dtype`` combined.
    """

    def __init__(self, variant: str, params: ModelParams, grid: PositionGrid | None,
                 modes: ModeGrid, basis: FockBasis):
        self.variant, self.params = variant, params
        self.grid, self.modes, self.basis = grid, modes, basis
        k, omega = modes.k, modes.omega
        beta = 1.0 / (omega + 0.5 * omega**2)
        self.g = (np.sqrt(modes.w)[:, None] * k
                  * (beta / np.sqrt(2.0 * omega))[:, None])  # (M, 3) real coupling vectors
        self._axes = np.flatnonzero(self.g.any(axis=0))  # (C,) axes where g has a nonzero column
        self._coupling = self.g[:, self._axes]  # (M, C) couplings on the coupled axes
        self.lin_coef = params.e
        self.quad_coef = 0.5 * params.e**2
        self._hf = basis.mode_sum(omega)[:, None]  # (D, 1) field energy, one pass over the shells
        # (M, K) raised states, (M, K, 1) sqrt(n) of each entry, (R, D) entries raising into
        # a state, K' states below the top two shells, (R', K) entries of (M, K') raising below K
        self._src, self._val, self._slots, self._inner, self._inner_slots = _ladder_table(basis)
        self._atomic: SpectralResult | None = None
        self._solved: AssembledModel | None = None  # the sector copy ``_sector`` builds
        self._block_sampled = False  # whether a block on this model's tables was sampled
        self._shape = (basis.dim, 1 if grid is None else grid.point_count)  # (D, X)
        self._pot = (coulomb_potential(grid, params.alphaZ).ravel()
                     if variant == "gross" else None)  # (X,) potential; v0 and the fiber carry none

    def _particle_tables(self, whole: tuple[int, ...]) -> AssembledModel:
        """Self, with the tables of the grid sector that keeps the axes
        ``whole`` whole, which also transforms (the fiber: its one point,
        ``_on_points``):
        the p_l and kinetic symbols, the phases e^{i k_j . x}, the (D, X)
        shape and the whole grid's potential cut (a second evaluation raised
        solve-fine's peak RSS by 0.4 MB), sampled before any product."""
        if self.grid is None:  # the fiber is its own block at total momentum P = 0
            return self._on_points(self._momenta(np.zeros(3)))
        cells = self._cells = GridSector(self.grid, whole, self.variant == "gross")
        self._psym = cells.psym[:, None]  # (3, 1, X) p_l symbols
        self._kin = cells.kin[None]  # (1, X) kinetic symbol
        self._shape = (self.basis.dim, cells.size)  # (D, X)
        self._phase = cells.phases(self.modes.k)  # (M, X) phases
        if self._pot is not None:
            self._pot = self._pot.reshape((self.grid.n,) * 3)[cells.cut].ravel()
        _sample_symmetry(self)
        return self

    def _on_points(self, momenta: np.ndarray) -> AssembledModel:
        """Self on one point per Fock state, with p_l the diagonal ``momenta``,
        (3, D): phase 1, no potential, no transform and real tables (so no
        grid), sampled before any product unless a block of the model was."""
        self.grid = self._cells = self._phase = None
        self._shape = (self.basis.dim, 1)  # (D, X = 1)
        self._psym = momenta[:, :, None]  # (3, D, 1) p_l
        self._kin = 0.5 * np.sum(self._psym**2, axis=0)  # (D, 1) kinetic symbol
        if not self._block_sampled:
            _sample_symmetry(self)
        return self

    def _momenta(self, P: np.ndarray) -> np.ndarray:
        """p = P - P_f of every Fock state at total momentum P, (3, D).  On the
        grid P and the modes are counted in reciprocal-lattice steps, and p
        is the grid's own symbol ``PositionGrid.freqs``, wrapped into
        [-pi/h, pi/h); on the fiber p is not wrapped."""
        if self.grid is None:
            return P[:, None] - self.basis.mode_sum(self.modes.k).T
        try:
            steps = np.array([self.grid.lattice_units(kj) for kj in self.modes.k])  # (M, 3)
        except ParameterError as err:
            raise ParameterError(
                f"total-momentum blocks need reciprocal-lattice modes: {err}") from None
        shift = self.grid.lattice_units(P)[:, None] - self.basis.mode_sum(steps).T  # in ints
        return self.grid.freqs[shift % self.grid.n]

    def block(self, P) -> AssembledModel:
        """H on total momentum P = p + P_f, which v0 and the fiber conserve
        (Lee, Low and Pines 1953): a copy sharing every Fock table, with one
        point per Fock state n, the plane wave e^{i (P - P_f(n)) . x} on the
        grid.  Its tables are the fiber's at p = P - P_f (``_momenta``): the
        kinetic symbol |p|^2/2, phase 1, no potential and no transform, so it
        runs in float64; only a model's first block is sampled, the rest differ
        in p alone.  On the grid P and every mode must lie on the lattice."""
        if self.variant == "gross":
            raise ParameterError("the gross variant has no total-momentum blocks: "
                                 "its potential does not commute with the total momentum")
        block = copy.copy(self)._on_points(self._momenta(np.asarray(P, dtype=float)))
        self._block_sampled = True
        block._solved = block
        return block

    def _sector(self) -> AssembledModel:
        """The operator ``lanczos_ground`` solves and the pull-through check
        probes, built, sampled and cached on the first call: a copy sharing
        every Fock table, its own sector, on the sector of the uncoupled axes
        that holds the seed and that H keeps (the fiber: its P = 0 block).
        Its ``GridSector`` keeps the coupled axes whole and on every other
        v0's one point q = 0 (x = -L, phase 1) or gross's even half."""
        if self._solved is None:
            sector = copy.copy(self)._particle_tables(tuple(self._axes.tolist()))
            self._solved = sector._solved = sector
        return self._solved

    @property
    def dim(self) -> int:
        return math.prod(self._shape)

    @property
    def _dtype(self) -> np.dtype:
        """The scalar type the tables need: complex128 once a phase table or
        an FFT enters (the grid variants), float64 on one point (the fiber,
        a block), where every table is real."""
        return np.dtype(float if self.grid is None else complex)

    def _type(self, v) -> np.dtype:
        """The type of a result on input v: a complex v keeps complex arithmetic."""
        return np.result_type(v, self._dtype)

    def _to2(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        return v.astype(self._type(v), copy=False).reshape(self._shape)

    def _fft(self, u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``GridSector.forward``: F u over the particle axes, written into
        ``out`` (u itself, or None for a new array).  On one point u itself."""
        return u if self._cells is None else self._cells.forward(u, out)

    def _ifft(self, s: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """F^-1 s, as ``_fft``."""
        return s if self._cells is None else self._cells.inverse(s, out)

    # -- the field-coupling kernel -------------------------------------------

    def apply_a(self, v: np.ndarray, j: int) -> np.ndarray:
        u, K = self._to2(v), self._src.shape[1]
        out = np.zeros_like(u)
        out[:K] = self._val[j] * u[self._src[j]]
        return out.ravel()

    def _raise(self, buf: np.ndarray, slots: np.ndarray, out=None) -> np.ndarray:
        """One state per column of ``slots``, each the sum of the rows of
        ``buf`` (ladder entries, then a zero pad row) that raise into it;
        repeated targets add.  The indices are in range, so ``take`` may
        write to ``out`` directly (mode "clip"; the default mode buffers it)."""
        out = np.take(buf, slots[0], axis=0, out=out, mode="clip")  # unbuffered
        for slot in slots[1:]:
            out += np.take(buf, slot, axis=0)
        return out

    def _adjoint_components(self, u: np.ndarray) -> np.ndarray:
        """A*_l u on the lowered block, the first K rows, for every coupled
        axis l: one raise per l.  A state below the top shell is raised into
        only from the first K' states, those with at most N_max - 2 photons,
        so only the (M, K') entries are formed."""
        w = u[:self._inner] * self._val[:, :self._inner]
        if self._phase is not None:
            w *= self._phase.conj()[:, None, :]
        buf = np.zeros((len(w) * self._inner + 1, u.shape[1]), dtype=self._type(u))
        entries = buf[:-1].reshape(w.shape)
        out = np.empty((self._coupling.shape[1], self._src.shape[1], u.shape[1]), dtype=buf.dtype)
        for o, gl in zip(out, self._coupling.T):
            np.multiply(gl[:, None, None], w, out=entries)
            self._raise(buf, self._inner_slots, out=o)
        return out

    def components(self, u: np.ndarray, coupling: np.ndarray) -> np.ndarray:
        """sum_j coupling_jl phase_j a_j u for every column l of the (M, L)
        ``coupling`` on the lowered block, (L, K, X): the rows from K on
        vanish.  u is Fock-major, (D, X).  With ``_coupling``, the A_l u."""
        lowered = np.take(u, self._src, axis=0)
        lowered *= self._val
        if self._phase is not None:
            lowered *= self._phase[:, None, :]
        return np.tensordot(coupling, lowered, axes=(0, 0))

    def contract(self, V: np.ndarray) -> np.ndarray:
        """sum_l A_l V_l over the C coupled axes on the first K' states, V the
        (C, K, X) stack A u of ``components``: the two-photon term, which
        vanishes from row K' on.  Gathers each V_l once and sums the modes'
        entries."""
        src = self._src[:, :self._inner]
        lowered = None
        for Vl, gl in zip(V, self._coupling.T):
            term = np.take(Vl, src, axis=0, mode="clip")  # in range; clip skips the check
            term *= gl[:, None, None]
            lowered = term if lowered is None else np.add(lowered, term, out=lowered)
            del term  # at most two gathers are held
        lowered = lowered.astype(self._type(V), copy=False)
        lowered *= self._val[:, :self._inner]
        if self._phase is not None:
            lowered *= self._phase[:, None, :]
        return lowered.sum(axis=0)

    def contract_adjoint(self, V: np.ndarray, coupling: np.ndarray) -> np.ndarray:
        """sum_l sum_j coupling_jl conj(phase_j) adag_j V_l over the columns l
        of the (M, L) ``coupling``, V of shape (L, D, X), on all D states
        (with ``_coupling``, sum_l A*_l V_l).  Forms the sum over l on the
        entries of each mode first, then raises once; it reads only the
        lowered block of V."""
        M, K = self._src.shape
        buf = np.zeros((self._src.size + 1, V.shape[2]), dtype=self._type(V))
        entries = buf[:-1].reshape(self._src.shape + V.shape[2:])
        np.matmul(coupling, V[:, :K].reshape(len(V), -1), out=entries.reshape(M, -1))
        entries *= self._val
        if self._phase is not None:
            entries *= self._phase.conj()[:, None, :]
        return self._raise(buf, self._slots)

    def apply_D(self, v: np.ndarray, directions) -> np.ndarray:
        """Velocity along a real 3-vector d: d . (p + (linear coefficient)(A + A*)).

        This is i[H, d . x] (on the fiber and a block, d . dH/dP at its P),
        (dim,); on a stack of d, (L, 3), it is (L, dim) from one transform of
        v.  Its field part is the field operator at the scalar coupling
        g_j . d, one column of the kernel, and d . p takes all three axes: on
        a reflection-even sector d must lie in the span of the coupled axes.
        """
        d = np.asarray(directions, dtype=float)
        stack = d.reshape(-1, 3)
        u = self._to2(v)  # read only, so it may view v
        out = np.tensordot(stack, self._psym, axes=1) * self._fft(u, None)  # (L, D, X)
        out = self._ifft(out, out)
        if self.lin_coef != 0.0:
            gd = self.g @ stack.T  # (M, L) couplings g . d
            for o, col in zip(out, gd.T):
                field = self.contract_adjoint(u[None], col[:, None])
                field[:self._src.shape[1]] += self.components(u, col[:, None])[0]
                field *= self.lin_coef
                o += field
        return out.reshape(d.shape[:-1] + (-1,))

    # -- the Hamiltonian ----------------------------------------------------

    def _parts(self, u: np.ndarray, spec: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """H u = F^-1 S + P on the Fock-major (D, X) array u, given spec = F u,
        which is read only (None: F u is formed here, and S is built in it).

        S, the plane-wave part, is the kinetic term and c sum_l q_l F(A_l u);
        P, the position part, is (H_f + U) u and the contractions, built in
        u's buffer.  The 2C transforms of the coupling run on the lowered
        block only, since A u lives there and A* reads only that block of V.
        S is held on that block, as ``low``, until the contractions are
        done, and only then formed on all D states (in spec's buffer when
        spec is formed here), so no contraction runs beside a whole S.  The
        two-photon terms touch only the first K' states: A* u reaches the
        lowered block from them alone, and A (A u) lands on them alone; at
        N_max <= 1, K' = 0: A* u forms no entry and A (A u) is skipped."""
        K, inner = self._src.shape[1], self._inner
        c, q = self.lin_coef, self.quad_coef
        own = spec is None
        spec = self._fft(u, None) if own else spec
        if c != 0.0:
            # everything A* acts on, V = c p u + q (2 A u + A* u), in one contraction
            V = self._adjoint_components(u)
            V *= q
            for ell, axis in enumerate(self._axes):
                V[ell] += self._ifft((c * self._psym[axis, :K]) * spec[:K], None)
            low = self._kin[:K] * spec[:K]
            Au = self.components(u, self._coupling)
            for ell, axis in enumerate(self._axes):  # no view of Au outlives ``del Au``
                low += (c * self._psym[axis, :K]) * self._fft(Au[ell], None)
                V[ell] += (2.0 * q) * Au[ell]
        u *= self._hf if self._pot is None else self._hf + self._pot
        if c != 0.0:
            if inner:
                Au *= q  # the quadratic term's q A u
                u[:inner] += self.contract(Au)
            del Au
            u += self.contract_adjoint(V, self._coupling)
            del V
        S = np.multiply(self._kin, spec, out=spec if own else None)
        if c != 0.0:
            S[:K] = low
        return S, u

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v on a position vector, (D, X) flat: F^-1 S + P, 2 + 2C FFTs.
        v is copied once, since P is built in the copy; on one point (the
        fiber, a block), where F is the identity, v itself is F u."""
        u = np.array(v, dtype=self._type(v)).reshape(self._shape)
        S, P = self._parts(u, self._to2(v) if self._cells is None else None)
        P += self._ifft(S, S)
        return P.ravel()

    def plane_matvec(self, s: np.ndarray) -> np.ndarray:
        """H on plane-wave coefficients s = F u, (D, X) flat: S + F P, the
        same 2 + 2C FFTs as ``matvec``.  P is summed in the buffer of
        F^-1 s, which one forward transform turns in place.  On one point,
        where F is the identity, it is ``matvec``."""
        if self._cells is None:
            return self.matvec(s)
        s = self._to2(s)
        S, P = self._parts(self._ifft(s, None), s)
        S += self._fft(P, P)
        return S.ravel()

    def precondition(self, s: np.ndarray, sigma: float) -> np.ndarray:
        """(kinetic + H_f + sigma)^-1 s on plane-wave coefficients, (D, X)
        flat: the diagonal of H there, without the potential and the
        coupling.  No FFT; s is not written."""
        s = np.asarray(s)
        denom = self._kin + self._hf + sigma
        return np.divide(s.reshape(self._shape), denom, dtype=self._type(s)).ravel()

    def atomic_reference(self) -> SpectralResult:
        """Discrete atomic ground state on the gross model's grid (cached),
        ``particle.atomic_ground``'s result."""
        if self.variant != "gross":
            raise ParameterError(f"the {self.variant} variant has no atomic reference")
        if self._atomic is None:
            self._atomic = atomic_ground(self.grid, self.params.alphaZ)
        return self._atomic


def _ladder_table(basis: FockBasis):
    """The raising tables of all modes, from one ``ladder_ops`` call, as
    (_src, _val, _slots, _inner, _inner_slots).  States come by total
    occupation, so a_j is nonzero only into the first K, the states below
    the top shell: row k of a_j holds sqrt(n_j + 1) at _src[j, k], k raised
    in mode j.  _slots[r, s] is the r-th entry (flat index j K + k) raising
    into s, or the zero pad M K.  A target below K is raised into only from
    the first _inner = K' states, those with at most N_max - 2 photons, so
    _inner_slots, for the targets below K, indexes the (M, K') entries:
    j K' + k, or the pad M K'."""
    src, val = ladder_ops(basis)
    src = src.copy()  # the basis's table is read-only, and np.take copies such indices per call
    M, K = src.shape
    inner = math.comb(M + basis.n_max - 2, M) if basis.n_max >= 2 else 0
    return (src, val[:, :, None], _slot_table(src.ravel(), basis.dim), inner,
            _slot_table(src[:, :inner].ravel(), K))


def _slot_table(target: np.ndarray, width: int) -> np.ndarray:
    """(R, width): row r holds, for each s < width, the r-th flat index of
    ``target`` equal to s in increasing order, or the pad target.size."""
    order = np.argsort(target, kind="stable")
    counts = np.bincount(target, minlength=width)
    rank = np.arange(target.size) - (np.cumsum(counts) - counts)[target[order]]
    slots = np.full((max(counts.max(initial=0), 1), width), target.size, dtype=np.intp)
    slots[rank, target[order]] = order
    return slots


def assemble(
    params: ModelParams,
    grid: PositionGrid | None,
    modes: ModeGrid,
    basis: FockBasis,
    variant: str = "gross",
) -> AssembledModel:
    """Build one Hamiltonian variant as a structured operator, in defining units.

    The inputs are checked and the Fock tables built; no particle table is.
    Every operator the model applies is built, and sampled for symmetry, on
    its first use: the solved sector, ``AssembledModel._sector()``, on the
    first solve or pull-through check (the whole grid only when every axis
    is coupled), and a block on ``AssembledModel.block``.
    On the grid variants a mode component |k_l| above pi/h, which the phase
    sampled at spacing h aliases, is warned about.
    """
    if variant not in _VARIANTS:
        raise ParameterError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if modes.count != basis.mode_count:
        raise ParameterError("mode grid and Fock basis disagree on the mode count")
    if variant == "fiber":
        if grid is not None:
            raise ParameterError("the fiber variant takes grid=None")
    elif grid is None:
        raise ParameterError(f"variant {variant!r} needs a position grid")
    dim = basis.dim * (1 if grid is None else grid.point_count)
    if dim > _DIM_LIMIT:
        raise ParameterError(
            f"dimension {dim} exceeds the assembly guard {_DIM_LIMIT}"
        )
    if variant == "gross" and params.e != 0.0 and not c_uv(params.e, params.Z) < 1.0:
        warnings.warn(
            "coupling outside the small-charge window of the dressed "
            "arrangement; assembling anyway",
            stacklevel=2,
        )
    if np.any(modes.omega == 0.0):
        raise ParameterError("mode grid contains a zero mode")
    if grid is not None:  # an uncoupled axis has k_l = 0 for every mode
        k_max, k_grid = float(np.abs(modes.k).max()), math.pi / grid.h
        if k_max > k_grid:
            warnings.warn(f"a photon mode component |k_l| = {k_max:.4g} exceeds pi/h = "
                          f"{k_grid:.4g} of the particle grid (ratio {k_max / k_grid:.4g}); "
                          "its phase aliases", stacklevel=2)

    return AssembledModel(variant, params, grid, modes, basis)


def _sample_symmetry(model: AssembledModel) -> None:
    """Cheap sampled symmetry check, the exhaustive one lives in the tests:
    one position-space product on one complex probe u = a (x) b, X = 1 on the
    fiber.  <u, H u> is real for Hermitian H, and for B = (H - H*)/2i != 0,
    u*Bu is a nonzero polynomial in a and b (polarize once in each), so a
    defect is missed with probability 0.  Im <u, H u> grows like sqrt(dim),
    as 1e-10 ||u|| ||H u|| / sqrt(dim) does, and not like dim, as <u, H u>."""
    D = model.basis.dim
    z = _normal(97, (2, model._shape[1] + D))
    z = z[0] + 1j * z[1]
    u = np.outer(z[:D], z[D:]).ravel()
    hu = model.matvec(u)
    scale = np.linalg.norm(u) * np.linalg.norm(hu) / math.sqrt(u.size)
    if abs(np.vdot(u, hu).imag) > 1e-10 * max(1.0, scale):
        raise RuntimeError("assembled operator failed the symmetry sample")


def lanczos_ground(model: AssembledModel, tol: float, maxit: int) -> SpectralResult:
    """Ground state of an assembled model by ``lanczos_lowest`` (LOBPCG,
    Knyazev 2001, each step one Rayleigh-Ritz from Gram matrices as in
    Hetmaniuk and Lehoucq 2006), to ``tol`` within ``maxit`` products.

    The seed (``_default_seed``) is the discrete atomic ground state, the
    vector of ``atomic_reference()``, tensored with the Fock vacuum (gross
    variant), the constant mode tensored with the vacuum (v0), or the bare
    vacuum, the first unit vector (the fiber, a block), in the model's
    scalar type, so the fiber and block solves run in float64 and the grid
    variants in complex128;
    seeding with the atomic state guarantees the returned energy is at most
    the discrete atomic energy, since the first Rayleigh quotient already
    equals it.  Ritz values never rise: each Rayleigh-Ritz step minimizes
    over a subspace that holds the previous Ritz vector, and the returned
    energy is the Rayleigh quotient of the returned vector, so it is at
    most <seed, H seed>.

    The solve runs on plane-wave coefficients s = F u of ``model._sector()``,
    the sector of the axes no mode reaches that H maps into itself and that
    holds the seed (v0's constant one at q = 0, gross's atomic one even), the
    whole grid when every axis is coupled, built and sampled on the first
    solve: the products are ``plane_matvec`` and ``precondition`` is a
    diagonal division, with no FFT.  The seed's
    vacuum row is transformed on the whole grid and folded by W^T; the Ritz
    vector is mapped back by the sector's inverse transform and
    ``GridSector.unfold``, with no whole-grid transform, and scaled by
    sqrt(n^3).  F / sqrt(n^3) is unitary and W^T W = I, so the energy,
    residual and product count are a full-grid solve's and the vector is a
    unit position vector, (D, n^3) flat (F is 1 on one point).  The seed is
    built in the call, so the solver holds its only reference.
    """
    solved = model._sector()
    energy, vec, residual, iters = lanczos_lowest(
        solved.plane_matvec, solved.dim, seed=_default_seed(model, solved),
        tol=tol, maxit=maxit, precond=solved.precondition,
    )
    vec = solved._ifft(vec.reshape(solved._shape), vec)
    vec = (vec if solved._cells is None else solved._cells.unfold(vec)).ravel()
    vec *= math.sqrt(model._shape[1])
    return SpectralResult(energy=energy, vector=vec, residual=residual, iterations=iters)


def _default_seed(model: AssembledModel, solved: AssembledModel) -> np.ndarray:
    """The seed in plane-wave coefficients of ``solved``, the model's
    sector, (D, X) flat: F psi in the vacuum row, one transform of the
    whole grid's points, folded onto the sector by ``GridSector.fold``; on
    one point per Fock state (the fiber, a block) the bare vacuum."""
    s = np.zeros(solved._shape, dtype=model._dtype)  # float64 on one point, as the operator there
    if solved._cells is None:
        s[0] = 1.0  # the bare vacuum
        return s.ravel()
    if model.variant == "gross":
        row = model.atomic_reference().vector[None].astype(complex)
    else:
        row = np.full((1, model._shape[1]), 1.0 / math.sqrt(model._shape[1]), dtype=complex)
    cube = row.reshape((1,) + (model.grid.n,) * 3)
    np.fft.fftn(cube, axes=(1, 2, 3), out=cube)  # the one whole-grid transform, of one row
    s[:1] = solved._cells.fold(row)
    return s.ravel()


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _pull_defect(model: AssembledModel, j: int, v: np.ndarray) -> np.ndarray:
    """Delta_j v = [a_j, H] v - w_j a_j v - c conj(phase_j) (g_j . D) v, the
    pull-through defect of mode j on a vector v."""
    av = model.apply_a(v, j)
    lhs = model.apply_a(model.matvec(v), j) - model.matvec(av)
    dv = model._phase[j].conj() * model._to2(model.apply_D(v, model.g[j]))
    return lhs - model.modes.omega[j] * av - model.lin_coef * dv.ravel()


def pull_through_residual(model: AssembledModel, j: int) -> float:
    """Probe upper bound on the compressed commutator defect for mode j,
    relative to max(1, w_j), on the solved sector ``model._sector()``,
    which a_j, the velocity along g_j and the even potential keep.

    Checks [a_j, H] = w_j a_j + c * conj(phase_j) (g_j . D) as matrices,
    compressed by the projection P onto the occupation totals <= N_max - 1,
    where the truncated ladder algebra is exact, and returns
        10 sqrt(2/pi) max_i ||P Delta_j z_i|| / max(1, w_j)
    over _PULL_PROBES fixed-seed probes z = g1 + i g2 on that subspace, g1
    and g2 standard real Gaussians (no 1/sqrt(2)).  (g1, g2) is a standard
    Gaussian vector of the realified space, where P Delta_j P acts as a real
    operator of the same norm, so the value bounds ||P Delta_j P|| / max(1, w_j) except with probability
    10^-r = 1e-6 per mode, r = _PULL_PROBES (Halko, Martinsson and Tropp,
    SIAM Rev. 53, 2011, Lemma 4.1, after Dixon, SIAM J. Numer. Anal. 20,
    1983).  Each probe applies the defect forward only: two matvecs.  The
    defect carries rounding of the size of w_j times the vector, so the
    bound is read against max(1, w_j) and stays flat as the ultraviolet
    cutoff grows.
    """
    if model.variant != "gross":
        raise ParameterError("the commutator identity check runs on the gross variant")
    if not (0 <= j < model.modes.count):
        raise ParameterError(f"mode index {j} out of range")

    sector = model._sector()
    keep = np.repeat(model.basis.totals() <= model.basis.n_max - 1, sector._shape[1])
    worst = 0.0
    for g1, g2 in _normal(1234 + j, (_PULL_PROBES, 2, sector.dim)):
        z = g1 + 1j * g2
        z[~keep] = 0.0
        worst = max(worst, float(np.linalg.norm(_pull_defect(sector, j, z)[keep])))
    return 10.0 * math.sqrt(2.0 / math.pi) * worst / max(1.0, float(model.modes.omega[j]))


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

    It runs on the v0 model's total-momentum blocks (``AssembledModel.block``;
    lattice modes, so every block is exact): psi is the ground state of the
    P = 0 block, e^{i g . x} carries a vector of block P to block P + g, mod
    the zone, with its Fock amplitudes unchanged, and the velocity and H - E
    act in the block they are handed.  Step one's terms all lie in the block
    of k, step two's for axis j in that of z1j = k + f1 e_j; the defects are
    summed per block, and a norm over blocks is the root of the sum of
    squares, since distinct blocks are orthogonal.  The terms are grouped by
    the vector they act on, and only the two remainders are formed: D(v, d)
    is linear in d and H - E in v, so each axis with k_j != 0 takes three
    velocities, D(psi, e_j) for I0 and I1 (one call on their stack) and one
    on each shifted and lifted state, and each block of a defect one H - E.
    A gross model, whose potential breaks translation invariance, and
    off-lattice modes are refused (ParameterError).
    """
    if model.grid is None:
        raise ParameterError("the decomposition check needs a particle factor")
    grid, blocks = model.grid, {}  # lattice steps of P, mod the zone -> its block

    def at(g: np.ndarray) -> tuple:
        """The block e^{i g . x} carries a vector of the P = 0 block to, P = g
        in lattice steps mod the zone, its model built on first use."""
        P = tuple(int(m) for m in grid.lattice_units(g) % grid.n)
        if P not in blocks:
            blocks[P] = model.block(grid.dk * np.array(P, dtype=float))
        return P

    origin = at(np.zeros(3))  # refuses a gross model and off-lattice modes
    k = np.asarray(k_lattice, dtype=float)
    grid.lattice_units(k)
    knorm = float(np.linalg.norm(k))
    if not (0.0 < knorm < 1.0):
        raise ParameterError(f"|k| must lie in (0, 1), got {knorm}")

    target = knorm**TELESCOPING_EPS
    f1 = grid.dk * round(target / grid.dk)  # rounded to the reciprocal lattice
    if f1 == 0.0 or abs(f1 - target) > 0.1 * target:
        raise DomainError(
            f"lattice rounding moves |k|^eps = {target:.6g} to "
            f"{f1:.6g}, more than 10%; refine the box"
        )

    ground = lanczos_ground(blocks[origin], tol=1e-12, maxit=400)
    psi = ground.vector

    def g_minus_e(block: AssembledModel, v: np.ndarray) -> np.ndarray:
        return block.matvec(v) - ground.energy * v

    ez = np.eye(3)
    per_axis = [(j, -k[j] * (k[j] + f1) / f1, k + f1 * ez[j]) for j in range(3) if k[j] != 0.0]
    axes = [j for j, _, _ in per_axis]
    velocities = blocks[origin].apply_D(psi, ez[axes])  # D(psi, e_j), one call on the stack

    # ---- step one: res1 = ||I0 - kept - I1 - err1||, all in the block of k ----
    z1sq = np.array([knorm**2 + 2.0 * k[j] * f1 + f1**2 for j in range(3)])
    defect = (0.5 * float(np.sum(k)) * f1 + 0.5 / f1 * float(np.sum(k * z1sq))) * psi
    defect -= (float(np.sum(k)) / f1) * g_minus_e(blocks[at(k)], psi)
    for j, cj, z1j in per_axis:
        # kept's off-diagonal -(k_j/f1) D(shifted, k_perp_j) and I1 + err1 =
        # c_j D(shifted, e_j) act on one shifted state, both phased by z1j
        d = -(k[j] / f1) * k
        d[j] = cj
        defect -= blocks[at(-f1 * ez[j])].apply_D(psi, d)  # the inner phase reduction
    defect -= k[axes] @ velocities  # D(psi, k), phased by k
    res1 = float(np.linalg.norm(defect))

    # ---- step two: res2 = ||I1 - kept2 - I2||, axis j in the block of z1j ----
    defects, phased = {}, {}  # per block; H - E acts once on each block's sum
    for (j, cj, z1j), d_j in zip(per_axis, velocities):
        # I1's c_j D(psi, e_j) and the phased psi, and kept2's off-diagonal velocity
        # and I2, which act on the lifted state (the second-step phase reduction) along k
        lifted = blocks[at(f1 * ez[j])].apply_D(psi, k)
        term = cj * d_j + (0.5 * cj * f1 + 0.5 * (cj / f1) * knorm**2) * psi + (cj / f1) * lifted
        P = at(z1j)
        defects[P] = defects.get(P, 0.0) + term
        phased[P] = phased.get(P, 0.0) + (cj / f1) * psi
    res2 = math.sqrt(sum(float(np.linalg.norm(defects[P] - g_minus_e(blocks[P], v)))**2
                         for P, v in phased.items()))

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
    model = assemble(params, None, modes, basis, variant="fiber")._sector()
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
