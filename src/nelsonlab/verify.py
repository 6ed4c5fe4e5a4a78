"""Inequality suite: every closed-form ceiling checked against solver output.

``run_suite`` solves the coupled model once at the requested resolution and
emits one :class:`BoundReport` per check.  Reports are returned sorted by
check id; the full id list is::

    binding.positivity       E_v0 - E >= -E_at_h
    energy.lower             E >= E_at_h - C_UV(e)
    energy.upper             E <= E_at_h
    identity.pull_through    ladder pull-through defect < 1e-10
    identity.telescoping.res1/.res2   soft-mode splitting remainders < 1e-10
    localization.g_square    <G_R^2> <= lam1^2 sup|grad G|^2 + 2 lam1 sup(G^2/|x|)
    moment.abs_x             <|x|> <= 40 pi/(e^2 Z)
    moment.exponential       <e^{beta|x|}> <= exponential ceiling (admissible R)
    moment.log               <log(3+|x|)> <= logarithmic ceiling
    moment.x_squared         <|x|^2> <= quadratic ceiling
    overlap.lower_bound      overlap_P >= G_IR(e) (when the floor is positive)
    overlap.markov           vacuum weight >= 1 - <N_f>
    overlap.q_bound          overlap_Q <= Q ceiling
    photons.hard/.soft/.total  photon-number ceilings

Design notes.  The suite solves in defining units (tau = 0) so ceiling
comparisons need no unit conversion; discrete references (E_at_h, psi_at_h
on the same grid) replace analytic atomic quantities inside variational
inequalities, keeping every inequality direction exact within the model even
at coarse resolution.  Ceilings parameterized by a free radius R are scanned
over R in {8, 16, 32, 100}: families valid for every R report the tightest
member; the exponential ceiling (valid for *some* admissible R) reports the
tightest admissible member and is skipped when the scan holds none.  The
operator-identity checks run on dedicated small models — the pull-through
defect on a coarse coupled model, the telescoping remainders on a
translation-invariant model with reciprocal-lattice modes so plane-wave
shifts are exact.  Checks outside their stated window (C_UV(e) >= 1, zero
charge for the spatial ceilings, alpha Z >= 1 for the soft-photon ceiling)
report skipped with the violated window named, never an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closedform import (
    c_uv,
    exp_moment_bound,
    exp_moment_precondition,
    grad_ceiling,
    gsq_over_x_ceiling,
    hard_photon_bound,
    moment_abs_bound,
    moment_log_bound,
    moment_sq_bound,
    overlap_constants,
    sl1_bound,
    soft_photon_bound,
    total_photon_bound,
)
from .fockspace import FockBasis, ModeGrid, build_modes
from .model import FOUR_PI, ModelParams, base_frame
from .observables import (
    overlap_with_decoupled,
    photon_number,
    spatial_moment,
    vacuum_sector_weight,
)
from .particle import PositionGrid, position_operator
from .spectral import (
    assemble,
    lanczos_ground,
    pull_through_residual,
    soft_decomposition_residual,
)

R_SCAN = (8.0, 16.0, 32.0, 100.0)
IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class Resolution:
    """Discretization knobs for the verification suite."""

    n: int = 16
    L: float = 10.0
    n_radial: int = 4
    n_angular: int = 1
    n_max: int = 2
    tol: float = 1e-9
    maxit: int = 400

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "n_radial": self.n_radial,
            "n_angular": self.n_angular,
            "n_max": self.n_max,
            "tol": self.tol,
            "maxit": self.maxit,
        }


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs with slack = rhs - lhs.

    ``status`` is "pass", "fail", "skipped(<reason>)", or
    "error(<Type>: <msg>)" when the check raised; pass means
    slack >= -1e-10 * max(1, |rhs|).  ``anchor`` names the mathematical
    statement being checked in plain words.
    """

    id: str
    anchor: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    status: str
    params: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def skipped(self) -> bool:
        return self.status.startswith("skipped")

    @property
    def errored(self) -> bool:
        return self.status.startswith("error")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "status": self.status,
            "params": dict(self.params),
            "notes": self.notes,
        }


def _checked(check_id, anchor, lhs, rhs, params, notes="") -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    status = "pass" if slack >= -1e-10 * max(1.0, abs(rhs)) else "fail"
    return BoundReport(check_id, anchor, lhs, rhs, slack, status, params, notes)


def _skipped(check_id, anchor, reason, params, notes="") -> BoundReport:
    return BoundReport(
        check_id, anchor, None, None, None, f"skipped({reason})", params, notes
    )


class _Suite:
    """Lazy shared state for one run_suite invocation."""

    def __init__(self, params: ModelParams, res: Resolution):
        self.params = params
        self.res = res
        self.frame = base_frame()

    # -- shared solves ------------------------------------------------

    @cached_property
    def grid(self) -> PositionGrid:
        return PositionGrid(n=self.res.n, L=self.res.L)

    @cached_property
    def modes(self) -> ModeGrid:
        return build_modes(
            self.params.kappa, self.params.lam, self.res.n_radial, self.res.n_angular
        )

    @cached_property
    def basis(self) -> FockBasis:
        return FockBasis(self.modes.count, self.res.n_max)

    @cached_property
    def model(self):
        return assemble(self.params, self.frame, self.grid, self.modes, self.basis)

    @cached_property
    def ground(self):
        return lanczos_ground(self.model, tol=self.res.tol, maxit=self.res.maxit)

    @cached_property
    def atomic(self):
        return self.model.atomic_reference()

    @cached_property
    def v0_energy(self) -> float:
        v0 = assemble(
            self.params, self.frame, self.grid, self.modes, self.basis, variant="v0"
        )
        return float(lanczos_ground(v0, tol=self.res.tol, maxit=self.res.maxit).energy)

    @cached_property
    def photons(self):
        return photon_number(self.ground.vector, self.basis, self.modes)

    @cached_property
    def overlaps(self) -> tuple[float, float]:
        return overlap_with_decoupled(self.ground.vector, self.atomic, self.basis)

    @cached_property
    def vacuum_weight(self) -> float:
        return vacuum_sector_weight(self.ground.vector, self.basis)

    @cached_property
    def density(self) -> np.ndarray:
        mat = self.ground.vector.reshape(-1, self.basis.dim)
        dens = np.sum((mat.conj() * mat).real, axis=1)
        return dens / dens.sum()

    @cached_property
    def window_constants(self) -> dict:
        return overlap_constants(self.params.e, self.params.Z, tau=0.9)

    @cached_property
    def cuv(self) -> float:
        return c_uv(self.params.e, self.params.Z)

    # -- dedicated identity models -------------------------------------

    @cached_property
    def pull_through_worst(self) -> float:
        grid = PositionGrid(n=8, L=5.0)
        modes = build_modes(self.params.kappa, self.params.lam, 2, 1)
        basis = FockBasis(modes.count, 2)
        model = assemble(self.params, base_frame(), grid, modes, basis)
        return max(pull_through_residual(model, j) for j in range(modes.count))

    @cached_property
    def telescoping(self) -> dict:
        grid = PositionGrid(n=16, L=8.0)
        dk = grid.dk
        k = dk * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        modes = ModeGrid(
            k=k, w=np.array([0.05, 0.05]), kappa=0.9 * dk, lam=1.1 * dk
        )
        model = assemble(
            self.params, base_frame(), grid, modes, FockBasis(2, 2), variant="v0"
        )
        probe = dk * np.array([1.0, 1.0, 1.0])
        return soft_decomposition_residual(model, probe, epsilon=0.75)

    # -- bookkeeping ----------------------------------------------------

    def base_params(self, **extra) -> dict:
        d = {
            "e": self.params.e,
            "Z": self.params.Z,
            "m": self.params.m,
            "kappa": self.params.kappa,
            "lam": self.params.lam,
            "tau": self.frame.tau,
        }
        d.update(self.res.to_dict())
        d.update(extra)
        return d

    def outside_window(self) -> str | None:
        if self.cuv >= 1.0:
            return f"C_UV >= 1 (C_UV(e={self.params.e}) = {self.cuv:.6g})"
        return None


# ---------------------------------------------------------------------------
# individual checks


def _check_energy_upper(ctx: _Suite) -> BoundReport:
    anchor = "variational upper bound by the decoupled product state"
    gate = ctx.outside_window()
    if gate:
        return _skipped("energy.upper", anchor, gate, ctx.base_params())
    return _checked(
        "energy.upper",
        anchor,
        ctx.ground.energy,
        ctx.atomic.energy,
        ctx.base_params(),
        notes="rhs is the discrete atomic level E_at_h on the same grid",
    )


def _check_energy_lower(ctx: _Suite) -> BoundReport:
    anchor = "lower bound one ultraviolet constant below the decoupled level"
    gate = ctx.outside_window()
    if gate:
        return _skipped("energy.lower", anchor, gate, ctx.base_params())
    lhs = ctx.atomic.energy - ctx.cuv
    return _checked(
        "energy.lower",
        anchor,
        lhs,
        ctx.ground.energy,
        ctx.base_params(C_UV=ctx.cuv),
        notes=(
            "this check cannot fail for a correct build: truncation raises the "
            "computed energy while the ceiling sits below the true one; a "
            "failure signals a build-breaking bug"
        ),
    )


def _check_binding(ctx: _Suite) -> BoundReport:
    anchor = "binding energy at least the decoupled level's depth"
    return _checked(
        "binding.positivity",
        anchor,
        -ctx.atomic.energy,
        ctx.v0_energy - ctx.ground.energy,
        ctx.base_params(E_v0=ctx.v0_energy),
        notes="E_v0 is the free-particle variant's ground energy on the same truncation",
    )


def _check_localization(ctx: _Suite) -> BoundReport:
    anchor = "localization estimate for cut radial test functions"
    gate = ctx.outside_window()
    if gate:
        return _skipped("localization.g_square", anchor, gate, ctx.base_params())
    rho1 = ctx.params.alphaZ  # lambda1 = 1 frame scale
    if rho1 == 0.0:
        return _skipped(
            "localization.g_square",
            anchor,
            "localization needs a nonzero charge",
            ctx.base_params(),
        )
    # choose R so the cut ramp sits inside the box: R = 0.8 rho1 L in the
    # unit-coulomb frame means base-grid support from 0.4 L to 0.8 L
    R_at = 0.8 * rho1 * ctx.res.L
    diag = position_operator(
        ctx.grid, "g_r", R=R_at / rho1, c=rho1, kind="log"
    ).diagonal()
    lhs = float((diag**2) @ ctx.density)
    rhs = sl1_bound(1.0, grad_ceiling("log", R_at), gsq_over_x_ceiling("log", R_at))
    return _checked(
        "localization.g_square",
        anchor,
        lhs,
        rhs,
        ctx.base_params(R=R_at, lambda1=1.0, kind="log"),
    )


def _moment(ctx: _Suite, name: str) -> float:
    return spatial_moment(
        ctx.ground.vector,
        ctx.grid,
        ctx.basis,
        name,
        ctx.params,
        frame=ctx.frame,
    )


def _gate_moment(ctx: _Suite, check_id: str, anchor: str) -> BoundReport | None:
    gate = ctx.outside_window()
    if gate:
        return _skipped(check_id, anchor, gate, ctx.base_params())
    if ctx.params.e == 0.0:
        return _skipped(
            check_id, anchor, "spatial ceilings need a nonzero charge", ctx.base_params()
        )
    return None


def _check_moment_log(ctx: _Suite) -> BoundReport:
    anchor = "logarithmic spatial moment ceiling"
    gated = _gate_moment(ctx, "moment.log", anchor)
    if gated:
        return gated
    e, Z = ctx.params.e, ctx.params.Z
    rhs, R_best = min((moment_log_bound(e, Z, R), R) for R in R_SCAN)
    return _checked(
        "moment.log",
        anchor,
        _moment(ctx, "log3"),
        rhs,
        ctx.base_params(R=R_best, R_scan=list(R_SCAN)),
    )


def _check_moment_abs(ctx: _Suite) -> BoundReport:
    anchor = "first spatial moment ceiling"
    gated = _gate_moment(ctx, "moment.abs_x", anchor)
    if gated:
        return gated
    return _checked(
        "moment.abs_x",
        anchor,
        _moment(ctx, "abs_x"),
        moment_abs_bound(ctx.params.e, ctx.params.Z),
        ctx.base_params(),
    )


def _check_moment_sq(ctx: _Suite) -> BoundReport:
    anchor = "second spatial moment ceiling"
    gated = _gate_moment(ctx, "moment.x_squared", anchor)
    if gated:
        return gated
    e, Z = ctx.params.e, ctx.params.Z
    rhs, R_best = min((moment_sq_bound(e, Z, R), R) for R in R_SCAN if R > 4.0)
    return _checked(
        "moment.x_squared",
        anchor,
        _moment(ctx, "x_squared"),
        rhs,
        ctx.base_params(R=R_best, R_scan=list(R_SCAN)),
    )


def _check_moment_exp(ctx: _Suite) -> BoundReport:
    anchor = "exponential spatial moment ceiling"
    gated = _gate_moment(ctx, "moment.exponential", anchor)
    if gated:
        return gated
    e, Z = ctx.params.e, ctx.params.Z
    lam = FOUR_PI / (e * e * Z)
    beta = 1.0 / (math.sqrt(2.0) * lam)  # halfway into the admissible window
    admissible = [R for R in R_SCAN if exp_moment_precondition(e, Z, beta, R) > 0.0]
    if not admissible:
        return _skipped(
            "moment.exponential",
            anchor,
            f"no admissible R in scan at beta={beta:.6g}",
            ctx.base_params(beta=beta, R_scan=list(R_SCAN)),
        )
    rhs, R_best = min((exp_moment_bound(e, Z, beta, R), R) for R in admissible)
    lhs = spatial_moment(
        ctx.ground.vector,
        ctx.grid,
        ctx.basis,
        "exp_beta",
        ctx.params,
        frame=ctx.frame,
        beta=beta,
    )
    return _checked(
        "moment.exponential",
        anchor,
        lhs,
        rhs,
        ctx.base_params(beta=beta, R=R_best, R_scan=list(R_SCAN)),
    )


def _check_photons_hard(ctx: _Suite) -> BoundReport:
    anchor = "hard photon number ceiling"
    gate = ctx.outside_window()
    if gate:
        return _skipped("photons.hard", anchor, gate, ctx.base_params())
    return _checked(
        "photons.hard",
        anchor,
        ctx.photons.hard,
        hard_photon_bound(ctx.params.e, ctx.params.Z),
        ctx.base_params(),
    )


def _check_photons_soft(ctx: _Suite) -> BoundReport:
    anchor = "soft photon number ceiling"
    gate = ctx.outside_window()
    if gate:
        return _skipped("photons.soft", anchor, gate, ctx.base_params())
    if ctx.params.alphaZ >= 1.0:
        return _skipped(
            "photons.soft",
            anchor,
            f"alpha Z = {ctx.params.alphaZ:.6g} >= 1",
            ctx.base_params(),
        )
    return _checked(
        "photons.soft",
        anchor,
        ctx.photons.soft,
        soft_photon_bound(ctx.params.e, ctx.params.Z),
        ctx.base_params(eps=0.75, delta=0.25),
    )


def _check_photons_total(ctx: _Suite) -> BoundReport:
    anchor = "total photon number ceiling"
    gate = ctx.outside_window()
    if gate:
        return _skipped("photons.total", anchor, gate, ctx.base_params())
    return _checked(
        "photons.total",
        anchor,
        ctx.photons.total,
        total_photon_bound(ctx.params.e, ctx.params.Z),
        ctx.base_params(),
    )


def _check_pull_through(ctx: _Suite) -> BoundReport:
    anchor = "ladder pull-through commutation identity"
    return _checked(
        "identity.pull_through",
        anchor,
        ctx.pull_through_worst,
        IDENTITY_TOL,
        ctx.base_params(sub_n=8, sub_L=5.0, sub_radial=2, sub_angular=1, sub_nmax=2),
        notes="worst defect over all modes of a dedicated coarse coupled model",
    )


def _check_telescoping_res1(ctx: _Suite) -> BoundReport:
    anchor = "soft-mode splitting, first stage remainder"
    return _checked(
        "identity.telescoping.res1",
        anchor,
        ctx.telescoping["res1"],
        IDENTITY_TOL,
        ctx.base_params(sub_n=16, sub_L=8.0, epsilon=0.75),
        notes="translation-invariant model with reciprocal-lattice modes",
    )


def _check_telescoping_res2(ctx: _Suite) -> BoundReport:
    anchor = "soft-mode splitting, second stage remainder"
    return _checked(
        "identity.telescoping.res2",
        anchor,
        ctx.telescoping["res2"],
        IDENTITY_TOL,
        ctx.base_params(sub_n=16, sub_L=8.0, epsilon=0.75),
        notes="translation-invariant model with reciprocal-lattice modes",
    )


def _check_overlap_lower(ctx: _Suite) -> BoundReport:
    anchor = "ground-state overlap floor with the decoupled product"
    gate = ctx.outside_window()
    if gate:
        return _skipped("overlap.lower_bound", anchor, gate, ctx.base_params())
    g_ir = ctx.window_constants["g_ir"]
    if not (g_ir > 0.0):
        return _skipped(
            "overlap.lower_bound",
            anchor,
            f"overlap floor G_IR = {g_ir:.6g} <= 0 at e = {ctx.params.e}",
            ctx.base_params(chain_tau=0.9),
        )
    return _checked(
        "overlap.lower_bound",
        anchor,
        g_ir,
        ctx.overlaps[0],
        ctx.base_params(chain_tau=0.9),
    )


def _check_overlap_q(ctx: _Suite) -> BoundReport:
    anchor = "vacuum-sector orthogonal-complement weight ceiling"
    gate = ctx.outside_window()
    if gate:
        return _skipped("overlap.q_bound", anchor, gate, ctx.base_params())
    return _checked(
        "overlap.q_bound",
        anchor,
        ctx.overlaps[1],
        ctx.window_constants["q_bound"],
        ctx.base_params(chain_tau=0.9),
    )


def _check_overlap_markov(ctx: _Suite) -> BoundReport:
    anchor = "vacuum weight at least one minus the mean photon number"
    return _checked(
        "overlap.markov",
        anchor,
        1.0 - ctx.photons.total,
        ctx.vacuum_weight,
        ctx.base_params(),
    )


_CHECKS = (
    ("binding.positivity", _check_binding),
    ("energy.lower", _check_energy_lower),
    ("energy.upper", _check_energy_upper),
    ("identity.pull_through", _check_pull_through),
    ("identity.telescoping.res1", _check_telescoping_res1),
    ("identity.telescoping.res2", _check_telescoping_res2),
    ("localization.g_square", _check_localization),
    ("moment.abs_x", _check_moment_abs),
    ("moment.exponential", _check_moment_exp),
    ("moment.log", _check_moment_log),
    ("moment.x_squared", _check_moment_sq),
    ("overlap.lower_bound", _check_overlap_lower),
    ("overlap.markov", _check_overlap_markov),
    ("overlap.q_bound", _check_overlap_q),
    ("photons.hard", _check_photons_hard),
    ("photons.soft", _check_photons_soft),
    ("photons.total", _check_photons_total),
)

CHECK_IDS = tuple(check_id for check_id, _ in _CHECKS)


def _selected(check_id: str, selection) -> bool:
    if not selection:
        return True
    return any(check_id == s or check_id.startswith(s) for s in selection)


def run_suite(
    params: ModelParams,
    resolution: Resolution | None = None,
    selection=None,
) -> list[BoundReport]:
    """Run the verification suite; returns reports sorted by check id.

    ``selection`` filters by id prefix (e.g. ["energy", "photons.hard"]).
    Individual check failures and errors never abort the suite: an exception
    inside one check is reported as error(<Type>: <msg>) and the rest proceed.
    """
    res = resolution if resolution is not None else Resolution()
    if isinstance(selection, str):
        selection = [selection]
    ctx = _Suite(params, res)
    reports = []
    for check_id, fn in _CHECKS:
        if not _selected(check_id, selection):
            continue
        try:
            reports.append(fn(ctx))
        except Exception as exc:  # noqa: BLE001 - one check's fault must not end the suite
            reports.append(
                BoundReport(
                    check_id,
                    "",
                    None,
                    None,
                    None,
                    f"error({type(exc).__name__}: {exc})",
                    ctx.base_params(),
                )
            )
    return sorted(reports, key=lambda r: r.id)


def suite_passed(reports) -> bool:
    """True when every report passed or was skipped (no fail, no error)."""
    return all(r.passed or r.skipped for r in reports)


def suite_to_json(reports, config: dict | None = None) -> str:
    """Deterministic JSON for a report list (no timestamps, sorted keys)."""
    payload = {
        "config": config or {},
        "reports": [r.to_dict() for r in reports],
        "passed": suite_passed(reports),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def suite_to_csv(reports) -> str:
    """Flat CSV: one row per report, full-precision numeric columns."""
    lines = ["id,status,lhs,rhs,slack"]
    for r in reports:
        cells = [r.id, r.status.split("(")[0]]
        for v in (r.lhs, r.rhs, r.slack):
            cells.append("" if v is None else repr(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
