"""Inequality suite: every closed-form ceiling checked against solver output.

``run_suite`` solves the coupled model once at the requested resolution and
emits one :class:`BoundReport` per check.  Reports are returned sorted by
check id; the full id list is::

    binding.positivity       E_v0 - E >= -E_at_h
    energy.lower             E >= E_at_h - C_UV(e)
    energy.upper             E <= E_at_h
    identity.pull_through    probe bound on the pull-through defect / max(1, omega_j) < 1e-10
    identity.telescoping.res1/.res2   soft-mode splitting remainders < 1e-10
    localization.g_square    <G_R^2> <= lam1^2 sup|grad G|^2 + 2 lam1 sup(G^2/|x|)
    moment.abs_x             <|x|> <= 40 pi/(e^2 Z)
    moment.exponential       <e^{beta|x|}> <= exponential ceiling
    moment.log               <log(3+|x|)> <= logarithmic ceiling
    moment.x_squared         <|x|^2> <= quadratic ceiling
    overlap.lower_bound      overlap_P >= G_IR(e) (when the floor is positive)
    overlap.markov           vacuum weight >= 1 - <N_f>
    overlap.q_bound          overlap_Q <= Q ceiling
    photons.hard/.soft/.total  photon-number ceilings

The suite is one table, ``_CHECKS``.  Each row holds the id, the anchor
(the statement in plain words), one function of the shared state and the
notes.  The function returns ``(lhs, rhs, extra params)`` for lhs <= rhs, or
raises ``_Skip`` with a reason and extra params; ``_windowed`` wraps the
functions of the rows that need the small-charge window and is the one place
the shared gates live.  ``_run`` turns a row into its report: pass or fail
by the slack, skipped, or error when the function raised anything else.  The
shared state computes each solve at most once and remembers a failure, so
every check that reads a failed solve reports the same error.  The photon,
overlap and polynomial-moment checks read their observable from the one
``observables.ground_state_report`` of the ground state, which is the report
``solve`` prints (``ground_report``); g_R and the exponential moment, which
it does not carry, both weigh the report's density.

Design notes.  The suite solves in defining units (tau = 0) so ceiling
comparisons need no unit conversion; discrete references (E_at_h, psi_at_h
on the same grid) replace analytic atomic quantities inside variational
inequalities, keeping every inequality direction exact within the model even
at coarse resolution.  Ceilings parameterized by a free radius R are scanned
over R in {8, 16, 32, 100}: families valid for every R report the tightest
member.  The exponential ceiling holds for every admissible R, and at
beta = 1/(sqrt 2 lambda) every R in the scan is admissible (the margin is
3/8 - 2/R), so it too reports the tightest member.  The
operator-identity checks run on dedicated small models — the pull-through
defect on a coarse coupled model, the telescoping remainders on a
translation-invariant model with reciprocal-lattice modes so plane-wave
shifts are exact.  Checks outside their stated window (C_UV(e) >= 1, zero
charge for the spatial ceilings, alpha Z >= 1 for the soft-photon ceiling)
report skipped with the violated window named, never an error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .closedform import (
    CHAIN_TAU,
    TELESCOPING_EPS,
    c_uv,
    exp_moment_bound,
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
from .model import FOUR_PI, ModelParams, ParameterError
from .observables import GroundStateReport, ground_state_report
from .particle import PositionGrid, position_operator
from .spectral import (
    _PULL_PROBES,
    assemble,
    lanczos_ground,
    pull_through_residual,
    soft_decomposition_residual,
)

R_SCAN = (8.0, 16.0, 32.0, 100.0)
IDENTITY_TOL = 1e-10
# the dedicated identity models; the reports carry these as their params
_PULL = {"sub_n": 8, "sub_L": 5.0, "sub_radial": 2, "sub_angular": 1, "sub_nmax": 2,
         "probes": _PULL_PROBES}
_TELESCOPING = {"sub_n": 16, "sub_L": 8.0, "epsilon": TELESCOPING_EPS}


@dataclass(frozen=True)
class Resolution:
    """Discretization knobs for the verification suite."""

    n: int
    L: float
    n_radial: int
    n_angular: int
    n_max: int
    tol: float
    maxit: int

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)


class _Skip(Exception):
    """Raised by a check outside its window: args are (reason, extra params)."""


def _once(method):
    """A cached property that also caches the exception its first call raised,
    so a failed solve is attempted once and replayed to every reader."""
    name = method.__name__

    def get(self):
        if name not in self.__dict__:
            try:
                self.__dict__[name] = (method(self), None)
            except Exception as exc:  # noqa: BLE001 - replayed, not swallowed
                self.__dict__[name] = (None, exc)
        value, exc = self.__dict__[name]
        if exc is not None:
            raise exc
        return value

    return property(get, doc=method.__doc__)


class _Suite:
    """Lazy shared state for one run_suite invocation."""

    def __init__(self, params: ModelParams, res: Resolution):
        self.params = params
        self.res = res

    # -- shared solves ------------------------------------------------

    @_once
    def grid(self) -> PositionGrid:
        return PositionGrid(n=self.res.n, L=self.res.L)

    @_once
    def modes(self) -> ModeGrid:
        return build_modes(
            self.params.kappa, self.params.lam, self.res.n_radial, self.res.n_angular
        )

    @_once
    def basis(self) -> FockBasis:
        return FockBasis(self.modes.count, self.res.n_max)

    @_once
    def model(self):
        return assemble(self.params, self.grid, self.modes, self.basis)

    @_once
    def ground(self):
        return lanczos_ground(self.model, tol=self.res.tol, maxit=self.res.maxit)

    @_once
    def atomic(self):
        return self.model.atomic_reference()

    @_once
    def v0_energy(self) -> float:
        v0 = assemble(self.params, self.grid, self.modes, self.basis, variant="v0")
        return float(lanczos_ground(v0, tol=self.res.tol, maxit=self.res.maxit).energy)

    @_once
    def report(self) -> GroundStateReport:
        """The observables ``solve`` reports, read by the photon, overlap and
        moment checks; its density is the one every spatial moment weighs."""
        return ground_state_report(self.model, self.ground)

    @_once
    def window_constants(self) -> dict:
        return overlap_constants(self.params.e, self.params.Z)

    @_once
    def cuv(self) -> float:
        return c_uv(self.params.e, self.params.Z)

    # -- dedicated identity models -------------------------------------

    @_once
    def pull_through_worst(self) -> float:
        grid = PositionGrid(n=_PULL["sub_n"], L=_PULL["sub_L"])
        modes = build_modes(self.params.kappa, self.params.lam,
                            _PULL["sub_radial"], _PULL["sub_angular"])
        basis = FockBasis(modes.count, _PULL["sub_nmax"])
        model = assemble(self.params, grid, modes, basis)
        return max(pull_through_residual(model, j) for j in range(modes.count))

    @_once
    def telescoping(self) -> dict:
        grid = PositionGrid(n=_TELESCOPING["sub_n"], L=_TELESCOPING["sub_L"])
        dk = grid.dk
        k = dk * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        modes = ModeGrid(k=k, w=np.array([0.05, 0.05]))
        model = assemble(self.params, grid, modes, FockBasis(2, 2), variant="v0")
        probe = dk * np.array([1.0, 1.0, 1.0])
        return soft_decomposition_residual(model, probe)

    # -- bookkeeping --------------------------------------------------

    def base_params(self, **extra) -> dict:
        p = self.params
        return {"e": p.e, "Z": p.Z, "m": p.m, "kappa": p.kappa, "lam": p.lam,
                "tau": 0.0, **self.res.to_dict(), **extra}


# ---------------------------------------------------------------------------
# the table


def _windowed(evaluate, zero_charge: str | None = None):
    """``evaluate`` behind the shared gates: skipped when C_UV(e) >= 1, and
    with ``zero_charge`` as the reason when the charge vanishes."""

    def gated(c: _Suite) -> tuple:
        if c.cuv >= 1.0:
            raise _Skip(f"C_UV >= 1 (C_UV(e={c.params.e}) = {c.cuv:.6g})", {})
        if zero_charge is not None and c.params.alphaZ == 0.0:
            raise _Skip(zero_charge, {})
        return evaluate(c)

    return gated


def _scanned(name: str, bound, radii):
    """A moment against the tightest member of a ceiling family that holds
    for every R in ``radii``."""

    def evaluate(c: _Suite) -> tuple:
        rhs, R_best = min((bound(c.params.e, c.params.Z, R), R) for R in radii)
        return c.report.moments[name], rhs, {"R": R_best, "R_scan": list(R_SCAN)}

    return _windowed(evaluate, _SPATIAL)


def _exponential(c: _Suite) -> tuple:
    e, Z = c.params.e, c.params.Z
    lam = FOUR_PI / (e * e * Z)
    beta = 1.0 / (math.sqrt(2.0) * lam)  # halfway into the admissible window
    rhs, R_best = min((exp_moment_bound(e, Z, beta, R), R) for R in R_SCAN)
    lhs = float(position_operator(c.grid, "exp_beta", beta=beta) @ c.report.density)
    return lhs, rhs, {"beta": beta, "R": R_best, "R_scan": list(R_SCAN)}


def _localization(c: _Suite) -> tuple:
    rho1 = c.params.alphaZ  # lambda1 = 1 frame scale
    # choose R so the cut ramp sits inside the box: R = 0.8 rho1 L in the
    # unit-coulomb frame means base-grid support from 0.4 L to 0.8 L
    R_at = 0.8 * rho1 * c.res.L
    diag = position_operator(c.grid, "g_r", R=R_at / rho1, c=rho1)
    lhs = float((diag**2) @ c.report.density)
    rhs = sl1_bound(1.0, grad_ceiling(R_at), gsq_over_x_ceiling(R_at))
    return lhs, rhs, {"R": R_at, "lambda1": 1.0, "kind": "log"}


def _overlap_floor(c: _Suite) -> tuple:
    g_ir = c.window_constants["g_ir"]
    if not (g_ir > 0.0):
        reason = f"overlap floor G_IR = {g_ir:.6g} <= 0 at e = {c.params.e}"
        raise _Skip(reason, _CHAIN)
    return g_ir, c.report.overlap_p, _CHAIN


def _soft_photons(c: _Suite) -> tuple:
    if c.params.alphaZ >= 1.0:
        raise _Skip(f"alpha Z = {c.params.alphaZ:.6g} >= 1", {})
    return (c.report.n_f_soft, soft_photon_bound(c.params.e, c.params.Z),
            {"eps": TELESCOPING_EPS, "delta": 1.0 - TELESCOPING_EPS})


def _ceiling(observable, bound, zero_charge: str | None = None):
    """An observable of the ground state against a ceiling in (e, Z)."""
    return _windowed(lambda c: (observable(c), bound(c.params.e, c.params.Z), {}), zero_charge)


class _Check(NamedTuple):
    """One row of the suite."""

    id: str
    anchor: str
    evaluate: Callable[[_Suite], tuple]  # -> (lhs, rhs, extra params), or raises _Skip
    notes: str = ""


_SPATIAL = "spatial ceilings need a nonzero charge"
_CHAIN = {"chain_tau": CHAIN_TAU}
_LATTICE_MODES = "translation-invariant model with reciprocal-lattice modes"

_CHECKS = (
    _Check("binding.positivity", "binding energy at least the decoupled level's depth",
           lambda c: (-c.atomic.energy, c.v0_energy - c.ground.energy, {"E_v0": c.v0_energy}),
           "E_v0 is the free-particle variant's ground energy on the same truncation"),
    _Check("energy.lower", "lower bound one ultraviolet constant below the decoupled level",
           _windowed(lambda c: (c.atomic.energy - c.cuv, c.ground.energy, {"C_UV": c.cuv})),
           "this check cannot fail for a correct build: truncation raises the "
           "computed energy while the ceiling sits below the true one; a "
           "failure signals a build-breaking bug"),
    _Check("energy.upper", "variational upper bound by the decoupled product state",
           _windowed(lambda c: (c.ground.energy, c.atomic.energy, {})),
           "rhs is the discrete atomic level E_at_h on the same grid"),
    _Check("identity.pull_through", "ladder pull-through commutation identity",
           lambda c: (c.pull_through_worst, IDENTITY_TOL, _PULL),
           "probe upper bound on the defect relative to max(1, omega_j), worst over "
           "all modes of a dedicated coarse coupled model"),
    _Check("identity.telescoping.res1", "soft-mode splitting, first stage remainder",
           lambda c: (c.telescoping["res1"], IDENTITY_TOL, _TELESCOPING), _LATTICE_MODES),
    _Check("identity.telescoping.res2", "soft-mode splitting, second stage remainder",
           lambda c: (c.telescoping["res2"], IDENTITY_TOL, _TELESCOPING), _LATTICE_MODES),
    _Check("localization.g_square", "localization estimate for cut radial test functions",
           _windowed(_localization, "localization needs a nonzero charge")),
    _Check("moment.abs_x", "first spatial moment ceiling",
           _ceiling(lambda c: c.report.moments["abs_x"], moment_abs_bound, _SPATIAL)),
    _Check("moment.exponential", "exponential spatial moment ceiling",
           _windowed(_exponential, _SPATIAL)),
    _Check("moment.log", "logarithmic spatial moment ceiling",
           _scanned("log3", moment_log_bound, R_SCAN)),
    _Check("moment.x_squared", "second spatial moment ceiling",
           _scanned("x_squared", moment_sq_bound, [R for R in R_SCAN if R > 4.0])),
    _Check("overlap.lower_bound", "ground-state overlap floor with the decoupled product",
           _windowed(_overlap_floor)),
    _Check("overlap.markov", "vacuum weight at least one minus the mean photon number",
           lambda c: (1.0 - c.report.n_f_total, c.report.vacuum_weight, {})),
    _Check("overlap.q_bound", "vacuum-sector orthogonal-complement weight ceiling",
           _windowed(lambda c: (c.report.overlap_q, c.window_constants["q_bound"], _CHAIN))),
    _Check("photons.hard", "hard photon number ceiling",
           _ceiling(lambda c: c.report.n_f_hard, hard_photon_bound)),
    _Check("photons.soft", "soft photon number ceiling", _windowed(_soft_photons)),
    _Check("photons.total", "total photon number ceiling",
           _ceiling(lambda c: c.report.n_f_total, total_photon_bound)),
)

CHECK_IDS = tuple(check.id for check in _CHECKS)


def _run(check: _Check, ctx: _Suite) -> BoundReport:
    """One row's report; a skip or an exception becomes the report."""
    try:
        lhs, rhs, extra = check.evaluate(ctx)
        lhs, rhs = float(lhs), float(rhs)
    except _Skip as skip:
        reason, extra = skip.args
        status = f"skipped({reason})"
        return BoundReport(check.id, check.anchor, None, None, None, status,
                           ctx.base_params(**extra))
    except Exception as exc:  # noqa: BLE001 - one check's fault must not end the suite
        status = f"error({type(exc).__name__}: {exc})"
        return BoundReport(check.id, check.anchor, None, None, None, status,
                           ctx.base_params())
    slack = rhs - lhs
    status = "pass" if slack >= -1e-10 * max(1.0, abs(rhs)) else "fail"
    return BoundReport(check.id, check.anchor, lhs, rhs, slack, status,
                       ctx.base_params(**extra), check.notes)


def _selected(check_id: str, selection) -> bool:
    if not selection:
        return True
    return any(check_id == s or check_id.startswith(s) for s in selection)


def ground_report(params: ModelParams, resolution: Resolution) -> GroundStateReport:
    """The observable report of the coupled ground state at ``resolution``,
    solved as the suite solves it; the report ``solve`` prints."""
    return _Suite(params, resolution).report


def run_suite(
    params: ModelParams,
    resolution: Resolution,
    selection=None,
) -> list[BoundReport]:
    """Run the verification suite; returns reports sorted by check id.

    ``selection`` filters by id prefix (e.g. ["energy", "photons.hard"]); an
    entry that matches no check raises ParameterError before any solve.
    Individual check failures and errors never abort the suite: an exception
    inside one check is reported as error(<Type>: <msg>) and the rest proceed.
    """
    for entry in selection or ():
        if not any(_selected(check.id, [entry]) for check in _CHECKS):
            raise ParameterError(f"selection entry {entry!r} matches no check")
    ctx = _Suite(params, resolution)
    reports = [_run(check, ctx) for check in _CHECKS if _selected(check.id, selection)]
    return sorted(reports, key=lambda r: r.id)


def suite_passed(reports) -> bool:
    """True when every report passed or was skipped (no fail, no error)."""
    return all(r.passed or r.skipped for r in reports)
