"""Closed-form constants of the model and the inequality right-hand sides.

Everything in this module is scalar arithmetic: the ultraviolet smallness
constant and its unit root, the dressing constants entering the photon-number
bounds, the infrared overlap chain with its admissible coupling window, and
the ceilings for the shell norms of the coupling function.  The only numerics
is one log-space bisection, ``_crossing``, which locates every charge root;
all formulas are hand-assembled.

Conventions: ``alpha = e**2 / (4 pi)``; a frame enters as a
:class:`~nelsonlab.model.ScaleFrame`, whose ``power(c)`` = rho^(c tau) gives
every frame factor.  The overlap chain is written in e instead, with
``rho = e**2``, and takes only its exponent tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import FOUR_PI, DomainError, ParameterError, ScaleFrame

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

#: quadratic coefficient of the ultraviolet constant, (14 + sqrt(6) pi)/(4 pi^2)
C_UV_QUADRATIC = (14.0 + _SQRT6 * math.pi) / (4.0 * math.pi ** 2)

#: cube root of 2 sqrt(2) pi^2: large-Z limit of e_uv(Z) * Z**(1/3)
E_UV_LARGE_Z = (2.0 * _SQRT2 * math.pi ** 2) ** (1.0 / 3.0)

#: telescoping exponent eps of the soft-photon bound, in (1/2, 1); delta = 1 - eps
TELESCOPING_EPS = 0.75

#: frame exponent tau of the infrared overlap chain, in (3/4, 1]
CHAIN_TAU = 0.9

_THETA_EPS = 0.2  # split parameter of the Theta_2 expression, in (0, 1/4)

_IR_FLOOR = 1e-150  # lowest charge the infrared roots probe; e**2 is still a normal float


def _alpha(e: float) -> float:
    return e * e / FOUR_PI


def atomic_level(e: float, Z: float) -> float:
    """Bare Coulomb ground energy in defining units, -(alpha Z)^2 / 2."""
    aZ = _alpha(e) * Z
    return -0.5 * aZ * aZ


def c_uv(e: float, Z: float) -> float:
    """Ultraviolet smallness constant.

    C_UV(e) = (2 e / pi) sqrt(1 + (e^2 Z / 4 pi)^2 / 2)
              + (14 + sqrt(6) pi) / (4 pi^2) * e^2.

    The model admits the ultraviolet bounds as long as C_UV < 1.
    """
    e = abs(float(e))
    aZ = _alpha(e) * Z
    return (2.0 * e / math.pi) * math.sqrt(1.0 + 0.5 * aZ * aZ) + C_UV_QUADRATIC * e * e


def _crossing(ok, lo: float, hi: float, what: str) -> float | None:
    """The largest e in [lo, hi] with ``ok(e)``, for a test that holds
    below one crossing and fails above it; None when it holds at hi.

    Bisects at the geometric midpoint until no float lies strictly between
    the ends, so the result and the next float up straddle the crossing.
    """
    if ok(hi):
        return None
    if not ok(lo):
        raise DomainError(f"{what} lies below e = {lo}")
    while lo < (mid := math.sqrt(lo * hi)) < hi:
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def e_uv(Z: float) -> float:
    """The largest charge with C_UV(e) <= 1 at nuclear charge Z.

    C_UV is strictly increasing in e > 0, so the root is unique; it tends to
    0.8888... as Z -> 0 and decays like (2 sqrt(2) pi^2 / Z^2)^(1/3) for
    large Z.  A root below e = 1e-12 raises :class:`DomainError`.
    """
    if not (Z > 0.0) or not math.isfinite(Z):
        raise ParameterError(f"Z must be positive and finite, got {Z}")
    return _crossing(lambda x: c_uv(x, Z) <= 1.0, 1e-12, 10.0, "e_uv")


def c_star_c1(e: float, Z: float, frame: ScaleFrame):
    """Frame-dependent smallness constant C_* and the derived C_1.

    C_*(e, tau) = sqrt(6) alpha rho^(-tau)
                  + 4 sqrt(alpha / pi) sqrt(1 - E_at^(tau))
                  + (2 / pi) alpha (rho^(2 tau) + 3 rho^tau + 3),

    C_1 = (1 - C_*)^(-1/2).  At tau = 0 the expression collapses to C_UV for
    every rho.  When C_* >= 1 the pair is out of domain and a
    :class:`DomainError` is raised rather than silently clamping.
    """
    c_star = _c_star(e, Z, frame)
    if not (c_star < 1.0):
        raise DomainError(
            f"C_* = {c_star:.6g} >= 1 at e={e}, Z={Z}, tau={frame.tau}: C_1 undefined"
        )
    return c_star, 1.0 / math.sqrt(1.0 - c_star)


def _c_star(e: float, Z: float, frame: ScaleFrame) -> float:
    a = _alpha(e)
    level = atomic_level(e, Z) * frame.power(-2.0)  # E_at^(tau)
    return (
        _SQRT6 * a * frame.power(-1.0)
        + 4.0 * math.sqrt(a / math.pi) * math.sqrt(1.0 - level)
        + (2.0 / math.pi) * a * (frame.power(2.0) + 3.0 * frame.power(1.0) + 3.0)
    )


def _c1_base(e: float, Z: float) -> float:
    """C_1 at tau = 0, i.e. (1 - C_UV)^(-1/2); needs C_UV < 1."""
    cuv = c_uv(e, Z)
    if not (cuv < 1.0):
        raise DomainError(
            f"C_UV = {cuv:.6g} >= 1 at e={e}, Z={Z}: dressing constants undefined"
        )
    return 1.0 / math.sqrt(1.0 - cuv)


def c_d(e: float, Z: float) -> float:
    """Dressing constant entering the photon-number bounds:

    C_D = (1 - C_UV)^(-1/2) (sqrt(2 + (e^2 Z / 4 pi)^2) + sqrt(2) |e| / pi).
    """
    e = abs(float(e))
    aZ = _alpha(e) * Z
    return _c1_base(e, Z) * (math.sqrt(2.0 + aZ * aZ) + _SQRT2 * e / math.pi)


def coupling_log(e: float, Z: float) -> float:
    """The logarithm L(e, Z) = log(3 + 400 pi / (e^2 Z)) from the soft bound."""
    if e == 0.0:
        return math.inf
    return math.log(3.0 + 400.0 * math.pi / (e * e * Z))


def photon_k(e: float, Z: float, conservative: bool = True) -> float:
    """Total photon-number coefficient: <N_f> <= photon_k * e^2 / (4 pi).

    photon_k = (28 C_D + 39)^2
               + 6 C_1^2 (C_D + 2)^2 (9 + 2 L^2 + c L)

    with L = log(3 + 400 pi / (e^2 Z)).  The linear-in-L coefficient c is
    printed in two places with different powers of ten; ``conservative=True``
    uses c = 9e2 (the larger variant), ``False`` uses c = 9e-2.  At e = 0 the
    coefficient itself diverges logarithmically while the bound
    photon_k * e^2/(4 pi) still vanishes; we return ``inf`` in that case.
    """
    if e == 0.0:
        return math.inf
    cd = c_d(e, Z)
    c1 = _c1_base(e, Z)
    L = coupling_log(e, Z)
    c_lin = 9.0e2 if conservative else 9.0e-2
    return (28.0 * cd + 39.0) ** 2 + 6.0 * c1 * c1 * (cd + 2.0) ** 2 * (
        9.0 + 2.0 * L * L + c_lin * L
    )


def hard_photon_bound(e: float, Z: float) -> float:
    """Bound on the expected number of photons with |k| >= 1:
    4 alpha C_D^2 / (3 pi)."""
    if e == 0.0:
        return 0.0
    return 4.0 * _alpha(e) * c_d(e, Z) ** 2 / (3.0 * math.pi)


def _dressing_m(c1: float, cd: float) -> float:
    """M = 18 C_1^2 (C_D + 2)^2 / (eps pi^2) at eps = TELESCOPING_EPS."""
    return 18.0 * c1 * c1 * (cd + 2.0) ** 2 / (TELESCOPING_EPS * math.pi ** 2)


def soft_photon_bound(e: float, Z: float) -> float:
    """Bound on the expected number of photons with |k| < 1.

        9 alpha / (pi delta) (8 C_D + 21/2)^2
        + 2 M alpha (9 + 2 L^2 + 9e-2 L),
        M = 18 C_1^2 (C_D + 2)^2 / (eps pi^2),

    at eps = TELESCOPING_EPS and delta = 1 - eps.
    Valid for alpha Z < 1; the caller is expected to gate on that.
    """
    if e == 0.0:
        return 0.0
    a = _alpha(e)
    cd = c_d(e, Z)
    L = coupling_log(e, Z)
    M = _dressing_m(_c1_base(e, Z), cd)
    return (9.0 * a / (math.pi * (1.0 - TELESCOPING_EPS))) * (8.0 * cd + 10.5) ** 2 + (
        2.0 * M * a * (9.0 + 2.0 * L * L + 9.0e-2 * L)
    )


def total_photon_bound(e: float, Z: float) -> float:
    """photon_k(e, Z) * e^2 / (4 pi); zero at e = 0 (limit)."""
    if e == 0.0:
        return 0.0
    return photon_k(e, Z) * _alpha(e)


# ---------------------------------------------------------------------------
# infrared overlap chain (rho = e^2 convention)


def _c_tau(e: float, Z: float, tau: float) -> float:
    e = abs(e)
    return e ** (2.0 - 2.0 * tau) + e * math.sqrt(1.0 + Z * Z) + e * e


def _f_ir(e: float, Z: float, tau: float) -> float:
    e = abs(e)
    return math.sqrt(1.0 + Z * Z) * (e ** (4.0 * tau - 3.0) + 3.0 * math.sqrt(e)) + e * e


def _require_chain_tau(tau: float) -> None:
    if not (0.75 < tau <= 1.0):
        raise DomainError(f"tau must lie in (3/4, 1], got {tau}")


def _g_ir(e: float, Z: float, tau: float) -> float:
    """The overlap floor G_IR = 1 - photon_K e^2/(4 pi) - 8 (4 pi / Z)^2 F_IR(e);
    1 at e = 0, its limit."""
    if e == 0.0:
        return 1.0
    return 1.0 - photon_k(e, Z) * _alpha(e) - 8.0 * (FOUR_PI / Z) ** 2 * _f_ir(e, Z, tau)


def overlap_constants(e: float, Z: float, tau: float) -> dict:
    """All scalars of the infrared overlap chain at charge e.

    Works in the rho = e^2 frame convention, with M at TELESCOPING_EPS and
    the split parameter of the Theta_2 expression at _THETA_EPS.

    Returns a dict with keys theta1, theta2, c_tau, f_ir, q_bound, g_ir,
    photon_K, photon_K_low, L, M.  ``g_ir`` is the computable overlap floor
    G_IR of :func:`_g_ir`, which tends to 1 as e -> 0+.
    """
    _require_chain_tau(tau)
    e = abs(float(e))
    a = _alpha(e)
    # atomic level in the rho = e^2 frame: -(Z^2 / 32 pi^2) e^(4 - 4 tau)
    level = -(Z * Z / (32.0 * math.pi ** 2)) * e ** (4.0 - 4.0 * tau)
    theta1 = math.sqrt(a) * math.sqrt(2.0 * (1.0 - level))

    if e == 0.0:
        theta2 = 0.0
    else:
        r_t = e ** (2.0 * tau)        # rho^tau with rho = e^2
        r_2t = e ** (4.0 * tau)       # rho^(2 tau)
        r_m2t = e ** (-4.0 * tau)     # rho^(-2 tau)
        ee = _THETA_EPS
        inner = (
            (math.sqrt(2.0 * (1.0 - level)) + math.sqrt(2.0 / math.pi) * math.sqrt(a) * r_t)
            ** 2
            * (a ** 3 / (ee * (1.0 - 2.0 * ee)))
            * r_m2t
            + (a ** 4 / ((1.0 - 16.0 * ee * ee) * math.pi)) * r_m2t
        )
        theta2 = 0.5 * a * r_2t + _SQRT2 * a * r_t + (_SQRT6 / (ee * (1.0 - ee))) * math.sqrt(inner)

    c_tau = _c_tau(e, Z, tau)
    f_ir = _f_ir(e, Z, tau)
    q_bound = 8.0 * (FOUR_PI / Z) ** 2 * f_ir

    if e == 0.0:
        K = math.inf
        K_low = math.inf
        L = math.inf
        cd = c_d(0.0, Z)
        c1 = 1.0
    else:
        K = photon_k(e, Z, conservative=True)
        K_low = photon_k(e, Z, conservative=False)
        L = coupling_log(e, Z)
        cd = c_d(e, Z)
        c1 = _c1_base(e, Z)
    M = _dressing_m(c1, cd)

    return {
        "theta1": theta1,
        "theta2": theta2,
        "c_tau": c_tau,
        "f_ir": f_ir,
        "q_bound": q_bound,
        "g_ir": _g_ir(e, Z, tau),
        "photon_K": K,
        "photon_K_low": K_low,
        "L": L,
        "M": M,
    }


@dataclass(frozen=True)
class CouplingWindow:
    """Admissible charge window of the infrared overlap chain."""

    e_uv: float
    a_ir1: float | None     # root of C_tau = 1/2 (None when absent, e.g. tau = 1)
    a_ir2: float | None     # root of F_IR = (Z / 4 pi)^2 / 16 (None when >= 1)
    e_ir: float             # largest charge below the cap with G_IR > 0, at least 1e-150
    g_ir_at_e_ir: float


def coupling_window(Z: float, tau: float) -> CouplingWindow:
    """Compute the admissible charge window for the overlap lower bound:
    the largest e in (0, min(1, a_ir1, a_ir2, e_uv)) with G_IR(e) > 0.

    Every root is the admissible end of a ``_crossing`` search; an infrared
    root below e = 1e-150 raises :class:`DomainError`.
    """
    _require_chain_tau(tau)
    euv = e_uv(Z)
    rhs2 = (Z / FOUR_PI) ** 2 / 16.0
    # C_tau(0+) -> 1 > 1/2 at tau = 1 and C_tau is increasing: no root.
    a1 = None if tau == 1.0 else _crossing(
        lambda x: _c_tau(x, Z, tau) <= 0.5, _IR_FLOOR, 1.0, "a_ir1")
    a2 = _crossing(lambda x: _f_ir(x, Z, tau) <= rhs2, _IR_FLOOR, 1.0, "a_ir2")
    emax = min(1.0, euv * (1.0 - 1e-9), *(a for a in (a1, a2) if a is not None))
    e_ir = _crossing(lambda x: _g_ir(x, Z, tau) > 0.0, _IR_FLOOR, emax, "e_ir") or emax
    return CouplingWindow(
        e_uv=euv, a_ir1=a1, a_ir2=a2,
        e_ir=e_ir, g_ir_at_e_ir=_g_ir(e_ir, Z, tau),
    )


# ---------------------------------------------------------------------------
# shell-norm ceilings and the pair functional


@dataclass(frozen=True)
class NormBundle:
    """The four shell norms of a coupling function f: the plain infrared
    L2 norm, the infrared and ultraviolet norms weighted by omega^(-1/2),
    and the ultraviolet norm weighted by omega^(-1/4)."""

    f_ir_l2: float
    f_ir_over_sqrt_omega: float
    f_uv_over_sqrt_omega: float
    f_uv_over_quarter_omega: float


def xi_bound(f: NormBundle, g: NormBundle) -> float:
    """Pair functional dominating the commutator form of two couplings:

    Xi(f, g) = (||g_IR/sqrt w|| + ||g_IR||) ||f_UV/sqrt w||
             + (||f_IR/sqrt w|| + ||f_IR||) ||g_UV/sqrt w||
             + ||f_IR/sqrt w|| ||g_IR/sqrt w||
             + sqrt(3) ||f_UV/w^(1/4)|| ||g_UV/w^(1/4)||
             + (||g_IR/sqrt w|| ||f_IR|| + ||f_IR/sqrt w|| ||g_IR||) / 2.
    """
    return (
        (g.f_ir_over_sqrt_omega + g.f_ir_l2) * f.f_uv_over_sqrt_omega
        + (f.f_ir_over_sqrt_omega + f.f_ir_l2) * g.f_uv_over_sqrt_omega
        + f.f_ir_over_sqrt_omega * g.f_ir_over_sqrt_omega
        + _SQRT3 * f.f_uv_over_quarter_omega * g.f_uv_over_quarter_omega
        + 0.5
        * (
            g.f_ir_over_sqrt_omega * f.f_ir_l2
            + f.f_ir_over_sqrt_omega * g.f_ir_l2
        )
    )


def ir_l2_ceiling() -> float:
    """Strict ceiling for ||f_IR||: 1 / (2 pi)."""
    return 1.0 / (2.0 * math.pi)


def ir_inv_sqrt_ceiling() -> float:
    """Strict ceiling for ||f_IR / sqrt(omega)||: 1 / (2 pi)."""
    return 1.0 / (2.0 * math.pi)


def uv_inv_sqrt_ceiling(frame: ScaleFrame) -> float:
    """Ceiling for ||f_UV / sqrt(omega)||: rho^(-tau) / (sqrt(2) pi)."""
    return frame.power(-1.0) / (_SQRT2 * math.pi)


def uv_inv_quarter_ceiling(frame: ScaleFrame) -> float:
    """Ceiling for ||f_UV / omega^(1/4)||:
    rho^(-3 tau / 2) sqrt(1/(2 sqrt(2) pi) + rho^tau / (2 pi^2))."""
    return frame.power(-1.5) * math.sqrt(
        1.0 / (2.0 * _SQRT2 * math.pi) + frame.power(1.0) / (2.0 * math.pi ** 2)
    )


def xi_self_ceiling(frame: ScaleFrame) -> float:
    """Closed-form ceiling for Xi(f, f) assembled from the norm ceilings:

    1/(2 pi^2) + sqrt(2) rho^(-tau)/pi^2 + sqrt(3) rho^(-2 tau)/(2 pi^2)
    + sqrt(3) rho^(-3 tau) / (2 sqrt(2) pi).
    """
    return (
        1.0 / (2.0 * math.pi ** 2)
        + _SQRT2 * frame.power(-1.0) / math.pi ** 2
        + _SQRT3 * frame.power(-2.0) / (2.0 * math.pi ** 2)
        + _SQRT3 * frame.power(-3.0) / (2.0 * _SQRT2 * math.pi)
    )


# ---------------------------------------------------------------------------
# ground-state spatial bounds


def _lam(e: float, Z: float) -> float:
    if e == 0.0:
        raise DomainError("spatial bounds need a nonzero charge")
    return FOUR_PI / (e * e * Z)


def moment_log_bound(e: float, Z: float, R: float) -> float:
    """Ceiling for <log(3 + |x|)>:

    L_R^2 + 4 (R^-2 + R^-1) L_R + 5 R^-2,  L_R = log(3 + 4 pi R / (e^2 Z)),

    valid for every R > 0.
    """
    if not (R > 0.0):
        raise DomainError(f"R must be positive, got {R}")
    L_R = math.log(3.0 + _lam(e, Z) * R)
    return L_R * L_R + 4.0 * (R ** -2 + R ** -1) * L_R + 5.0 * R ** -2


def moment_abs_bound(e: float, Z: float) -> float:
    """Ceiling for <|x|>: 40 pi / (e^2 Z)."""
    return 10.0 * _lam(e, Z)


def moment_sq_bound(e: float, Z: float, R: float) -> float:
    """Ceiling for <|x|^2>, R > 4:

    (4 pi / (e^2 Z))^2 (R^2 + 5 (1/2 - 2/R)^(-1)).
    """
    if not (R > 4.0):
        raise DomainError(f"R must exceed 4, got {R}")
    lam = _lam(e, Z)
    return lam * lam * (R * R + 5.0 / (0.5 - 2.0 / R))


def exp_moment_precondition(e: float, Z: float, beta: float, R: float) -> float:
    """Margin of the exponential-moment precondition
    1/2 - 2/R - (beta^2 / 4)(4 pi / (e^2 Z))^2; must be positive."""
    lam = _lam(e, Z)
    return 0.5 - 2.0 / R - 0.25 * beta * beta * lam * lam


def exp_moment_bound(e: float, Z: float, beta: float, R: float) -> float:
    """Ceiling for <exp(beta |x|)>, valid for R > 4, beta > 0 with
    ``exp_moment_precondition`` positive:

    [1 + (4/R^2 + 8 beta pi/(R e^2 Z))
         (1/2 - 2/R^2 - (beta^2/4)(4 pi/(e^2 Z))^2)^(-1)]
    * exp(4 pi beta R / (e^2 Z)).
    """
    if not (R > 4.0):
        raise DomainError(f"R must exceed 4, got {R}")
    if not (beta > 0.0):
        raise DomainError(f"beta must be positive, got {beta}")
    lam = _lam(e, Z)
    if not (exp_moment_precondition(e, Z, beta, R) > 0.0):
        raise DomainError(
            f"exponential-moment precondition violated at beta={beta}, R={R}"
        )
    denom = 0.5 - 2.0 / (R * R) - 0.25 * beta * beta * lam * lam
    factor = 1.0 + (4.0 / (R * R) + 2.0 * beta * lam / R) * (1.0 / denom)
    return factor * math.exp(beta * lam * R)


def grad_ceiling(R: float) -> float:
    """sup |grad G_R|^2 ceiling for the cut test function
    G_R(x) = chi_R(|x|) sqrt(log(3 + |x|)), chi_R linear between R/2 and R:

    4 R^-2 log(3 + R) + 5 R^-2.
    """
    if not (R > 0.0):
        raise DomainError(f"R must be positive, got {R}")
    return 4.0 * R ** -2 * math.log(3.0 + R) + 5.0 * R ** -2


def gsq_over_x_ceiling(R: float) -> float:
    """sup G_R(x)^2 / |x| for the same test function.

    The ratio log(3 + r)/r is decreasing on r >= R/2, so the sup equals
    2 log(3 + R / 2) / R.
    """
    if not (R > 0.0):
        raise DomainError(f"R must be positive, got {R}")
    return 2.0 * math.log(3.0 + 0.5 * R) / R


def sl1_bound(lam1: float, sup_grad_sq: float, sup_gsq_over_x: float) -> float:
    """Right-hand side of the localization estimate:

    ||G_R psi||^2 <= lam1^2 sup|grad G_R|^2 + 2 lam1 sup(G_R^2/|x|).
    """
    if not (lam1 > 0.0):
        raise DomainError(f"lam1 must be positive, got {lam1}")
    return lam1 * lam1 * sup_grad_sq + 2.0 * lam1 * sup_gsq_over_x
