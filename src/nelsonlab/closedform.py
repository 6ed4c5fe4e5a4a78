"""Closed-form constants of the model and the inequality right-hand sides.

Everything in this module is scalar arithmetic: the ultraviolet smallness
constant and its unit root, the dressing constants entering the photon-number
bounds, the infrared overlap chain with its admissible coupling window, and
the ceilings for the shell norms of the coupling function.  The only numerics
used is bracketing root search; all formulas are hand-assembled.

Conventions: ``alpha = e**2 / (4 pi)``; a frame enters through ``tau`` and
the base ratio ``rho`` (for the overlap chain ``rho = e**2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import FOUR_PI, DomainError, ParameterError

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)
_SQRT_PI = math.sqrt(math.pi)

#: quadratic coefficient of the ultraviolet constant, (14 + sqrt(6) pi)/(4 pi^2)
C_UV_QUADRATIC = (14.0 + _SQRT6 * math.pi) / (4.0 * math.pi ** 2)

#: cube root of 2 sqrt(2) pi^2: large-Z limit of e_uv(Z) * Z**(1/3)
E_UV_LARGE_Z = (2.0 * _SQRT2 * math.pi ** 2) ** (1.0 / 3.0)


def _alpha(e: float) -> float:
    return e * e / FOUR_PI


def atomic_level(e: float, Z: float, tau: float = 0.0, rho: float = 1.0) -> float:
    """Bare Coulomb ground energy in the (tau, rho) frame,
    -(alpha Z)^2 rho^(-2 tau) / 2."""
    aZ = _alpha(e) * Z
    if tau == 0.0:
        return -0.5 * aZ * aZ
    if not (rho > 0.0):
        raise DomainError(f"frame with tau={tau} needs rho > 0, got {rho}")
    return -0.5 * aZ * aZ * rho ** (-2.0 * tau)


def c_uv(e: float, Z: float) -> float:
    """Ultraviolet smallness constant.

    C_UV(e) = (2 e / pi) sqrt(1 + (e^2 Z / 4 pi)^2 / 2)
              + (14 + sqrt(6) pi) / (4 pi^2) * e^2.

    The model admits the ultraviolet bounds as long as C_UV < 1.
    """
    e = abs(float(e))
    aZ = _alpha(e) * Z
    return (2.0 * e / math.pi) * math.sqrt(1.0 + 0.5 * aZ * aZ) + C_UV_QUADRATIC * e * e


def e_uv(Z: float) -> float:
    """The positive root of C_UV(e) = 1 at nuclear charge Z.

    C_UV is strictly increasing in e > 0, so the root is unique; it tends to
    0.8888... as Z -> 0 and decays like (2 sqrt(2) pi^2 / Z^2)^(1/3) for
    large Z.
    """
    if not (Z > 0.0) or not math.isfinite(Z):
        raise ParameterError(f"Z must be positive and finite, got {Z}")
    from scipy.optimize import brentq  # imported here: scipy.optimize is slow to load

    return brentq(lambda x: c_uv(x, Z) - 1.0, 1e-12, 10.0, xtol=1e-15, rtol=8.9e-16)


def c_star_c1(e: float, Z: float, tau: float = 0.0, rho: float = 1.0):
    """Frame-dependent smallness constant C_* and the derived C_1.

    C_*(e, tau) = sqrt(6) alpha rho^(-tau)
                  + 4 sqrt(alpha / pi) sqrt(1 - E_at^(tau))
                  + (2 / pi) alpha (rho^(2 tau) + 3 rho^tau + 3),

    C_1 = (1 - C_*)^(-1/2).  At tau = 0 the expression collapses to C_UV for
    every rho.  When C_* >= 1 the pair is out of domain and a
    :class:`DomainError` is raised rather than silently clamping.
    """
    c_star = _c_star(e, Z, tau, rho)
    if not (c_star < 1.0):
        raise DomainError(
            f"C_* = {c_star:.6g} >= 1 at e={e}, Z={Z}, tau={tau}: C_1 undefined"
        )
    return c_star, 1.0 / math.sqrt(1.0 - c_star)


def _c_star(e: float, Z: float, tau: float, rho: float) -> float:
    e = abs(float(e))
    a = _alpha(e)
    if tau == 0.0:
        ru = rv = rw = 1.0
    else:
        if not (rho > 0.0):
            raise DomainError(f"frame with tau={tau} needs rho > 0, got {rho}")
        ru = rho ** (-tau)
        rv = rho ** tau
        rw = rho ** (2.0 * tau)
    level = atomic_level(e, Z, tau, rho)
    return (
        _SQRT6 * a * ru
        + 4.0 * math.sqrt(a / math.pi) * math.sqrt(1.0 - level)
        + (2.0 / math.pi) * a * (rw + 3.0 * rv + 3.0)
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


def soft_photon_bound(
    e: float, Z: float, eps: float = 0.75, delta: float | None = None
) -> float:
    """Bound on the expected number of photons with |k| < 1.

        9 alpha / (pi delta) (8 C_D + 21/2)^2
        + 2 M alpha (9 + 2 L^2 + 9e-2 L),
        M = 18 C_1^2 (C_D + 2)^2 / (eps pi^2),

    with 1/2 < eps < 1 and 0 < delta < 1/2 (default delta = 1 - eps).
    Valid for alpha Z < 1; the caller is expected to gate on that.
    """
    if delta is None:
        delta = 1.0 - eps
    if not (0.5 < eps < 1.0):
        raise DomainError(f"eps must lie in (1/2, 1), got {eps}")
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    if e == 0.0:
        return 0.0
    a = _alpha(e)
    cd = c_d(e, Z)
    c1 = _c1_base(e, Z)
    L = coupling_log(e, Z)
    M = 18.0 * c1 * c1 * (cd + 2.0) ** 2 / (eps * math.pi ** 2)
    return (9.0 * a / (math.pi * delta)) * (8.0 * cd + 10.5) ** 2 + 2.0 * M * a * (
        9.0 + 2.0 * L * L + 9.0e-2 * L
    )


def total_photon_bound(e: float, Z: float, conservative: bool = True) -> float:
    """photon_k(e, Z) * e^2 / (4 pi); zero at e = 0 (limit)."""
    if e == 0.0:
        return 0.0
    return photon_k(e, Z, conservative) * _alpha(e)


# ---------------------------------------------------------------------------
# infrared overlap chain (rho = e^2 convention)


def _c_tau(e: float, Z: float, tau: float) -> float:
    e = abs(e)
    return e ** (2.0 - 2.0 * tau) + e * math.sqrt(1.0 + Z * Z) + e * e


def _f_ir(e: float, Z: float, tau: float) -> float:
    e = abs(e)
    return math.sqrt(1.0 + Z * Z) * (e ** (4.0 * tau - 3.0) + 3.0 * math.sqrt(e)) + e * e


def overlap_constants(
    e: float,
    Z: float,
    tau: float = 0.9,
    eps: float = 0.75,
    theta_eps: float = 0.2,
    conservative: bool = True,
) -> dict:
    """All scalars of the infrared overlap chain at charge e.

    Works in the rho = e^2 frame convention.  ``eps`` is the telescoping
    exponent parameter (1/2 < eps < 1) entering M; ``theta_eps`` is the
    separate auxiliary split parameter of the Theta_2 expression and must
    satisfy 0 < theta_eps < 1/4.

    Returns a dict with keys theta1, theta2, c_tau, f_ir, q_bound, g_ir,
    photon_K, photon_K_low, L, M.  ``g_ir`` is the computable overlap floor

        G_IR = 1 - photon_K e^2/(4 pi) - 8 (4 pi / Z)^2 F_IR(e),

    which tends to 1 as e -> 0+.
    """
    if not (0.75 < tau <= 1.0):
        raise DomainError(f"tau must lie in (3/4, 1], got {tau}")
    if not (0.0 < theta_eps < 0.25):
        raise DomainError(f"theta_eps must lie in (0, 1/4), got {theta_eps}")
    if not (0.5 < eps < 1.0):
        raise DomainError(f"eps must lie in (1/2, 1), got {eps}")
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
        ee = theta_eps
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
        g_ir = 1.0
        cd = c_d(0.0, Z)
        c1 = 1.0
    else:
        K = photon_k(e, Z, conservative=True)
        K_low = photon_k(e, Z, conservative=False)
        L = coupling_log(e, Z)
        cd = c_d(e, Z)
        c1 = _c1_base(e, Z)
        K_used = K if conservative else K_low
        g_ir = 1.0 - K_used * a - q_bound
    M = 18.0 * c1 * c1 * (cd + 2.0) ** 2 / (eps * math.pi ** 2)

    return {
        "theta1": theta1,
        "theta2": theta2,
        "c_tau": c_tau,
        "f_ir": f_ir,
        "q_bound": q_bound,
        "g_ir": g_ir,
        "photon_K": K,
        "photon_K_low": K_low,
        "L": L,
        "M": M,
    }


@dataclass(frozen=True)
class CouplingWindow:
    """Admissible charge window of the infrared overlap chain."""

    Z: float
    tau: float
    e_uv: float
    a_ir1: float | None     # root of C_tau = 1/2 (None when absent, e.g. tau = 1)
    a_ir2: float | None     # root of F_IR = (Z / 4 pi)^2 / 16 (None when >= 1)
    e_ir: float             # largest admissible charge (0.0 when empty)
    g_ir_at_e_ir: float
    empty: bool
    mode: str               # "window" or "literal"


def coupling_window(
    Z: float, tau: float = 0.9, literal: bool = False, conservative: bool = True
) -> CouplingWindow:
    """Compute the admissible charge window for the overlap lower bound.

    Default mode ("window") returns the largest e in
    (0, min(1, a_ir1, a_ir2, e_uv)) with G_IR(e) > 0, located by bisection.
    ``literal=True`` instead mimics the printed recipe
    e_IR = min(sqrt(pi)/c0, 1, a_ir1, a_ir2) with c0 the total photon
    coefficient, solved self-consistently.  An empty window is reported, not
    raised.
    """
    if not (0.75 < tau <= 1.0):
        raise DomainError(f"tau must lie in (3/4, 1], got {tau}")
    from scipy.optimize import brentq

    euv = e_uv(Z)

    if tau == 1.0:
        # C_tau(0+) -> 1 > 1/2 and C_tau is increasing: no root.
        a1 = None
    else:
        f1 = lambda x: _c_tau(x, Z, tau) - 0.5
        a1 = brentq(f1, 1e-300, 1.0, xtol=1e-300, rtol=8.9e-16) if f1(1.0) > 0.0 else None

    rhs2 = (Z / FOUR_PI) ** 2 / 16.0
    f2 = lambda x: _f_ir(x, Z, tau) - rhs2
    a2 = brentq(f2, 1e-300, 1.0, xtol=1e-300, rtol=8.9e-16) if f2(1.0) > 0.0 else None

    emax = min(1.0, euv * (1.0 - 1e-9))
    if a1 is not None:
        emax = min(emax, a1)
    if a2 is not None:
        emax = min(emax, a2)

    def g_ir_of(x: float) -> float:
        return overlap_constants(x, Z, tau=tau, conservative=conservative)["g_ir"]

    if literal:
        # e * photon_k(e) = sqrt(pi), solved on (0, emax]
        h = lambda x: x * photon_k(x, Z, conservative) - _SQRT_PI
        if h(emax) <= 0.0:
            e_lit = emax
        else:
            e_lit = brentq(h, 1e-300, emax, xtol=1e-300, rtol=8.9e-16)
        e_val = min(e_lit, emax)
        g_val = g_ir_of(e_val) if e_val > 0.0 else 1.0
        return CouplingWindow(
            Z=Z, tau=tau, e_uv=euv, a_ir1=a1, a_ir2=a2,
            e_ir=e_val, g_ir_at_e_ir=g_val, empty=not (e_val > 0.0), mode="literal",
        )

    g_hi = g_ir_of(emax)
    if g_hi > 0.0:
        e_val = emax
        g_val = g_hi
    else:
        lo, hi = 1e-300, emax
        if g_ir_of(lo) <= 0.0:
            return CouplingWindow(
                Z=Z, tau=tau, e_uv=euv, a_ir1=a1, a_ir2=a2,
                e_ir=0.0, g_ir_at_e_ir=g_ir_of(lo), empty=True, mode="window",
            )
        for _ in range(2000):
            mid = math.sqrt(lo * hi)  # log-space bisection
            if g_ir_of(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        e_val = lo
        g_val = g_ir_of(lo)
    return CouplingWindow(
        Z=Z, tau=tau, e_uv=euv, a_ir1=a1, a_ir2=a2,
        e_ir=e_val, g_ir_at_e_ir=g_val, empty=not (e_val > 0.0), mode="window",
    )


def e_ir(Z: float, tau: float = 0.9) -> float:
    """Largest admissible charge of the overlap window (0.0 when empty)."""
    return coupling_window(Z, tau).e_ir


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


def full_l2_ceiling(tau: float = 0.0, rho: float = 1.0) -> float:
    """Ceiling for the full-shell norm ||f||: rho^(-tau) / (sqrt(2) pi)."""
    r = 1.0 if tau == 0.0 else rho ** (-tau)
    return r / (_SQRT2 * math.pi)


def uv_inv_sqrt_ceiling(tau: float = 0.0, rho: float = 1.0) -> float:
    """Ceiling for ||f_UV / sqrt(omega)||: rho^(-tau) / (sqrt(2) pi)."""
    return full_l2_ceiling(tau, rho)


def uv_inv_quarter_ceiling(tau: float = 0.0, rho: float = 1.0) -> float:
    """Ceiling for ||f_UV / omega^(1/4)||:
    rho^(-3 tau / 2) sqrt(1/(2 sqrt(2) pi) + rho^tau / (2 pi^2))."""
    r32 = 1.0 if tau == 0.0 else rho ** (-1.5 * tau)
    rt = 1.0 if tau == 0.0 else rho ** tau
    return r32 * math.sqrt(1.0 / (2.0 * _SQRT2 * math.pi) + rt / (2.0 * math.pi ** 2))


def xi_self_ceiling(tau: float = 0.0, rho: float = 1.0) -> float:
    """Closed-form ceiling for Xi(f, f) assembled from the norm ceilings:

    1/(2 pi^2) + sqrt(2) rho^(-tau)/pi^2 + sqrt(3) rho^(-2 tau)/(2 pi^2)
    + sqrt(3) rho^(-3 tau) / (2 sqrt(2) pi).
    """
    r1 = 1.0 if tau == 0.0 else rho ** (-tau)
    r2 = 1.0 if tau == 0.0 else rho ** (-2.0 * tau)
    r3 = 1.0 if tau == 0.0 else rho ** (-3.0 * tau)
    return (
        1.0 / (2.0 * math.pi ** 2)
        + _SQRT2 * r1 / math.pi ** 2
        + _SQRT3 * r2 / (2.0 * math.pi ** 2)
        + _SQRT3 * r3 / (2.0 * _SQRT2 * math.pi)
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


def grad_ceiling(kind: str, R: float, c: float = 1.0) -> float:
    """sup |grad G_R|^2 ceilings for the three cut test functions.

    G_R(x) = chi_R(|x|) g(|x|) with chi_R linear between R/2 and R, and
    g = sqrt(log(3 + c|x|)) ("log"), g = |x|^(1/2) ("sqrt_abs"),
    g = |x| ("abs").
    """
    if not (R > 0.0):
        raise DomainError(f"R must be positive, got {R}")
    if kind == "log":
        return 4.0 * R ** -2 * math.log(3.0 + c * R) + 5.0 * R ** -2
    if kind == "sqrt_abs":
        return 7.0 / R
    if kind == "abs":
        return 9.0
    raise ParameterError(f"unknown test-function kind {kind!r}")


def gsq_over_x_ceiling(kind: str, R: float, c: float = 1.0) -> float:
    """sup G_R(x)^2 / |x| for the cut test functions (where bounded).

    For g^2 = log(3 + c|x|) the ratio log(3 + c r)/r is decreasing on
    r >= R/2, so the sup equals 2 log(3 + c R / 2) / R.  For g = |x|^(1/2)
    the ratio is at most 1.  For g = |x| the quantity is unbounded.
    """
    if not (R > 0.0):
        raise DomainError(f"R must be positive, got {R}")
    if kind == "log":
        return 2.0 * math.log(3.0 + 0.5 * c * R) / R
    if kind == "sqrt_abs":
        return 1.0
    if kind == "abs":
        raise DomainError("G_R^2 / |x| is unbounded for g = |x|")
    raise ParameterError(f"unknown test-function kind {kind!r}")


def sl1_bound(lam1: float, sup_grad_sq: float, sup_gsq_over_x: float) -> float:
    """Right-hand side of the localization estimate:

    ||G_R psi||^2 <= lam1^2 sup|grad G_R|^2 + 2 lam1 sup(G_R^2/|x|).
    """
    if not (lam1 > 0.0):
        raise DomainError(f"lam1 must be positive, got {lam1}")
    return lam1 * lam1 * sup_grad_sq + 2.0 * lam1 * sup_gsq_over_x
