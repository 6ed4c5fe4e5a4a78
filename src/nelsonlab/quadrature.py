"""Radial momentum-shell integrals and special-function helpers.

All explicit integrals of the closed-form analysis live here: the shell
norms of the coupling function, the self-energy constant, the
effective-mass coefficient, the cosine integral cin, and the second-order
binding expansion.  The shell norms and the envelope shift are closed forms;
the rest runs on one composite 16-point Gauss-Legendre rule, numpy alone, and
the CLI prints each rule row but cin beside the closed form that checks it.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .fockspace import _gauss_legendre
from .model import DivergentIntegralError, DomainError, ModelParams, ParameterError, ScaleFrame

EULER_GAMMA = 0.5772156649015329

_NORM_PREFACTOR = 2.0 * (2.0 * math.pi) ** 3  # 16 pi^3
_HALF_LINE = (1e-17, 1e10)  # (0, inf) in the rule: each tail left out is below 1e-17 relative


@cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre on [0, 1], weights scaled to sum to 1 (3e-15 off by Golub-Welsch)."""
    x, w = _gauss_legendre(16)
    return 0.5 * (x + 1.0), w / math.fsum(w)


def _panels(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [lo, hi]: the 16-point rule on equal panels no wider than 2."""
    count = max(1, math.ceil(0.5 * (hi - lo)))
    step = (hi - lo) / count
    t, w = _panel_rule()
    return (lo + step * (np.arange(count)[:, None] + t)).ravel(), np.tile(step * w, count)


def _log_quad(f, lo: float, hi: float) -> float:
    """int_lo^hi f(r) dr, 0 < lo < hi < inf, f vectorized, on panels in s = log r."""
    s, w = _panels(math.log(lo), math.log(hi))
    r = np.exp(s)
    return math.fsum(w * r * f(r))


# ---------------------------------------------------------------------------
# cosine integral


def cin(x: float) -> float:
    """Entire cosine integral cin(x) = int_0^x (1 - cos s)/s ds (even in x): the rule
    below 1e3, on 1 - cos s = 2 sin^2(s/2), which keeps its digits near 0, and above
    gamma + log x - Ci(x), Ci(x) = f sin x - g cos x by the asymptotic series
    f ~ sum (-1)^k (2k)!/x^(2k+1), g ~ sum (-1)^k (2k+1)!/x^(2k+2)
    (Abramowitz & Stegun 5.2.8-9, 5.2.34-35)."""
    x = abs(float(x))
    if x == 0.0:
        return 0.0
    if x < 1e3:
        s, w = _panels(0.0, x)
        half = np.sin(0.5 * s)
        return math.fsum(w * (2.0 * half / s) * half)
    f = g = 0.0
    fk, gk = 1.0 / x, 1.0 / (x * x)
    for k in range(1, 7):  # the seventh terms are below 1e-27 of the first
        f, g = f + fk, g + gk
        fk *= -(2.0 * k - 1.0) * (2.0 * k) / (x * x)
        gk *= -(2.0 * k) * (2.0 * k + 1.0) / (x * x)
    return EULER_GAMMA + math.log(x) - (f * math.sin(x) - g * math.cos(x))


# ---------------------------------------------------------------------------
# self-energy constant


def energy_renormalization(params: ModelParams) -> float:
    """Subtracted self-energy constant of the dressing transformation:

    e^2 (2 pi)^(-3) * 4 pi * int_kappa^lam [ r beta_m(r)/2 + Z^2/2 ] dr,
    beta_m(r) = (r + r^2/(2 m))^(-1).

    Grows like log(lam) and stays finite as kappa -> 0; an infrared cutoff
    kappa > 0 and a finite lam are still required by contract.
    """
    if not (params.kappa > 0.0):
        raise ParameterError(
            f"energy renormalization requires kappa > 0, got {params.kappa}"
        )
    if math.isinf(params.lam):
        raise DivergentIntegralError(
            "self-energy constant grows logarithmically: lam must be finite"
        )
    if params.e == 0.0:
        return 0.0
    m, Z = params.m, params.Z

    def f(r):  # r beta_m(r) = 1/(1 + r/(2m)), which keeps r^2 from overflowing
        return 0.5 / (1.0 + r / (2.0 * m)) + 0.5 * Z * Z

    return params.e ** 2 / (2.0 * math.pi ** 2) * _log_quad(f, params.kappa, params.lam)


def energy_renormalization_analytic(params: ModelParams) -> float:
    """Antiderivative oracle for :func:`energy_renormalization`:
    e^2/(2 pi^2) [ m log((2m + lam)/(2m + kappa)) + Z^2 (lam - kappa)/2 ]."""
    m, Z = params.m, params.Z
    return params.e ** 2 / (2.0 * math.pi ** 2) * (
        m * math.log((2.0 * m + params.lam) / (2.0 * m + params.kappa))
        + 0.5 * Z * Z * (params.lam - params.kappa)
    )


# ---------------------------------------------------------------------------
# effective-mass coefficient and binding expansion


def effective_mass_coefficient() -> float:
    """Second-order momentum-response coefficient of the dressed vacuum:

    (2/3) (2 pi)^(-3) int (2 omega)^(-1) k^2 beta^3 d^3k,
    beta = (omega + k^2/2)^(-1),

    with omega = |k|; equals 1/(6 pi^2) exactly.
    """

    def f(r):
        beta = 1.0 / (r + 0.5 * r * r)
        return r ** 4 * beta ** 3 / (2.0 * r)

    return 1.0 / (3.0 * math.pi ** 2) * _log_quad(f, *_HALF_LINE)


EFFECTIVE_MASS_COEFFICIENT_EXACT = 1.0 / (6.0 * math.pi ** 2)


def binding_second_order(e: float, Z: float, resolvent=None) -> float:
    """Second-order binding shift:

    -(e^2 / 3) (2 pi)^(-3) int (2 omega)^(-1) beta^2 k^2 * me(shift) d^3k
      = -(e^2 / (12 pi^2)) int_0^inf r^3 beta(r)^2 me(r + r^2/2) dr,

    where ``resolvent(shifts)`` supplies the dipole matrix element of the
    shifted atomic resolvent at all the rule's shifts in one call.
    ``resolvent=None`` uses the ratio-one approximation me(s) = (alpha Z)^2 / s,
    which integrates exactly to -(alpha Z)^2 e^2 / (12 pi^2).  Every node is
    checked against the integrable envelope me <= (alpha Z)^2 / r (resolvent
    norm 1/omega).
    """
    if e == 0.0:
        return 0.0
    aZ = e * e / (4.0 * math.pi) * Z

    def f(r):
        shift = r + 0.5 * r * r
        me = np.broadcast_to(aZ * aZ / shift if resolvent is None else resolvent(shift), r.shape)
        over = np.flatnonzero(me > aZ * aZ * 1.02 / r)
        if over.size:  # name the first node past the envelope
            i = over[0]
            raise DomainError(f"resolvent matrix element {me[i]:.6g} exceeds the integrable "
                              f"envelope (alpha Z)^2/r = {aZ * aZ / r[i]:.6g} at r = {r[i]:.6g}")
        return r ** 3 * me / shift ** 2

    lo, hi = _HALF_LINE  # past r = aZ the resolvent's tail falls like (aZ / r)^2
    return -(e * e / (12.0 * math.pi ** 2)) * _log_quad(f, lo, hi * max(1.0, aZ))


def binding_envelope(e: float, Z: float) -> float:
    """Envelope version of the second-order shift, with the matrix element
    replaced by its ceiling (alpha Z)^2 / r: int_0^inf r^2 beta(r)^2 dr = 2,
    so it is -2 (alpha Z)^2 e^2 / (12 pi^2), twice the ratio-one value."""
    if e == 0.0:
        return 0.0
    aZ = e * e / (4.0 * math.pi) * Z
    return -(e * e / (12.0 * math.pi ** 2)) * 2.0 * aZ * aZ


# ---------------------------------------------------------------------------
# coupling-function norms


# the weight omega^a' of each shell norm, as a = 2 a' + 1, and its part of the support
_NORM_WEIGHTS = {
    "f_ir_l2": (1.0, "ir"),
    "f_ir_over_sqrt_omega": (0.0, "ir"),
    "f_uv_over_sqrt_omega": (0.0, "uv"),
    "f_uv_over_quarter_omega": (0.5, "uv"),
}


def _g_ratio(a: float, x: float) -> float:
    """G(x) / x^(a+1), G(x) = int_0^x t^a (1 + t)^-2 dt: log1p x - x/(1 + x) at a = 1, atan y
    - y/(1 + x), y = sqrt x, at a = 1/2; below x = 0.1, where those cancel, its power series."""
    if x < 0.1 and a == 1.0:  # sum_{n>=2} (-1)^n (n - 1)/n x^(n-2)
        return math.fsum((-1) ** n * (n - 1) / n * x ** (n - 2) for n in range(2, 22))
    if x < 0.1:  # 2 sum_{k>=0} (-1)^k (k + 1)/(2k + 3) x^k
        return 2.0 * math.fsum((-1) ** k * (k + 1) / (2 * k + 3) * x ** k for k in range(20))
    y = math.sqrt(x)
    return ((math.log1p(x) - x / (1.0 + x)) / (x * x) if a == 1.0
            else (math.atan(y) - y / (1.0 + x)) / (x * y))


def _shell_moment(a: float, h: float, lo: float, hi: float) -> float:
    """int_lo^hi r^a (1 + h r)^-2 dr, 0 <= lo < hi <= inf, in closed form, each difference of
    primitives rewritten as a sum of positive terms in r: nothing cancels however narrow the
    window, and no power of h under- or overflows."""
    if a == 0.0:  # the difference of x/(1 + x), x = h r
        return 1.0 / (h * (1.0 + h * lo)) if math.isinf(hi) else (
            (hi - lo) / ((1.0 + h * lo) * (1.0 + h * hi)))
    if math.isinf(hi):  # divergent at a = 1; at a = 1/2, pi/2 - G(y^2) = atan(1/y) + y/(1 + y^2)
        y = math.sqrt(h * lo)
        tail = math.pi / 2.0 if y == 0.0 else math.atan(1.0 / y) + 1.0 / (y + 1.0 / y)
        return math.inf if a == 1.0 else tail / h / math.sqrt(h)  # inf past the float range
    if a == 1.0:  # G(x_hi) - G(x_lo) = G(d) + d x_lo/((1 + d)(1 + x_lo)), d = h D
        D = (hi - lo) / (1.0 + h * lo)
        return D * D * _g_ratio(1.0, h * D) + D * lo / ((1.0 + h * D) * (1.0 + h * lo))
    # a = 1/2: G(y_hi^2) - G(y_lo^2) = G(z^2) + 2 z p / ((1 + z^2)(1 + p)), by atan's addition
    # rule, with p = y_hi y_lo and z = (y_hi - y_lo) / (1 + p)
    s = math.sqrt(hi) * math.sqrt(lo)  # p / h
    Z = (hi - lo) / ((math.sqrt(hi) + math.sqrt(lo)) * (1.0 + h * s))  # z / sqrt h
    return Z * Z * Z * _g_ratio(0.5, h * Z * Z) + 2.0 * Z * s / ((1.0 + h * Z * Z) * (1.0 + h * s))


def f_tau_norm(params: ModelParams, frame: ScaleFrame, name: str) -> float:
    """One split norm of the coupling function in ``frame``, named as the
    field of NormBundle that holds it.

    In the frame the shell support is [kappa rho^(-2 tau), lam rho^(-2 tau)]
    and the dressed denominator carries rho^(2 tau), both from
    ``frame.power``; the infrared/ultraviolet split sits at |k| = 1.  The
    norm weighted by omega^a', a' in {0, -1/2, -1/4}, is the square root of
    4 pi int r^a (1 + rho^(2 tau) r / 2)^(-2) dr / (2 (2 pi)^3), a = 2 a' + 1,
    over its part of the support, in closed form; an empty part gives 0.  A
    moment that is not finite (one past the float range) raises DomainError
    naming the support.
    """
    a, part = _NORM_WEIGHTS[name]
    scale = frame.power(-2.0)
    half = 0.5 * frame.power(2.0)
    kap = params.kappa * scale
    lam = params.lam if math.isinf(params.lam) else params.lam * scale
    lo, hi = (kap, min(lam, 1.0)) if part == "ir" else (max(kap, 1.0), lam)
    if not (lo < hi):
        return 0.0
    moment = 4.0 * math.pi * _shell_moment(a, half, lo, hi)
    if not 0.0 <= moment < math.inf:
        raise DomainError(f"the {name} moment over the support [{lo:.6g}, {hi:.6g}] "
                          f"is {moment!r}, not a finite non-negative number")
    return math.sqrt(moment / _NORM_PREFACTOR)
