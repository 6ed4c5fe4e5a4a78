"""Radial momentum-shell integrals and special-function helpers.

All explicit integrals of the closed-form analysis live here: the shell
norms of the coupling function, the self-energy constant, the
effective-mass coefficient, the cosine integral cin, and the second-order
binding expansion.  Adaptive quadrature is delegated to scipy's QUADPACK
wrapper behind a stable, thread-count-independent interface.
"""

from __future__ import annotations

import math

from .closedform import NormBundle
from .model import (
    DivergentIntegralError,
    DomainError,
    ModelParams,
    ParameterError,
    ScaleFrame,
)

EULER_GAMMA = 0.5772156649015329

_QUAD_LIMIT = 2000
_NORM_PREFACTOR = 2.0 * (2.0 * math.pi) ** 3  # 16 pi^3


def _radial_quad(f, lo: float, hi: float) -> float:
    """Adaptive quadrature of f on [lo, hi].  A positive lo starts with
    [lo, min(hi, lo + 1)] in s = log r: in r, a singularity at the origin
    just below lo makes QUADPACK extrapolate to the integral from 0 (28% off
    for r^-0.9 at lo = 1e-7).  An infinite hi is mapped explicitly by
    r = mid + t/(1-t), so the subdivision order (and hence the
    floating-point result) never depends on threading."""
    from scipy.integrate import quad  # imported here: scipy.integrate is slow to load

    pieces, mid = [], lo
    if lo > 0.0:
        mid = min(hi, lo + 1.0)
        pieces.append((lambda s: f(math.exp(s)) * math.exp(s), math.log(lo), math.log(mid)))
    if math.isinf(hi):
        pieces.append((lambda t: f(mid + t / (1.0 - t)) / ((1.0 - t) * (1.0 - t)), 0.0, 1.0))
    elif mid < hi:
        pieces.append((f, mid, hi))
    outs = [quad(g, a, b, epsabs=1e-14, epsrel=1e-12, limit=_QUAD_LIMIT, full_output=1)
            for g, a, b in pieces]
    return sum(o[0] for o in outs)


# ---------------------------------------------------------------------------
# cosine integral


def _cin_series(x: float) -> float:
    # sum_{n>=1} (-1)^(n+1) x^(2n) / (2n (2n)!)
    total = 0.0
    u = 1.0  # x^(2n)/(2n)! running
    sign = 1.0
    for n in range(1, 60):
        u *= x * x / ((2.0 * n - 1.0) * (2.0 * n))
        term = sign * u / (2.0 * n)
        total += term
        sign = -sign
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def cin(x: float) -> float:
    """Entire cosine integral cin(x) = int_0^x (1 - cos s)/s ds (even in x)."""
    x = abs(float(x))
    if x == 0.0:
        return 0.0
    if x < 0.5:
        return _cin_series(x)

    def f(s):
        if s < 1e-8:
            return 0.5 * s
        return (1.0 - math.cos(s)) / s

    from scipy.integrate import quad

    out = quad(f, 0.0, x, epsabs=1e-13, epsrel=1e-12, limit=_QUAD_LIMIT,
               full_output=1)
    return out[0]


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

    def f(r):
        return 0.5 * r / (r + r * r / (2.0 * m)) + 0.5 * Z * Z

    return params.e ** 2 / (2.0 * math.pi ** 2) * _radial_quad(f, params.kappa, params.lam)


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

    return 1.0 / (3.0 * math.pi ** 2) * _radial_quad(f, 0.0, math.inf)


EFFECTIVE_MASS_COEFFICIENT_EXACT = 1.0 / (6.0 * math.pi ** 2)


def binding_second_order(e: float, Z: float, resolvent=None) -> float:
    """Second-order binding shift:

    -(e^2 / 3) (2 pi)^(-3) int (2 omega)^(-1) beta^2 k^2 * me(shift) d^3k
      = -(e^2 / (12 pi^2)) int_0^inf r^3 beta(r)^2 me(r + r^2/2) dr,

    where ``resolvent(shift)`` supplies the dipole matrix element of the
    shifted atomic resolvent.  ``resolvent=None`` uses the ratio-one
    approximation me(s) = (alpha Z)^2 / s, which integrates exactly to
    -(alpha Z)^2 e^2 / (12 pi^2).  Every node is checked against the
    integrable envelope me <= (alpha Z)^2 / r (resolvent norm 1/omega).
    """
    if e == 0.0:
        return 0.0
    aZ = e * e / (4.0 * math.pi) * Z
    ceiling_scale = aZ * aZ * 1.02

    if resolvent is None:
        resolvent = lambda s: aZ * aZ / s

    def f(r):
        s = r + 0.5 * r * r
        me = resolvent(s)
        if me > ceiling_scale / r:
            raise DomainError(
                f"resolvent matrix element {me:.6g} exceeds the integrable "
                f"envelope (alpha Z)^2/r = {aZ * aZ / r:.6g} at r = {r:.6g}"
            )
        beta = 1.0 / s
        return r ** 3 * beta * beta * me

    return -(e * e / (12.0 * math.pi ** 2)) * _radial_quad(f, 0.0, math.inf)


def binding_envelope(e: float, Z: float) -> float:
    """Envelope version of the second-order shift, with the matrix element
    replaced by its ceiling (alpha Z)^2 / r; integrates to
    -2 (alpha Z)^2 e^2 / (12 pi^2), twice the ratio-one value."""
    if e == 0.0:
        return 0.0
    aZ = e * e / (4.0 * math.pi) * Z

    def f(r):
        beta = 1.0 / (r + 0.5 * r * r)
        return r * r * beta * beta * aZ * aZ

    return -(e * e / (12.0 * math.pi ** 2)) * _radial_quad(f, 0.0, math.inf)


# ---------------------------------------------------------------------------
# coupling-function norms


# the weight omega^a' of each shell norm, as a = 2 a' + 1, and its part of the support
_NORM_WEIGHTS = {
    "f_ir_l2": (1.0, "ir"),
    "f_ir_over_sqrt_omega": (0.0, "ir"),
    "f_uv_over_sqrt_omega": (0.0, "uv"),
    "f_uv_over_quarter_omega": (0.5, "uv"),
}


def f_tau_norm(params: ModelParams, frame: ScaleFrame, name: str) -> float:
    """One split norm of the coupling function in ``frame``, named as the
    field of NormBundle that holds it.

    In the frame the shell support is [kappa rho^(-2 tau), lam rho^(-2 tau)]
    and the dressed denominator carries rho^(2 tau), both from
    ``frame.power``; the infrared/ultraviolet split sits at |k| = 1.  The
    norm weighted by omega^a', a' in {0, -1/2, -1/4}, is the square root of
    4 pi int r^a (1 + rho^(2 tau) r / 2)^(-2) dr / (2 (2 pi)^3), a = 2 a' + 1,
    over its part of the support; an empty part gives 0.  A moment that is
    not finite, or is negative (the quadrature fails at the ends of the
    float range), raises DomainError naming the support.
    """
    a, part = _NORM_WEIGHTS[name]
    scale = frame.power(-2.0)
    half = 0.5 * frame.power(2.0)
    kap = params.kappa * scale
    lam = params.lam if math.isinf(params.lam) else params.lam * scale
    lo, hi = (kap, min(lam, 1.0)) if part == "ir" else (max(kap, 1.0), lam)
    if not (lo < hi):
        return 0.0
    moment = 4.0 * math.pi * _radial_quad(lambda r: r ** a * (1.0 + half * r) ** (-2.0), lo, hi)
    if not 0.0 <= moment < math.inf:
        raise DomainError(f"the {name} moment over the support [{lo:.6g}, {hi:.6g}] "
                          f"is {moment!r}, not a finite non-negative number")
    return math.sqrt(moment / _NORM_PREFACTOR)


def f_tau_norms(params: ModelParams, frame: ScaleFrame) -> NormBundle:
    """The four split norms of the coupling function in ``frame`` (``f_tau_norm``)."""
    return NormBundle(**{name: f_tau_norm(params, frame, name) for name in _NORM_WEIGHTS})
