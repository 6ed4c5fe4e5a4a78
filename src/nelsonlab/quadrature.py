"""Radial momentum-shell integrals and special-function helpers.

All explicit integrals of the closed-form analysis live here: the dressed
shell moments (with their analytic b = 2 family), the self-energy constant,
the smeared-tail correction potential, the effective-mass coefficient, the
cosine integral cin, and the second-order binding expansion.  The sine
integral is hand-implemented (series + continued fraction); adaptive
quadrature is delegated to scipy's QUADPACK wrapper behind a stable,
thread-count-independent interface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .closedform import NormBundle
from .model import (
    DivergentIntegralError,
    DomainError,
    ModelParams,
    ParameterError,
)

EULER_GAMMA = 0.5772156649015329

_QUAD_LIMIT = 2000
_NORM_PREFACTOR = 2.0 * (2.0 * math.pi) ** 3  # 16 pi^3


@dataclass(frozen=True)
class ShellSpec:
    """Radial integration region: [kappa, lam] intersected with the
    infrared ball |k| < 1 or its ultraviolet complement (or neither)."""

    kappa: float
    lam: float
    region: str = "full"

    def __post_init__(self):
        if self.kappa < 0.0 or math.isnan(self.kappa) or math.isinf(self.kappa):
            raise ParameterError(f"kappa must be a finite radius >= 0, got {self.kappa}")
        if math.isnan(self.lam) or self.lam < self.kappa:
            raise ParameterError(f"lam must be >= kappa, got {self.lam}")
        if self.region not in ("full", "infrared", "ultraviolet"):
            raise ParameterError(f"unknown region {self.region!r}")

    def bounds(self):
        """Effective (lo, hi) radii, or None when the region is empty."""
        lo, hi = self.kappa, self.lam
        if self.region == "infrared":
            hi = min(hi, 1.0)
        elif self.region == "ultraviolet":
            lo = max(lo, 1.0)
        if not (lo < hi):
            return None
        return lo, hi


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    nodes_used: int


def _radial_quad(f, lo: float, hi: float, epsabs=1e-14, epsrel=1e-12) -> QuadResult:
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
    outs = [quad(g, a, b, epsabs=epsabs, epsrel=epsrel, limit=_QUAD_LIMIT, full_output=1)
            for g, a, b in pieces]
    return QuadResult(sum(o[0] for o in outs), sum(o[1] for o in outs),
                      sum(int(o[2]["neval"]) for o in outs))


def shell_moment(a: float, b: float, rho2tau: float, spec: ShellSpec) -> QuadResult:
    """4 pi * integral of r^(a+2) (r + rho2tau r^2 / 2)^(-b) dr over the
    region of ``spec``.

    This is the radial reduction of the momentum integral of
    |k|^a (|k| + rho2tau |k|^2 / 2)^(-b).  Divergent endpoint configurations
    raise :class:`DivergentIntegralError` naming the failing endpoint:
    the origin needs a + 2 - b > -1, an infinite outer radius needs
    a + 2 - 2 b < -1 (the denominator grows like r^(2b) there; for
    rho2tau = 0 it only grows like r^b, so then a + 2 - b < -1).
    """
    if rho2tau < 0.0 or not math.isfinite(rho2tau):
        raise ParameterError(f"rho2tau must be finite and >= 0, got {rho2tau}")
    bounds = spec.bounds()
    if bounds is None:
        return QuadResult(0.0, 0.0, 0)
    lo, hi = bounds
    if lo == 0.0 and not (a + 2.0 - b > -1.0):
        raise DivergentIntegralError(
            f"shell moment a={a}, b={b} diverges at the origin "
            f"(needs a + 2 - b > -1)"
        )
    if math.isinf(hi):
        if rho2tau > 0.0:
            if not (a + 2.0 - 2.0 * b < -1.0):
                raise DivergentIntegralError(
                    f"shell moment a={a}, b={b} diverges at infinity "
                    f"(needs a + 2 - 2b < -1 for rho2tau > 0)"
                )
        elif not (a + 2.0 - b < -1.0):
            raise DivergentIntegralError(
                f"shell moment a={a}, b={b} diverges at infinity "
                f"(needs a + 2 - b < -1 for rho2tau = 0)"
            )

    half = 0.5 * rho2tau

    def f(r):  # r^(a+2) (r + half r^2)^(-b), without overflow at tiny r
        return r ** (a + 2.0 - b) * (1.0 + half * r) ** (-b)

    out = _radial_quad(f, lo, hi)
    return QuadResult(4.0 * math.pi * out.value,
                      4.0 * math.pi * out.abs_error_estimate,
                      out.nodes_used)


def shell_moment_b2_analytic(a: float, c: float, lo: float, hi: float) -> float:
    """Antiderivative oracle for the b = 2 family at integer-friendly a.

    For a = 0: 4 pi * [-(2/c) (1 + c r / 2)^(-1)], i.e. 8 pi / c over (0, inf).
    For a = 1: 4 pi * (4/c^2) [log(1 + c r / 2) + (1 + c r / 2)^(-1)].
    """
    if c <= 0.0:
        raise ParameterError(f"denominator coefficient must be positive, got {c}")

    def anti0(r):
        return -(2.0 / c) / (1.0 + 0.5 * c * r) if not math.isinf(r) else 0.0

    def anti1(r):
        if math.isinf(r):
            raise DivergentIntegralError("a = 1, b = 2 diverges at infinity")
        u = 1.0 + 0.5 * c * r
        return (4.0 / (c * c)) * (math.log(u) + 1.0 / u)

    if a == 0:
        return 4.0 * math.pi * (anti0(hi) - anti0(lo))
    if a == 1:
        return 4.0 * math.pi * (anti1(hi) - anti1(lo))
    raise ParameterError(f"no antiderivative oracle for a={a}")


# ---------------------------------------------------------------------------
# sine integral (hand implementation; scipy.special.sici is test-only)


def _si_series(x: float) -> float:
    # sum (-1)^n x^(2n+1) / ((2n+1)(2n+1)!), fast for |x| < 4
    total = x
    u = x
    sign = 1.0
    for n in range(1, 60):
        u *= x * x / ((2.0 * n) * (2.0 * n + 1.0))
        sign = -sign
        term = sign * u / (2.0 * n + 1.0)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _e1_imag_axis(x: float) -> complex:
    """E_1(i x) for x > 0 by the even-contracted continued fraction
    E_1(z) = exp(-z) / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))),
    evaluated with the modified Lentz algorithm."""
    z = 1j * x
    tiny = 1e-300
    f = z + 1.0
    if f == 0:
        f = tiny
    c_prev = f
    d_prev = 0.0j
    for n in range(1, 400):
        a_n = -float(n * n)
        b_n = z + (2.0 * n + 1.0)
        d_cur = b_n + a_n * d_prev
        if d_cur == 0:
            d_cur = tiny
        c_cur = b_n + a_n / c_prev
        if c_cur == 0:
            c_cur = tiny
        d_cur = 1.0 / d_cur
        delta = c_cur * d_cur
        f *= delta
        c_prev, d_prev = c_cur, d_cur
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-z) / f


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(s)/s ds (odd in x)."""
    if x == 0.0 or math.isnan(x):
        return x
    if x < 0.0:
        return -si(-x)
    if math.isinf(x):
        return 0.5 * math.pi
    if x < 4.0:
        return _si_series(x)
    return 0.5 * math.pi + _e1_imag_axis(x).imag


def ci(x: float) -> float:
    """Cosine integral Ci(x) for x > 0."""
    if not (x > 0.0):
        raise DomainError(f"Ci needs x > 0, got {x}")
    if math.isinf(x):
        return 0.0
    if x < 4.0:
        # Ci = gamma + log x - cin, with cin from its own series
        return EULER_GAMMA + math.log(x) - _cin_series(x)
    return -_e1_imag_axis(x).real


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
# self-energy constant and correction potential


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

    out = _radial_quad(f, params.kappa, params.lam)
    return params.e ** 2 / (2.0 * math.pi ** 2) * out.value


def energy_renormalization_analytic(params: ModelParams) -> float:
    """Antiderivative oracle for :func:`energy_renormalization`:
    e^2/(2 pi^2) [ m log((2m + lam)/(2m + kappa)) + Z^2 (lam - kappa)/2 ]."""
    m, Z = params.m, params.Z
    return params.e ** 2 / (2.0 * math.pi ** 2) * (
        m * math.log((2.0 * m + params.lam) / (2.0 * m + params.kappa))
        + 0.5 * Z * Z * (params.lam - params.kappa)
    )


def correction_potential(params: ModelParams, x: float) -> float:
    """Effective radial potential generated by the cutoff tails:

    V(x) = (e^2 Z / m) (2 pi^2)^(-1) (m/x)
           [ Si(kappa x / m) + pi/2 - Si(lam x / m) ].

    Vanishes pointwise as kappa -> 0, lam -> inf, and satisfies
    |V(x)| <= const / x since the bracket is bounded.
    """
    if not (x > 0.0):
        raise DomainError(f"correction potential needs x > 0, got {x}")
    if params.e == 0.0:
        return 0.0
    y = x / params.m
    tail = 0.0 if math.isinf(params.lam) else 0.5 * math.pi - si(params.lam * y)
    head = si(params.kappa * y)
    return (params.e ** 2 * params.Z / params.m) / (2.0 * math.pi ** 2) * (
        head + tail
    ) / y


# ---------------------------------------------------------------------------
# effective-mass coefficient and binding expansion


def effective_mass_coefficient(massive: bool = False) -> QuadResult:
    """Second-order momentum-response coefficient of the dressed vacuum:

    (2/3) (2 pi)^(-3) int (2 omega)^(-1) k^2 beta^3 d^3k,
    beta = (omega + k^2/2)^(-1),

    with omega = |k| (default; equals 1/(6 pi^2) exactly) or
    omega = sqrt(k^2 + 1) for the massive-dispersion variant.
    """

    if massive:

        def f(r):
            w = math.hypot(r, 1.0)
            beta = 1.0 / (w + 0.5 * r * r)
            return r ** 4 * beta ** 3 / (2.0 * w)

    else:

        def f(r):
            beta = 1.0 / (r + 0.5 * r * r)
            return r ** 4 * beta ** 3 / (2.0 * r)

    out = _radial_quad(f, 0.0, math.inf)
    pref = 1.0 / (3.0 * math.pi ** 2)
    return QuadResult(pref * out.value, pref * out.abs_error_estimate,
                      out.nodes_used)


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

    out = _radial_quad(f, 0.0, math.inf)
    return -(e * e / (12.0 * math.pi ** 2)) * out.value


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

    out = _radial_quad(f, 0.0, math.inf)
    return -(e * e / (12.0 * math.pi ** 2)) * out.value


# ---------------------------------------------------------------------------
# coupling-function norms


def f_tau_norms(params: ModelParams, tau: float = 0.0, rho: float = 1.0) -> NormBundle:
    """The four split norms of the frame coupling function.

    In the frame the shell support is [kappa rho^(-2 tau), lam rho^(-2 tau)]
    and the dressed denominator carries rho^(2 tau); the infrared/ultraviolet
    split sits at |k| = 1.  Each norm is
    sqrt(shell_moment(2 a' + 1, 2, rho^(2 tau)) / (2 (2 pi)^3)) with weight
    exponent a' in {0, -1/2, -1/4}.
    """
    if tau != 0.0 and not (rho > 0.0 and math.isfinite(rho)):
        raise ParameterError(f"frame with tau={tau} needs finite rho > 0, got {rho}")
    scale = 1.0 if tau == 0.0 else rho ** (-2.0 * tau)
    rho2tau = 1.0 if tau == 0.0 else rho ** (2.0 * tau)
    kap = params.kappa * scale
    lam = params.lam if math.isinf(params.lam) else params.lam * scale

    def norm(a: float, region: str) -> float:
        spec = ShellSpec(kap, lam, region)
        mom = shell_moment(a, 2.0, rho2tau, spec)
        return math.sqrt(mom.value / _NORM_PREFACTOR)

    return NormBundle(
        f_ir_l2=norm(1.0, "infrared"),
        f_ir_over_sqrt_omega=norm(0.0, "infrared"),
        f_uv_over_sqrt_omega=norm(0.0, "ultraviolet"),
        f_uv_over_quarter_omega=norm(0.5, "ultraviolet"),
    )
