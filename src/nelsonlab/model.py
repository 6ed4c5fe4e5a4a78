"""Model parameters and scale-frame arithmetic.

The solver, the observables and the mode grids work in the defining units
of a parameter record (:class:`ModelParams`).  A scale frame
(:class:`ScaleFrame`) enters only the closed-form constants and the shell
integrals.  It is labelled by an exponent ``tau`` and a base ratio ``rho``;
lengths carry a factor ``rho**tau`` and energies a factor ``rho**(-2*tau)``
relative to the defining units.  Every such factor is
``ScaleFrame.power(c)`` = ``rho**(c*tau)``, which is 1.0 in the base frame
(tau = 0) for any rho.  With ``rho = alpha*Z*lambda1`` and ``lambda1 = 1``
the ``tau = 1`` frame puts the Coulomb attraction at unit strength, i.e.
the natural atomic length becomes 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FOUR_PI = 4.0 * math.pi


class ParameterError(ValueError):
    """Raised when a physical parameter is out of its admissible range."""


class DomainError(ValueError):
    """Raised when a closed-form expression is evaluated outside the region
    where it is defined (e.g. a square root of a negative quantity)."""


class DivergentIntegralError(DomainError):
    """Raised when a requested shell integral diverges at an endpoint."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Coupling charge, nuclear charge, mass and the two radial cutoffs.

    ``e`` is the elementary coupling (may be zero), ``Z > 0`` the nuclear
    charge, ``m > 0`` the particle mass, and ``0 <= kappa < lam`` the inner
    and outer radii of the momentum shell carrying the field modes.
    """

    e: float
    Z: float
    m: float
    kappa: float
    lam: float

    @property
    def alpha(self) -> float:
        """Fine-structure-like combination e^2 / (4 pi)."""
        return self.e * self.e / FOUR_PI

    @property
    def alphaZ(self) -> float:
        return self.alpha * self.Z


def make_params(e, Z, m=1.0, kappa=0.1, lam=10.0) -> ModelParams:
    """Validate and build a :class:`ModelParams` record.

    ``kappa = 0`` (no infrared cutoff) and ``lam = inf`` (no ultraviolet
    cutoff) are both allowed for integral work; mode-grid construction
    requires a finite shell and checks separately.  ``kappa >= lam``,
    ``Z <= 0`` and ``m <= 0`` are rejected.
    """
    e = float(e)
    Z = float(Z)
    m = float(m)
    kappa = float(kappa)
    lam = float(lam)
    for name, val in (("e", e), ("Z", Z), ("m", m), ("kappa", kappa)):
        _require_finite(name, val)
    if math.isnan(lam) or lam == -math.inf:
        raise ParameterError(f"lam must be a positive radius or +inf, got {lam!r}")
    if Z <= 0.0:
        raise ParameterError(f"Z must be positive, got {Z}")
    if m <= 0.0:
        raise ParameterError(f"m must be positive, got {m}")
    if kappa < 0.0:
        raise ParameterError(f"kappa must be >= 0, got {kappa}")
    if not (kappa < lam):
        raise ParameterError(
            f"cutoffs must satisfy kappa < lam, got kappa={kappa}, lam={lam}"
        )
    return ModelParams(e=e, Z=Z, m=m, kappa=kappa, lam=lam)


@dataclass(frozen=True)
class ScaleFrame:
    """A dilation frame: lengths scale by rho**tau, energies by rho**(-2 tau),
    each factor given by ``power``; rho matters, and is checked, only at tau != 0."""

    tau: float
    rho: float

    def __post_init__(self):
        _require_finite("tau", self.tau)
        if self.tau != 0.0:
            if not (self.rho > 0.0) or not math.isfinite(self.rho):
                raise ParameterError(
                    f"frame with tau={self.tau} needs rho > 0, got {self.rho}"
                )

    def power(self, c: float) -> float:
        """The factor rho**(c tau): c = 1 for lengths, c = -2 for energies."""
        return self.rho ** (c * self.tau)


def base_frame() -> ScaleFrame:
    """The identity frame (tau = 0)."""
    return ScaleFrame(tau=0.0, rho=1.0)


def frame_for(params: ModelParams, tau: float, lambda1: float) -> ScaleFrame:
    """Frame with rho = alpha * Z * lambda1; the base frame at tau = 0,
    where neither lambda1 nor the charge is read.

    ``lambda1 = 1`` makes the tau = 1 frame the atomic one (unit Coulomb
    coefficient, unit natural length); ``lambda1 = 4 pi / Z`` gives
    ``rho = e**2``, the convention used for the small-coupling window.
    """
    if tau == 0.0:
        return base_frame()
    if not (lambda1 > 0.0) or not math.isfinite(lambda1):
        raise ParameterError(f"lambda1 must be positive and finite, got {lambda1}")
    rho = params.alphaZ * lambda1
    if rho <= 0.0:
        raise ParameterError(
            "cannot build a scaling frame at zero coupling (rho = 0); "
            "use tau = 0 or a positive charge"
        )
    return ScaleFrame(tau=float(tau), rho=rho)
