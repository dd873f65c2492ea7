"""Independent routes to model quantities, used only as test oracles.

Each restates a property of the families from its definition rather
than from the production curve code, so the two can be checked
against each other.
"""
import numpy as np

from cellpp.errors import ConfigError
from cellpp.estimators import SummaryCurve
from cellpp.models import BetaGinibre, GaussDpp, Poisson, check_valid


def dpp_determinant_check(spec, points) -> float:
    """Joint correlation density of a small configuration: the
    determinant of the kernel Gram matrix.

    Intended for hand-checkable sizes (n <= 6).  Must be non-negative
    and vanish when two points coincide; an independent probe of the
    kernel against the closed-form curves.
    """
    check_valid(spec)
    if isinstance(spec, Poisson):
        raise ConfigError("the Poisson family has no repulsion kernel; "
                          "determinant check applies to determinantal "
                          "families")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if not 1 <= n <= 6:
        raise ValueError("determinant check is meant for 1 <= n <= 6 points")

    if isinstance(spec, BetaGinibre):
        z = pts[:, 0] + 1j * pts[:, 1]
        c = spec.intensity * np.pi / spec.beta
        sq = np.abs(z) ** 2
        gram = (spec.intensity
                * np.exp(-0.5 * c * (sq[:, None] + sq[None, :]))
                * np.exp(c * z[:, None] * np.conj(z)[None, :]))
        return float(np.linalg.det(gram).real)

    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    if isinstance(spec, GaussDpp):
        gram = spec.intensity * np.exp(-d2 / spec.scale ** 2)
    else:
        gram = spec.intensity * (1.0 + d2 / spec.scale ** 2) ** -(spec.shape
                                                                  + 1.0)
    return float(np.linalg.det(gram))


def j_second_order_approx(k_curve: SummaryCurve,
                          intensity: float) -> SummaryCurve:
    """Second-order approximation ``J(r) ~ 1 - intensity*(K(r) - pi r^2)``.

    For weakly interacting processes it tracks the exact J closely.
    """
    if k_curve.kind != "K":
        raise ValueError("j_second_order_approx expects a K curve")
    r = k_curve.grid.r
    values = 1.0 - float(intensity) * (k_curve.values - np.pi * r * r)
    return SummaryCurve(grid=k_curve.grid, values=values, kind="J",
                        origin=k_curve.origin,
                        meta={"approx": "second-order",
                              "intensity": float(intensity)})
