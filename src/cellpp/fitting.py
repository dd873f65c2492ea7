"""Minimum-contrast fitting of process families to empirical curves.

The fitted distance between an empirical summary curve and a model
curve is an L^q-type discrepancy of the p-th powers over a radius
range.  The shape parameter of a family is found by a derivative-free
bounded search; the intensity is never searched, it is pinned to the
usual count-per-area estimate so the contrast has no flat direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    InsufficientRangeError,
    NumericalError,
)
from .estimators import (
    CURVE_KINDS,
    SMALL_PATTERN_WARN,
    RadiusGrid,
    SummaryCurve,
    empirical_curves,
    require_same_grid,
)
from .geom import PointPattern, Window, intensity_estimate
from .models import (
    BetaGinibre,
    CauchyDpp,
    GaussDpp,
    ModelSpec,
    Poisson,
    check_valid,
    model_to_dict,
    theoretical_curve,
)

FAMILY_NAMES = ("poisson", "beta-ginibre", "gauss-dpp", "cauchy-dpp")

# Upper fit radius defaults to this share of the shorter window side;
# beyond that the border-corrected estimators get noisy.
DEFAULT_RANGE_FRACTION = 1060.0 / 13000.0

# Ends of the search boxes (see ``_search_box``).  They do not depend on
# the window: a draw's cost is set by its expected point count, whatever
# the scale.
BETA_SEARCH_MIN = 0.01
SCALE_FRACTION_MIN = 1e-3
CAUCHY_SHAPE_BOUNDS = (0.05, 50.0)

# Objective evaluations a fit may spend before ConvergenceError.
MAX_EVALUATIONS = 500

# Relative parameter tolerance of the searches, and the points of the
# golden-section search's coarse scan.
_REL_TOL = 1e-6
_SCAN = 17

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Contrast
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContrastSpec:
    """How to measure the distance between two summary curves.

    ``step_weighted=True`` multiplies each grid term by the local grid
    step so the sum approximates the integral of |S1^p - S2^p|^q over
    [r_min, r_max] divided by the range; the raw index-sum variant
    (``step_weighted=False``) divides the plain sum by the range and is
    grid-resolution dependent.
    """

    statistic: str = "F"
    p: float = 1.0
    q: float = 2.0
    r_min: float = 0.0
    r_max: float | None = None
    step_weighted: bool = True

    def __post_init__(self):
        if self.statistic not in CURVE_KINDS:
            raise ConfigError(f"statistic must be one of {CURVE_KINDS}, "
                              f"got {self.statistic!r}")
        top = float(np.finfo(float).max)  # exact: an int past it fails
        if not (0.0 < self.p <= top and 0.0 < self.q <= top):
            raise ConfigError("contrast exponents must be finite and > 0")
        if self.r_min < 0.0:
            raise ConfigError("r_min must be >= 0")
        if self.r_max is not None and not self.r_max > self.r_min:
            raise ConfigError("r_max must exceed r_min")
        if not isinstance(self.step_weighted, bool):
            raise ConfigError(f"step_weighted must be true or false, "
                              f"got {self.step_weighted!r}")

    def resolved(self, grid: RadiusGrid,
                 window: Window | None = None) -> "ContrastSpec":
        """Fill in r_max: the default is a fixed fraction of the window
        extent, clipped to the grid; without a window, the grid end."""
        grid_max = float(grid.r[-1])
        if self.r_max is None:
            r_max = grid_max
            if window is not None:
                r_max = min(window.min_extent() * DEFAULT_RANGE_FRACTION,
                            grid_max)
        else:
            r_max = min(self.r_max, grid_max)
        if not r_max > self.r_min:
            raise ConfigError(f"empty fit range [{self.r_min}, {r_max}]")
        return replace(self, r_max=r_max)

    def to_dict(self) -> dict:
        return asdict(self)


def contrast(empirical: SummaryCurve, model_curve: SummaryCurve,
             cspec: ContrastSpec) -> float:
    """Discrepancy between two curves under ``cspec``.

    Radii where either curve is NaN are dropped pairwise; fewer than 10
    usable radii in the range is an error, not a quiet small sum, and a
    sum that overflows raises NumericalError.
    """
    grid = require_same_grid(empirical, model_curve)
    if empirical.kind != model_curve.kind:
        raise ConfigError(f"curve kinds differ: {empirical.kind} "
                          f"vs {model_curve.kind}")
    if empirical.kind != cspec.statistic:
        raise ConfigError(f"curves are {empirical.kind} but the contrast "
                          f"wants {cspec.statistic}")
    spec = cspec if cspec.r_max is not None else cspec.resolved(grid)
    r = grid.r
    usable = ((r >= spec.r_min) & (r <= spec.r_max)
              & np.isfinite(empirical.values)
              & np.isfinite(model_curve.values))
    if usable.sum() < 10:
        raise InsufficientRangeError(
            f"only {int(usable.sum())} usable radii in "
            f"[{spec.r_min}, {spec.r_max}]; need at least 10")
    with np.errstate(over="ignore", invalid="ignore"):
        a = empirical.values[usable] ** spec.p
        b = model_curve.values[usable] ** spec.p
        terms = np.abs(a - b) ** spec.q
        span = spec.r_max - spec.r_min
        if spec.step_weighted:
            terms = terms * grid.spacing()[usable]
        value = float(terms.sum() / span)
    if not math.isfinite(value):
        raise NumericalError(f"the {spec.statistic} contrast with "
                             f"p={spec.p}, q={spec.q} is not finite")
    return value


# ---------------------------------------------------------------------------
# Fit result
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """Fitted model with its contrast value and cross-statistic
    distances evaluated at the optimum."""

    model: ModelSpec
    contrast_value: float
    cross_distances: dict
    cspec: ContrastSpec
    diagnostics: dict = field(default_factory=dict)
    # Model curves at the optimum, kept for plotting and envelope
    # references; not part of the serialized result.
    model_curves: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            **model_to_dict(self.model),
            "contrast": self.cspec.to_dict(),
            "contrast_value": self.contrast_value,
            "distances": self.cross_distances,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# Scalar search
# ---------------------------------------------------------------------------

def _golden_minimize(fn, lo: float, hi: float, budget: int):
    """Coarse scan, then golden-section inside the best bracket.

    Deterministic; returns (x, fx, evaluations, converged, trace) with
    the best point seen anywhere, which beats the final bracket centre
    when the objective is noisy.
    """
    trace = []

    def ev(x):
        v = float(fn(x))
        trace.append((float(x), v))
        return v

    xs = np.linspace(lo, hi, _SCAN)
    fs = [ev(x) for x in xs]
    i = int(np.argmin(fs))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _SCAN - 1)])
    tol = _REL_TOL * max(abs(lo), abs(hi))

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = ev(c), ev(d)
    while (b - a) > tol and len(trace) < budget:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ev(d)
    converged = (b - a) <= tol
    xb, fb = min(trace, key=lambda t: t[1])
    return xb, fb, len(trace), converged, trace


# ---------------------------------------------------------------------------
# Fit
# ---------------------------------------------------------------------------

def _search_box(family: str, intensity: float):
    """(lower, upper, make): the ends of each search coordinate and the
    map from coordinates to the model.  Lower ends are near-Poisson;
    upper ends are existence bounds or the largest Cauchy shape."""
    if family == "poisson":
        return (), (), lambda: Poisson(intensity)
    if family == "beta-ginibre":
        return ((BETA_SEARCH_MIN,), (1.0,),
                lambda beta: BetaGinibre(intensity=intensity, beta=beta))
    if family == "gauss-dpp":
        bound = 1.0 / math.sqrt(math.pi * intensity)
        return ((SCALE_FRACTION_MIN * bound,), (bound,),
                lambda scale: GaussDpp(intensity=intensity, scale=scale))

    # Cauchy: (scale fraction f of the existence bound, log shape nu);
    # the box maps onto the admissible wedge.  lam * int(1 - g) is
    # f^2 nu / (2 nu + 1), which vanishes with nu as well as with f.
    def unpack(fraction, log_shape):
        shape = math.exp(log_shape)
        return CauchyDpp(intensity=intensity, scale=fraction * math.sqrt(
            shape / (math.pi * intensity)), shape=shape)

    return ((SCALE_FRACTION_MIN, math.log(CAUCHY_SHAPE_BOUNDS[0])),
            (1.0, math.log(CAUCHY_SHAPE_BOUNDS[1])), unpack)


def fit(pattern: PointPattern, family: str,
        cspec: ContrastSpec | None = None, *,
        curves: dict | None = None) -> FitResult:
    """Fit one family to a pattern by minimum contrast.

    Parameters
    ----------
    pattern : PointPattern
    family : str
        One of ``poisson``, ``beta-ginibre``, ``gauss-dpp``,
        ``cauchy-dpp``.
    cspec : ContrastSpec, optional
        Statistic and exponents; the default fits F with p=1, q=2 over
        the default range.
    curves : dict, optional
        Precomputed empirical curves keyed by kind (all four); computed
        here, with F test locations on seed 0, when omitted.

    Notes
    -----
    The intensity is fixed to the empirical estimate, never searched.
    The search runs in the family's box (``_search_box``): golden
    section for one coordinate, bounded Nelder-Mead for two, at most
    ``MAX_EVALUATIONS`` evaluations.  A coordinate within 10 tolerances
    of an end of its range is pinned there.
    ``diagnostics["near_poisson"]`` flags fits that do not improve on
    the Poisson baseline by more than 5% or that are pinned at a lower,
    near-Poisson end: such data cannot support a repulsion claim.
    ``diagnostics["pinned_upper_bound"]`` flags fits pinned at an upper
    end (beta = 1, a scale at the existence bound, or the largest Cauchy
    shape): the data ask for more repulsion than the family can give.
    """
    if family not in FAMILY_NAMES:
        raise ConfigError(f"unknown family {family!r}; "
                          f"choose from {FAMILY_NAMES}")
    if pattern.n < 20:
        raise InsufficientDataError(
            f"{pattern.n} points; fitting needs at least 20")
    if pattern.n < SMALL_PATTERN_WARN:
        warnings.warn(f"fitting on {pattern.n} points; below "
                      f"{SMALL_PATTERN_WARN} the fitted parameters are "
                      f"unstable", stacklevel=2)
    lam = intensity_estimate(pattern).value

    if curves is None:
        curves = empirical_curves(pattern)
    emp_grid = require_same_grid(*curves.values())
    spec = (cspec or ContrastSpec()).resolved(emp_grid, pattern.window)
    emp = curves[spec.statistic]

    # The contrast reads radii up to r_max only, so the search evaluates
    # model curves there and leaves them undefined beyond.
    n_fit = max(2, int(np.searchsorted(emp_grid.r, spec.r_max,
                                       side="right")))
    fit_grid = RadiusGrid(emp_grid.r[:n_fit])

    def objective_for(model: ModelSpec) -> float:
        values = np.full(emp_grid.size, np.nan)
        values[:n_fit] = theoretical_curve(spec.statistic, model,
                                           fit_grid).values
        mc = SummaryCurve(grid=emp_grid, values=values, kind=spec.statistic,
                          origin="theoretical")
        return contrast(emp, mc, spec)

    poisson_value = objective_for(Poisson(lam))
    lower, upper, make = _search_box(family, lam)

    if not lower:
        x, value = (), poisson_value
        evaluations, converged, trace = 1, True, [(None, value)]
    elif len(lower) == 1:
        xb, value, evaluations, converged, trace = _golden_minimize(
            lambda x: objective_for(make(x)), lower[0], upper[0],
            MAX_EVALUATIONS)
        x = (xb,)
    else:
        from scipy import optimize

        trace = []

        def obj(x):
            v = objective_for(make(*map(float, x)))
            trace.append((tuple(map(float, x)), v))
            return v

        # the start and first simplex of the two-coordinate box
        x0 = np.array([0.5, 0.0])
        f0 = obj(x0)
        res = optimize.minimize(
            obj, x0, method="Nelder-Mead", bounds=list(zip(lower, upper)),
            options={"xatol": _REL_TOL, "fatol": 1e-10 * (1.0 + abs(f0)),
                     "maxfev": MAX_EVALUATIONS,
                     "initial_simplex": np.array(
                         [[0.5, 0.0], [0.8, 0.0], [0.5, 1.0]])})
        x = tuple(map(float, res.x))
        value = float(res.fun)
        evaluations = int(res.nfev) + 1
        # The parameter tolerance is what matters; the function-value
        # tolerance can stay unmet on flat objectives.
        simplex = res.final_simplex[0]
        x_spread = float(np.max(np.abs(simplex - simplex[0])))
        converged = bool(res.success) or x_spread <= 10.0 * _REL_TOL
    model = make(*x)
    pinned_low, pinned_high = (
        any(abs(xi - end) <= 10.0 * _REL_TOL * (hi - lo)
            for xi, end, lo, hi in zip(x, ends, lower, upper))
        for ends in (lower, upper))

    if not converged:
        raise ConvergenceError(
            f"{family} fit did not reach tolerance in {evaluations} "
            f"evaluations", trace=trace[-20:])
    check_valid(model)

    near_poisson = (isinstance(model, Poisson) or pinned_low
                    or value >= 0.95 * poisson_value)

    model_all = {kind: theoretical_curve(kind, model, emp_grid)
                 for kind in CURVE_KINDS}
    cross = {}
    for kind in CURVE_KINDS:
        try:
            cross[kind] = contrast(curves[kind], model_all[kind],
                                   replace(spec, statistic=kind))
        except InsufficientRangeError:
            cross[kind] = float("nan")

    diagnostics = {
        "evaluations": int(evaluations),
        "converged": bool(converged),
        "near_poisson": bool(near_poisson),
        "pinned_lower_bound": bool(pinned_low),
        "pinned_upper_bound": bool(pinned_high),
        "poisson_contrast": float(poisson_value),
        "n_points": int(pattern.n),
        "intensity": float(lam),
    }
    return FitResult(model=model, contrast_value=float(value),
                     cross_distances=cross, cspec=spec,
                     diagnostics=diagnostics, model_curves=model_all)
