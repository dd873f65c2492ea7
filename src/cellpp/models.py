"""Stationary point-process families and their exact summary curves.

Four families: the homogeneous Poisson process as the no-interaction
baseline, and three repulsive determinantal families (a Cauchy-kernel
and a Gaussian-kernel process, plus the thinned-and-rescaled Ginibre
family indexed by a repulsion strength ``beta``).  Each family exposes
closed-form K everywhere; F, G and J are closed-form for Poisson and
the Ginibre family and Fredholm determinants for the other two.

Determinantal families exist only on part of the parameter space: the
kernel's spectrum must stay within [0, 1].  ``validate`` reports the
binding constraint instead of raising, so search code can treat the
boundary as a value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammainc, gammaln, kv

from .errors import ConfigError, ExistenceViolation
from .estimators import (CURVE_KINDS, J_F_SATURATION, RadiusGrid,
                         SummaryCurve)


@dataclass(frozen=True)
class Poisson:
    """Homogeneous Poisson process with the given intensity (per m^2)."""

    intensity: float

    name = "poisson"


@dataclass(frozen=True)
class CauchyDpp:
    """Determinantal process with kernel
    ``intensity * (1 + |x|^2 / scale^2) ** -(shape + 1)``."""

    intensity: float
    scale: float
    shape: float

    name = "cauchy-dpp"


@dataclass(frozen=True)
class GaussDpp:
    """Determinantal process with kernel
    ``intensity * exp(-|x|^2 / scale^2)``."""

    intensity: float
    scale: float

    name = "gauss-dpp"


@dataclass(frozen=True)
class BetaGinibre:
    """Ginibre process thinned with retention ``beta`` and rescaled to
    keep the intensity; ``beta -> 0`` is Poisson, ``beta = 1`` the full
    Ginibre repulsion."""

    intensity: float
    beta: float

    name = "beta-ginibre"


ModelSpec = Poisson | CauchyDpp | GaussDpp | BetaGinibre

_FAMILIES = {cls.name: cls for cls in (Poisson, CauchyDpp, GaussDpp,
                                       BetaGinibre)}

# Existence boundaries are admissible; the slack absorbs the rounding
# of intensity*pi*scale^2 when the intensity was computed from the
# bound itself.
_EXISTENCE_SLACK = 1e-12


def validate(spec: ModelSpec) -> ExistenceViolation | None:
    """Return the binding existence violation, or None if the spec is
    admissible.  Boundary parameters are admissible; a parameter that is
    not finite is not."""
    for name, value in vars(spec).items():
        if not math.isfinite(value):
            return ExistenceViolation(f"{name} is finite", value)
    if not spec.intensity > 0:
        return ExistenceViolation("intensity > 0", -spec.intensity)
    if isinstance(spec, Poisson):
        return None
    if isinstance(spec, BetaGinibre):
        if not spec.beta > 0:
            return ExistenceViolation("beta > 0", -spec.beta)
        if spec.beta > 1.0:
            return ExistenceViolation("beta <= 1", spec.beta - 1.0)
        return None
    if not spec.scale > 0:
        return ExistenceViolation("scale > 0", -spec.scale)
    if isinstance(spec, GaussDpp):
        load = spec.intensity * math.pi * spec.scale ** 2
        if load > 1.0 + _EXISTENCE_SLACK:
            return ExistenceViolation(
                "intensity * pi * scale^2 <= 1", load - 1.0)
        return None
    if isinstance(spec, CauchyDpp):
        if not spec.shape > 0:
            return ExistenceViolation("shape > 0", -spec.shape)
        load = spec.intensity * math.pi * spec.scale ** 2 / spec.shape
        if load > 1.0 + _EXISTENCE_SLACK:
            return ExistenceViolation(
                "intensity * pi * scale^2 / shape <= 1", load - 1.0)
        return None
    raise TypeError(f"not a model spec: {spec!r}")


def check_valid(spec: ModelSpec) -> None:
    violation = validate(spec)
    if violation is not None:
        raise violation


def model_to_dict(spec: ModelSpec) -> dict:
    return {"model": spec.name, "params": asdict(spec)}


def model_from_dict(d: dict) -> ModelSpec:
    try:
        cls = _FAMILIES[d["model"]]
        return cls(**d["params"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad model description: {d!r}") from exc


# ---------------------------------------------------------------------------
# Ginibre-family products
# ---------------------------------------------------------------------------

def _bg_term_count(x: float) -> int:
    # smallest k with beta * P(k, x) below 1e-14, by a Poisson tail
    # bound; also the mode count of the Ginibre sampler
    return int(math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 30.0))


def _bg_log_factors(x: float, beta: float, k_hi: int) -> np.ndarray:
    """log(1 - beta * P(k, x)) for k = 1..k_hi.

    Works through the complement Q(k, x) = exp(-x) * sum_{j<k} x^j/j!,
    accumulated from log-space terms so that large x stays accurate.
    """
    js = np.arange(k_hi, dtype=float)
    log_t = js * math.log(x) - x - gammaln(js + 1.0)
    q = np.minimum(np.cumsum(np.exp(log_t)), 1.0)
    with np.errstate(divide="ignore"):
        return np.log((1.0 - beta) + beta * q)


# np.exp rounds to exactly 0.0 below about -745.13.
_LOG_ZERO = -746.0
# Shortest prefix whose bound is tried; at beta = 1 a prefix this long
# underflows whenever P(k, x) rounds to 1.
_BG_PREFIX_START = 64


def _bg_survival(x: float, beta: float, first_k: int,
                 k_terms: int | None = None) -> float:
    """prod_{k >= first_k} (1 - beta * P(k, x)) for scalar x >= 0.

    ``k_terms`` fixes the product length, for convergence checks.

    Every log-factor is <= 0 and they rise with k, as P(k, x) falls, so
    a prefix of L factors sums to at most L times its last one.  Once
    that bound is below the underflow point the product is exactly
    0.0.  L starts small and doubles until the bound underflows or the
    prefix reaches the product length: large x settles after a few
    gammainc calls, without allocating the x-sized product."""
    if x == 0.0:
        return 1.0
    k_hi = _bg_term_count(x) if k_terms is None else int(k_terms)
    k_hi = max(k_hi, first_k)
    length = _BG_PREFIX_START
    while first_k + length - 1 <= k_hi:
        last = beta * float(gammainc(first_k + length - 1, x))
        if last >= 1.0 or length * math.log1p(-last) < _LOG_ZERO:
            return 0.0
        length *= 2
    total = _bg_log_factors(x, beta, k_hi)[first_k - 1:].sum()
    return float(np.exp(total))


# ---------------------------------------------------------------------------
# Fredholm determinants of the Gaussian and Cauchy families
# ---------------------------------------------------------------------------
#
# The void probability of a determinantal process on a ball B is
# det(I - K_B), and its reduced Palm process is determinantal with
# kernel K(x - y) - K(x) K(y) / intensity, so F(r) and G(r) are both
# Fredholm determinants on the centred disk of radius r.  Nystrom
# quadrature with Gauss-Legendre radial and equispaced angular nodes
# (Bornemann 2010, Math. Comp. 79) makes the matrix block-circulant in
# the angle: a DFT over the angle splits it into one radial block per
# angular frequency, and the determinant is the product of the block
# determinants.  The Palm correction does not depend on the angle, so
# it only changes the frequency-0 block.

# Below this void probability 1 - P already rounds to exactly 1.0.
_LOG_VOID_FLOOR = -54.0 * math.log(2.0)
# Node counts a + b * s for a disk s kernel widths in radius, measured
# to keep the determinant within 1e-11 of its converged value.
_RADIAL_NODES = (10.0, 2.6)
_ANGULAR_NODES = (16.0, 10.75)
# Beyond this many kernel widths the disk is not resolved at an
# affordable node count; there the kernel is weak and a trace
# expansion takes over (see _weak_kernel_log_void).
_RESOLVED_WIDTHS = 24.0


def _kernel_profile(spec: ModelSpec):
    """(kernel as a function of squared distance, resolution width) of
    a Gaussian or Cauchy family member."""
    lam, a2 = spec.intensity, spec.scale ** 2
    if isinstance(spec, GaussDpp):
        return (lambda d2: lam * np.exp(-d2 / a2)), spec.scale
    power = -(spec.shape + 1.0)
    # same curvature at 0 as a Gaussian of width scale / sqrt(shape+1);
    # the heavier tail of small shapes needs up to 60% more nodes
    width = spec.scale / (math.sqrt(spec.shape + 1.0)
                          * (1.0 + 0.65 * (spec.shape + 1.0) ** -0.6))
    return (lambda d2: lam * (1.0 + d2 / a2) ** power), width


def _spectral_density(spec: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """Fourier transform of the kernel at radial frequency ``rho``."""
    lam, alpha = spec.intensity, spec.scale
    if isinstance(spec, GaussDpp):
        return lam * math.pi * alpha ** 2 * np.exp(
            -(math.pi * alpha) ** 2 * rho * rho)
    nu = spec.shape
    z = 2.0 * math.pi * alpha * rho
    out = np.empty_like(np.asarray(rho, dtype=float))
    small = z < 1e-8
    out[small] = lam * math.pi * alpha ** 2 / nu
    zb = z[~small]
    out[~small] = (lam * alpha ** 2 * 2.0 * math.pi
                   * (0.5 * zb) ** nu * kv(nu, zb) / math.gamma(nu + 1.0))
    return out


@functools.lru_cache(maxsize=64)
def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _disk_log_void(kernel, radius: float, n_radial: int, n_angular: int,
                   palm_intensity: float | None = None) -> float:
    """log det(I - K_B) on the centred disk B of the given radius.

    ``kernel(rho_a, rho_b, theta)`` is the kernel between the points
    ``rho_a * exp(i theta)`` and ``rho_b`` of the complex plane
    (broadcasting).  It must be Hermitian, rotation-invariant and
    symmetric in ``rho_a, rho_b``, which makes every angular block real
    symmetric.  With ``palm_intensity`` the kernel is replaced by its
    reduced Palm kernel at the origin.  ``n_angular`` must be even.
    """
    t, v = _gauss_legendre_01(n_radial)
    half = n_angular // 2
    theta = (2.0 * math.pi / n_angular) * np.arange(half + 1)
    rho = radius * t
    sqrt_w = radius * np.sqrt(t * v * (2.0 * math.pi / n_angular))
    table = kernel(rho[:, None], rho[None, :], theta[:, None, None])
    table *= sqrt_w[:, None] * sqrt_w[None, :]
    # The other half circle is the complex conjugate, so the DFT over
    # the angle is a cosine (and, for complex kernels, sine) sum over
    # the first half.  A real kernel has equal blocks at frequencies m
    # and -m, counted twice.
    weight = np.full(half + 1, 2.0)
    weight[[0, -1]] = 1.0
    if np.iscomplexobj(table):
        freq, mult = np.arange(n_angular), np.ones(n_angular)
    else:
        freq, mult = np.arange(half + 1), weight
    phase = np.outer(freq, theta)
    flat = table.reshape(half + 1, -1)
    blocks = (weight * np.cos(phase)) @ flat.real
    if np.iscomplexobj(table):
        blocks += (weight * np.sin(phase)) @ flat.imag
    # I - B_m for every frequency, in place
    np.negative(blocks, out=blocks)
    blocks[:, ::n_radial + 1] += 1.0
    blocks = blocks.reshape(freq.size, n_radial, n_radial)
    if palm_intensity is not None:
        u = sqrt_w * kernel(rho, 0.0, 0.0).real / math.sqrt(palm_intensity)
        blocks[0] += n_angular * np.outer(u, u)
    try:
        diag = np.diagonal(np.linalg.cholesky(blocks), axis1=-2, axis2=-1)
        logdet = 2.0 * np.log(diag).sum(axis=-1)
    except np.linalg.LinAlgError:
        # a block too close to singular: the void probability is at
        # rounding level, where the sign test below reports it
        sign, logdet = np.linalg.slogdet(blocks)
        logdet = np.where(sign > 0.0, logdet, -np.inf)
    return float(logdet @ mult)


def _lens_area(r: float, t: np.ndarray) -> np.ndarray:
    """Area of the intersection of two disks of radius r at distance t."""
    u = np.clip(t / (2.0 * r), 0.0, 1.0)
    return 2.0 * r * r * (np.arccos(u) - u * np.sqrt(1.0 - u * u))


def _weak_kernel_log_void(spec: ModelSpec, r: float, palm: bool) -> float:
    """log P for a disk many kernel widths across, by the trace
    expansion log det(I - K_B) = -sum_k tr(K_B^k) / k.

    tr K_B is the expected count, tr K_B^2 the integral of K^2 against
    the lens area (both exact); tr K_B^3 takes its bulk value, the disk
    area times the integral of the cubed spectral density.  Where this
    routine is used, P > 2^-54 forces the spectral maximum q below
    37.4 / 24^2 times a family constant, and the dropped boundary part
    of tr K_B^3 and higher orders keep P within ~1.5e-8 of the
    determinant for the Gaussian kernel and ~6e-7 (shape 0.5) to ~3e-6
    (shape 0.05) for the Cauchy kernel, falling like (width / r)^5 as
    the disk grows.  The Palm kernel's
    rank-one term multiplies P by 1 + <u, u> + <u, K u> + ..., with
    u = K(., 0) / sqrt(intensity): <u, u> is exact, <u, K u> takes its
    plane value, the same cubed-spectrum integral over the intensity.
    """
    profile, width = _kernel_profile(spec)
    lam = spec.intensity
    t, v = _gauss_legendre_01(24)

    def panels(edges):
        lo, span = edges[:-1, None], np.diff(edges)[:, None]
        return (lo + span * t).ravel(), (span * v).ravel()

    # panels doubling in length from a sixty-fourth of the width
    octaves = 2.0 ** np.arange(-6, 60)
    dist, dist_w = panels(np.unique(np.minimum(
        np.concatenate([[0.0, r], width * octaves]), 2.0 * r)))
    k2 = dist_w * profile(dist * dist) ** 2 * dist
    tr2 = 2.0 * math.pi * float(np.sum(k2 * _lens_area(r, dist)))
    # integral of the cubed spectral density over the plane; it is
    # negligible beyond a hundred times the inverse width
    freq, freq_w = panels(np.concatenate([[0.0], octaves[:14] / width]))
    cube = 2.0 * math.pi * float(np.sum(
        freq_w * _spectral_density(spec, freq) ** 3 * freq))
    out = -lam * math.pi * r * r - 0.5 * tr2 - math.pi * r * r * cube / 3.0
    if palm:
        # determinant lemma: P0 / P = 1 + <u, (I - K_B)^-1 u> with
        # u = K(., 0) / sqrt(intensity), to first order in K
        u_norm = 2.0 * math.pi / lam * float(np.sum(k2[dist <= r]))
        out += math.log1p(u_norm + cube / lam)
    return out


def _dpp_log_void(spec: ModelSpec, radii, palm: bool,
                  refine: int = 1) -> np.ndarray:
    """log void probability of the centred disks of the given
    (increasing) radii, for the Palm process when ``palm``.

    ``refine`` multiplies the Nystrom node counts, for convergence
    checks.  Results are cached: F, G and J of one model share them.
    """
    r = np.asarray(radii, dtype=float)
    return _cached_log_void(spec, r.tobytes(), palm, refine).copy()


@functools.lru_cache(maxsize=16)
def _cached_log_void(spec: ModelSpec, radii: bytes, palm: bool,
                     refine: int) -> np.ndarray:
    profile, width = _kernel_profile(spec)

    def kernel(rho_a, rho_b, theta):
        return profile(rho_a * rho_a + rho_b * rho_b
                       - 2.0 * rho_a * rho_b * np.cos(theta))

    r = np.frombuffer(radii)
    out = np.zeros(r.size)
    palm_intensity = spec.intensity if palm else None
    for i in np.nonzero(r > 0.0)[0]:
        n_widths = r[i] / width
        if n_widths > _RESOLVED_WIDTHS:
            out[i] = _weak_kernel_log_void(spec, r[i], palm)
        else:
            n = refine * math.ceil(_RADIAL_NODES[0]
                                   + _RADIAL_NODES[1] * n_widths)
            m = refine * 8 * math.ceil((_ANGULAR_NODES[0]
                                        + _ANGULAR_NODES[1] * n_widths) / 8)
            out[i] = _disk_log_void(kernel, r[i], n, m, palm_intensity)
        if out[i] < _LOG_VOID_FLOOR:
            # void probabilities only fall as the disk grows
            out[i:] = -np.inf
            break
    return out


# ---------------------------------------------------------------------------
# Exact curves
# ---------------------------------------------------------------------------

def _void_complement(spec: ModelSpec, r: np.ndarray, palm: bool):
    """One minus the void probability of the disks of radii ``r``: F,
    or G for the reduced Palm process when ``palm``."""
    if isinstance(spec, Poisson):
        return 1.0 - np.exp(-spec.intensity * np.pi * r * r)
    if isinstance(spec, BetaGinibre):
        x = spec.intensity * np.pi * r * r / spec.beta
        return np.array([1.0 - _bg_survival(xi, spec.beta, 2 if palm else 1)
                         for xi in x])
    return -np.expm1(_dpp_log_void(spec, r, palm=palm))


def theoretical_curve(kind: str, spec: ModelSpec,
                      grid: RadiusGrid) -> SummaryCurve:
    """Exact model curve of the given kind (K, F, G or J) on the grid.

    K is closed-form for every family.  F is one minus the void
    probability of the disk of radius r, G the same for the reduced
    Palm process: closed forms for Poisson and the Ginibre family,
    Fredholm determinants for the Gaussian and Cauchy families.  J is
    1 for Poisson and
    ``1 / (1 - beta + beta * exp(-intensity*pi*r^2/beta))`` for the
    Ginibre family; the other two take the ratio (1 - G) / (1 - F) from
    the log void probabilities.  For every family J is NaN where F is
    within ``J_F_SATURATION`` of 1, as for the empirical J.  Unknown
    kinds raise KeyError.
    """
    if kind not in CURVE_KINDS:
        raise KeyError(kind)
    check_valid(spec)
    r = grid.r
    if kind == "K":
        values = np.pi * r * r
        if isinstance(spec, GaussDpp):
            a2 = spec.scale ** 2
            values = values - (np.pi * a2 / 2.0) * (
                1.0 - np.exp(-2.0 * r * r / a2))
        elif isinstance(spec, CauchyDpp):
            a2, e = spec.scale ** 2, 2.0 * spec.shape + 1.0
            values = values - (np.pi * a2 / e) * (
                1.0 - (1.0 + r * r / a2) ** -e)
        elif isinstance(spec, BetaGinibre):
            x = spec.intensity * np.pi * r * r / spec.beta
            values = values - (spec.beta / spec.intensity) * (
                1.0 - np.exp(-x))
    elif kind == "J":
        values = np.full_like(r, np.nan)
        ok = _void_complement(spec, r, palm=False) < 1.0 - J_F_SATURATION
        if isinstance(spec, Poisson):
            values[ok] = 1.0
        elif isinstance(spec, BetaGinibre):
            x = spec.intensity * np.pi * r[ok] * r[ok] / spec.beta
            values[ok] = 1.0 / ((1.0 - spec.beta) + spec.beta * np.exp(-x))
        else:
            values[ok] = np.exp(_dpp_log_void(spec, r, palm=True)[ok]
                                - _dpp_log_void(spec, r, palm=False)[ok])
    else:
        values = _void_complement(spec, r, palm=kind == "G")
    return SummaryCurve(grid=grid, values=values, kind=kind,
                        origin="theoretical", meta=model_to_dict(spec))
