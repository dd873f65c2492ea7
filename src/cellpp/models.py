"""Stationary point-process families and their exact summary curves.

Four families: the homogeneous Poisson process as the no-interaction
baseline, and three repulsive determinantal families (a Cauchy-kernel
and a Gaussian-kernel process, plus the thinned-and-rescaled Ginibre
family indexed by a repulsion strength ``beta``).  Each family exposes
closed-form K everywhere; F, G and J are closed-form for Poisson and
the Ginibre family and Fredholm determinants for the other two.

Determinantal families exist only on part of the parameter space: the
kernel's spectrum must stay within [0, 1].  ``validate`` reports the
binding constraint instead of raising.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammainc, gammaln, kv, kve

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


def _load(intensity, scale) -> float:
    """``intensity * pi * scale^2``, factor by factor (so finite or inf,
    not an OverflowError) where ``scale^2`` passes the double range."""
    try:
        return intensity * math.pi * scale ** 2
    except OverflowError:
        return intensity * math.pi * float(scale) * float(scale)


def validate(spec: ModelSpec) -> ExistenceViolation | None:
    """Return the binding existence violation, or None if the spec is
    admissible.  Boundary parameters are admissible; a parameter that is
    not a finite number (a bool, a string or None included) is not."""
    for name, value in vars(spec).items():
        if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            return ExistenceViolation(f"{name} is a number, not "
                                      f"{value!r}", math.nan)
        # compared exactly, so an int past the double range is not finite
        if not abs(value) <= float(np.finfo(float).max):
            return ExistenceViolation(f"{name} is finite", math.inf if
                                      isinstance(value, int) else value)
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
        load = _load(spec.intensity, spec.scale)
        if load > 1.0 + _EXISTENCE_SLACK:
            return ExistenceViolation(
                "intensity * pi * scale^2 <= 1", load - 1.0)
        return None
    if isinstance(spec, CauchyDpp):
        if not spec.shape > 0:
            return ExistenceViolation("shape > 0", -spec.shape)
        load = _load(spec.intensity, spec.scale) / spec.shape
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
    """The spec ``d`` describes; ConfigError if it names no family or
    its parameters, ExistenceViolation if they define no process."""
    try:
        spec = _FAMILIES[d["model"]](**d["params"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad model description: {d!r}") from exc
    check_valid(spec)
    return spec


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
# it only changes the frequency-0 block, by a rank-one term: with
# u = K(., 0) / sqrt(intensity) the determinant lemma gives
# det(I - K0_B) = det(I - K_B) (1 + <u, (I - K_B)^-1 u>).

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


# Debye's polynomials u_1..u_4 of the uniform expansion of K_nu(nu x)
# in p = 1 / sqrt(1 + x^2), lowest power first (DLMF 10.41.10).
_DEBYE = (np.array([0, 3, 0, -5]) / 24.0,
          np.array([0, 0, 81, 0, -462, 0, 385]) / 1152.0,
          np.array([0, 0, 0, 30375, 0, -369603, 0, 765765, 0, -425425])
          / 414720.0,
          np.array([0, 0, 0, 0, 4465125, 0, -94121676, 0, 349922430, 0,
                    -446185740, 0, 185910725]) / 39813120.0)


def _log_bessel_k(nu: float, z: np.ndarray) -> np.ndarray:
    """log K_nu(z) for z > 0.  From ``kv``; where it underflows, from
    ``kve``; where it overflows (orders above about 30 at small z),
    from Debye's expansion (DLMF 10.41.4), whose four terms are within
    ~1e-10 relative there."""
    with np.errstate(divide="ignore"):
        out = np.log(kv(nu, z))
        under = out == -np.inf
        out[under] = np.log(kve(nu, z[under])) - z[under]
    over = out == np.inf
    x = z[over] / nu
    root = np.sqrt(1.0 + x * x)
    series = sum(np.polynomial.polynomial.polyval(1.0 / root, u) / (-nu) ** k
                 for k, u in enumerate(_DEBYE, 1))
    out[over] = (0.5 * math.log(math.pi / (2.0 * nu))
                 - nu * (root + np.log(x / (1.0 + root)))
                 - 0.5 * np.log(root) + np.log1p(series))
    return out


def _spectral_density(spec: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """Fourier transform of the kernel at radial frequency ``rho``."""
    lam, alpha = spec.intensity, spec.scale
    if isinstance(spec, GaussDpp):
        return lam * math.pi * alpha ** 2 * np.exp(
            -(math.pi * alpha) ** 2 * rho * rho)
    nu = spec.shape
    z = 2.0 * math.pi * alpha * np.asarray(rho, dtype=float)
    out = np.empty_like(z)
    zero = z == 0.0
    out[zero] = lam * math.pi * alpha ** 2 / nu
    # (z/2)^nu K_nu(z) / Gamma(nu + 1) in log space, where no factor
    # over- or underflows
    z = z[~zero]
    out[~zero] = lam * alpha ** 2 * 2.0 * math.pi * np.exp(
        nu * np.log(0.5 * z) + _log_bessel_k(nu, z) - gammaln(nu + 1.0))
    return out


@functools.lru_cache(maxsize=64)
def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _disk_log_void(kernel, radius: float, n_radial: int, n_angular: int,
                   intensity: float) -> tuple[float, float]:
    """(log P, log P0): log det(I - K_B) on the centred disk B of the
    given radius, and the same for the reduced Palm kernel at the origin.

    ``kernel(rho_a, rho_b, theta)`` is the kernel between the points
    ``rho_a * exp(i theta)`` and ``rho_b`` of the complex plane
    (broadcasting).  It must be Hermitian, rotation-invariant and
    symmetric in ``rho_a, rho_b``, which makes every angular block real
    symmetric.  ``n_angular`` must be even.  The Palm kernel adds
    n_angular u u^T to the frequency-0 block I - B_0, so the lemma's
    <u, (I - B_0)^-1 u> takes one solve with its Cholesky factor.
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
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        # a block too close to singular: the void probability is at
        # rounding level, where the sign test reports it, and without
        # the factor P0 takes its lower bound P
        sign, logdet = np.linalg.slogdet(blocks)
        log_p = float(np.where(sign > 0.0, logdet, -np.inf) @ mult)
        return log_p, log_p
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    log_p = float(2.0 * np.log(diag).sum(axis=-1) @ mult)
    u = sqrt_w * kernel(rho, 0.0, 0.0).real / math.sqrt(intensity)
    w = np.linalg.solve(chol[0], u)
    return log_p, log_p + math.log1p(n_angular * float(w @ w))


def _lens_area(r: float, t: np.ndarray) -> np.ndarray:
    """Area of the intersection of two disks of radius r at distance t."""
    u = np.clip(t / (2.0 * r), 0.0, 1.0)
    return 2.0 * r * r * (np.arccos(u) - u * np.sqrt(1.0 - u * u))


def _weak_kernel_log_void(spec: ModelSpec, r: float) -> tuple[float, float]:
    """(log P, log P0) for a disk many kernel widths across, by the
    trace expansion log det(I - K_B) = -sum_k tr(K_B^k) / k.

    tr K_B is the expected count, tr K_B^2 the integral of K^2 against
    the lens area (both exact); tr K_B^3 takes its bulk value, the disk
    area times the integral of the cubed spectral density.  Where this
    routine is used, P > 2^-54 forces the spectral maximum q below
    37.4 / 24^2 times a family constant, and the dropped boundary part
    of tr K_B^3 and higher orders keep P within ~1.5e-8 of the
    determinant for the Gaussian kernel and ~6e-7 (shape 0.5) to ~3e-6
    (shape 0.05) for the Cauchy kernel, falling like (width / r)^5 as
    the disk grows.  The determinant lemma multiplies P by
    1 + <u, (I - K_B)^-1 u> = 1 + <u, u> + <u, K u> + ... for P0:
    <u, u> is exact, <u, K u> takes its plane value, the same
    cubed-spectrum integral over the intensity.
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
    log_p = -lam * math.pi * r * r - 0.5 * tr2 - math.pi * r * r * cube / 3.0
    u_norm = 2.0 * math.pi / lam * float(np.sum(k2[dist <= r]))
    return log_p, log_p + math.log1p(u_norm + cube / lam)


def _dpp_log_void(spec: ModelSpec, radii, refine: int = 1) -> np.ndarray:
    """(log P, log P0) as a (2, radii) array: the log void
    probabilities of the centred disks of the given (increasing) radii
    for the process and for its reduced Palm process.

    ``refine`` multiplies the Nystrom node counts, for convergence
    checks.
    """
    profile, width = _kernel_profile(spec)

    def kernel(rho_a, rho_b, theta):
        return profile(rho_a * rho_a + rho_b * rho_b
                       - 2.0 * rho_a * rho_b * np.cos(theta))

    r = np.asarray(radii, dtype=float)
    out = np.zeros((2, r.size))
    for i in np.nonzero(r > 0.0)[0]:
        n_widths = r[i] / width
        if n_widths > _RESOLVED_WIDTHS:
            out[:, i] = _weak_kernel_log_void(spec, r[i])
        else:
            n = refine * math.ceil(_RADIAL_NODES[0]
                                   + _RADIAL_NODES[1] * n_widths)
            m = refine * 8 * math.ceil((_ANGULAR_NODES[0]
                                        + _ANGULAR_NODES[1] * n_widths) / 8)
            out[:, i] = _disk_log_void(kernel, r[i], n, m, spec.intensity)
        if out[1, i] < _LOG_VOID_FLOOR:
            # P <= P0, and void probabilities only fall as the disk grows
            out[:, i + 1:] = -np.inf
            break
    return out


# ---------------------------------------------------------------------------
# Exact curves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _void_curves(spec: ModelSpec, radii: bytes):
    """(F, G, J) = (1 - P, 1 - P0, P0 / P) at the radii, from one pass
    over the void probabilities P and P0 of the centred disks for the
    process and its reduced Palm process; J is not yet masked."""
    r = np.frombuffer(radii)
    if isinstance(spec, Poisson):
        f = 1.0 - np.exp(-spec.intensity * np.pi * r * r)
        return f, f, np.ones_like(r)
    if isinstance(spec, BetaGinibre):
        beta = spec.beta
        x = spec.intensity * np.pi * r * r / beta
        survival = np.array([_bg_survival(xi, beta, 1) for xi in x])
        with np.errstate(divide="ignore"):
            # the k = 1 factor of the product is 1 / J, so P0 = P J; in
            # log space, as at beta = 1 J overflows where P is 0
            first = (1.0 - beta) + beta * np.exp(-x)
            log_j = -np.log(first) if beta < 1.0 else x
            return (1.0 - survival, 1.0 - np.exp(np.log(survival) + log_j),
                    1.0 / first)
    log_p, log_p0 = _dpp_log_void(spec, r)
    with np.errstate(invalid="ignore"):
        # both are -inf past the floor
        return -np.expm1(log_p), -np.expm1(log_p0), np.exp(log_p0 - log_p)


def theoretical_curve(kind: str, spec: ModelSpec,
                      grid: RadiusGrid) -> SummaryCurve:
    """Exact model curve of the given kind (K, F, G or J) on the grid.

    K is closed-form for every family.  F, G and J come from one pass
    over the void probabilities of the disk of radius r for the process
    and its reduced Palm process: closed forms for Poisson and the
    Ginibre family, Fredholm determinants for the Gaussian and Cauchy
    families.  For every family J is NaN where F is within
    ``J_F_SATURATION`` of 1, as for the empirical J.  Unknown kinds
    raise KeyError.
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
    else:
        f, g, j = _void_curves(spec, r.tobytes())
        if kind == "J":
            values = np.where(f < 1.0 - J_F_SATURATION, j, np.nan)
        else:
            values = (f if kind == "F" else g).copy()
    return SummaryCurve(grid=grid, values=values, kind=kind,
                        origin="theoretical")
