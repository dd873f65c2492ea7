"""Exact samplers for the model families.

Poisson realizations are a count draw plus uniform placement.  The
determinantal families go through their spectral decompositions: on a
centred disk the Ginibre-family kernel diagonalizes over rotational
eigenfunctions with incomplete-gamma eigenvalues; on a periodically
extended rectangle the stationary Gaussian/Cauchy kernels diagonalize
over Fourier modes weighted by the spectral density.  In both cases a
Bernoulli draw per eigenvalue picks the active modes and the resulting
projection process is sampled exactly by sequential rejection.

Realizations may be empty; estimators, not samplers, enforce minimum
point counts.  Every routine is deterministic given its stream spec.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, kv

from .errors import ConfigError, SamplerStallError, TruncationError
from .geom import PointPattern, Rectangle, Window
from .models import (
    BetaGinibre,
    CauchyDpp,
    GaussDpp,
    ModelSpec,
    Poisson,
    _bg_term_count,
    _spectral_density,
    check_valid,
)
from .rng import as_stream


def sample_poisson(intensity: float, window: Window, stream) -> PointPattern:
    """Homogeneous Poisson realization on the window."""
    check_valid(Poisson(intensity))
    rng = as_stream(stream).generator()
    n = int(rng.poisson(intensity * window.area()))
    return PointPattern(points=window.sample_uniform(n, rng), window=window)


# ---------------------------------------------------------------------------
# Sequential sampling of a projection determinantal process
# ---------------------------------------------------------------------------

# Proposals per point, times n, before a step counts as stalled.  With
# orthonormal features each proposal is accepted with probability at
# least 1/n, so a valid draw exceeds the budget with probability below
# exp(-1000): the bound never changes a draw, it only stops a hang.
_PROPOSALS_PER_POINT = 1000
# Proposal blocks hold at least this many rows (fewer only when n is
# smaller) and at most this many feature entries, which bounds the
# block memory to 4 MiB of complex features.
_BLOCK_FLOOR = 16
_BLOCK_ENTRIES = 1 << 18


@functools.lru_cache(maxsize=None)
def _openblas_thread_setters():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or
    None when numpy links another BLAS.  Only a library that is already
    loaded is looked up (RTLD_NOLOAD), never a second copy.  Only the
    scipy-openblas64 build that numpy>=2 Linux wheels ship is found;
    other installs get None and keep their thread count."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    The sampler's products are a few hundred elements wide.  OpenBLAS
    threads them anyway and its idle workers spin: on two cores that
    doubles CPU time for the same wall time.  A no-op for other BLAS
    libraries.  The count is process-global: samplers running in
    several threads at once can restore it out of order and leave it
    at 1."""
    setters = _openblas_thread_setters()
    if setters is None:
        yield
        return
    get, set_ = setters
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _projection_sample(propose, n: int, rng: np.random.Generator,
                       dim: int = 2) -> np.ndarray:
    """Draw the n points of a projection process with orthonormal
    eigenfunctions.

    ``propose(m)`` returns ``(locations (m, dim), features (m, n))``
    where each row is drawn from the mixture density |v(x)|^2 / n and
    ``features`` holds the eigenfunction values at the location.  Each
    accepted point removes one dimension from the active subspace; the
    acceptance ratio is the squared residual of the feature vector
    against the span of the previously accepted ones (Hough, Krishnapur,
    Peres & Virag 2006, Alg. 18).

    The (proposal, uniform) pairs form one iid sequence that does not
    depend on the sampler's state, so they are drawn in blocks sized to
    the expected n / (n - k) proposals of step k, and the unexamined
    rest of a block carries over to the next step.  Each pending
    proposal keeps its squared residual, lowered by one rank-one term
    |<q_k, f>|^2 per accepted point.  Expected cost: about n * H_n
    proposals, each projected once onto the basis of its draw step,
    plus O(n) per step it stays pending.

    Raises
    ------
    SamplerStallError
        If a step examines ``_PROPOSALS_PER_POINT * n`` proposals,
        carried ones included, without accepting one (degenerate
        features).
    """
    limit = _PROPOSALS_PER_POINT * n
    floor = min(_BLOCK_FLOOR, n)
    cap = max(floor, _BLOCK_ENTRIES // max(n, 1))
    out = np.empty((n, dim))
    basis = np.empty((n, n), dtype=complex)
    basis_c = np.empty((n, n), dtype=complex)
    pos = size = 0
    with _single_blas_thread():
        for step in range(n):
            examined = 0
            while True:
                if pos == size:
                    if examined >= limit:
                        raise SamplerStallError(
                            f"sampler stalled at point {step}: no proposal "
                            f"accepted in {examined} draws")
                    size = min(cap, max(floor, -(-n // (n - step))))
                    pts, feats = propose(size)
                    norm2 = _sq_norms(feats)
                    thresh = rng.uniform(size=size) * norm2
                    resid = norm2
                    if step:
                        resid = norm2 - _sq_norms(feats @ basis_c[:step].T)
                    pos = 0
                hit = thresh[pos:] < resid[pos:]
                j = int(hit.argmax())
                if hit[j]:
                    examined += j + 1
                    v = feats[pos + j]
                    out[step] = pts[pos + j]
                    pos += j + 1
                    break
                examined += size - pos
                pos = size
            # twice through Gram-Schmidt keeps the basis orthonormal
            for _ in range(2 if step else 0):
                v = v - (basis_c[:step] @ v) @ basis[:step]
            basis[step] = v / np.linalg.norm(v)
            basis_c[step] = np.conj(basis[step])
            if pos < size:
                c = feats[pos:] @ basis_c[step]
                resid[pos:] -= c.real * c.real + c.imag * c.imag
    return out


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a complex matrix."""
    w = np.ascontiguousarray(z).view(float)
    return np.einsum("ij,ij->i", w, w)


# ---------------------------------------------------------------------------
# Ginibre family on a disk
# ---------------------------------------------------------------------------

def _ginibre_disk(intensity: float, beta: float, radius: float,
                  rng: np.random.Generator, k_budget: int) -> np.ndarray:
    """Exact draw of the thinned-rescaled Ginibre process restricted to
    the centred disk of the given radius.

    On that disk the kernel's eigenfunctions are ``z^k`` times a
    Gaussian weight and the k-th eigenvalue is ``beta`` times the
    regularized incomplete gamma ``P(k+1, c R^2)`` with
    ``c = intensity * pi / beta``.
    """
    c = intensity * math.pi / beta
    t_cap = c * radius * radius
    k_hi = _bg_term_count(t_cap)
    if k_hi > k_budget:
        raise TruncationError(required=k_hi, budget=k_budget)

    ks = np.arange(k_hi, dtype=float)
    p_k = gammainc(ks + 1.0, t_cap)
    keep = rng.uniform(size=k_hi) < beta * p_k
    ks, p_k = ks[keep], p_k[keep]
    n = ks.size
    if n == 0:
        return np.empty((0, 2))

    # |phi_k(z)|^2 = exp(2*log_norm) * r^(2k) * exp(-c r^2)
    with np.errstate(divide="ignore"):
        log_norm = 0.5 * ((ks + 1.0) * math.log(c) - math.log(math.pi)
                          - gammaln(ks + 1.0) - np.log(p_k))

    # The phase exp(i k theta) of mode k is the running product of
    # exp(i g theta) over the gaps g between consecutive kept modes;
    # only the distinct gaps need an exp.
    gaps, gap_of = np.unique(np.diff(ks, prepend=0.0), return_inverse=True)

    def propose(m):
        pick = rng.integers(0, n, size=m)
        u = rng.uniform(size=m)
        t = np.maximum(gammaincinv(ks[pick] + 1.0, u * p_k[pick]), 1e-300)
        r = np.sqrt(t / c)
        th = rng.uniform(0.0, 2.0 * math.pi, size=m)
        log_mag = (log_norm[None, :] + np.outer(np.log(r), ks)
                   - 0.5 * (c * r * r)[:, None])
        steps = np.exp(1j * np.outer(th, gaps))[:, gap_of]
        feats = np.cumprod(steps, axis=1)
        feats *= np.exp(log_mag)
        return np.column_stack([r * np.cos(th), r * np.sin(th)]), feats

    return _projection_sample(propose, n, rng)


def sample_beta_ginibre(intensity: float, beta: float, window: Window,
                        stream, *, k_budget: int = 500_000) -> PointPattern:
    """Thinned-rescaled Ginibre realization of the given intensity.

    Sampled exactly on the smallest centred disk covering the window
    (restriction of the stationary process), then clipped.  ``beta=1``
    is the plain Ginibre process; smaller ``beta`` interpolates toward
    Poisson at fixed intensity.

    Raises
    ------
    TruncationError
        If the window needs more rotational modes than ``k_budget``.
    """
    check_valid(BetaGinibre(intensity, beta))
    rng = as_stream(stream).generator()
    cx, cy = window.center()
    pts = _ginibre_disk(intensity, beta, window.circumradius(), rng,
                        k_budget)
    pts = pts + np.array([cx, cy])
    return PointPattern(points=pts[window.contains(pts)], window=window)


# ---------------------------------------------------------------------------
# Gaussian / Cauchy families on a rectangle, Fourier side
# ---------------------------------------------------------------------------

def _spectral_cutoff(spec: ModelSpec, tail_eps: float) -> float:
    """Radial frequency beyond which the discarded spectral mass is
    below ``tail_eps`` of the total."""
    alpha = spec.scale
    if isinstance(spec, GaussDpp):
        return 1.15 * math.sqrt(math.log(1.0 / tail_eps)) / (math.pi * alpha)
    nu = spec.shape

    def rel_tail(s):
        z = 2.0 * math.pi * alpha * s
        return (z ** (nu + 1.0) * kv(nu + 1.0, z)
                / (math.gamma(nu + 1.0) * 2.0 ** nu))

    hi = 1.0 / alpha
    while rel_tail(hi) > tail_eps:
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rel_tail(mid) > tail_eps:
            lo = mid
        else:
            hi = mid
    return 1.15 * hi


def _mode_grid(spec: ModelSpec, window: Rectangle, enlargement: float,
               tail_eps: float):
    l1 = window.x_max - window.x_min
    l2 = window.y_max - window.y_min
    t1, t2 = enlargement * l1, enlargement * l2
    s_cut = _spectral_cutoff(spec, tail_eps)
    k1, k2 = int(math.ceil(s_cut * t1)), int(math.ceil(s_cut * t2))
    return t1, t2, k1, k2


def spectral_mode_count(spec: ModelSpec, window: Window, *,
                        enlargement: float = 1.25,
                        tail_eps: float = 1e-6) -> int:
    """Fourier modes the spectral sampler would need on this window.

    Grows like (window extent / kernel scale)^2; lets callers check a
    parameter point against the mode budget before sampling.
    """
    if not isinstance(spec, (GaussDpp, CauchyDpp)):
        raise ConfigError("mode counts apply to the spectral families")
    if not isinstance(window, Rectangle):
        raise ConfigError("spectral sampler needs a rectangular window")
    _, _, k1, k2 = _mode_grid(spec, window, enlargement, tail_eps)
    return (2 * k1 + 1) * (2 * k2 + 1)


def sample_dpp_spectral(spec: ModelSpec, window: Window, stream, *,
                        enlargement: float = 1.25, tail_eps: float = 1e-6,
                        mode_budget: int = 2_000_000) -> PointPattern:
    """Gaussian or Cauchy determinantal realization on a rectangle.

    The stationary kernel is periodized on a rectangle enlarged by
    ``enlargement`` (which pushes wrap-around correlation past the
    window), diagonalized over Fourier modes, and sampled exactly as a
    Bernoulli mixture of projection processes.  The mode cutoff keeps
    the discarded spectral mass below ``tail_eps`` of the total.
    """
    if not isinstance(spec, (GaussDpp, CauchyDpp)):
        raise ConfigError("spectral sampler covers the Gaussian and Cauchy "
                          "families; Poisson and the Ginibre family have "
                          "dedicated samplers")
    if not isinstance(window, Rectangle):
        raise ConfigError("spectral sampler needs a rectangular window")
    check_valid(spec)
    rng = as_stream(stream).generator()

    l1 = window.x_max - window.x_min
    l2 = window.y_max - window.y_min
    t1, t2, k1, k2 = _mode_grid(spec, window, enlargement, tail_eps)
    area = t1 * t2

    n_modes = (2 * k1 + 1) * (2 * k2 + 1)
    if n_modes > mode_budget:
        raise TruncationError(required=n_modes, budget=mode_budget)

    gx, gy = np.meshgrid(np.arange(-k1, k1 + 1), np.arange(-k2, k2 + 1),
                         indexing="ij")
    fx = gx.ravel() / t1
    fy = gy.ravel() / t2
    evals = np.clip(_spectral_density(spec, np.hypot(fx, fy)), 0.0, 1.0)
    keep = rng.uniform(size=n_modes) < evals
    ix, iy = gx.ravel()[keep], gy.ravel()[keep]
    n = ix.size
    if n == 0:
        return PointPattern(points=np.empty((0, 2)), window=window)

    inv_sqrt_area = 1.0 / math.sqrt(area)

    def powers(z, k):
        # z**p for p = -k..k, column p + k, from one running product
        pos = np.cumprod(np.broadcast_to(z[:, None], (z.size, k)), axis=1)
        return np.hstack([np.conj(pos[:, ::-1]), np.ones((z.size, 1)), pos])

    def propose(m):
        x = rng.uniform(0.0, t1, size=m)
        y = rng.uniform(0.0, t2, size=m)
        px = powers(np.exp(2j * math.pi / t1 * x), k1) * inv_sqrt_area
        py = powers(np.exp(2j * math.pi / t2 * y), k2)
        feats = px[:, ix + k1] * py[:, iy + k2]
        return np.column_stack([x, y]), feats

    torus_pts = _projection_sample(propose, n, rng)
    shift = np.array([window.x_min - 0.5 * (t1 - l1),
                      window.y_min - 0.5 * (t2 - l2)])
    pts = torus_pts + shift
    return PointPattern(points=pts[window.contains(pts)], window=window)


def sample(spec: ModelSpec, window: Window, stream, **kwargs) -> PointPattern:
    """Dispatch to the family's sampler."""
    if isinstance(spec, Poisson):
        return sample_poisson(spec.intensity, window, stream)
    if isinstance(spec, BetaGinibre):
        return sample_beta_ginibre(spec.intensity, spec.beta, window, stream,
                                   **kwargs)
    return sample_dpp_spectral(spec, window, stream, **kwargs)
