"""Exact samplers for the model families.

Poisson realizations are a count draw plus uniform placement.  The
determinantal families go through their spectral decompositions: on a
centred disk the Ginibre-family kernel diagonalizes over rotational
eigenfunctions with incomplete-gamma eigenvalues; on a periodically
extended rectangle the stationary Gaussian/Cauchy kernels diagonalize
over Fourier modes weighted by the spectral density.  In both cases a
Bernoulli draw per eigenvalue picks the active modes and the resulting
projection process is sampled exactly by sequential rejection.  Any
window is drawn on a set that covers it (the centred disk, or the
window's bounding box) and clipped: the restriction of a DPP to a
sub-window is the DPP with the restricted kernel.

Realizations may be empty; estimators, not samplers, enforce minimum
point counts.  Every routine is deterministic given its stream spec.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
from scipy.linalg import lapack as _lapack
from scipy.linalg.blas import zgeru as _zgeru
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

# The samplability rule, read at call time: a draw that needs more
# Ginibre-disk rotational modes, Gauss/Cauchy Fourier modes or expected
# Poisson points raises TruncationError (exit 4); fits search scales
# from ``_scale_floor`` up.
K_BUDGET = 500_000
MODE_BUDGET = 1_500_000
POINT_BUDGET = 10_000_000


def sample_poisson(intensity: float, window: Window, stream) -> PointPattern:
    """Homogeneous Poisson realization on the window; more than
    ``POINT_BUDGET`` expected points raise TruncationError."""
    check_valid(Poisson(intensity))
    mean = intensity * window.area()
    if mean > POINT_BUDGET:
        raise TruncationError(mean, POINT_BUDGET, f"intensity {intensity:g} "
                              f"expects {mean:.3g} points on this window, "
                              f"budget is {POINT_BUDGET}")
    rng = as_stream(stream).generator()
    n = int(rng.poisson(mean))
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


# (package whose <package>.libs holds it, library glob, symbol suffix)
# of the scipy-openblas builds that numpy>=2 and scipy Linux wheels
# ship: numpy links the 64-bit-integer build, scipy.linalg its own
# 32-bit one.
_OPENBLAS_BUILDS = (("numpy", "libscipy_openblas64_*", "64_"),
                    ("scipy", "libscipy_openblas-*", ""))


@functools.lru_cache(maxsize=None)
def _openblas_thread_setters():
    """(get, set) pairs for the thread counts of the OpenBLAS builds
    that numpy and scipy.linalg load.  Only a library that is already
    loaded is looked up (RTLD_NOLOAD), never a second copy; installs
    that link another BLAS get no pair and keep their thread count."""
    import ctypes
    import glob
    import os

    site = os.path.dirname(os.path.dirname(np.__file__))
    found = []
    for package, pattern, suffix in _OPENBLAS_BUILDS:
        for path in glob.glob(os.path.join(site, f"{package}.libs",
                                           pattern)):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            found.append((get, set_))
            break
    return tuple(found)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS on one thread.

    The sampler's products are a few hundred elements wide.  OpenBLAS
    threads them anyway and its idle workers spin: on two cores that
    doubles CPU time for the same wall time, and a threaded rank-one
    update runs several times slower than a serial one.  A no-op for
    other BLAS libraries.  The counts are process-global: samplers
    running in several threads at once can restore them out of order
    and leave them at 1."""
    setters = _openblas_thread_setters()
    before = [get() for get, _ in setters]
    for _, set_ in setters:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(setters, before):
            set_(count)


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
    |<q_k, f>|^2 per accepted point.

    The residual work of step k scales with min(k, n - k).  While
    2k < n the k accepted directions are held as an orthonormal basis:
    a fresh proposal's residual is its squared norm less its squared
    projection, and an accepted point joins the basis by Gram-Schmidt
    from the coefficients its block projection already holds.  At the
    midpoint one QR turns the basis into an orthonormal basis of its
    complement.  From then on a fresh proposal's residual is its
    squared projection onto the n - k complement rows, and an accepted
    point leaves the complement by one Householder reflection, whose
    first row is the accepted direction.  Expected cost: about n * H_n
    proposals of O(n) features each, and about n^3 complex
    multiply-adds of residual work, where a single full basis takes
    n^3 * H_n.

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
    half = (n + 1) // 2  # the first step with 2k >= n
    out = np.empty((n, dim))
    basis = np.empty((half, n), dtype=complex)
    basis_c = np.empty((half, n), dtype=complex)
    comp = None
    pos = size = 0
    with _single_blas_thread():
        for step in range(n):
            if step == half:
                comp = _complement_rows(basis)
                basis = basis_c = coef = None
            live = None if comp is None else comp[step - half:]
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
                    if live is not None:
                        resid = _sq_norms(feats @ live.T)
                    else:
                        coef = np.empty((size, half), dtype=complex)
                        resid = norm2
                        if step:
                            proj = feats @ basis_c[:step].T
                            coef[:, :step] = proj
                            resid = norm2 - _sq_norms(proj)
                    pos = 0
                hit = thresh[pos:] < resid[pos:]
                j = int(hit.argmax())
                if hit[j]:
                    examined += j + 1
                    row = pos + j
                    out[step] = pts[row]
                    pos = row + 1
                    break
                examined += size - pos
                pos = size
            if step == n - 1:
                break
            if live is None:
                # Gram-Schmidt from the row's stored coefficients; a
                # second pass runs only if the first cancelled more than
                # half the squared norm (Daniel, Gragg, Kaufman & Stewart
                # 1976), which keeps the basis orthonormal
                v = feats[row]
                if step:
                    v = v - coef[row, :step] @ basis[:step]
                    if 2.0 * np.vdot(v, v).real < norm2[row]:
                        v = v - (basis_c[:step] @ v) @ basis[:step]
                basis[step] = v / math.sqrt(np.vdot(v, v).real)
                basis_c[step] = np.conj(basis[step])
                direction = basis_c[step]
            else:
                _householder_downdate(live, live @ feats[row])
                direction = live[0]
            if pos < size:
                c = feats[pos:] @ direction
                if live is None:
                    coef[pos:, step] = c
                resid[pos:] -= c.real * c.real + c.imag * c.imag
    return out


def _complement_rows(basis: np.ndarray) -> np.ndarray:
    """Conjugated orthonormal rows spanning the complement of the
    orthonormal rows of ``basis``, so that ``f @ comp.T`` holds the
    complement coordinates of a row vector f.

    They are the last n - k columns of the unitary Q in the QR of
    ``basis.T``, formed by applying its k reflectors to the identity's
    last columns rather than forming all of Q."""
    k, n = basis.shape
    qr, tau, _, _ = _lapack.zgeqrf(basis.T)
    tail = np.zeros((n, n - k), dtype=complex, order="F")
    np.fill_diagonal(tail[k:], 1.0)
    # at least the blocked routine's optimum: 64 columns a block plus
    # its 65 x 64 triangular factor
    lwork = 64 * (n - k) + 65 * 64
    tail = _lapack.zunmqr("L", "N", qr, tau, tail, lwork, overwrite_c=1)[0]
    return np.ascontiguousarray(tail.T.conj())


def _householder_downdate(live: np.ndarray, a: np.ndarray) -> None:
    """Reflect the rows of ``live`` in place so that ``a``, the
    coordinates of an accepted vector against them, maps onto the
    first row alone: afterwards ``live[0]`` is the vector's direction
    and ``live[1:]`` spans the rest of the complement."""
    norm = math.sqrt(np.vdot(a, a).real)
    head = a[0]
    alpha = -norm * (head / abs(head) if head else 1.0)
    u = a.copy()
    u[0] -= alpha
    # H = I - 2 u u^H / |u|^2, with |u|^2 = 2 |a| (|a| + |a_0|)
    beta = 1.0 / (norm * (norm + abs(head)))
    _zgeru(-beta, np.conj(u) @ live, u, a=live.T, overwrite_a=1)


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a complex matrix."""
    w = np.ascontiguousarray(z).view(float)
    return np.einsum("ij,ij->i", w, w)


# ---------------------------------------------------------------------------
# Ginibre family on a disk
# ---------------------------------------------------------------------------

def _ginibre_disk(intensity: float, beta: float, radius: float,
                  rng: np.random.Generator) -> np.ndarray:
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
    if k_hi > K_BUDGET:
        raise TruncationError(required=k_hi, budget=K_BUDGET)

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
        # one row per mode, so that the running products and the
        # elementwise work run along contiguous proposals
        mag = np.multiply.outer(ks, np.log(r))
        mag += log_norm[:, None]
        mag -= 0.5 * (c * r * r)
        np.exp(mag, out=mag)
        feats = np.cumprod(np.exp(1j * np.outer(gaps, th))[gap_of], axis=0)
        feats *= mag
        return (np.column_stack([r * np.cos(th), r * np.sin(th)]),
                np.ascontiguousarray(feats.T))

    return _projection_sample(propose, n, rng)


def sample_beta_ginibre(intensity: float, beta: float, window: Window,
                        stream) -> PointPattern:
    """Thinned-rescaled Ginibre realization of the given intensity.

    Sampled exactly on the smallest centred disk covering the window
    (restriction of the stationary process), then clipped.  ``beta=1``
    is the plain Ginibre process; smaller ``beta`` interpolates toward
    Poisson at fixed intensity.

    Raises
    ------
    TruncationError
        If the window needs more rotational modes than ``K_BUDGET``.
    """
    check_valid(BetaGinibre(intensity, beta))
    rng = as_stream(stream).generator()
    cx, cy = window.center()
    pts = _ginibre_disk(intensity, beta, window.circumradius(), rng)
    pts = pts + np.array([cx, cy])
    return PointPattern(points=pts[window.contains(pts)], window=window)


# ---------------------------------------------------------------------------
# Gaussian / Cauchy families on the bounding box, Fourier side
# ---------------------------------------------------------------------------

# Specs whose mode setup is kept.  Envelopes draw one spec many times in
# a row; a lattice at MODE_BUDGET holds 36 MB.
_MODE_CACHE = 4
# Periodic approximation (Lavancier, Moller & Rubak 2015, sec. 4): the
# window enlarged by this factor per side, which pushes wrap-around
# correlation past it, and the spectral mass the mode cutoff drops.
_ENLARGEMENT = 1.25
_TAIL_EPS = 1e-6


def _spectral_cutoff(spec: ModelSpec) -> float:
    """Radial frequency beyond which the discarded spectral mass is
    below ``_TAIL_EPS`` of the total.  A Cauchy shape above about 150,
    where ``Gamma(shape + 1) * 2^shape`` overflows, raises
    TruncationError."""
    alpha = spec.scale
    if isinstance(spec, GaussDpp):
        return 1.15 * math.sqrt(math.log(1.0 / _TAIL_EPS)) / (math.pi * alpha)
    nu = spec.shape
    norm = math.gamma(nu + 1.0) * 2.0 ** nu if nu < 170.0 else math.inf
    if norm == math.inf:
        raise TruncationError(nu, None, f"Cauchy shape {nu:g} overflows "
                                        f"its spectral density")

    def rel_tail(s):
        z = 2.0 * math.pi * alpha * s
        # at small z the product overflows to inf, which is above eps
        with np.errstate(over="ignore"):
            return z ** (nu + 1.0) * kv(nu + 1.0, z) / norm

    hi = 1.0 / alpha
    while rel_tail(hi) > _TAIL_EPS:
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rel_tail(mid) > _TAIL_EPS:
            lo = mid
        else:
            hi = mid
    return 1.15 * hi


@functools.lru_cache(maxsize=_MODE_CACHE)
def _mode_grid(spec: ModelSpec, box: Rectangle):
    """Periods (t1, t2) of the enlarged box and the largest mode
    indices (k1, k2) per axis."""
    l1 = box.x_max - box.x_min
    l2 = box.y_max - box.y_min
    t1, t2 = _ENLARGEMENT * l1, _ENLARGEMENT * l2
    s_cut = _spectral_cutoff(spec)
    k1, k2 = int(math.ceil(s_cut * t1)), int(math.ceil(s_cut * t2))
    return t1, t2, k1, k2


@functools.lru_cache(maxsize=_MODE_CACHE)
def _mode_lattice(spec: ModelSpec, box: Rectangle):
    """Eigenvalue of every mode of the truncated frequency lattice, and
    its x and y indices shifted to start at 0, as read-only arrays."""
    t1, t2, k1, k2 = _mode_grid(spec, box)
    gx, gy = np.meshgrid(np.arange(k1 + k1 + 1), np.arange(k2 + k2 + 1),
                         indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    rho = np.hypot((gx - k1) / t1, (gy - k2) / t2)
    with np.errstate(over="ignore", invalid="ignore"):
        evals = _spectral_density(spec, rho)
    if not np.all(np.isfinite(evals)):
        raise TruncationError(spec.shape, None, f"Cauchy shape {spec.shape:g}"
                              f" overflows its spectral density")
    evals = np.clip(evals, 0.0, 1.0)
    for arr in (evals, gx, gy):
        arr.setflags(write=False)
    return evals, gx, gy


def spectral_mode_count(spec: ModelSpec, window: Window) -> int:
    """Fourier modes the spectral sampler would need on this window.

    Grows like (bounding-box extent / kernel scale)^2; lets callers
    check a parameter point against MODE_BUDGET before sampling.
    """
    if not isinstance(spec, (GaussDpp, CauchyDpp)):
        raise ConfigError("mode counts apply to the spectral families")
    _, _, k1, k2 = _mode_grid(spec, window.bounding_box())
    return (2 * k1 + 1) * (2 * k2 + 1)


def _scale_floor(make, lo: float, hi: float, window: Window) -> float:
    """Smallest kernel scale in [lo, hi] affordable under the sampler
    mode budget on this window; returns lo unchanged when lo already
    fits."""
    if spectral_mode_count(make(lo), window) <= MODE_BUDGET:
        return lo
    if spectral_mode_count(make(hi), window) > MODE_BUDGET:
        raise ConfigError(
            "window too large for the spectral families: even the "
            "existence-bound scale exceeds the sampler mode budget")
    a, b = lo, hi
    while b / a > 1.0001:
        mid = math.sqrt(a * b)
        if spectral_mode_count(make(mid), window) > MODE_BUDGET:
            a = mid
        else:
            b = mid
    return b


def sample_dpp_spectral(spec: ModelSpec, window: Window,
                        stream) -> PointPattern:
    """Gaussian or Cauchy determinantal realization on any window.

    The stationary kernel is periodized on the window's bounding box
    enlarged by ``_ENLARGEMENT`` per side, diagonalized over Fourier
    modes, and sampled exactly as a Bernoulli mixture of projection
    processes; the points in the window are kept.  A rectangle is its
    own box; a disk of radius r is drawn on a (2.5 r)^2 torus, about
    twice its expected point count.  The mode cutoff keeps the
    discarded spectral mass below ``_TAIL_EPS`` of the total; past
    ``MODE_BUDGET`` modes the draw raises TruncationError.
    """
    if not isinstance(spec, (GaussDpp, CauchyDpp)):
        raise ConfigError("spectral sampler covers the Gaussian and Cauchy "
                          "families; Poisson and the Ginibre family have "
                          "dedicated samplers")
    check_valid(spec)
    rng = as_stream(stream).generator()

    box = window.bounding_box()
    l1 = box.x_max - box.x_min
    l2 = box.y_max - box.y_min
    t1, t2, k1, k2 = _mode_grid(spec, box)
    area = t1 * t2

    n_modes = (2 * k1 + 1) * (2 * k2 + 1)
    if n_modes > MODE_BUDGET:
        raise TruncationError(required=n_modes, budget=MODE_BUDGET)

    evals, col_x, col_y = _mode_lattice(spec, box)
    keep = rng.uniform(size=n_modes) < evals
    col_x, col_y = col_x[keep], col_y[keep]
    n = col_x.size
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
        feats = px[:, col_x] * py[:, col_y]
        return np.column_stack([x, y]), feats

    torus_pts = _projection_sample(propose, n, rng)
    shift = np.array([box.x_min - 0.5 * (t1 - l1),
                      box.y_min - 0.5 * (t2 - l2)])
    pts = torus_pts + shift
    return PointPattern(points=pts[window.contains(pts)], window=window)


def sample(spec: ModelSpec, window: Window, stream) -> PointPattern:
    """Dispatch to the family's sampler."""
    if isinstance(spec, Poisson):
        return sample_poisson(spec.intensity, window, stream)
    if isinstance(spec, BetaGinibre):
        return sample_beta_ginibre(spec.intensity, spec.beta, window, stream)
    return sample_dpp_spectral(spec, window, stream)
