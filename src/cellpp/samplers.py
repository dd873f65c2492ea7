"""Exact samplers for the model families, behind one entry point.

``sample(spec, window, stream)`` checks that the spec defines a
process, refuses a draw whose expected point count passes its budget,
seeds one generator from the stream spec, draws, and clips to the
window.  Poisson realizations are a count draw plus uniform placement.
The determinantal families go through their spectral decompositions:
on a centred disk the Ginibre-family kernel diagonalizes over
rotational eigenfunctions with incomplete-gamma eigenvalues; on a
periodically extended rectangle the stationary Gaussian/Cauchy kernels
diagonalize over Fourier modes weighted by the spectral density.  In
both cases independent Bernoulli trials pick the active modes, without
visiting the others, and the resulting projection process is sampled
exactly by sequential rejection.  Any window is drawn on a set that
covers it (the centred disk, or the window's bounding box) and
clipped: the restriction of a DPP to a sub-window is the DPP with the
restricted kernel.  Realizations may be empty; estimators, not
samplers, enforce minimum point counts.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np
from scipy.linalg import lapack as _lapack
from scipy.linalg.blas import zgeru as _zgeru
from scipy.special import gammainc, gammaincinv, gammaln

from .errors import SamplerStallError, TruncationError
from .geom import PointPattern, Window
from .models import (
    BetaGinibre,
    ModelSpec,
    Poisson,
    _bg_term_count,
    _kernel_profile,
    _spectral_density,
    check_valid,
)
from .rng import as_stream

# The samplability rule, read at call time: a draw expecting more points
# raises TruncationError (exit 4).  A determinantal draw of n points
# takes ~n^3 time and ~40 n^2 bytes: at this bound, 71 s (Gauss) to
# 113 s (beta-Ginibre) and 0.69 GiB peak RSS on a 2-vCPU x86-64 VM.
DPP_POINT_BUDGET = 4_000
POINT_BUDGET = 10_000_000
# Periodic approximation (Lavancier, Moller & Rubak 2015, sec. 4): the
# window enlarged by this factor per side, which pushes wrap-around
# correlation past it, and the share of the expected points that the
# dropped Fourier modes may hold.
_ENLARGEMENT = 1.25
_TAIL_EPS = 1e-6


def _torus(window: Window):
    """Periods of the torus the Gaussian and Cauchy samplers draw on."""
    box = window.bounding_box()
    return (_ENLARGEMENT * (box.x_max - box.x_min),
            _ENLARGEMENT * (box.y_max - box.y_min))


def expected_points(family: str, intensity: float, window: Window) -> float:
    """Expected points of one draw before clipping, whatever the shape
    parameters: the intensity times the area of the window for
    Poisson, of its covering disk for the Ginibre family and of the
    torus for the Gaussian and Cauchy families."""
    if family == Poisson.name:
        return intensity * window.area()
    if family == BetaGinibre.name:
        return intensity * math.pi * window.circumradius() ** 2
    return intensity * math.prod(_torus(window))


def check_samplable(family: str, intensity: float, window: Window) -> None:
    """TruncationError if a draw expects more points than its budget,
    ``POINT_BUDGET`` for Poisson and ``DPP_POINT_BUDGET`` otherwise."""
    budget = POINT_BUDGET if family == Poisson.name else DPP_POINT_BUDGET
    mean = expected_points(family, intensity, window)
    if not mean <= budget:
        raise TruncationError(mean, budget, f"a {family} draw at intensity "
                              f"{intensity:g} expects {mean:.6g} points on "
                              f"this window, bound is {budget}")


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
_NORMAL_MIN = np.finfo(float).tiny


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
    threads them anyway, its idle workers spin, and a threaded rank-one
    update runs many times slower than a serial one: on a 2-vCPU x86-64
    VM, 39 Gauss draws at the existence bound on the 13 km square
    (intensity 0.7e-6, about 119 points each) took 0.57 s wall and CPU
    with this limiter, against 18.7-18.9 s wall and 37.1-37.5 s CPU
    with the thread counts left alone, about 33 times the wall time.
    A no-op for other BLAS libraries.  The counts are process-global:
    samplers running in several threads at once can restore them out
    of order and leave them at 1."""
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
    # a subnormal head, whose modulus overflows a division, acts as zero
    alpha = -norm * (head / abs(head) if abs(head) >= _NORMAL_MIN else 1.0)
    u = a.copy()
    u[0] -= alpha
    # H = I - 2 u u^H / |u|^2, with |u|^2 = 2 |a| (|a| + |a_0|)
    beta = 1.0 / (norm * (norm + abs(head)))
    _zgeru(-beta, np.conj(u) @ live, u, a=live.T, overwrite_a=1)


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a complex matrix."""
    w = np.ascontiguousarray(z).view(float)
    return np.einsum("ij,ij->i", w, w)


def _bernoulli_modes(starts, sizes, rates, exact, rng) -> np.ndarray:
    """Sorted positions kept by independent Bernoulli trials with
    probabilities ``exact(positions)``, in O(kept + runs) time.

    Run b holds ``sizes[b]`` positions from ``starts[b]``, and
    ``rates[b]`` bounds ``exact`` there.  Candidates come first, by
    geometric skips at that rate q: a unit Poisson process gives each
    position -log(1 - q) of its line, so it hits a position with
    probability q (all of a run at rate 1).  Each candidate is then
    kept with probability ``exact / q`` (Devroye 1986, ch. 6)."""
    sure = rates >= 1.0
    with np.errstate(divide="ignore"):
        hazard = -np.log1p(-np.where(sure, 0.0, rates)) * sizes
    run = np.repeat(np.arange(sizes.size), rng.poisson(hazard))
    hits = starts[run] + rng.integers(0, sizes[run])
    pos = np.sort(np.concatenate(
        [np.unique(hits)] + [np.arange(a, a + n)
                             for a, n in zip(starts[sure], sizes[sure])]))
    run = np.searchsorted(starts, pos, side="right") - 1
    return pos[rng.uniform(size=pos.size) * rates[run] < exact(pos)]


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
    if k_hi > 2 ** 52:
        raise TruncationError(k_hi, 2 ** 52, f"beta {beta:g} needs "
                              f"{k_hi:.3g} modes, past 2^52")
    # the k-th eigenvalue is at most beta
    ks = _bernoulli_modes(
        np.zeros(1, dtype=np.int64), np.array([k_hi]), np.array([beta]),
        lambda k: beta * gammainc(k + 1.0, t_cap), rng).astype(float)
    n = ks.size
    if n == 0:
        return np.empty((0, 2))
    p_k = gammainc(ks + 1.0, t_cap)

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


# ---------------------------------------------------------------------------
# Gaussian / Cauchy families on the bounding box, Fourier side
# ---------------------------------------------------------------------------

# Ring j of the Fourier lattice, the square max(|kx|, |ky|) = j, holds
# positions (2j - 1)^2 on: 8j modes, 2j to a side, counterclockwise
# from (-j, -j).  Per side, its corner and its step.
_CORNER = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])
_STEP = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])


def _ring_modes(pos: np.ndarray):
    """(kx, ky) of the modes at lattice positions below 2^50, where the
    square root in doubles floors to the exact integer root."""
    j = (np.sqrt(pos).astype(np.int64) + 1) // 2
    side, step = np.divmod(pos - np.maximum(2 * j - 1, 0) ** 2,
                           np.maximum(2 * j, 1))
    k = j[:, None] * _CORNER[side] + step[:, None] * _STEP[side]
    return k[:, 0], k[:, 1]


def _fourier_modes(spec: ModelSpec, t1: float, t2: float,
                   rng: np.random.Generator):
    """(kx, ky) of the Fourier modes kept on the t1 x t2 torus, each
    with probability its eigenvalue, the spectral density at
    (kx / t1, ky / t2) clipped to [0, 1].

    The density falls with the frequency, least on ring j at
    j / max(t1, t2), so the band of rings 2^(b-1) to 2^b - 1 takes the
    rate of its first and a draw costs O(kept + log rings).  The last
    band is the first whose bound on its kept modes is below
    ``_TAIL_EPS`` of the expected points and half that of the band
    before.  Past the density's knee each band's bound falls by a
    factor that only shrinks (for the Gaussian kernel because its
    density is log-concave; checked for Cauchy shapes 0.05 to 150), so
    the later bands together could keep no more."""
    t_max = max(t1, t2)

    def eigenvalues(rho):
        return np.clip(_spectral_density(spec, rho), 0.0, 1.0)

    def exact(pos):
        kx, ky = _ring_modes(pos)
        return eigenvalues(np.hypot(kx / t1, ky / t2))

    # ring 2^24 starts below position 2^50
    edges = np.concatenate([[0], 2 ** np.arange(25)])
    starts = np.maximum(2 * edges - 1, 0) ** 2
    rates = eigenvalues(edges[:-1] / t_max)
    held = rates * np.diff(starts)
    last = (held <= _TAIL_EPS * spec.intensity * t1 * t2) & (
        2.0 * held <= np.concatenate([[0.0], held[:-1]]))
    if not last.any():
        raise TruncationError(None, None, f"the spectrum of {spec} does "
                              f"not fall off within 2^24 rings")
    bands = int(last.argmax()) + 1
    return _ring_modes(_bernoulli_modes(
        starts[:bands], np.diff(starts)[:bands], rates[:bands], exact, rng))


def _cis(turns: np.ndarray) -> np.ndarray:
    """exp(2 pi i turns), from the cosine and sine of the angle reduced
    to [-pi, pi]: about twice as fast as numpy's complex exp."""
    angle = 2.0 * math.pi * (turns - np.rint(turns))
    return np.cos(angle) + 1j * np.sin(angle)


def _spectral_points(spec: ModelSpec, window: Window,
                     rng: np.random.Generator) -> np.ndarray:
    """Unclipped Gaussian or Cauchy determinantal points covering the
    window.

    The stationary kernel is periodized on the window's bounding box
    enlarged by ``_ENLARGEMENT`` per side, diagonalized over Fourier
    modes, and sampled exactly as a Bernoulli mixture of projection
    processes.  A rectangle is its own box; a disk of radius r is drawn
    on a (2.5 r)^2 torus, about twice its expected point count.  A
    kernel narrower than 2^-22 of the torus raises TruncationError.
    """
    t1, t2 = _torus(window)
    # the spectrum of a wider kernel falls off within 2^24 rings
    if not _kernel_profile(spec)[1] >= 2.0 ** -22 * max(t1, t2):
        raise TruncationError(None, None, f"{spec} has a kernel narrower "
                              f"than 2^-22 of its {max(t1, t2):.6g} m torus")
    kx, ky = _fourier_modes(spec, t1, t2, rng)
    n = kx.size
    if n == 0:
        return np.empty((0, 2))

    # features exp(2 pi i (kx x / t1 + ky y / t2)) / sqrt(t1 t2), from
    # one table per axis over its distinct kept indices
    ux, col_x = np.unique(kx, return_inverse=True)
    uy, col_y = np.unique(ky, return_inverse=True)
    inv_sqrt_area = 1.0 / math.sqrt(t1 * t2)

    def propose(m):
        x = rng.uniform(0.0, t1, size=m)
        y = rng.uniform(0.0, t2, size=m)
        feats = (_cis(np.multiply.outer(x / t1, ux))[:, col_x]
                 * _cis(np.multiply.outer(y / t2, uy))[:, col_y])
        feats *= inv_sqrt_area
        return np.column_stack([x, y]), feats

    # the torus is centred on the window's bounding box
    return (_projection_sample(propose, n, rng) - 0.5 * np.array([t1, t2])
            + np.array(window.bounding_box().center()))


def sample(spec: ModelSpec, window: Window, stream) -> PointPattern:
    """One realization of ``spec`` on the window, deterministic given
    the stream spec: Poisson points placed uniformly on it, Ginibre-family
    points drawn on its covering disk and Gaussian or Cauchy points on
    the torus over its bounding box, both clipped to it.  An invalid
    spec raises ExistenceViolation; a draw expecting more points than
    its budget, or whose modes cannot be indexed, raises TruncationError.
    """
    check_valid(spec)
    check_samplable(spec.name, spec.intensity, window)
    rng = as_stream(stream).generator()
    if isinstance(spec, Poisson):
        # not clipped: a disk's uniform point may sit a rounding error
        # outside its own ``contains``
        n = int(rng.poisson(spec.intensity * window.area()))
        return PointPattern(points=window.sample_uniform(n, rng),
                            window=window)
    if isinstance(spec, BetaGinibre):
        # centred on window.center(), which on a disk may differ from its
        # bounding box's centre in the last bit
        pts = (_ginibre_disk(spec.intensity, spec.beta,
                             window.circumradius(), rng)
               + np.array(window.center()))
    else:
        pts = _spectral_points(spec, window, rng)
    return PointPattern(points=pts[window.contains(pts)], window=window)
