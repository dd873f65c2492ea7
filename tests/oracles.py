"""Independent routes to model quantities, used only as test oracles.

Each restates a property of the families from its definition rather
than from the production curve code, so the two can be checked
against each other.
"""
import csv
import math

import numpy as np

from cellpp.errors import ConfigError, SamplerStallError
from cellpp.estimators import RadiusGrid, SummaryCurve
from cellpp.geom import (_A, _E, ProjectionSpec, _lcc_constants,
                         _local_radii, _parse_float)
from cellpp.models import (_ANGULAR_NODES, _RADIAL_NODES, BetaGinibre,
                           GaussDpp, Poisson, _gauss_legendre_01,
                           _kernel_profile, check_valid)
from cellpp.samplers import (_BLOCK_ENTRIES, _BLOCK_FLOOR,
                             _PROPOSALS_PER_POINT, _single_blas_thread,
                             _sq_norms)


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


def direct_palm_log_void(spec, radius: float) -> float:
    """log det(I - K0_B) for the reduced Palm kernel
    K0(x, y) = K(x - y) - K(x) K(y) / intensity of a Gaussian or Cauchy
    family member on the centred disk B of the given radius, resolved
    (at most ``models._RESOLVED_WIDTHS`` kernel widths).

    The Nystrom rule of ``models._dpp_log_void``, with the rank-one
    term added to the frequency-0 block and every block factored
    again: the reference for the determinant lemma, which gets the
    same determinant from the factors of I - K_B.
    """
    profile, width = _kernel_profile(spec)
    n_widths = radius / width
    n = math.ceil(_RADIAL_NODES[0] + _RADIAL_NODES[1] * n_widths)
    m = 8 * math.ceil((_ANGULAR_NODES[0] + _ANGULAR_NODES[1] * n_widths) / 8)
    t, v = _gauss_legendre_01(n)
    half = m // 2
    theta = (2.0 * math.pi / m) * np.arange(half + 1)
    rho = radius * t
    sqrt_w = radius * np.sqrt(t * v * (2.0 * math.pi / m))
    ra, rb, th = rho[:, None], rho[None, :], theta[:, None, None]
    table = profile(ra * ra + rb * rb - 2.0 * ra * rb * np.cos(th))
    table *= sqrt_w[:, None] * sqrt_w[None, :]
    # a real kernel: the blocks at frequencies m and -m are equal
    mult = np.full(half + 1, 2.0)
    mult[[0, -1]] = 1.0
    blocks = ((mult * np.cos(np.outer(np.arange(half + 1), theta)))
              @ table.reshape(half + 1, -1)).reshape(half + 1, n, n)
    blocks = np.eye(n) - blocks
    u = sqrt_w * profile(rho * rho) / math.sqrt(spec.intensity)
    blocks[0] += m * np.outer(u, u)
    try:
        diag = np.diagonal(np.linalg.cholesky(blocks), axis1=-2, axis2=-1)
        logdet = 2.0 * np.log(diag).sum(axis=-1)
    except np.linalg.LinAlgError:
        sign, logdet = np.linalg.slogdet(blocks)
        logdet = np.where(sign > 0.0, logdet, -np.inf)
    return float(logdet @ mult)


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
                        origin=k_curve.origin)


def full_basis_projection_sample(propose, n: int, rng: np.random.Generator,
                                 dim: int = 2) -> np.ndarray:
    """The sequential projection sampler with one full basis of the
    accepted directions at every step: the reference for the
    production sampler, which holds the complement past the midpoint.

    Same proposal stream, blocks, thresholds and stall bound; each
    fresh proposal's residual is its squared norm less its squared
    projection on the whole basis, and each accepted point joins the
    basis by two Gram-Schmidt passes.  So for any ``propose`` and
    ``rng`` state both samplers take the same decisions, up to
    rounding in the residuals.
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


def unproject(points, spec: ProjectionSpec) -> np.ndarray:
    """Inverse of ``geom.project``; returns (n, 2) lon/lat degrees, the
    round-trip oracle of the projections."""
    xy = np.atleast_2d(np.asarray(points, dtype=float))
    x = xy[:, 0] - spec.false_easting_m
    y = xy[:, 1] - spec.false_northing_m
    lam0 = math.radians(spec.origin_lon_deg)

    if spec.kind == "lambert-conformal-conic":
        n, big_f, rho0 = _lcc_constants(spec)
        rho = np.sign(n) * np.hypot(x, rho0 - y)
        theta = np.arctan2(x, rho0 - y)
        t = (rho / (_A * big_f)) ** (1.0 / n)
        lam = theta / n + lam0
        phi = np.pi / 2.0 - 2.0 * np.arctan(t)
        for _ in range(12):
            s = np.sin(phi)
            phi_new = (np.pi / 2.0
                       - 2.0 * np.arctan(t * ((1.0 - _E * s)
                                              / (1.0 + _E * s)) ** (_E / 2.0)))
            if np.max(np.abs(phi_new - phi)) < 1e-14:
                phi = phi_new
                break
            phi = phi_new
    else:
        phi0 = math.radians(spec.origin_lat_deg)
        mr, nu = _local_radii(phi0)
        lam = lam0 + x / (nu * math.cos(phi0))
        phi = phi0 + y / mr
    return np.column_stack([np.degrees(lam), np.degrees(phi)])


def read_curves_csv(path) -> list:
    """Inverse of ``estimators.write_curves_csv``: the round-trip
    oracle of the curve file format."""
    groups: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["kind"], row["origin"])
            rs, vs = groups.setdefault(key, ([], []))
            rs.append(float(row["r"]))
            vs.append(float(row["value"]) if row["value"] != "" else math.nan)
    return [SummaryCurve(grid=RadiusGrid(np.array(rs)), values=np.array(vs),
                         kind=kind, origin=origin)
            for (kind, origin), (rs, vs) in groups.items()]


def dictreader_ingest(path, *, id_column="id", lon_column="lon",
                      lat_column="lat", operator_column=None,
                      technology_column=None, operator=None,
                      technology=None):
    """``geom.ingest`` as a ``csv.DictReader`` loop: the reference for
    the rows it keys, rejects and keeps; returns the same
    ``(ids, lonlat, rejects)``.

    A row starts on the first line after the previous row that is not
    blank, blank lines being the ones DictReader skips; a field
    DictReader fills with None (a short row) is missing.  The schema
    and empty-input errors are not restated.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        head = fh.readline()
        fh.seek(0)
        delimiter = ";" if head.count(";") > head.count(",") else ","
        lines = []

        def read_lines():
            for text in fh:
                lines.append(text)
                yield text

        reader = csv.DictReader(read_lines(), delimiter=delimiter)
        reader.fieldnames
        done = len(lines)
        ids, lonlat, rejects = [], [], []
        for row in reader:
            line = 1 + done + next(
                k for k, text in enumerate(lines[done:])
                if text not in ("\n", "\r\n", "\r"))
            done = len(lines)

            def reject(reason):
                rejects.append({"line": line, "reason": reason,
                                "row": dict(row)})

            try:
                lon = _parse_float(row[lon_column])
                lat = _parse_float(row[lat_column])
            except (ValueError, TypeError):
                reject("unparsable coordinate")
                continue
            if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                reject("coordinate out of range")
                continue
            missing = [c for c in (id_column, operator_column,
                                   technology_column)
                       if c and row[c] is None]
            if missing:
                reject(f"no {missing[0]!r} field")
                continue
            op = row[operator_column].strip() if operator_column else ""
            tech = (row[technology_column].strip()
                    if technology_column else "")
            if operator is not None and op != operator:
                continue
            if technology is not None and tech != technology:
                continue
            ids.append(str(row[id_column]))
            lonlat.append([lon, lat])
    return ids, np.array(lonlat, dtype=float).reshape(-1, 2), rejects
