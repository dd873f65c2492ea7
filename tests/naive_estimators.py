"""Reference estimators written as plain loops.

These restate the border-corrected summary statistics from first
principles, including the boundary-distance geometry, so the
vectorized production code can be checked against them to machine
precision.  ``naive_G`` also gives the uncorrected ratio over all
points, which the production code does not offer.  Deliberately slow;
keep the patterns small.
"""
import math

import numpy as np


def _bdist(p, window):
    # hand-rolled boundary distance, independent of the geom module
    x, y = float(p[0]), float(p[1])
    if hasattr(window, "radius"):
        return window.radius - math.hypot(x - window.center_x,
                                          y - window.center_y)
    return min(x - window.x_min, window.x_max - x,
               y - window.y_min, window.y_max - y)


def naive_K(points, window, radii):
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    area = window.area()
    b = [_bdist(p, window) for p in pts]
    out = []
    for r in radii:
        counts = []
        for i in range(n):
            c = 0
            for j in range(n):
                if j == i:
                    continue
                if math.hypot(pts[i, 0] - pts[j, 0],
                              pts[i, 1] - pts[j, 1]) <= r:
                    c += 1
            counts.append(c)
        kept = [i for i in range(n) if b[i] >= r]
        if not kept:
            out.append(math.nan)
        else:
            num = sum(counts[i] for i in kept)
            out.append(area / (n - 1) * num / len(kept))
    return np.array(out)


def naive_F(points, window, radii, test_points):
    pts = np.asarray(points, dtype=float)
    tst = np.asarray(test_points, dtype=float)
    b = [_bdist(u, window) for u in tst]
    dmin = []
    for u in tst:
        dmin.append(min(math.hypot(u[0] - p[0], u[1] - p[1]) for p in pts))
    out = []
    for r in radii:
        kept = [k for k in range(len(tst)) if b[k] >= r]
        if not kept:
            out.append(math.nan)
        else:
            hits = sum(1 for k in kept if dmin[k] <= r)
            out.append(hits / len(kept))
    return np.array(out)


def naive_G(points, window, radii, correction="border"):
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    b = [_bdist(p, window) for p in pts]
    nn = []
    for i in range(n):
        nn.append(min(math.hypot(pts[i, 0] - pts[j, 0],
                                 pts[i, 1] - pts[j, 1])
                      for j in range(n) if j != i))
    out = []
    for r in radii:
        if correction == "border":
            kept = [i for i in range(n) if b[i] >= r]
            if not kept:
                out.append(math.nan)
            else:
                hits = sum(1 for i in kept if nn[i] <= r)
                out.append(hits / len(kept))
        else:
            out.append(sum(1 for d in nn if d <= r) / n)
    return np.array(out)
