"""Directed planar C2 paths with arc-length queries.

Every path is parameterized by arc length s (meters) and answers one frame
query (point, tangent, curvature) and closest-point projection.  Sign
conventions used throughout the package:

* rho > 0 when the query point lies on the LEFT of the directed path;
* curvature > 0 when the path turns toward its left.

With these two choices the error-dynamics denominator 1 - kappa*rho stays
positive whenever |rho| < 1/kappa_bound.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .exceptions import CurvatureBoundExceeded, DegenerateSpline, ProjectionAmbiguous

TWO_PI = 2.0 * math.pi

# Spline parameters per block when SplinePath samples its dense build grids
# (about 340k points for a 17 km path); bounds the temporaries.
_BUILD_BLOCK = 16384

# Spacing (m) and most entries (800 MB of doubles) of a SplinePath arc-length table.
_LUT_STEP = 0.1
MAX_LUT_ENTRIES = 10 ** 8

# Mean Earth radius for the equirectangular lon/lat conversion (m).
EARTH_RADIUS = 6371008.8


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def _grid_blocks(stop, n, share=0):
    """``np.linspace(0.0, stop, n)`` in blocks of ``_BUILD_BLOCK`` points.

    The floats are linspace's: ``arange * (stop / (n - 1)) + 0.0``, with the
    last point set to ``stop``.  Each block begins with the last ``share``
    points of the block before.
    """
    step = stop / (n - 1)
    for a in range(0, n - share, _BUILD_BLOCK):
        u = np.arange(a, min(a + _BUILD_BLOCK + share, n), dtype=float) * step + 0.0
        if a + len(u) == n:
            u[-1] = stop
        yield u


@dataclass(slots=True)
class Projection:
    """Closest point of a path to a query point.

    ``rho`` is the signed lateral offset of the query point (positive left
    of the path direction); the offset vector is orthogonal to the path
    tangent at ``s``.  The next step's ``project`` takes it as its warm start.
    """

    s: float
    x: float
    y: float
    tangent_angle: float
    curvature: float
    rho: float


class Path:
    """Common interface; concrete paths give ``frame(s) -> (x, y, tangent_angle,
    curvature)`` and ``project``.

    Immutable after construction: concurrent reads are safe.
    """

    closed: bool = False
    total_length: float = 0.0
    kappa_bound: float = 0.0

    @property
    def r0(self) -> float:
        """Uniqueness radius 1/kappa_bound for projections."""
        return 1.0 / self.kappa_bound

    def curvature_many(self, s) -> np.ndarray:
        """``frame``'s curvature at each arc length of the array ``s``."""
        return np.array([self.frame(x)[3] for x in np.asarray(s).tolist()], dtype=float)

    def project(self, point: tuple[float, float], hint: Projection | None = None) -> Projection:
        raise NotImplementedError

    def wrap_s(self, s: float) -> float:
        return s % self.total_length if self.closed else s


class CirclePath(Path):
    """Circular orbit, counterclockwise or clockwise; s = 0 at angle 0."""

    closed = True

    def __init__(self, center: tuple[float, float], radius: float,
                 direction: str = "ccw", kappa_bound: float = 0.002):
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        if direction not in ("ccw", "cw"):
            raise ValueError("direction must be 'ccw' or 'cw'")
        if 1.0 / radius >= kappa_bound:
            raise CurvatureBoundExceeded(
                f"circle curvature {1.0 / radius:g} >= bound {kappa_bound:g}")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.ccw = direction == "ccw"
        self.kappa_bound = float(kappa_bound)
        self.total_length = TWO_PI * self.radius
        self._kappa = 1.0 / self.radius if self.ccw else -1.0 / self.radius

    def frame(self, s):
        ang = s / self.radius if self.ccw else -s / self.radius
        ta = wrap_angle(ang + math.pi / 2.0) if self.ccw else wrap_angle(ang - math.pi / 2.0)
        return (self.center[0] + self.radius * math.cos(ang),
                self.center[1] + self.radius * math.sin(ang), ta, self._kappa)

    def curvature_many(self, s):
        return np.full(np.shape(s), self._kappa)

    def project(self, point, hint=None):
        dx = point[0] - self.center[0]
        dy = point[1] - self.center[1]
        d = math.hypot(dx, dy)
        if d == 0.0:
            raise ProjectionAmbiguous("point at circle center projects everywhere")
        ang = math.atan2(dy, dx)
        s = (ang if self.ccw else -ang) % TWO_PI * self.radius
        x = self.center[0] + self.radius * dx / d
        y = self.center[1] + self.radius * dy / d
        ta = wrap_angle(ang + math.pi / 2.0) if self.ccw else wrap_angle(ang - math.pi / 2.0)
        rho = self.radius - d if self.ccw else d - self.radius
        return Projection(s, x, y, ta, self._kappa, rho)


class LinePath(Path):
    """Infinite straight path through an origin point with a fixed heading.

    ``total_length`` is only the simulated horizon; s is unrestricted.
    """

    closed = False
    total_length = 1.0e5   # m

    def __init__(self, origin: tuple[float, float], heading: float,
                 kappa_bound: float = 0.002):
        self.origin = (float(origin[0]), float(origin[1]))
        self.heading = wrap_angle(float(heading))
        self.kappa_bound = float(kappa_bound)
        self._ux = math.cos(self.heading)
        self._uy = math.sin(self.heading)

    def frame(self, s):
        return (self.origin[0] + s * self._ux, self.origin[1] + s * self._uy, self.heading, 0.0)

    def curvature_many(self, s):
        return np.full(np.shape(s), 0.0)

    def project(self, point, hint=None):
        dx = point[0] - self.origin[0]
        dy = point[1] - self.origin[1]
        s = dx * self._ux + dy * self._uy
        rho = self._ux * dy - self._uy * dx
        return Projection(s, self.origin[0] + s * self._ux, self.origin[1] + s * self._uy,
                          self.heading, 0.0, rho)


def waypoints_from_lonlat(lonlat: list[tuple[float, float]],
                          origin: tuple[float, float]) -> list[tuple[float, float]]:
    """Convert (lon, lat) degree pairs to local x (north) / y (east) meters.

    Equirectangular projection about the origin latitude.
    """
    lon0, lat0 = origin
    k = math.pi / 180.0 * EARTH_RADIUS
    cos0 = math.cos(math.radians(lat0))
    return [((lat - lat0) * k, (lon - lon0) * k * cos0) for lon, lat in lonlat]


class SplinePath(Path):
    """Clamped cubic B-spline through control waypoints, arc-length indexed.

    The waypoints act as control points of a clamped cubic B-spline whose
    knots come from chord-length parameterization.  A dense lookup table
    maps arc length to the spline parameter every ``_LUT_STEP`` (0.1) meters.
    Every query reads it with one interpolation, ``_u_at`` (``_u_many`` lane
    by lane).  Beyond either endpoint the path continues straight along the
    end tangent, curvature 0.

    Raises ``DegenerateSpline`` on non-finite waypoints or when the spline
    speed vanishes anywhere, and ``CurvatureBoundExceeded`` when the densely
    sampled curvature reaches ``kappa_bound``; a NaN in a grid fails its gate.
    Raises ``ValueError`` before building a table of more than
    ``MAX_LUT_ENTRIES``: the spline is no longer than its control polygon.

    Paths of one scenario with the same shape share one arc-length table:
    ``build_paths`` hands them one ``_shapes`` dict, and the table is built
    and checked once.  The shape is the exact bytes of everything the table
    and the gates read, so a shared table holds the floats of its own build.
    """

    closed = False
    _DEGREE = 3

    def __init__(self, waypoints: list[tuple[float, float]],
                 kappa_bound: float = 0.002, *, _shapes=None):
        pts = np.asarray(waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < self._DEGREE + 1:
            raise ValueError("need at least 4 [x, y] waypoints")
        if not np.isfinite(pts).all():
            raise DegenerateSpline("non-finite waypoint coordinates")
        self.waypoints = [(float(x), float(y)) for x, y in pts]
        self.kappa_bound = float(kappa_bound)

        k = self._DEGREE
        chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
        if chord[-1] <= 0.0:
            raise DegenerateSpline("coincident waypoints")
        interior = np.array([chord[j + 1:j + k + 1].mean() for j in range(len(pts) - k - 1)])
        knots = np.concatenate([[chord[0]] * (k + 1), interior, [chord[-1]] * (k + 1)])
        self._u_end = float(chord[-1])
        if not self._u_end / _LUT_STEP + 2.0 <= MAX_LUT_ENTRIES:
            raise ValueError(f"control polygon of {self._u_end:.6g} m is too long for an "
                             f"arc-length table of at most {MAX_LUT_ENTRIES:.0e} entries")
        self._breaks, self._cx = self._power_coefficients(knots, pts[:, 0])
        _, self._cy = self._power_coefficients(knots, pts[:, 1])
        # near-coincident knots overflow the derivative recurrence
        if not np.isfinite(self._cx + self._cy).all():
            raise DegenerateSpline("non-finite spline coefficients")

        # all that _build_lut and _check_shape read: the first and second
        # derivatives take the breaks and c0..c2 only.  Bytes, so that -0.0
        # and 0.0 differ.
        shape = np.array([self._u_end, self.kappa_bound, *self._breaks,
                          *(c for col in self._cx + self._cy for c in col[:3])]).tobytes()
        shapes = {} if _shapes is None else _shapes
        if shape not in shapes:
            self._build_lut()
            self._check_shape()
            shapes[shape] = (self._lut_step, self.total_length, self._u_of_s)
        self._lut_step, self.total_length, self._u_of_s = shapes[shape]

        ends = np.array([0.0, self._u_end])
        (x0, x1), (y0, y1) = (v.tolist() for v in self._eval_vec(ends, 0))
        (dx0, dx1), (dy0, dy1) = (v.tolist() for v in self._eval_vec(ends, 1))
        n0 = math.hypot(dx0, dy0)
        self._head = (x0, y0, dx0 / n0, dy0 / n0)
        n1 = math.hypot(dx1, dy1)
        self._tail = (x1, y1, dx1 / n1, dy1 / n1)

    @staticmethod
    def _power_coefficients(knots, coeffs):
        """Break points and power-basis columns of one spline coordinate.

        One break per knot span of positive length; its column holds
        ``(f'''/6, f''/2, f', f)`` at the break.  The derivatives are
        FITPACK's: ``splder``'s recurrence for the B-spline coefficients of
        each derivative, evaluated by ``fpbspl``'s de Boor-Cox recursion, with
        their floating-point operations in their order.  So the floats equal
        those of scipy's ``PPoly.from_spline``.
        """
        k = SplinePath._DEGREE
        t = knots.tolist()
        n_coef = len(t) - k - 1
        # der[m]: coefficients of the m-th derivative, a spline of degree
        # k - m; splder updates in place and skips empty supports.
        w = coeffs.tolist()[:n_coef]
        der = [list(w)]
        for m in range(1, k + 1):
            kk = k - m + 1
            for i in range(n_coef - m):
                fac = t[i + m + kk] - t[i + m]
                if not fac <= 0.0:
                    w[i] = kk * (w[i + 1] - w[i]) / fac
            der.append(list(w))
        breaks, cols = [], []
        for l in range(k, n_coef):
            if not t[l + 1] - t[l] > 0.0:
                continue
            # splder returns the piecewise-constant k-th derivative as is
            col = [der[k][l - k] / math.factorial(k)]
            for m in range(k - 1, -1, -1):
                h = SplinePath._fpbspl(t, k - m, l)
                v = 0.0
                for j, hj in enumerate(h):
                    v = v + der[m][l - k + j] * hj
                col.append(v / math.factorial(m))
            breaks.append(t[l])
            cols.append(tuple(col))
        return breaks, cols

    @staticmethod
    def _fpbspl(t, k, l):
        """The k + 1 degree-k B-splines that are nonzero on span l, at its left end t[l]."""
        x = t[l]
        h = [1.0] + [0.0] * k
        for j in range(1, k + 1):
            hh = h[:j]
            h[0] = 0.0
            for i in range(j):
                li = l + i + 1
                lj = li - j
                if t[li] == t[lj]:
                    h[i + 1] = 0.0
                    continue
                f = hh[i] / (t[li] - t[lj])
                h[i] = h[i] + f * (t[li] - x)
                h[i + 1] = f * (x - t[lj])
        return h

    def _build_lut(self):
        # Trapezoid integration of spline speed on a fine grid, then a uniform
        # s -> u table, one block of the grid at a time.  A block shares its
        # first point with the block before, carries the running arc length
        # into its cumsum and appends the table entries in its arc-length
        # range.  A block whose min speed fails raises (a NaN fails too), so
        # the gate decides as one min over the whole grid.
        n_fine = max(2000, int(self._u_end / 0.05) + 1)
        self._lut_step = step = _LUT_STEP
        lut = array("d")
        s = np.zeros(1)
        for u in _grid_blocks(self._u_end, n_fine, share=1):
            speed = np.hypot(*self._eval_vec(u, 1))
            if not speed.min() >= 1.0e-9:
                raise DegenerateSpline("spline speed vanishes")
            s = np.concatenate((s[-1:], 0.5 * (speed[1:] + speed[:-1]) * np.diff(u)))
            np.cumsum(s, out=s)
            # np.arange's table floats j * step + 0.0, picked by s[0] <= g < s[-1];
            # the division only bounds the candidates
            g = np.arange(len(lut), int(s[-1] / step) + 3, dtype=float) * step + 0.0
            lut.frombytes(np.interp(g[:np.searchsorted(g, s[-1])], s, u).tobytes())
        self.total_length = float(s[-1])
        # the rest of len(np.arange(0.0, total_length + step, step))
        # lies at or past the end
        n_lut = math.ceil((self.total_length + step) / step)
        lut.extend([self._u_end] * (n_lut - len(lut)))
        lut[-1] = self._u_end
        self._u_of_s = lut

    def _check_shape(self):
        # Densely sampled curvature, one block at a time.  The speed can vanish
        # on this grid and not the table's (curvature 0/0): a block whose min
        # speed fails raises DegenerateSpline at once.  The first block whose
        # max curvature fails (a NaN fails too) raises after the last block,
        # so both gates decide as on the whole grid, speed first.
        n = max(4000, int(self.total_length / 0.1) + 1)
        kappa_fail = None
        for u in _grid_blocks(self._u_end, n):
            dx, dy = self._eval_vec(u, 1)
            speed = np.hypot(dx, dy)
            if not speed.min() >= 1.0e-9:
                raise DegenerateSpline("spline speed vanishes on the curvature grid")
            if kappa_fail is None:
                ddx, ddy = self._eval_vec(u, 2)
                kappa_max = float(np.abs((dx * ddy - dy * ddx) / speed ** 3).max())
                if not kappa_max < self.kappa_bound:
                    kappa_fail = kappa_max
        if kappa_fail is not None:
            raise CurvatureBoundExceeded(
                f"spline curvature {kappa_fail:g} >= bound {self.kappa_bound:g}")

    def _eval_vec(self, u, deriv):
        """Derivative ``deriv`` (0, 1 or 2) of x and y at a sorted array of spline parameters.

        ``u`` must be non-decreasing (``ValueError`` otherwise): one
        ``searchsorted`` of the breaks cuts it into one slice per span, and
        each slice is evaluated with its span's coefficients.  ``u`` below the
        first break belongs to the first span, at or past the last break to
        the last.  Returns ``(x, y)`` arrays.  The expressions are
        ``frame``'s, so both evaluators give the same floats at the same u.
        """
        if (u[1:] < u[:-1]).any():
            raise ValueError("spline parameters must be non-decreasing")
        cuts = [0] + np.searchsorted(u, self._breaks[1:], side="left").tolist() + [len(u)]
        x, y = np.empty(len(u)), np.empty(len(u))
        for b, cx, cy, lo, hi in zip(self._breaks, self._cx, self._cy, cuts, cuts[1:]):
            du = u[lo:hi] - b
            x[lo:hi] = self._poly(cx, du, deriv)
            y[lo:hi] = self._poly(cy, du, deriv)
        return x, y

    @staticmethod
    def _poly(c, du, deriv):
        c0, c1, c2, c3 = c
        if deriv == 0:
            return ((c0 * du + c1) * du + c2) * du + c3
        if deriv == 1:
            return (3.0 * c0 * du + 2.0 * c1) * du + c2
        return 6.0 * c0 * du + 2.0 * c1

    def _u_at(self, s):
        # Uniform LUT: direct index + linear interpolation.
        g = s / self._lut_step
        i = int(g)
        if i < 0:
            return 0.0
        if i >= len(self._u_of_s) - 1:
            return self._u_end
        f = g - i
        return self._u_of_s[i] * (1.0 - f) + self._u_of_s[i + 1] * f

    def _u_many(self, s):
        """``_u_at`` at each arc length of the array ``s``: its floats, lane by lane."""
        table = np.asarray(self._u_of_s)
        g = s / self._lut_step
        i = g.astype(np.intp)
        f = g - i
        j = np.clip(i, 0, len(table) - 2)
        u = table[j] * (1.0 - f) + table[j + 1] * f
        return np.where(i < 0, 0.0, np.where(i >= len(table) - 1, self._u_end, u))

    def frame(self, s):
        """(x, y, tangent_angle, curvature) at any arc length s.

        The only scalar evaluator.  Before 0 and past ``total_length`` it
        answers on the straight extension along the end tangent, where the
        curvature is 0.0.
        """
        if s < 0.0 or s > self.total_length:
            x, y, ux, uy = self._head if s < 0.0 else self._tail
            ds = s if s < 0.0 else s - self.total_length
            return (x + ds * ux, y + ds * uy, math.atan2(uy, ux), 0.0)
        u = self._u_at(s)
        i = bisect.bisect_right(self._breaks, u) - 1
        if i < 0:
            i = 0
        elif i >= len(self._cx):
            i = len(self._cx) - 1
        du = u - self._breaks[i]
        c0, c1, c2, c3 = self._cx[i]
        d0, d1, d2, d3 = self._cy[i]
        dx = (3.0 * c0 * du + 2.0 * c1) * du + c2
        dy = (3.0 * d0 * du + 2.0 * d1) * du + d2
        ddx = 6.0 * c0 * du + 2.0 * c1
        ddy = 6.0 * d0 * du + 2.0 * d1
        sp2 = dx * dx + dy * dy
        if sp2 < 1.0e-18:
            raise DegenerateSpline(f"vanishing spline derivative at s={s:g}")
        return (((c0 * du + c1) * du + c2) * du + c3,
                ((d0 * du + d1) * du + d2) * du + d3,
                math.atan2(dy, dx),
                (dx * ddy - dy * ddx) / sp2 ** 1.5)

    # -- projection ---------------------------------------------------------

    def project(self, point, hint=None):
        """Closest point to ``point``: Newton from ``hint``, the previous step's
        projection onto this path, else a global search.

        Newton's first iterate reads the hint's frame, ``frame(hint.s)`` as
        ``_projection_at`` stored it.  A tail projection's frame is not
        ``frame``'s, even where its s rounds onto an end: a hint with
        curvature 0.0, as every tail projection has, evaluates ``frame``.
        """
        px, py = float(point[0]), float(point[1])
        if hint is not None:
            frame = None
            if hint.curvature != 0.0:
                frame = (hint.x, hint.y, hint.tangent_angle, hint.curvature)
            s = self._newton_refine(px, py, hint.s, frame)
            if s is not None:
                if s < 0.0 or s > self.total_length:
                    return self._tail_projection(s < 0.0, px, py)
                return self._projection_at(s, px, py)
        return self._global_project(px, py)

    def _projection_at(self, s, px, py):
        # callers pass 0 <= s <= total_length; past an end, _tail_projection projects
        x, y, ta, kappa = self.frame(s)
        rho = math.cos(ta) * (py - y) - math.sin(ta) * (px - x)
        return Projection(s, x, y, ta, kappa, rho)

    def _newton_refine(self, px, py, s0, frame0=None, tol=1.0e-9, max_iter=30):
        # Root of g(s) = (q - p(s)) . T(s);  g'(s) = -(1 - kappa*rho).
        # frame0, when given, is frame(s0).
        s = s0
        for _ in range(max_iter):
            x, y, ta, kappa = frame0 or self.frame(s)
            frame0 = None
            tx, ty = math.cos(ta), math.sin(ta)
            ex, ey = px - x, py - y
            g = ex * tx + ey * ty
            rho = tx * ey - ty * ex
            denom = 1.0 - kappa * rho
            if abs(denom) < 1.0e-6:
                return None
            step = g / denom
            if abs(step) > 50.0:
                step = math.copysign(50.0, step)
            s += step
            if abs(step) < tol:
                return s
        return None

    def _tail_projection(self, head: bool, px, py):
        x, y, ux, uy = self._head if head else self._tail
        base = 0.0 if head else self.total_length
        ds = (px - x) * ux + (py - y) * uy
        rho = ux * (py - y) - uy * (px - x)
        s = base + ds
        qx, qy = x + ds * ux, y + ds * uy
        return Projection(s, qx, qy, math.atan2(uy, ux), 0.0, rho)

    def _global_project(self, px, py):
        stride = min(10.0, self.r0 / 10.0)
        n = max(2, int(self.total_length / stride) + 1)
        s_grid = np.linspace(0.0, self.total_length, n)
        x, y = self._eval_vec(self._u_many(s_grid), 0)
        d2 = (x - px) ** 2 + (y - py) ** 2
        best = int(np.argmin(d2))
        lo = max(0.0, s_grid[best] - stride)
        hi = min(self.total_length, s_grid[best] + stride)
        s_int = self._golden_section(px, py, lo, hi)
        s_pol = self._newton_refine(px, py, s_int)
        if s_pol is not None and abs(s_pol - s_int) < stride:
            s_int = min(max(s_pol, 0.0), self.total_length)
        cand = [self._projection_at(s_int, px, py)]
        for head in (True, False):
            p = self._tail_projection(head, px, py)
            if (head and p.s < 0.0) or (not head and p.s > self.total_length):
                cand.append(p)
        cand.sort(key=lambda p: (p.x - px) ** 2 + (p.y - py) ** 2)
        winner = cand[0]
        # Uniqueness is only guaranteed within |rho| < r0: beyond it, refine
        # every other local minimum of the scan and flag genuine ties.
        if abs(winner.rho) >= self.r0:
            d_best = math.hypot(winner.x - px, winner.y - py)
            tol = max(1.0e-6 * d_best, 1.0e-3)
            for j in range(n):
                if abs(s_grid[j] - winner.s) <= 2.0 * stride:
                    continue
                left = d2[j - 1] if j > 0 else math.inf
                right = d2[j + 1] if j + 1 < n else math.inf
                if not (d2[j] <= left and d2[j] <= right):
                    continue
                if math.sqrt(d2[j]) > d_best + stride:
                    continue
                s_riv = self._golden_section(px, py,
                                             max(0.0, s_grid[j] - stride),
                                             min(self.total_length, s_grid[j] + stride))
                rx, ry = self.frame(s_riv)[:2]
                if abs(math.hypot(rx - px, ry - py) - d_best) <= tol:
                    raise ProjectionAmbiguous(
                        f"|rho|={abs(winner.rho):g} >= r0={self.r0:g} with tied minima")
        return winner

    def _golden_section(self, px, py, lo, hi, tol=1.0e-8):
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

        def d2(s):
            x, y = self.frame(s)[:2]
            return (x - px) ** 2 + (y - py) ** 2

        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = d2(c), d2(d)
        while b - a > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = d2(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = d2(d)
        return 0.5 * (a + b)
