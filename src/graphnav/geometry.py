"""Planar geometry: angle wrapping, arc-length polylines, oriented-rectangle overlap."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

TWO_PI = 2.0 * math.pi

_CELL = 1.0  # m, side of the grid cells whose candidate segments project caches
_MARGIN = 5.0  # m, how far past its points' bounding box a polyline caches cells


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(theta + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


class Polyline:
    """Piecewise-linear path parameterized by arc length.

    Lookups beyond either end extrapolate along the terminal segment, so a
    follower near the end of the path always has a defined lookahead point.

    `point_at` and `project` run on per-segment float tuples: routes have at
    most a few dozen segments, where a Python loop beats numpy's per-call
    overhead. They repeat the arithmetic of the numpy formulation kept in
    tests/test_geometry.py operation for operation, so their results are
    bit-identical to it.

    `project` loops only over the segments cached for the point's `_CELL`
    grid cell: those whose distance from the cell centre is within
    `2r + pad` of the smallest one, `r` being the cell's half-diagonal and
    `pad` a rounding margin. Every point of the cell lies within `r` of the
    centre, so a segment left out is farther from the point than the
    centre's closest segment, by more than rounding can close; the loop's
    arithmetic and order are unchanged, so it returns the full scan's bits
    and ties still go to the earliest segment. A one-segment polyline, a
    point outside the points' bounding box grown by `_MARGIN`, and a
    non-finite point take the full scan and add no cell, so a polyline
    caches at most `cell_cap` cells.
    """

    def __init__(self, points) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError(f"polyline needs (M, 2) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("polyline contains a non-finite point")
        segs = np.diff(pts, axis=0)
        lens = np.hypot(segs[:, 0], segs[:, 1])
        if np.any(lens <= 0.0):
            raise ValueError("polyline contains a zero-length segment")
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        self.points = pts
        self.length = float(cum[-1])
        self._cum = cum.tolist()
        self._end = tuple(pts[-1].tolist())
        # (x0, y0, dx, dy, length, length^2, arc length at x0) per segment
        self._table = tuple(
            (px, py, sx, sy, ln, ln * ln, c)
            for (px, py), (sx, sy), ln, c in zip(pts[:-1].tolist(), segs.tolist(),
                                                 lens.tolist(), self._cum)
        )
        # (x_lo, x_hi, y_lo, y_hi) of the cached region; empty for one segment,
        # where a cell lookup costs more than the scan it saves
        lo = (pts.min(axis=0) - _MARGIN).tolist()
        hi = (pts.max(axis=0) + _MARGIN).tolist()
        self._box = ((lo[0], hi[0], lo[1], hi[1]) if len(self._table) > 1
                     else (math.inf, -math.inf, math.inf, -math.inf))
        self._pad = 1e-9 * (1.0 + max(map(abs, lo + hi)))
        self._cells: dict = {}

    @property
    def cell_cap(self) -> int:
        """Most cells `project` can cache: those that meet the cached region."""
        x0, x1, y0, y1 = self._box
        if x0 > x1:
            return 0
        nx = math.floor(x1 / _CELL) - math.floor(x0 / _CELL) + 1
        return nx * (math.floor(y1 / _CELL) - math.floor(y0 / _CELL) + 1)

    def _candidates(self, key: tuple) -> tuple:
        """The table rows that can hold the closest segment to a point of cell
        `key`, in table order; cached."""
        cx, cy = (key[0] + 0.5) * _CELL, (key[1] + 0.5) * _CELL
        dist = []
        for px, py, sx, sy, _, ln2, _ in self._table:
            t = min(max(((cx - px) * sx + (cy - py) * sy) / ln2, 0.0), 1.0)
            dist.append(math.hypot(cx - (px + t * sx), cy - (py + t * sy)))
        cut = min(dist) + _CELL * math.sqrt(2.0) + self._pad  # + 2r
        rows = tuple(row for row, d in zip(self._table, dist) if d <= cut)
        self._cells[key] = rows
        return rows

    def _segment(self, s: float) -> tuple:
        i = bisect_right(self._cum, s) - 1
        return self._table[min(max(i, 0), len(self._table) - 1)]

    def point_at(self, s: float) -> tuple[float, float]:
        s = float(s)
        if s <= 0.0:
            px, py, sx, sy, ln, _, _ = self._table[0]
            return px + sx / ln * s, py + sy / ln * s
        if s >= self.length:
            _, _, sx, sy, ln, _, _ = self._table[-1]
            ex, ey = self._end
            d = s - self.length
            return ex + sx / ln * d, ey + sy / ln * d
        px, py, sx, sy, ln, _, c = self._segment(s)
        t = (s - c) / ln
        return px + t * sx, py + t * sy

    def heading_at(self, s: float) -> float:
        _, _, sx, sy, _, _, _ = self._segment(min(max(s, 0.0), self.length))
        return math.atan2(sy, sx)

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Arc length of the closest path point and the distance to it.

        Ties go to the earliest segment.
        """
        x, y = float(x), float(y)
        x0, x1, y0, y1 = self._box
        if x0 <= x <= x1 and y0 <= y <= y1:
            key = (math.floor(x / _CELL), math.floor(y / _CELL))
            rows = self._cells.get(key) or self._candidates(key)
        else:
            rows = self._table
        best_d2 = math.inf
        best_s = 0.0
        for px, py, sx, sy, ln, ln2, c in rows:
            t = ((x - px) * sx + (y - py) * sy) / ln2
            t = t if t > 0.0 else 0.0
            t = t if t < 1.0 else 1.0
            dx = x - (px + t * sx)
            dy = y - (py + t * sy)
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best_s = c + t * ln
        return best_s, math.sqrt(best_d2)

    def sample(self, step: float) -> np.ndarray:
        """Points every `step` meters along the path, endpoints included."""
        n = max(2, int(math.ceil(self.length / step)) + 1)
        return np.array([self.point_at(s) for s in np.linspace(0.0, self.length, n)])


def obb_corners(cx: float, cy: float, heading: float, length: float, width: float) -> np.ndarray:
    """Corners of a length x width rectangle centered at (cx, cy), rotated by heading."""
    hl, hw = 0.5 * length, 0.5 * width
    c, s = math.cos(heading), math.sin(heading)
    local = ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))
    return np.array([[cx + dx * c - dy * s, cy + dx * s + dy * c] for dx, dy in local])


def _separated_on_axes(ca: np.ndarray, cb: np.ndarray) -> bool:
    # Two unique edge normals per rectangle suffice for the separating-axis test.
    for corners in (ca, cb):
        for i in (0, 1):
            edge = corners[i + 1] - corners[i]
            axis = np.array([-edge[1], edge[0]])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return True
    return False


def obb_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    return not _separated_on_axes(ca, cb)


def rects_collide(
    ax: float, ay: float, ah: float, al: float, aw: float,
    bx: float, by: float, bh: float, bl: float, bw: float,
) -> bool:
    """Oriented-rectangle overlap with a bounding-circle early exit."""
    ra = 0.5 * math.hypot(al, aw)
    rb = 0.5 * math.hypot(bl, bw)
    if math.hypot(bx - ax, by - ay) > ra + rb:
        return False
    return obb_overlap(obb_corners(ax, ay, ah, al, aw), obb_corners(bx, by, bh, bl, bw))
