"""Planar geometry: angle wrapping, arc-length polylines, oriented-rectangle overlap."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.fmod(theta + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Polyline:
    """Piecewise-linear path parameterized by arc length.

    Lookups beyond either end extrapolate along the terminal segment, so a
    follower near the end of the path always has a defined lookahead point.

    `point_at` and `project` run on per-segment float tuples: routes have at
    most a few dozen segments, where a Python loop beats numpy's per-call
    overhead. They repeat the arithmetic of the numpy formulation kept in
    tests/test_geometry.py operation for operation, so their results are
    bit-identical to it.
    """

    def __init__(self, points) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError(f"polyline needs (M, 2) points, got shape {pts.shape}")
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
        best_d2 = math.inf
        best_s = 0.0
        for px, py, sx, sy, ln, ln2, c in self._table:
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
