import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnav.geometry import Polyline, normalize_angle, obb_corners, rects_collide


def test_normalize_angle_range():
    for theta in (-7.0, -math.pi, 0.0, math.pi, 3 * math.pi, 123.456):
        wrapped = normalize_angle(theta)
        assert -math.pi < wrapped <= math.pi
        # same direction up to 2*pi
        assert abs(math.remainder(wrapped - theta, 2 * math.pi)) < 1e-9


def test_normalize_angle_boundary_maps_to_pi():
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi


class TestPolyline:
    def test_point_and_heading(self):
        path = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)])
        assert path.length == 15.0
        assert path.point_at(3.0) == (3.0, 0.0)
        assert path.point_at(12.0) == (10.0, 2.0)
        assert path.heading_at(1.0) == 0.0
        assert path.heading_at(12.0) == pytest.approx(math.pi / 2)

    def test_extrapolation_past_ends(self):
        path = Polyline([(0.0, 0.0), (10.0, 0.0)])
        assert path.point_at(-2.0) == (-2.0, 0.0)
        assert path.point_at(13.0) == (13.0, 0.0)

    def test_project(self):
        path = Polyline([(0.0, 0.0), (10.0, 0.0)])
        s, d = path.project(4.0, 2.0)
        assert s == pytest.approx(4.0)
        assert d == pytest.approx(2.0)
        s, d = path.project(-3.0, 0.0)
        assert s == 0.0
        assert d == pytest.approx(3.0)

    def test_rejects_degenerate_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0)])
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0), (0.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Polyline([(0.0, 0.0), (bad, 1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            Polyline([(0.0, 0.0), (1.0, 0.0), (2.0, bad)])


def _grid_overlap_oracle(a, b, n=100):
    """Dense point sampling: any grid point of rectangle a inside rectangle b."""
    ax, ay, ah, al, aw = a
    bx, by, bh, bl, bw = b
    us = np.linspace(-0.5, 0.5, n)
    u, v = us[:, None], us[None, :]
    rel_x = ax + u * al * math.cos(ah) - v * aw * math.sin(ah) - bx
    rel_y = ay + u * al * math.sin(ah) + v * aw * math.cos(ah) - by
    c, s = math.cos(bh), math.sin(bh)
    local_x = rel_x * c + rel_y * s
    local_y = -rel_x * s + rel_y * c
    return bool(np.any((np.abs(local_x) <= bl / 2) & (np.abs(local_y) <= bw / 2)))


def test_collision_trivial_cases():
    # coincident centers overlap for any headings
    assert rects_collide(0, 0, 0.3, 4, 2, 0, 0, 1.2, 4, 2)
    # far apart never overlap
    assert not rects_collide(0, 0, 0.0, 5, 2, 100, 0, 1.0, 5, 2)


def test_collision_axis_aligned_threshold():
    # 4 x 2 rectangles: half-lengths meet at center distance 4.0
    a = (0.0, 0.0, 0.0, 4.0, 2.0)
    near = (3.9, 0.0, 0.0, 4.0, 2.0)
    far = (4.1, 0.0, 0.0, 4.0, 2.0)
    assert rects_collide(*a, *near)
    assert not rects_collide(*a, *far)
    assert _grid_overlap_oracle(a, near)
    assert not _grid_overlap_oracle(a, far)


def test_collision_matches_sampling_oracle_on_random_pairs():
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(200):
        a = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi), 4.0, 2.0)
        b = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi), 4.0, 2.0)
        got = rects_collide(*a, *b)
        want = _grid_overlap_oracle(a, b, n=140)
        # the point-sampling oracle can miss slivers of true overlap, never
        # the reverse; tolerate only that direction at near-tangency
        if got != want:
            assert got and not want
            mismatches += 1
    assert mismatches <= 6


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
    st.tuples(*[st.floats(-10, 10) for _ in range(3)]),
)
def test_collision_is_symmetric(pa, pb):
    a = (pa[0], pa[1], pa[2], 4.0, 2.0)
    b = (pb[0], pb[1], pb[2], 1.8, 0.6)
    assert rects_collide(*a, *b) == rects_collide(*b, *a)


def test_obb_corners_axis_aligned():
    corners = obb_corners(1.0, 2.0, 0.0, 4.0, 2.0)
    assert sorted(map(tuple, corners)) == [(-1.0, 1.0), (-1.0, 3.0), (3.0, 1.0), (3.0, 3.0)]


# --- exactness of the pure-Python polyline against the vectorized reference ---

def _reference_point_at(path: Polyline, s: float) -> tuple[float, float]:
    """The numpy formulation `Polyline.point_at` must reproduce bit for bit."""
    pts = path.points
    segs = np.diff(pts, axis=0)
    lens = np.hypot(segs[:, 0], segs[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    length = float(cum[-1])
    if s <= 0.0:
        p = pts[0] + segs[0] / lens[0] * s
    elif s >= length:
        p = pts[-1] + segs[-1] / lens[-1] * (s - length)
    else:
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(max(i, 0), len(lens) - 1)
        p = pts[i] + (s - cum[i]) / lens[i] * segs[i]
    return float(p[0]), float(p[1])


def _reference_project(path: Polyline, x: float, y: float) -> tuple[float, float]:
    """The numpy formulation `Polyline.project` must reproduce bit for bit."""
    pts = path.points
    segs = np.diff(pts, axis=0)
    lens = np.hypot(segs[:, 0], segs[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    p = np.array([x, y])
    rel = p - pts[:-1]
    t = np.clip((rel * segs).sum(axis=1) / (lens**2), 0.0, 1.0)
    closest = pts[:-1] + t[:, None] * segs
    d2 = ((p - closest) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return float(cum[i] + t[i] * lens[i]), float(math.sqrt(d2[i]))


def _layout_paths():
    from graphnav.layout import build_layout
    routes = build_layout().routes
    assert len(routes) == 12
    return [(key, route.path) for key, route in routes.items()]


def _oblique_paths():
    """Random polylines whose terminal segments are not axis-aligned, so
    extrapolation and projection round differently under reordered arithmetic."""
    rng = np.random.default_rng(2)
    return [(None, Polyline(np.cumsum(rng.uniform(-5.0, 5.0, size=(m, 2)), axis=0)))
            for m in (2, 3, 8, 35)]


def _assert_exact(path, points):
    for x, y in points:
        assert path.project(x, y) == _reference_project(path, x, y), (x, y)


def test_project_exact_at_random_points():
    rng = np.random.default_rng(0)
    for _key, path in _layout_paths() + _oblique_paths():
        _assert_exact(path, rng.uniform(-60.0, 60.0, size=(400, 2)).tolist())
        # and close to the path, where the nearest segment changes often
        s = rng.uniform(-5.0, path.length + 5.0, size=200)
        on = [path.point_at(v) for v in s]
        jitter = rng.normal(0.0, 1.5, size=(200, 2))
        _assert_exact(path, [(px + jx, py + jy) for (px, py), (jx, jy) in zip(on, jitter.tolist())])


def test_project_exact_at_vertices_and_midpoints():
    for _key, path in _layout_paths() + _oblique_paths():
        pts = path.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        _assert_exact(path, pts.tolist() + mids.tolist())


def test_project_exact_at_ties():
    # points on the bisector of a corner are equidistant from both segments;
    # the reference keeps argmin's first index and so must the loop
    corner = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
    ties = [(10.0 - d, d) for d in (0.5, 1.0, 2.5, 4.0)] + [(10.0 + d, -d) for d in (0.5, 3.0)]
    for x, y in ties:
        s, lateral = corner.project(x, y)
        assert (s, lateral) == _reference_project(corner, x, y)
    assert corner.project(8.0, 2.0)[0] == 8.0  # first segment wins the tie
    for _key, path in _layout_paths():
        pts = path.points
        # the outward bisector at each interior vertex
        ties = []
        for i in range(1, len(pts) - 1):
            a = pts[i - 1] - pts[i]
            b = pts[i + 1] - pts[i]
            a /= np.hypot(*a)
            b /= np.hypot(*b)
            bis = a + b
            if np.hypot(*bis) < 1e-9:
                continue
            bis /= np.hypot(*bis)
            for r in (0.1, 1.0, 3.0):
                ties.append(tuple((pts[i] - r * bis).tolist()))
                ties.append(tuple((pts[i] + r * bis).tolist()))
        _assert_exact(path, ties)


def test_point_at_exact_including_extrapolation():
    rng = np.random.default_rng(1)
    for _key, path in _layout_paths() + _oblique_paths():
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(path.points, axis=0).T))])
        mids = 0.5 * (cum[:-1] + cum[1:])
        beyond = [-30.0, -4.0, -1e-9, 0.0, path.length, path.length + 1e-9,
                  path.length + 4.0, path.length + 30.0]
        beyond += rng.uniform(-40.0, 0.0, 50).tolist()
        beyond += rng.uniform(path.length, path.length + 40.0, 50).tolist()
        for s in rng.uniform(0.0, path.length, 300).tolist() + cum.tolist() + mids.tolist() + beyond:
            assert path.point_at(s) == _reference_point_at(path, s), s
        s_np = np.float64(path.length / 3.0)
        got = path.point_at(s_np)
        assert got == _reference_point_at(path, float(s_np))
        assert all(type(v) is float for v in got)


def test_project_returns_python_floats():
    _key, path = _layout_paths()[0]
    s, lateral = path.project(np.float64(1.0), np.float64(-20.0))
    assert type(s) is float and type(lateral) is float


# --- the per-cell candidate cache of Polyline.project ---

def _full_scan(path: Polyline, x: float, y: float) -> tuple[float, float]:
    """`project`'s loop over every segment, which the cell lists must not change."""
    best_d2, best_s = math.inf, 0.0
    for px, py, sx, sy, ln, ln2, c in path._table:
        t = ((x - px) * sx + (y - py) * sy) / ln2
        t = t if t > 0.0 else 0.0
        t = t if t < 1.0 else 1.0
        dx = x - (px + t * sx)
        dy = y - (py + t * sy)
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best_d2, best_s = d2, c + t * ln
    return best_s, math.sqrt(best_d2)


def _assert_exact_cold_and_warm(path, points, seed):
    """Exact on a fresh copy of `path`, then again, in reverse order, on a copy
    warmed first by other points near the path."""
    cold = Polyline(path.points)
    for x, y in points:
        assert cold.project(x, y) == _reference_project(cold, x, y), (x, y)
    warm = Polyline(path.points)
    rng = np.random.default_rng(seed)
    for s in rng.permutation(np.linspace(-6.0, warm.length + 6.0, 400)).tolist():
        px, py = warm.point_at(s)
        jx, jy = rng.normal(0.0, 2.0, size=2).tolist()
        warm.project(px + jx, py + jy)
    assert warm._cells or warm.cell_cap == 0
    for x, y in points[::-1]:
        assert warm.project(x, y) == _reference_project(warm, x, y), (x, y)
    assert len(warm._cells) <= warm.cell_cap


def _cell_edge_points(path):
    """Cell corners and points on cell edges around the path, every metre."""
    out = []
    for s in np.arange(-3.0, path.length + 3.0, 1.0).tolist():
        x, y = path.point_at(s)
        fx, fy = math.floor(x), math.floor(y)
        out += [(fx + a, fy + b) for a in (-1.0, 0.0, 1.0, 2.0) for b in (-1.0, 0.0, 1.0, 2.0)]
        out += [(float(fx), y), (x, float(fy)), (fx - 1.0, y), (x, fy + 1.0)]
    return out


def _vertex_and_bisector_points(path):
    pts = path.points
    out = pts.tolist() + (0.5 * (pts[:-1] + pts[1:])).tolist()
    for i in range(1, len(pts) - 1):
        a = (pts[i - 1] - pts[i]) / np.hypot(*(pts[i - 1] - pts[i]))
        b = (pts[i + 1] - pts[i]) / np.hypot(*(pts[i + 1] - pts[i]))
        if np.hypot(*(a + b)) < 1e-9:
            continue
        bis = (a + b) / np.hypot(*(a + b))
        for r in (0.1, 0.5, 1.0, 3.0):
            out += [tuple((pts[i] - r * bis).tolist()), tuple((pts[i] + r * bis).tolist())]
    return out


def test_cached_project_exact_on_cell_edges_corners_vertices_and_ties():
    for i, (_key, path) in enumerate(_layout_paths() + _oblique_paths()):
        points = _cell_edge_points(path) + _vertex_and_bisector_points(path)
        points += [(0.0, 0.0), (-0.0, -0.0), (-1.0, -1.0), (-2.0, 3.0), (2.0, -2.0)]
        _assert_exact_cold_and_warm(path, points, seed=i)
    corner = Polyline([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
    ties = [(10.0 - d, d) for d in (0.5, 1.0, 2.0, 2.5, 4.0)] + [(10.0 + d, -d) for d in (0.5, 1.0, 3.0)]
    _assert_exact_cold_and_warm(corner, ties, seed=99)
    assert Polyline(corner.points).project(8.0, 2.0)[0] == 8.0  # first segment wins the tie


def test_cached_project_exact_at_random_points_cold_and_warm():
    rng = np.random.default_rng(3)
    for i, (_key, path) in enumerate(_layout_paths() + _oblique_paths()):
        s = rng.uniform(-5.0, path.length + 5.0, size=150)
        on = [path.point_at(v) for v in s]
        jitter = rng.normal(0.0, 3.0, size=(150, 2)).tolist()
        points = [(px + jx, py + jy) for (px, py), (jx, jy) in zip(on, jitter)]
        _assert_exact_cold_and_warm(path, points + rng.uniform(-60.0, 60.0, (100, 2)).tolist(), i)


def test_far_and_non_finite_points_take_the_full_scan_and_add_no_cell():
    odd = [math.nan, math.inf, -math.inf, 1e300, -1e300]
    points = [(a, 0.0) for a in odd] + [(0.0, a) for a in odd] + [(a, b) for a in odd for b in odd]
    for _key, path in _layout_paths() + _oblique_paths():
        fresh = Polyline(path.points)
        for x, y in points:
            assert fresh.project(x, y) == _full_scan(fresh, x, y), (x, y)
        assert fresh.project(math.nan, 0.0) == (0.0, math.inf)
        assert fresh._cells == {}


def test_the_cache_never_holds_more_than_its_cap():
    for _key, path in _layout_paths()[1:3] + _oblique_paths()[1:2]:
        fresh = Polyline(path.points)
        (x0, y0), (x1, y1) = fresh.points.min(axis=0), fresh.points.max(axis=0)
        # cell corners and centres over the bounding box grown by 12 m, then odd inputs,
        # and the edges of the cached region, whose end cells it may barely meet
        xs = np.arange(math.floor(x0) - 12.0, x1 + 12.0, 0.5).tolist() + list(fresh._box[:2])
        ys = np.arange(math.floor(y0) - 12.0, y1 + 12.0, 0.5).tolist() + list(fresh._box[2:])
        for x in xs:
            for y in ys:
                assert fresh.project(x, y) == _full_scan(fresh, x, y), (x, y)
        for x, y in [(math.nan, 1.0), (math.inf, 0.0), (1e300, -1e300), (-1e300, 0.0)]:
            fresh.project(x, y)
        assert 0 < len(fresh._cells) == fresh.cell_cap


def test_a_one_segment_polyline_keeps_an_empty_cache():
    rng = np.random.default_rng(4)
    for path in [p for _k, p in _layout_paths() if len(p.points) == 2] + [_oblique_paths()[0][1]]:
        fresh = Polyline(path.points)
        assert fresh.cell_cap == 0
        for x, y in rng.uniform(-60.0, 60.0, (200, 2)).tolist() + [(1.0, 2.0), (-3.0, 0.0)]:
            assert fresh.project(x, y) == _reference_project(fresh, x, y)
        assert fresh._cells == {}


def _far_tie(rng):
    """A point on a cell corner that ties between two segments: one beyond the
    corner, the other behind the cell centre at the cut's 2r from the first.
    The first segment in table order is the one the cell list can drop."""
    i, k = rng.integers(-20, 21, size=2).tolist()
    cx, cy = i + 0.5, k + 0.5
    qx, qy = i + int(rng.integers(2)), k + int(rng.integers(2))
    ux, uy = (qx - cx) / math.sqrt(0.5), (qy - cy) / math.sqrt(0.5)
    dm, half = rng.uniform(0.1, 5.0), rng.uniform(1.0, 4.0)
    dj = dm + 2.0 * math.sqrt(0.5)
    jx, jy, mx, my = cx + dj * ux, cy + dj * uy, cx - dm * ux, cy - dm * uy
    vx, vy = -uy * half, ux * half
    pts = [(jx - vx, jy - vy), (jx + vx, jy + vy),
           (jx + vx + 60.0 * ux, jy + vy + 60.0 * uy), (mx + vx - 60.0 * ux, my + vy - 60.0 * uy),
           (mx + vx, my + vy), (mx - vx, my - vy)]
    return Polyline(pts), (float(qx), float(qy))


def test_cell_lists_keep_ties_at_the_cut_through_rounding():
    rng = np.random.default_rng(5)
    for _ in range(400):
        path, (x, y) = _far_tie(rng)
        assert path.project(x, y) == _full_scan(path, x, y) == _reference_project(path, x, y)
