import numpy as np
import pytest

from courtpose.court import (CENTER_CIRCLE_RADIUS, FT_CIRCLE_RADIUS, HOOP_FROM_BASELINE,
                             KEY_DEPTH, LENGTH, THREE_POINT_RADIUS, THREE_POINT_SIDE_INSET,
                             WIDTH, Arc2D, LineSegment2D, lift_to_plane, make_court_model)


def test_default_preset_extents():
    court = make_court_model()
    assert court.length == pytest.approx(28.65)
    assert court.width == pytest.approx(15.24)


def test_boundary_corners_symmetric():
    court = make_court_model()
    segs = [p for p in court.primitives if isinstance(p, LineSegment2D)]
    pts = {tuple(np.round(q, 9)) for s in segs[:4] for q in (s.p0, s.p1)}
    L2, W2 = 28.65 / 2, 15.24 / 2
    assert pts == {(-L2, -W2), (-L2, W2), (L2, -W2), (L2, W2)}


def test_all_primitives_on_plane():
    court = make_court_model()
    pts = court.sample_points3d(0.25)
    assert np.abs(pts[:, 1]).max() == 0.0


def test_arc_sampling_spacing():
    arc = Arc2D((0.0, 0.0), 2.0, 0.0, np.pi)
    pts = arc.sample(0.05)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert steps.max() <= 0.05 + 1e-9


def test_three_point_lines_meet_arc():
    court = make_court_model()
    v_in = WIDTH / 2 - THREE_POINT_SIDE_INSET
    du = np.sqrt(THREE_POINT_RADIUS ** 2 - v_in ** 2)
    hoop_u = -(LENGTH / 2 - HOOP_FROM_BASELINE)
    segs = [p for p in court.primitives if isinstance(p, LineSegment2D)]
    ends = {tuple(np.round(s.p1, 6)) for s in segs}
    assert (round(hoop_u + du, 6), round(-v_in, 6)) in ends
    assert (round(hoop_u + du, 6), round(v_in, 6)) in ends


def test_lift_to_plane():
    out = lift_to_plane([[1.0, 2.0]])
    assert np.allclose(out, [[1.0, 0.0, 2.0]])


def test_landmarks_include_arc_ends_midpoints_and_centre_quarter_points():
    court = make_court_model()
    pts = court.landmarks3d
    assert pts.shape == (33, 3) and np.all(pts[:, 1] == 0.0)
    uv = {(round(u, 6), round(v, 6)) for u, _, v in pts}
    assert len(uv) == 33
    r = CENTER_CIRCLE_RADIUS
    want = {(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)}
    v_in = WIDTH / 2 - THREE_POINT_SIDE_INSET
    du = np.sqrt(THREE_POINT_RADIUS ** 2 - v_in ** 2)
    for side in (-1.0, 1.0):
        hoop_u = side * (LENGTH / 2 - HOOP_FROM_BASELINE)
        ft_u = side * (LENGTH / 2 - KEY_DEPTH)
        want |= {(hoop_u - side * THREE_POINT_RADIUS, 0.0),                  # arc midpoint
                 (hoop_u - side * du, v_in), (hoop_u - side * du, -v_in),  # arc ends
                 (ft_u + FT_CIRCLE_RADIUS, 0.0), (ft_u - FT_CIRCLE_RADIUS, 0.0)}
    assert {(round(u, 6) + 0.0, round(v, 6) + 0.0) for u, v in want} <= uv


def test_one_court_with_read_only_landmarks():
    court = make_court_model()
    assert make_court_model() is court
    assert court.landmarks3d is court.landmarks3d
    with pytest.raises(ValueError):
        court.landmarks3d[0, 0] = 1.0
