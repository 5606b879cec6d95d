import numpy as np
import pytest
import scipy.spatial
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from courtpose.calibrate import (LineDistance, LineMask, _near_kept, load_pgm,
                                 rasterize_court_lines, refine_camera_lines,
                                 save_pgm, solve_pnp_planar)
from courtpose.camera import Camera, project, project_with_depth
from courtpose.court import (Arc2D, CourtModel, LineSegment2D, lift_to_plane,
                             make_court_model)
from courtpose.errors import (DegenerateGeometryError, NumericalError,
                              ValidationError)
from courtpose.synth import synth_scene
from courtpose.transforms import axis_angle_to_matrix, look_at_rotation

SIZE = (1280, 720)


def broadcast_camera(seed=0, f=1500.0):
    rng = np.random.default_rng(seed)
    eye = np.array([rng.uniform(-6, 6), rng.uniform(6, 12), 7.62 + rng.uniform(9, 16)])
    R = look_at_rotation(eye, np.array([rng.uniform(-4, 4), 1.0, 0.0]))
    return Camera(f, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)


def court_corrs(cam, pts):
    return [(tuple(project(cam, p)), tuple(p)) for p in pts]


CORR_POINTS = np.array([
    [-14.325, 0.0, -7.62], [-14.325, 0.0, 7.62],
    [14.325, 0.0, 7.62], [0.0, 0.0, -7.62],
])


def test_pnp_recovers_synthesized_camera():
    cam = broadcast_camera(1)
    est, rms = solve_pnp_planar(court_corrs(cam, CORR_POINTS), SIZE)
    assert rms < 1e-3
    assert est.f == pytest.approx(cam.f, abs=1e-3)
    for p in CORR_POINTS:
        assert np.abs(project(est, p) - project(cam, p)).max() < 1e-3


def test_pnp_fronto_parallel():
    # camera straight above the court: x_cam = +x world, looking down -y
    R = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    eye = np.array([0.0, 12.0, 0.0])
    cam = Camera(1400.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    square = np.array([[-3.0, 0, -3.0], [-3.0, 0, 3.0], [3.0, 0, 3.0], [3.0, 0, -3.0]])
    corrs = court_corrs(cam, square)
    # the focal length is unobservable from a fronto-parallel plane
    with pytest.raises(DegenerateGeometryError):
        solve_pnp_planar(corrs, SIZE)
    # pinning f resolves the ambiguity exactly
    est, rms = solve_pnp_planar(corrs, SIZE, focal=1400.0)
    assert rms < 1e-6
    assert est.f == 1400.0
    assert np.abs(est.R - R).max() < 1e-6
    assert np.abs(est.center - eye).max() < 1e-6


def test_pnp_degenerate_collinear():
    cam = broadcast_camera(2)
    pts = np.array([[-5.0, 0, 0.0], [0.0, 0, 0.0], [5.0, 0, 0.0], [10.0, 0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        solve_pnp_planar(court_corrs(cam, pts), SIZE)


def test_pnp_needs_four_points():
    cam = broadcast_camera(3)
    with pytest.raises(ValidationError):
        solve_pnp_planar(court_corrs(cam, CORR_POINTS[:3]), SIZE)


def test_rasterize_camera_looking_away_is_empty():
    eye = np.array([0.0, 8.0, 30.0])
    R = look_at_rotation(eye, eye + np.array([0.0, 0.0, 10.0]))  # away from court
    cam = Camera(1500.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    mask = rasterize_court_lines(cam, make_court_model(), SIZE)
    assert not mask.pixels.any()


def test_rasterize_fronto_parallel_circle_radius():
    height = 20.0
    R = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    eye = np.array([0.0, height, 0.0])
    f = 1500.0
    cam = Camera(f, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    court = make_court_model()
    mask = rasterize_court_lines(cam, court, SIZE)
    ys, xs = np.nonzero(mask.pixels)
    center = np.array([SIZE[0] / 2, SIZE[1] / 2])
    r_px = np.hypot(xs - center[0], ys - center[1])
    # center circle projects to radius f*r/height
    expect = f * 1.8288 / height
    ring = np.abs(r_px - expect) < 3.0
    assert ring.sum() > 50
    assert np.abs(np.median(r_px[ring]) - expect) < 1.0


def test_rasterize_nonempty_iff_visible():
    cam = broadcast_camera(4)
    mask = rasterize_court_lines(cam, make_court_model(), SIZE)
    assert mask.pixels.any()


def test_rasterize_deterministic():
    cam = broadcast_camera(8)
    court = make_court_model()
    a = rasterize_court_lines(cam, court, SIZE)
    b = rasterize_court_lines(cam, court, SIZE)
    assert np.array_equal(a.pixels, b.pixels)


def rasterize_primitive_loop(camera, court, size):
    """The per-primitive rasterizer the batched one replaced: two projections
    and one stamp per primitive."""
    W, H = size
    img = np.zeros((H, W), dtype=bool)
    for prim in court.primitives:
        coarse = lift_to_plane(prim.sample(0.1))
        uv, z = project_with_depth(camera, coarse)
        ok = z > 1e-9
        if not np.any(ok):
            continue
        seg_ok = ok[1:] & ok[:-1]
        step = np.linalg.norm(np.diff(uv, axis=0), axis=1)
        px_len = float(np.sum(step[seg_ok]))
        n = int(np.clip(np.ceil(px_len / 0.5) + 1, len(coarse), 200000))
        approx_len = float(np.sum(np.linalg.norm(np.diff(coarse, axis=0), axis=1)))
        spacing = max(approx_len / max(n - 1, 1), 1e-6)
        uv, z = project_with_depth(camera, lift_to_plane(prim.sample(spacing)))
        uv = uv[z > 1e-9]
        cols = np.round(uv[:, 0]).astype(int)
        rows = np.round(uv[:, 1]).astype(int)
        inside = (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
        img[rows[inside], cols[inside]] = True
    return img


def test_rasterize_matches_primitive_loop_on_scenes():
    for seed in range(100):
        b = synth_scene(seed)
        got = rasterize_court_lines(b.camera, b.court, b.config.image_size).pixels
        assert np.array_equal(got, rasterize_primitive_loop(b.camera, b.court,
                                                            b.config.image_size)), seed


def scaled_court(court, s):
    """``court`` with every coordinate and length times ``s``."""
    def scale(p):
        if isinstance(p, LineSegment2D):
            return LineSegment2D(tuple(s * np.asarray(p.p0)), tuple(s * np.asarray(p.p1)))
        return Arc2D(tuple(s * np.asarray(p.center)), s * p.radius, p.angle_start,
                     p.angle_end)

    return CourtModel(tuple(map(scale, court.primitives)), s * court.length,
                      s * court.width)


def test_rasterize_matches_primitive_loop_partly_behind_camera():
    # standing on the court facing a baseline: the other half of the court,
    # and parts of the centre circle and of the long lines, lie behind
    eye = np.array([2.0, 1.7, 0.5])
    R = look_at_rotation(eye, np.array([14.0, 0.0, 0.0]))
    cam = Camera(900.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    for court in (make_court_model(), scaled_court(make_court_model(), 0.5)):
        got = rasterize_court_lines(cam, court, SIZE).pixels
        assert got.any()
        assert np.array_equal(got, rasterize_primitive_loop(cam, court, SIZE))
        coarse = lift_to_plane(np.concatenate([p.sample(0.1) for p in court.primitives]))
        z = project_with_depth(cam, coarse)[1]
        assert (z <= 1e-9).any() and (z > 1e-9).any()


def wide_camera(rng, size):
    """A camera from far wider ranges than synth's: anywhere from 0.3 to 40 m
    up, inside or around the court, aimed near it, with a focal length from
    fisheye-like to telephoto."""
    eye = np.array([rng.uniform(-30, 30), rng.uniform(0.3, 40), rng.uniform(-30, 30)])
    target = np.array([rng.uniform(-20, 20), rng.uniform(-1, 2), rng.uniform(-12, 12)])
    R = look_at_rotation(eye, target)
    return Camera(rng.uniform(150.0, 6000.0), size[0] / 2, size[1] / 2, R, -R @ eye)


def test_rasterize_matches_primitive_loop_on_wide_cameras():
    rng = np.random.default_rng(17)
    court = make_court_model()
    stamped = 0
    for k in range(200):
        size = SIZE if k % 4 else (640, 360)
        cam = wide_camera(rng, size)
        got = rasterize_court_lines(cam, court, size).pixels
        assert np.array_equal(got, rasterize_primitive_loop(cam, court, size)), k
        stamped += got.any()
    assert 50 < stamped < 200   # both seen and unseen courts among them


def only(prim, court):
    return CourtModel((prim,), court.length, court.width)


def test_rasterize_matches_primitive_loop_low_close_cameras():
    court = make_court_model()
    ft_circle = court.primitives[-1]
    centre = lift_to_plane(ft_circle.center)[0]
    # 0.4-1.5 m straight above the free-throw circle, the circle 700 px
    # across: it leaves the 1280 x 720 frame through every edge
    for height, up in [(0.4, (1.0, 0.0, 0.0)), (0.9, (1.0, 0.0, 0.5)),
                       (1.5, (-0.3, 0.0, 1.0))]:
        eye = centre + np.array([0.0, height, 0.0])
        R = look_at_rotation(eye, centre, up=up)
        f = 700.0 * height / ft_circle.radius
        cam = Camera(f, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
        got = rasterize_court_lines(cam, court, SIZE).pixels
        assert np.array_equal(got, rasterize_primitive_loop(cam, court, SIZE)), height
        arc = rasterize_primitive_loop(cam, only(ft_circle, court), SIZE)
        assert arc[0].any() and arc[-1].any() and arc[:, 0].any() and arc[:, -1].any()
    # eyes in the key at 0.3-1.7 m, aimed low across the circle and the lane
    for k, height in enumerate([0.3, 1.0, 1.7]):
        eye = centre + np.array([1.2, height, 0.4 * k - 0.4])
        R = look_at_rotation(eye, centre + np.array([-2.0, 0.0, 0.5 - 0.5 * k]))
        cam = Camera(250.0 + 150.0 * k, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
        got = rasterize_court_lines(cam, court, SIZE).pixels
        assert np.array_equal(got, rasterize_primitive_loop(cam, court, SIZE)), height


def test_rasterize_matches_primitive_loop_on_one_corner():
    court = make_court_model()
    corner = np.array([-court.length / 2, 0.0, -court.width / 2])
    eye = corner + np.array([-2.0, 3.0, -2.0])
    R = look_at_rotation(eye, corner)
    cam = Camera(6000.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    got = rasterize_court_lines(cam, court, SIZE).pixels
    assert np.array_equal(got, rasterize_primitive_loop(cam, court, SIZE))
    seen = [k for k, p in enumerate(court.primitives)
            if rasterize_primitive_loop(cam, only(p, court), SIZE).any()]
    assert seen == [0, 3]   # the baseline and the sideline through the corner


def test_rasterize_court_in_front_but_out_of_frame_is_empty():
    # aimed at the floor beyond a sideline: every court sample lies in front
    # of the camera and outside the frame, so every interval is dropped
    court = make_court_model()
    eye = np.array([0.0, 20.0, 30.0])
    R = look_at_rotation(eye, np.array([0.0, 0.0, 25.0]))
    cam = Camera(3000.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)
    z = project_with_depth(cam, court.sample_points3d(0.1))[1]
    assert (z > 1e-9).all()
    assert not rasterize_court_lines(cam, court, SIZE).pixels.any()
    assert not rasterize_primitive_loop(cam, court, SIZE).any()


def test_near_kept_adds_one_parameter_on_each_side():
    kept = np.array([False, True, False, False])
    # 13 fine parameters over 4 intervals: the second holds 3, 4, 5 and 6
    assert np.flatnonzero(_near_kept(kept, 13)).tolist() == [2, 3, 4, 5, 6, 7]
    # 11 over 4: the second holds 3, 4 and 5, the last at its end
    assert np.flatnonzero(_near_kept(kept, 11)).tolist() == [2, 3, 4, 5, 6]
    assert _near_kept(np.ones(1, bool), 2).all()
    assert not _near_kept(np.zeros(3, bool), 50).any()


def every_pixel_distance(mask):
    h, w = mask.pixels.shape
    dist = LineDistance(mask)
    d = dist(np.arange(h * w)).reshape(h, w)
    # the tree holds the line pixels' (row, col) in np.argwhere's order
    assert np.array_equal(dist.tree.data, np.argwhere(mask.pixels))
    return d


@pytest.mark.parametrize("seed,size", [(5000, (1280, 720)), (3023, (640, 360))])
def test_line_distance_equals_edt_on_scene_masks(seed, size):
    # the full-frame Euclidean distance transform is the oracle
    from courtpose.synth import SceneConfig, synth_scene
    mask = synth_scene(seed, SceneConfig(image_size=size)).line_mask
    assert mask.size == size
    assert np.array_equal(every_pixel_distance(mask),
                          distance_transform_edt(~mask.pixels))


def edge_masks():
    h, w = 23, 31
    one = np.zeros((h, w), bool)
    one[7, 19] = True
    borders = np.zeros((h, w), bool)
    borders[0, 5] = borders[h - 1, 11] = borders[13, 0] = borders[4, w - 1] = True
    row = np.zeros((h, w), bool)
    row[9] = True
    masks = {"single pixel": one, "four borders": borders, "full row": row}
    # line pixels on one border only, and in one corner only: windows there
    # reach past the frame on one or two sides
    for name, where in [("top row", np.s_[0, 3:]), ("bottom row", np.s_[h - 1, :-4]),
                        ("left column", np.s_[2:, 0]), ("right column", np.s_[:-5, w - 1]),
                        ("corner", np.s_[h - 1, w - 1])]:
        masks[name] = np.zeros((h, w), bool)
        masks[name][where] = True
    return masks


@pytest.mark.parametrize("name", sorted(edge_masks()))
def test_line_distance_equals_edt_on_edge_masks(name):
    mask = LineMask(edge_masks()[name])
    assert np.array_equal(every_pixel_distance(mask),
                          distance_transform_edt(~mask.pixels))


def test_line_distance_answers_repeats_from_the_memo():
    mask = LineMask(edge_masks()["four borders"])
    dist = LineDistance(mask)
    flat = np.array([40, 3, 40, 700, 3, 0])
    first = dist(flat)
    assert first[0] == first[2] and first[1] == first[4]
    dist.tree = None    # a second tree query would now fail
    assert np.array_equal(dist(flat[::-1]), first[::-1])
    assert np.array_equal(first, distance_transform_edt(~mask.pixels).ravel()[flat])


def counting_trees(monkeypatch):
    """Patch ``scipy.spatial.cKDTree``, which ``LineDistance.tree`` imports
    when it builds, to count the trees built."""
    built = []

    def tree(data):
        built.append(len(data))
        return cKDTree(data)

    monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
    return built


def test_line_distance_window_edge_and_tree_edge(monkeypatch):
    built = counting_trees(monkeypatch)
    pixels = np.zeros((20, 30), bool)
    pixels[10, 10] = True
    edt = distance_transform_edt(~pixels).ravel()
    dist = LineDistance(LineMask(pixels))
    # offsets (2, 2) and (-2, 1): the window's far corner and a knight's move
    window = np.array([12 * 30 + 12, 8 * 30 + 11, 10 * 30 + 10])
    assert np.array_equal(dist(window), edt[window])
    assert dist(window)[0] == np.sqrt(8.0)
    assert built == []
    # offsets (3, 0) and (0, -3): just outside the window, so the tree answers
    tree = np.array([13 * 30 + 10, 10 * 30 + 7])
    assert np.array_equal(dist(tree), [3.0, 3.0])
    assert np.array_equal(dist(tree), edt[tree])
    assert built == [1]


def test_line_distance_one_call_fills_no_memo():
    mask = LineMask(edge_masks()["full row"])
    dist = LineDistance(mask)
    near = np.array([9 * 31 + 4, 10 * 31 + 4, 11 * 31])
    first = dist(near)
    assert "memo" not in vars(dist) and "tree" not in vars(dist)
    assert np.array_equal(dist(near), first)
    assert np.array_equal(dist.memo[near], first)   # kept from the second call on


def test_refine_from_scene_starts_builds_no_tree(monkeypatch):
    # PnP from the scenes' exact correspondences lands on the lines: every
    # pixel the basin check reads has a line pixel in its 5x5 window
    built = counting_trees(monkeypatch)
    for seed in range(5000, 5008):
        b = synth_scene(seed)
        cam0, _ = solve_pnp_planar(b.correspondences, b.config.image_size)
        assert refine_camera_lines(cam0, b.line_mask, b.court).stop == "done", seed
    assert built == []


def test_refine_fixed_point_at_ground_truth():
    cam = broadcast_camera(5)
    court = make_court_model()
    mask = rasterize_court_lines(cam, court, SIZE)
    ref = refine_camera_lines(cam, mask, court)
    assert ref.final_cost <= ref.initial_cost
    assert abs(ref.camera.f - cam.f) < 1e-6
    assert np.abs(ref.camera.T - cam.T).max() < 1e-6
    assert np.abs(ref.camera.R - cam.R).max() < 1e-6


def test_refine_recovers_perturbed_camera():
    cam = broadcast_camera(6)
    court = make_court_model()
    mask = rasterize_court_lines(cam, court, SIZE)
    rng = np.random.default_rng(0)
    axis = rng.normal(size=3)
    axis *= np.deg2rad(2.0) / np.linalg.norm(axis)
    pert = Camera(cam.f, cam.px, cam.py, axis_angle_to_matrix(axis) @ cam.R,
                  cam.T + np.array([0.12, -0.1, 0.1]))
    ref = refine_camera_lines(pert, mask, court)
    assert ref.final_cost <= ref.initial_cost
    # mean reprojection error of court landmarks under the refined camera
    from courtpose.synth import court_landmark_reprojection
    err = court_landmark_reprojection(ref.camera, cam, court, SIZE)
    assert err < 0.5


# Noisy PnP starts from which the refinement locks onto the wrong line
# alignment. With every in-frame landmark in PnP there are none; a scene
# that misses again is a defect to list here, not a tolerance to widen.
WRONG_BASIN_SCENES = set()


def test_refine_from_noisy_pnp_starts():
    from courtpose.synth import court_landmark_reprojection, synth_scene
    missed = set()
    for seed in range(3020, 3040):
        b = synth_scene(seed)
        rng = np.random.default_rng(seed + 777)
        noisy = [(tuple(np.asarray(px, dtype=float) + rng.normal(0.0, 1.0, 2)), w)
                 for px, w in b.correspondences]
        init, _ = solve_pnp_planar(noisy, b.config.image_size)
        ref = refine_camera_lines(init, b.line_mask, b.court)
        assert ref.final_cost <= ref.initial_cost, seed
        err = court_landmark_reprojection(ref.camera, b.camera, b.court, b.config.image_size)
        if err >= 0.5:
            missed.add(seed)
    assert missed <= WRONG_BASIN_SCENES


def test_refine_rejects_empty_mask():
    cam = broadcast_camera(7)
    with pytest.raises(ValidationError):
        refine_camera_lines(cam, LineMask(np.zeros((720, 1280), bool)),
                            make_court_model())


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mask = LineMask(rng.random((40, 60)) > 0.8)
    path = tmp_path / "m.pgm"
    save_pgm(path, mask)
    back = load_pgm(path)
    assert np.array_equal(back.pixels, mask.pixels)


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValidationError):
        load_pgm(path)
