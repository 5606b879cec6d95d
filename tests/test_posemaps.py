import warnings

import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.model import Frame, Pose2D, Pose3D
from courtpose.posemaps import (CELL, MAP_RES, SIGMA, SUPPORT_EPS, HeatmapStack, JumpInfo,
                                LocationMapStack, decode_heatmaps, decode_location_maps,
                                encode_heatmaps, encode_location_maps,
                                load_heatmaps, load_location_maps,
                                save_heatmaps, save_location_maps)
from courtpose.synth import synth_scene

J = 35


def full_pose2d(pixels):
    return Pose2D(pixels, np.ones(len(pixels), dtype=bool))


def random_pose_pair(rng):
    pix = rng.uniform(0, 256, size=(J, 2))
    pos = rng.normal(scale=0.5, size=(J, 3))
    pos[0] = 0.0
    return full_pose2d(pix), Pose3D(pos)


def test_center_pixel_maps_to_center_cell():
    # pixel 128 is the edge between cells 31 and 32: the Gaussian's centre
    # sits there, the tie goes to the first cell, and it decodes exactly
    pix = np.full((J, 2), 128.0)
    heat = encode_heatmaps(full_pose2d(pix))
    for j in range(J):
        r, c = divmod(int(np.argmax(heat.values[j])), 64)
        assert (r, c) == (31, 31)
        assert heat.values[j, 31, 31] == heat.values[j, 32, 32]
    assert np.all(decode_heatmaps(heat).pixels == 128.0)


def test_invisible_joint_gives_zero_map():
    pix = np.full((J, 2), 100.0)
    vis = np.ones(J, dtype=bool)
    vis[5] = False
    heat = encode_heatmaps(Pose2D(pix, vis))
    assert heat.values[5].max() == 0.0
    dec = decode_heatmaps(heat)
    assert not dec.visibility[5]


def test_example_130_70_argmax_and_gaussian_values():
    pix = np.zeros((J, 2))
    pix[:] = (130.0, 70.0)
    heat = encode_heatmaps(full_pose2d(pix))
    r, c = divmod(int(np.argmax(heat.values[0])), 64)
    assert (c, r) == (32, 17)
    m = heat.values[0]
    assert m[17, 32] == 1.0
    # closed-form unnormalized Gaussian oracle around the peak cell
    for (rr, cc) in [(17, 33), (18, 32), (18, 33), (15, 30)]:
        d2 = (rr - 17) ** 2 + (cc - 32) ** 2
        assert m[rr, cc] == pytest.approx(np.exp(-d2 / 2.0), abs=1e-15)
    dec = decode_heatmaps(heat)
    assert tuple(dec.pixels[0]) == (130.0, 70.0)


def test_out_of_crop_visible_joint_clamped_and_flagged():
    pix = np.full((J, 2), 10.0)
    pix[3] = (300.0, -5.0)
    heat = encode_heatmaps(full_pose2d(pix))
    assert heat.clamped[3] and not heat.clamped[0]
    r, c = divmod(int(np.argmax(heat.values[3])), 64)
    assert (c, r) == (63, 0)


def test_round_trip_error_bounded_by_half_cell():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        p2, _ = random_pose_pair(rng)
        dec = decode_heatmaps(encode_heatmaps(p2))
        worst = max(worst, np.abs(dec.pixels - p2.pixels).max())
    assert worst <= 2.0


def test_round_trip_exact_on_random_and_edge_coordinates():
    # 4000 pixels: 2000 anywhere in the crop, 1000 in the first or last
    # cell of each axis, 1000 within half a pixel of either edge
    rng = np.random.default_rng(9)
    side = rng.random((2000, 2)) < 0.5
    edge_cells = np.where(side[:1000], rng.uniform(0, CELL, (1000, 2)),
                          rng.uniform(256 - CELL, 256, (1000, 2)))
    edges = np.where(side[1000:], rng.uniform(0, 0.5, (1000, 2)),
                     rng.uniform(255.5, 256, (1000, 2)))
    pix = np.vstack([rng.uniform(0, 256, (2000, 2)), edge_cells, edges])
    worst = 0.0
    for chunk in np.split(pix, 40):
        p2 = full_pose2d(chunk)
        assert p2.in_crop().all()
        worst = max(worst, np.abs(decode_heatmaps(encode_heatmaps(p2)).pixels - chunk).max())
    assert worst <= 1e-12


@pytest.mark.parametrize("res", [1, 2])
def test_heatmaps_need_three_cells_a_side(res):
    with pytest.raises(ValidationError, match="R >= 3"):
        HeatmapStack(np.ones((J, res, res)))


def test_location_maps_constant_fill_and_pelvis_zero():
    rng = np.random.default_rng(1)
    p2, p3 = random_pose_pair(rng)
    heat = encode_heatmaps(p2)
    loc = encode_location_maps(p3, heat)
    for j in (0, 7, 20):
        support = heat.values[j] > 0
        assert support.any()
        for k in range(3):
            vals = loc.values[j, k][support]
            assert np.all(vals == p3.positions[j, k])
        assert np.all(loc.values[j][:, ~support] == 0.0)
    assert np.all(loc.values[0] == 0.0)  # pelvis at the origin


def test_location_round_trip_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p2, p3 = random_pose_pair(rng)
        heat = encode_heatmaps(p2)
        loc = encode_location_maps(p3, heat)
        dec = decode_location_maps(loc, heat)
        assert np.abs(dec.positions - p3.positions).max() <= 1e-9


def test_zero_stacks_decode_to_invisible_and_origin():
    heat = HeatmapStack(np.zeros((J, 64, 64)))
    dec2 = decode_heatmaps(heat)
    assert not dec2.visibility.any()
    dec3 = decode_location_maps(LocationMapStack(np.zeros((J, 3, 64, 64))), heat)
    assert np.all(dec3.positions == 0.0)
    assert dec3.frame is Frame.ROOT_RELATIVE


def test_location_maps_require_root_relative():
    rng = np.random.default_rng(3)
    p2, p3 = random_pose_pair(rng)
    world = Pose3D(p3.positions + 1.0, frame=Frame.WORLD)
    with pytest.raises(ValidationError):
        encode_location_maps(world, encode_heatmaps(p2))


def test_jump_gating_strict_threshold():
    airborne = [JumpInfo.from_height(h).airborne for h in (0.05, 0.1, 0.15)]
    assert airborne == [False, False, True]


def test_binary_stack_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    p2, p3 = random_pose_pair(rng)
    heat = encode_heatmaps(p2)
    loc = encode_location_maps(p3, heat)
    hp = tmp_path / "h.bin"
    lp = tmp_path / "l.bin"
    save_heatmaps(hp, heat)
    save_location_maps(lp, loc)
    assert hp.stat().st_size == 8 + 35 * 64 * 64 * 4
    assert lp.stat().st_size == 8 + 35 * 3 * 64 * 64 * 4
    h2 = load_heatmaps(hp)
    l2 = load_location_maps(lp)
    assert np.abs(h2.values - heat.values).max() < 1e-6  # float32 storage
    # decoded poses survive the float32 round trip exactly at argmax cells
    d1 = decode_location_maps(loc, heat)
    d2 = decode_location_maps(l2, h2)
    assert np.abs(d1.positions - d2.positions).max() < 1e-6


def test_jump_height_validation():
    with pytest.raises(ValidationError):
        JumpInfo(True, -0.1)


# ---------------------------------------------------------------------------
# the per-joint loops the array codec replaced, kept as its oracle
# ---------------------------------------------------------------------------

def loop_encode_heatmaps(pose):
    maps = np.zeros((pose.num_joints, MAP_RES, MAP_RES))
    clamped = np.zeros(pose.num_joints, dtype=bool)
    grid = np.arange(MAP_RES, dtype=float)

    def gaussian(p):
        centre = min(max(p / CELL - 0.5, -0.5), MAP_RES - 0.5)
        return np.exp(-(grid - centre) ** 2 / (2.0 * SIGMA * SIGMA))

    for j in range(pose.num_joints):
        if not pose.visibility[j]:
            continue
        x, y = pose.pixels[j]
        if not (0 <= x < Pose2D.CROP_SIZE and 0 <= y < Pose2D.CROP_SIZE):
            clamped[j] = True
        g = gaussian(y)[:, None] * gaussian(x)[None, :]
        g[g < SUPPORT_EPS] = 0.0
        maps[j] = g
    return maps, clamped


def loop_encode_location_maps(pose3d, pose2d):
    heat, _ = loop_encode_heatmaps(pose2d)
    loc = np.zeros((pose3d.num_joints, 3, MAP_RES, MAP_RES))
    for j in range(pose3d.num_joints):
        support = heat[j] > 0.0
        for k in range(3):
            loc[j, k][support] = pose3d.positions[j, k]
    return loc


def loop_decode(heat, loc):
    """Each map's argmax cell (x, y), its visibility and its XYZ."""
    J, R = heat.shape[0], heat.shape[1]
    cells, vis, xyz = np.zeros((J, 2), dtype=int), np.zeros(J, dtype=bool), np.zeros((J, 3))
    for j in range(J):
        if heat[j].max() <= 0.0:
            continue
        cy, cx = divmod(int(np.argmax(heat[j])), R)
        cells[j] = (cx, cy)
        vis[j] = True
        xyz[j] = loc[j, :, cy, cx]
    return cells, vis, xyz


def assert_in_cells(pixels, cells, vis):
    """Visible joints decode inside their argmax cell, invisible ones to 0."""
    assert np.all(np.isfinite(pixels))
    assert np.all((CELL * cells[vis] <= pixels[vis]) & (pixels[vis] <= CELL * (cells[vis] + 1)))
    assert np.all(pixels[~vis] == 0.0)


def _oracle_cases():
    for seed in (5000, 1018):
        b = synth_scene(seed)
        yield f"scene{seed}", b.pose2d, b.pose_root
    rng = np.random.default_rng(7)
    for k in range(6):
        p2, p3 = random_pose_pair(rng)
        vis = rng.random(J) > 0.3
        pix = p2.pixels.copy()
        pix[rng.random(J) < 0.3] = rng.uniform(-80, 340, size=2)  # some clamp
        pix[~vis & (rng.random(J) < 0.5)] = np.nan  # invisible: no pixel
        pos = p3.positions.copy()
        pos[1] = -0.0  # a signed zero survives on the support
        yield f"random{k}", Pose2D(pix, vis), Pose3D(pos)


def test_array_codec_matches_loop_oracle_bytes():
    for name, p2, p3 in _oracle_cases():
        heat = encode_heatmaps(p2)
        loc = encode_location_maps(p3, heat)
        maps, clamped = loop_encode_heatmaps(p2)
        assert heat.values.tobytes() == maps.tobytes(), name
        assert heat.clamped.tobytes() == clamped.tobytes(), name
        assert loc.values.tobytes() == loop_encode_location_maps(p3, p2).tobytes(), name
        cells, vis, xyz = loop_decode(maps, loc.values)
        d2, d3 = decode_heatmaps(heat), decode_location_maps(loc, heat)
        assert_in_cells(d2.pixels, cells, vis)
        assert d2.visibility.tobytes() == vis.tobytes(), name
        # a joint outside the crop decodes to the crop's edge it was clamped to
        want = np.clip(p2.pixels[vis], 0, Pose2D.CROP_SIZE)
        assert np.abs(d2.pixels[vis] - want).max(initial=0.0) <= 1e-12, name
        assert d3.positions.tobytes() == xyz.tobytes(), name


def test_array_decode_matches_loop_oracle_on_ties():
    # maps with many equal maxima and some all-zero maps
    rng = np.random.default_rng(8)
    heat = rng.integers(0, 3, size=(J, 16, 16)) / 2.0
    heat[rng.random(J) < 0.3] = 0.0
    loc = rng.normal(size=(J, 3, 16, 16))
    loc[0] = 0.0  # the root-relative pelvis
    cells, vis, xyz = loop_decode(heat, loc)
    stack = HeatmapStack(heat)
    d2 = decode_heatmaps(stack)
    d3 = decode_location_maps(LocationMapStack(loc), stack)
    assert_in_cells(d2.pixels, cells, vis)
    assert d2.visibility.tobytes() == vis.tobytes()
    assert d3.positions.tobytes() == xyz.tobytes()


def test_visible_nan_pixel_rejected():
    pix = np.full((J, 2), 100.0)
    pix[4] = np.nan
    with pytest.raises(ValidationError):
        encode_heatmaps(full_pose2d(pix))


@pytest.mark.parametrize("bad", [(np.nan, 100.0), (100.0, np.inf), (-np.inf, np.nan)])
def test_visible_non_finite_pixel_names_the_joint(bad):
    pix = np.full((J, 2), 100.0)
    pix[7] = bad
    pix[3] = np.nan   # invisible: allowed
    vis = np.ones(J, dtype=bool)
    vis[3] = False
    with pytest.raises(ValidationError, match="joint 7 is visible"):
        encode_heatmaps(Pose2D(pix, vis))


def test_invisible_nan_pixels_encode_to_zero_maps_without_warnings():
    pix = np.full((J, 2), 100.0)
    vis = np.ones(J, dtype=bool)
    pix[[2, 9]] = np.nan
    pix[11] = (np.inf, -np.inf)
    vis[[2, 9, 11]] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heat = encode_heatmaps(Pose2D(pix, vis))
    assert not heat.values[[2, 9, 11]].any()
    # pixel 100 is a cell edge: the peak cells sit half a cell off the centre
    assert heat.values[[0, 5]].max() == np.exp(-0.125) * np.exp(-0.125)
    assert not heat.clamped.any()
    assert heat.values.tobytes() == loop_encode_heatmaps(Pose2D(pix, vis))[0].tobytes()

