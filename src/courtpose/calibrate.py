"""Camera estimation against the court: planar PnP from point
correspondences, court-line rasterization, and line-based refinement.

The refinement objective is a chamfer-style cost (Borgefors, PAMI 1988): the
exact Euclidean distance from a pixel to the nearest line pixel of the
observed mask, bilinearly interpolated at the projections of densely sampled
court primitives. Only the pixels the solve reads are ever computed: each from
its 5x5 window when that holds a line pixel, otherwise from a k-d tree over
the line pixels that is built on the first such pixel. The reported cost uses
a hinged kernel ``max(d - 1, 0)``, so a camera whose projections land within
one pixel of the observed lines sits in an exact zero-cost basin; such a start
(a ground-truth camera, or PnP from exact correspondences) is returned as it
is, which absorbs rasterization quantization. Any other start gets one
Levenberg-Marquardt solve on the raw (unhinged) mean distance, which pulls the
projections onto the line centres.

``scipy.spatial`` is imported in ``LineDistance.tree``, on the first pixel
with an empty window, so a refinement that never needs the tree, and every
process that only imports this module, loads none of it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .camera import Camera, project_with_depth
from .court import Arc2D, CourtModel, lift_to_plane
from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .lsq import MAX_REJECTS, lm_solve
from .transforms import axis_angle_to_matrix, cross, nearest_rotation

HINGE_PX = 1.0
REFINE_MAX_ITERS = 100
REFINE_TOL = 1e-8  # absolute tolerance of the refinement solve
SAMPLE_SPACING_M = 0.15  # arc spacing of the court samples


@dataclass(frozen=True)
class LineMask:
    """Binary image marking court-line pixels; shape (H, W)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=bool))
        if self.pixels.ndim != 2:
            raise ValidationError("line mask must be a 2D image")

    @property
    def size(self):
        h, w = self.pixels.shape
        return (w, h)


def save_pgm(path, mask: LineMask) -> None:
    h, w = mask.pixels.shape
    data = np.where(mask.pixels, 255, 0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def load_pgm(path) -> LineMask:
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().strip()
            if magic != b"P5":
                raise ValidationError(f"{path}: not a binary PGM (P5) file")
            fields = []
            while len(fields) < 3:
                line = fh.readline()
                if not line:
                    raise ValidationError(f"{path}: truncated PGM header")
                if line.startswith(b"#"):
                    continue
                fields += line.split()
            try:
                w, h, maxval = (int(x) for x in fields[:3])
            except ValueError as e:
                raise ValidationError(f"{path}: bad PGM header field: {e}") from e
            if w < 1 or h < 1 or not 1 <= maxval <= 255:
                raise ValidationError(f"{path}: expected an 8-bit PGM of at least 1x1 "
                                      f"(maxval 1-255), got {w}x{h}, maxval {maxval}")
            data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    except OSError as e:
        raise ValidationError(f"cannot read PGM file {path}: {e}") from e
    if data.size != w * h:
        raise ValidationError(f"{path}: truncated PGM data")
    return LineMask(data.reshape(h, w) > maxval // 2)


# ---------------------------------------------------------------------------
# Planar PnP
# ---------------------------------------------------------------------------

def _normalization(pts: np.ndarray) -> np.ndarray:
    """Hartley similarity: centroid to origin, RMS distance sqrt(2)."""
    c = pts.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((pts - c) ** 2, axis=1)))
    s = np.sqrt(2.0) / max(rms, 1e-12)
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])


def _homography_dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    Ts, Td = _normalization(src), _normalization(dst)
    sh = np.column_stack([src, np.ones(len(src))]) @ Ts.T
    dh = np.column_stack([dst, np.ones(len(dst))]) @ Td.T
    rows = []
    for (u, v, _), (x, y, _) in zip(sh, dh):
        rows.append([-u, -v, -1, 0, 0, 0, x * u, x * v, x])
        rows.append([0, 0, 0, -u, -v, -1, y * u, y * v, y])
    A = np.asarray(rows, dtype=float)
    _, s, Vt = np.linalg.svd(A)
    if s[7] < 1e-9 * max(s[0], 1.0):
        raise DegenerateGeometryError(
            "homography system is rank deficient (collinear or repeated points)")
    H = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ H @ Ts
    return H / H[2, 2]


def solve_pnp_planar(correspondences, image_size, focal: float | None = None):
    """Camera from >= 4 (pixel, court-point) pairs, court points on y = 0.

    The principal point is fixed at the image center; the focal length is
    recovered from the plane-to-image homography's orthogonality constraints
    (pass ``focal`` to pin it instead - required for fronto-parallel views
    where f is unobservable). Returns (Camera, rms reprojection error in px).
    Non-finite correspondences, or a ``focal`` that is not finite and > 0,
    are a ValidationError.
    """
    pix = np.asarray([c[0] for c in correspondences], dtype=float).reshape(-1, 2)
    wrd = np.asarray([c[1] for c in correspondences], dtype=float)
    if len(pix) < 4:
        raise ValidationError("planar PnP needs at least 4 correspondences")
    if not (np.all(np.isfinite(pix)) and np.all(np.isfinite(wrd))):
        raise ValidationError("planar PnP needs finite correspondences")
    if focal is not None and not (np.isfinite(focal) and focal > 0):
        raise ValidationError(f"focal length must be finite and > 0, got {focal!r}")
    if wrd.shape[1] == 3:
        if np.abs(wrd[:, 1]).max() > 1e-9:
            raise ValidationError("court points must lie on the y=0 plane")
        uv = wrd[:, [0, 2]]
    elif wrd.shape[1] == 2:
        uv = wrd
    else:
        raise ValidationError("court points must be 2D (u,v) or 3D on y=0")
    spread = uv - uv.mean(axis=0)
    if np.linalg.matrix_rank(spread, tol=1e-9 * max(1.0, np.abs(spread).max())) < 2:
        raise DegenerateGeometryError("court points are collinear")

    W, H = image_size
    px, py = W / 2.0, H / 2.0
    Hm = _homography_dlt(uv, pix)
    Hc = np.array([[1.0, 0.0, -px], [0.0, 1.0, -py], [0.0, 0.0, 1.0]]) @ Hm
    h1, h2 = Hc[:, 0], Hc[:, 1]

    if focal is None:
        # both constraints are linear in a = 1/f^2
        c1 = h1[0] * h2[0] + h1[1] * h2[1]
        d1 = h1[2] * h2[2]
        c2 = h1[0] ** 2 + h1[1] ** 2 - h2[0] ** 2 - h2[1] ** 2
        d2 = h1[2] ** 2 - h2[2] ** 2
        scale = max(np.abs(Hc[:2, :2]).max(), 1e-12) ** 2
        denom = c1 * c1 + c2 * c2
        if denom < (1e-8 * scale) ** 2:
            raise DegenerateGeometryError(
                "focal length unobservable from this view (fronto-parallel plane); "
                "pass a known focal length")
        a = -(c1 * d1 + c2 * d2) / denom
        if a <= 0:
            raise NumericalError("focal solution non-positive")
        focal = 1.0 / np.sqrt(a)

    Kinv = np.diag([1.0 / focal, 1.0 / focal, 1.0])
    a1, a2, a3 = Kinv @ h1, Kinv @ h2, Kinv @ Hc[:, 2]
    lam = 2.0 / (np.linalg.norm(a1) + np.linalg.norm(a2))
    r1, r3, t = lam * a1, lam * a2, lam * a3
    # court must sit in front of the camera
    z0 = r1 * uv[0, 0] + r3 * uv[0, 1] + t
    if z0[2] < 0:
        r1, r3, t = -r1, -r3, -t
    r2 = cross(r3, r1)
    R = nearest_rotation(np.column_stack([r1, r2, r3]))
    cam = Camera(float(focal), px, py, R, t)

    world3 = lift_to_plane(uv)
    uvp, z = project_with_depth(cam, world3)
    if np.any(z <= 0):
        raise NumericalError("recovered camera places correspondences behind it")
    rms = float(np.sqrt(np.mean(np.sum((uvp - pix) ** 2, axis=1))))
    return cam, rms


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def rasterize_court_lines(camera: Camera, court: CourtModel, size) -> LineMask:
    """Project court primitives and stamp 1-px dots at <= 0.5 px arc spacing.

    Each primitive's fine spacing comes from the projected length of its
    visible 0.1 m samples. Only the fine samples that can reach the frame are
    evaluated: the interval between two consecutive 0.1 m samples is dropped
    when its hull (the two samples, plus the tangent apex on an arc) lies in
    front of the camera and more than 1 px beyond one frame edge (the outcode
    test of Cohen-Sutherland clipping). The curve stays inside its hull, so a
    dropped fine sample would have rounded to a pixel outside the frame. The
    remaining samples behind the camera or outside the frame are culled.
    """
    W, H = size
    img = np.zeros((H, W), dtype=bool)
    coarse, start, world_len, apex = _coarse_samples(court)
    uv, z = project_with_depth(camera, coarse)
    ok = z > 1e-9
    # projected arc length over visible stretches decides the density;
    # primitive k owns rows start[k]:start[k + 1] and the steps between them
    seg_ok = ok[1:] & ok[:-1]
    step = np.linalg.norm(np.diff(uv, axis=0), axis=1)
    uv_apex, z_apex = project_with_depth(camera, apex)
    hull = np.stack([uv[:-1], uv_apex, uv[1:]])
    beyond = ((hull.max(axis=0) < -1.0).any(axis=1)
              | (hull.min(axis=0) > (W, H)).any(axis=1))
    kept = ~(beyond & seg_ok & (z_apex > 1e-9))
    fine = []
    for k, prim in enumerate(court.primitives):
        lo, hi = start[k], start[k + 1]
        if not np.any(ok[lo:hi]) or not np.any(kept[lo:hi - 1]):
            continue
        px_len = float(np.sum(step[lo:hi - 1][seg_ok[lo:hi - 1]]))
        n = int(np.clip(np.ceil(px_len / 0.5) + 1, hi - lo, 200000))
        spacing = max(world_len[k] / max(n - 1, 1), 1e-6)
        params = prim.params(spacing)
        if not np.all(kept[lo:hi - 1]):
            params = params[_near_kept(kept[lo:hi - 1], len(params))]
        fine.append(prim.points(params))
    if fine:
        uv, z = project_with_depth(camera, lift_to_plane(np.concatenate(fine)))
        uv = uv[z > 1e-9]
        cols = np.round(uv[:, 0]).astype(int)
        rows = np.round(uv[:, 1]).astype(int)
        inside = (cols >= 0) & (cols < W) & (rows >= 0) & (rows < H)
        img[rows[inside], cols[inside]] = True
    return LineMask(img)


def _near_kept(kept: np.ndarray, count: int) -> np.ndarray:
    """Which of ``count`` evenly spaced fine parameters fall in a kept one of
    the ``len(kept)`` closed coarse intervals over the same range, plus one
    parameter on each side of every kept run."""
    m = len(kept)
    at = np.arange(count) * m   # over count - 1: the position in intervals
    fine = (kept[np.minimum(at // (count - 1), m - 1)]
            | kept[np.maximum(-(-at // (count - 1)) - 1, 0)])
    near = fine.copy()
    near[1:] |= fine[:-1]
    near[:-1] |= fine[1:]
    return near


@functools.lru_cache(maxsize=8)
def _coarse_samples(court: CourtModel):
    """The primitives' 0.1 m samples on the plane, stacked (K, 3); the row
    where each primitive's samples start, with K appended; each primitive's
    length along its samples; and, for each pair of consecutive rows (K - 1,
    3), the third point of the pair's hull. On an arc that is where the
    tangents at the two samples meet; a segment repeats its first sample, and
    an arc step too wide for a tight apex (or a pair that spans two
    primitives) gets NaN, which no cull accepts. Read-only: the cache shares
    them."""
    coarse, apex = [], []
    for p in court.primitives:
        params = p.params(0.1)
        coarse.append(lift_to_plane(p.points(params)))
        if isinstance(p, Arc2D):
            half = np.diff(params) / 2.0
            mid = params[:-1] + half
            reach = np.where(np.abs(half) < np.pi / 4, p.radius / np.cos(half), np.nan)
            tip = p.center + reach[:, None] * np.stack([np.cos(mid), np.sin(mid)], axis=1)
        else:
            tip = coarse[-1][:-1, [0, 2]]
        apex += [tip, np.full((1, 2), np.nan)]
    stacked = np.concatenate(coarse)
    start = np.cumsum([0] + [len(c) for c in coarse])
    world_len = np.array([np.sum(np.linalg.norm(np.diff(c, axis=0), axis=1))
                          for c in coarse])
    apex = lift_to_plane(np.concatenate(apex)[:-1])
    for a in (stacked, start, world_len, apex):
        a.setflags(write=False)
    return stacked, start, world_len, apex


@functools.lru_cache(maxsize=8)
def _court_samples(court: CourtModel) -> np.ndarray:
    """``court.sample_points3d(SAMPLE_SPACING_M)``, read-only: the cache shares it."""
    world = court.sample_points3d(SAMPLE_SPACING_M)
    world.setflags(write=False)
    return world


# ---------------------------------------------------------------------------
# Line-based refinement
# ---------------------------------------------------------------------------

# the 5x5 window's offsets, grouped by squared length, nearest ring first
_RINGS = [(sq, np.array([(dr, dc) for dr in range(-2, 3) for dc in range(-2, 3)
                         if dr * dr + dc * dc == sq]))
          for sq in (0, 1, 2, 4, 5, 8)]


class LineDistance:
    """Exact distance from a pixel to the nearest line pixel of ``mask``.

    Call it with flat pixel indices (``row * W + col``). A pixel is answered
    from its 5x5 window, nearest ring first: every window pixel lies within
    sqrt(8) of it and every other pixel at least 3 away, so a line pixel in
    the window is the nearest one. Pixels with an empty window go to a
    ``cKDTree`` over the line pixels' (row, col), built on the first of them.
    A per-pixel memo (NaN: not asked yet) keeps the tree's answers, and every
    answer from the second call on, so a single call, such as the cost of a
    start already on the lines, fills no full-frame memo unless the tree
    runs. Both paths take the square root of an integer sum of squares, so
    the values equal the full-frame Euclidean distance transform exactly.
    """

    def __init__(self, mask: LineMask):
        if not mask.pixels.any():
            raise ValidationError("line mask is empty: no signal to refine against")
        self.pixels = mask.pixels
        self.width = mask.pixels.shape[1]
        # two blank pixels around the frame: every window reads inside it
        self._padded = np.pad(mask.pixels, 2).ravel()
        self._offsets = [(np.sqrt(float(sq)), off[:, 0] * (self.width + 4) + off[:, 1])
                         for sq, off in _RINGS]
        self._asked = False

    @functools.cached_property
    def tree(self):
        from scipy.spatial import cKDTree
        # the (row, col) pairs of np.argwhere, in its order, without its
        # full-frame index arrays
        rows, cols = np.divmod(np.flatnonzero(self.pixels), self.width)
        return cKDTree(np.column_stack([rows, cols]))

    @functools.cached_property
    def memo(self) -> np.ndarray:
        return np.full(self.pixels.size, np.nan)

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        if not self._asked:
            self._asked = True
            return self._answer(flat)
        d = self.memo[flat]
        miss = np.isnan(d)
        if miss.any():
            new = np.unique(flat[miss])
            self.memo[new] = self._answer(new)
            d[miss] = self.memo[flat[miss]]
        return d

    def _answer(self, flat: np.ndarray) -> np.ndarray:
        rows, cols = np.divmod(flat, self.width)
        at = (rows + 2) * (self.width + 4) + cols + 2
        d = np.empty(len(flat))
        todo = np.arange(len(flat))
        for dist, off in self._offsets:
            hit = self._padded[at[:, None] + off].any(axis=1)
            d[todo[hit]] = dist
            todo, at = todo[~hit], at[~hit]
            if not len(todo):
                return d
        # at least 3 px from every line pixel: the tree answers, the memo keeps it
        far = flat[todo]
        self.memo[far] = self.tree.query(np.column_stack(np.divmod(far, self.width)))[0]
        d[todo] = self.memo[far]
        return d


@dataclass(frozen=True)
class RefineResult:
    camera: Camera
    initial_cost: float
    final_cost: float
    iterations: int
    # "done" when the start already sits in the hinged zero-cost basin (no
    # solve runs); otherwise the ``lsq.LMRecord.stop`` of the one solve
    stop: str


def refine_camera_lines(init: Camera, mask: LineMask, court: CourtModel) -> RefineResult:
    """Refine ``init`` against the line mask over (axis-angle rotation, T, f).

    The cost at a projected court sample is the bilinear interpolation of the
    exact distance to the nearest line pixel at its four neighbouring pixels,
    answered lazily by a ``LineDistance``. A start whose hinged cost is
    already 0 is returned as it is, stop "done". Otherwise one
    ``lsq.lm_solve`` minimizes the raw mean distance at the projected court
    samples, to convergence (``REFINE_TOL`` is its absolute tolerance).
    Reported costs are hinged; if the solve ends above the start's, the start
    camera is kept. Raises NumericalError when the solve stalls.
    """
    dist = LineDistance(mask)
    world = _court_samples(court)
    H, W = mask.pixels.shape

    def camera_at(p):
        Rp = axis_angle_to_matrix(p[0:3]) @ init.R
        return Camera(max(p[6], 1e-3), init.px, init.py, Rp, p[3:6])

    def residuals(p, hinge=HINGE_PX):
        """Square roots of the hinged distance per court sample, so that the
        Gauss-Newton objective sum(r^2) IS the reported cost (x count).
        Samples behind the camera or outside the frame carry no signal and
        contribute zero (excluded from the mean via the visibility mask)."""
        cam = camera_at(p)
        uv, z = project_with_depth(cam, world)
        vis = (z > 1e-6) & (uv[:, 0] >= 0) & (uv[:, 0] <= W - 1.001) \
            & (uv[:, 1] >= 0) & (uv[:, 1] <= H - 1.001)
        r = np.zeros(len(world))
        if np.any(vis):
            x, y = uv[vis, 0], uv[vis, 1]
            x0 = x.astype(int)
            y0 = y.astype(int)
            fx, fy = x - x0, y - y0
            i = y0 * W + x0
            d00, d01, d10, d11 = dist(np.concatenate([i, i + 1, i + W, i + W + 1])
                                      ).reshape(4, -1)
            v = (d00 * (1 - fx) * (1 - fy) + d01 * fx * (1 - fy)
                 + d10 * (1 - fx) * fy + d11 * fx * fy)
            r[vis] = np.sqrt(np.maximum(v - hinge, 0.0))
        return r, vis

    def cost(p, hinge=HINGE_PX):
        r, vis = residuals(p, hinge)
        n = int(vis.sum())
        if n == 0:
            raise NumericalError("no court sample projects into the frame")
        return float((r ** 2).sum() / n)

    steps = np.array([1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4, 1e-2])

    def residual_jacobian(p):
        """Raw (unhinged) residuals and their central-difference Jacobian."""
        r, vis0 = residuals(p, hinge=0.0)
        J = np.empty((len(r), len(p)))
        for k in range(len(p)):
            dp = np.zeros(len(p))
            dp[k] = steps[k]
            rp, vp = residuals(p + dp, 0.0)
            rm, vm = residuals(p - dp, 0.0)
            col = (rp - rm) / (2 * steps[k])
            # samples whose frame visibility flips across the stencil would
            # produce huge bogus derivatives: drop them from the Jacobian
            col[~(vp & vm & vis0)] = 0.0
            J[:, k] = col
        return r, J

    p = np.concatenate([np.zeros(3), init.T, [init.f]])
    initial_cost = cost(p)
    if initial_cost <= 0.0:
        return RefineResult(init, initial_cost, initial_cost, 1, "done")
    p, rec = lm_solve(residual_jacobian, lambda q: cost(q, hinge=0.0), p, lam=1e-3,
                      lam_min=1e-10, tries=12, max_iters=REFINE_MAX_ITERS, tol=REFINE_TOL)
    if rec.stop == "stalled":
        raise NumericalError("refinement diverged: cost increased for "
                             f"{MAX_REJECTS} consecutive damped steps")
    final_cost = cost(p)
    if final_cost > initial_cost:
        # the raw pull failed to help under the reported metric: keep the init
        return RefineResult(init, initial_cost, initial_cost, rec.iterations, rec.stop)
    return RefineResult(camera_at(p), initial_cost, final_cost, rec.iterations, rec.stop)
