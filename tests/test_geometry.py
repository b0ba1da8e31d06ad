"""Homography composition, point/image/box warping."""

import tracemalloc

import numpy as np
import pytest

from evframe import (
    CameraRig,
    DomainError,
    Homography,
    ImagePNM,
    ShapeError,
    ValidationError,
    compose_homography,
    decode_image,
    encode_image,
    warp_bbox,
    warp_boxes,
    warp_image,
    warp_points,
)
from evframe import geometry_align
from conftest import gray_image, philox, rgb_image, rot_z, small_rig


def identity_rig() -> CameraRig:
    eye = np.eye(3)
    return CameraRig(k_rgb=eye, k_event=eye, r_rgb=eye, r_event=eye, r_event_rgb=eye)


def translation(tx: float, ty: float) -> Homography:
    return Homography(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]]))


# -- composition -----------------------------------------------------------------


def test_identity_rig_composes_to_identity():
    hom = compose_homography(identity_rig())
    assert np.allclose(hom.matrix, np.eye(3), atol=1e-15)


def test_pure_intrinsic_scaling_rig():
    # equal principal points at 0, K_event = 2 K_rgb, identity rotations:
    # the map collapses to a pure scale by 2
    eye = np.eye(3)
    k_rgb = np.diag([100.0, 100.0, 1.0])
    rig = CameraRig(k_rgb=k_rgb, k_event=2 * k_rgb @ np.diag([1, 1, 0.5]),
                    r_rgb=eye, r_event=eye, r_event_rgb=eye)
    hom = compose_homography(rig)
    assert np.allclose(hom.matrix, np.diag([2.0, 2.0, 1.0]), atol=1e-12)


def test_composition_order_puts_event_rotation_transposed_on_the_right():
    rig = small_rig()
    expected = (
        rig.k_event @ rig.r_rgb @ rig.r_event_rgb @ rig.r_event.T
        @ np.linalg.inv(rig.k_rgb)
    )
    assert np.allclose(compose_homography(rig).matrix, expected, atol=1e-12)


def test_singular_matrix_is_rejected():
    with pytest.raises(ValidationError):
        Homography(np.zeros((3, 3)))


def test_rig_whose_product_overflows_is_refused_without_a_warning():
    # every matrix is finite and valid, but K_event K_rgb^-1 reaches 1e310;
    # RuntimeWarnings are errors here
    eye = np.eye(3)
    rig = CameraRig(k_rgb=np.diag([1e-3, 1e-3, 1.0]), k_event=np.diag([1e307, 1e307, 1.0]),
                    r_rgb=eye, r_event=eye, r_event_rgb=eye)
    with pytest.raises(ValidationError, match=r"^rig product K_event R_rgb R_event_rgb R_event\^T K_rgb\^-1 overflows float64$"):
        compose_homography(rig)


def test_homography_whose_determinant_overflows_is_accepted_without_a_warning():
    # det = 1e600 is beyond float64 but not singular; RuntimeWarnings are errors here
    m = np.diag([1e300, 1e300, 1.0])
    assert Homography(m).matrix.tobytes() == m.tobytes()


RIG_MATRICES = ("k_rgb", "k_event", "r_rgb", "r_event", "r_event_rgb")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", RIG_MATRICES)
def test_rig_refuses_a_non_finite_matrix_before_its_other_checks(name, value):
    # a NaN diagonal entry passes the positivity and orthonormality comparisons,
    # and an infinite one would make R^T R warn
    rig = small_rig()
    mats = {m: getattr(rig, m).copy() for m in RIG_MATRICES}
    mats[name][0, 0] = value
    with pytest.raises(ValidationError, match=f"^{name} has a non-finite entry$"):
        CameraRig(**mats)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_homography_refuses_a_non_finite_matrix(value):
    with pytest.raises(ValidationError, match="^homography has a non-finite entry$"):
        Homography(np.full((3, 3), value))


def test_homography_must_be_3x3():
    with pytest.raises(ShapeError):
        Homography(np.eye(4))


# -- point warping ---------------------------------------------------------------


def oracle_warp_point(h: Homography, point) -> tuple:
    """Map one (u, v) through the homography and dehomogenize."""
    x = h.matrix @ np.array([float(point[0]), float(point[1]), 1.0])
    return (x[0] / x[2], x[1] / x[2])


def test_identity_maps_points_to_themselves():
    hom = Homography(np.eye(3))
    assert warp_points(hom, [(10.0, 20.0)]).tolist() == [[10.0, 20.0]]


def test_translation_moves_points():
    hom = translation(3.0, -2.0)
    assert warp_points(hom, [(1.0, 1.0)])[0] == pytest.approx((4.0, -1.0))


def test_batch_warp_matches_single_point_warp():
    rng = philox(30)
    hom = compose_homography(small_rig())
    pts = rng.uniform(0, 64, size=(50, 2))
    batch = warp_points(hom, pts)
    for i in range(len(pts)):
        assert batch[i] == pytest.approx(oracle_warp_point(hom, pts[i]), abs=1e-12)


def test_point_mapping_to_infinity_is_a_domain_error():
    hom = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 1.0]]))
    with pytest.raises(DomainError, match="maps to infinity"):
        warp_points(hom, [(5.0, 5.0), (0.0, 1.0)])  # w' = 1 - 1 = 0 for the second


def test_warp_then_inverse_recovers_points():
    rng = philox(31)
    hom = compose_homography(small_rig())
    pts = rng.uniform(0, 64, size=(200, 2))
    back = warp_points(hom.inverse(), warp_points(hom, pts))
    assert np.abs(back - pts).max() < 1e-9


# -- image warping ----------------------------------------------------------------


def test_identity_image_warp_is_byte_lossless():
    rng = philox(32)
    img = rgb_image(rng, 17, 13)
    out = warp_image(Homography(np.eye(3)), img, 17, 13)
    assert encode_image(out) == encode_image(img)


def test_integer_translation_shifts_pixels():
    rng = philox(33)
    img = rgb_image(rng, 10, 8)
    # output(u,v) samples source at H^-1 (u,v): forward translation by +2 right
    out = warp_image(translation(2.0, 0.0), img, 10, 8)
    assert np.array_equal(out.pixels[:, 2:, :], img.pixels[:, :-2, :])
    assert not out.pixels[:, :2, :].any()  # zero fill outside


def test_nearest_mode_preserves_binary_masks():
    mask = np.zeros((9, 9, 1), np.uint8)
    mask[2:5, 3:7] = 255
    img = ImagePNM(width=9, height=9, channels=1, pixels=mask)
    rot = Homography(np.array([[0.97, -0.05, 1.0], [0.05, 0.97, -0.5], [0, 0, 1.0]]))
    out = warp_image(rot, img, 9, 9, interpolation="nearest")
    assert set(np.unique(out.pixels)) <= {0, 255}


def test_unknown_interpolation_is_rejected(rng):
    img = rgb_image(rng, 4, 4)
    with pytest.raises(DomainError):
        warp_image(Homography(np.eye(3)), img, 4, 4, interpolation="bicubic")


def test_warp_image_rejects_non_positive_output_dims(rng):
    img = rgb_image(rng, 4, 4)
    with pytest.raises(DomainError):
        warp_image(Homography(np.eye(3)), img, 0, 4)


def test_warp_image_refuses_a_warp_over_its_memory_budget(rng):
    img = rgb_image(rng, 20, 15)
    # ~11 GiB of sampling grid alone: refused before anything is allocated
    with pytest.raises(DomainError) as exc:
        warp_image(Homography(np.eye(3)), img, 100_000_000, 15)
    assert str(exc.value) == (
        "a 100000000x15 warp needs 312000000000 bytes, over the 1073741824-byte budget"
    )


def test_warp_image_budget_is_the_module_constant(rng, monkeypatch):
    img = rgb_image(rng, 10, 8)
    # 8 bytes x (20 sampling values + 2 x 3 channels) for each of the 80 pixels
    monkeypatch.setattr(geometry_align, "MAX_BYTES", 80 * 8 * 26)
    assert warp_image(Homography(np.eye(3)), img, 10, 8).pixels.shape == (8, 10, 3)
    with pytest.raises(DomainError, match="^a 11x8 warp needs 18304 bytes, over the 16640-byte budget$"):
        warp_image(Homography(np.eye(3)), img, 11, 8)


def test_warp_image_accepts_a_nonsingular_homography_with_a_tiny_inverse(rng):
    # det 1e14; the inverse's det is 1e-14, under the tolerance a Homography
    # is built with, so the warp must not wrap the inverse in one
    img = rgb_image(rng, 6, 5)
    out = warp_image(Homography(np.diag([1e7, 1e7, 1.0])), img, 6, 5)
    # every output pixel samples within 1e-6 px of the source's (0, 0)
    assert (out.pixels == img.pixels[0, 0]).all()


@pytest.mark.parametrize("out_w, out_h", [(10.5, 3), (3, 2.0), ("4", 4), (None, 4), (1e12, 5)])
def test_warp_image_refuses_non_integer_output_dims(rng, out_w, out_h):
    img = rgb_image(rng, 4, 4)
    with pytest.raises(DomainError) as exc:
        warp_image(Homography(np.eye(3)), img, out_w, out_h)
    name, value = ("out_h", out_h) if type(out_w) is int else ("out_w", out_w)
    assert str(exc.value) == f"{name} must be an int >= 1, got {value!r}"


def test_warp_image_takes_numpy_integer_dims(rng):
    img = rgb_image(rng, 4, 4)
    out = warp_image(Homography(np.eye(3)), img, np.int64(4), np.uint8(4))
    assert (out.width, out.height) == (4, 4) and encode_image(out) == encode_image(img)


def oracle_warp_image(h, src, out_w, out_h, interpolation="bilinear"):
    """The float64-copy reference: a bounds test per tap, and each tap's
    in-bounds terms compressed out and scattered into a float64 sum."""
    hinv = h.inverse().matrix
    us, vs = np.meshgrid(np.arange(out_w), np.arange(out_h))
    coords = np.stack([us.ravel(), vs.ravel(), np.ones(us.size)], axis=0).astype(np.float64)
    mapped = hinv @ coords
    w_col = mapped[2]
    finite = np.abs(w_col) > geometry_align.SINGULARITY_TOL
    safe_w = np.where(finite, w_col, 1.0)
    sx = mapped[0] / safe_w
    sy = mapped[1] / safe_w
    src_px = src.pixels.astype(np.float64)
    sh, sw = src.height, src.width
    out = np.zeros((out_h * out_w, src.channels), dtype=np.float64)
    if interpolation == "nearest":
        xr = np.rint(sx).astype(np.int64)
        yr = np.rint(sy).astype(np.int64)
        ok = finite & (xr >= 0) & (xr < sw) & (yr >= 0) & (yr < sh)
        out[ok] = src_px[yr[ok], xr[ok]]
    else:
        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        fx = sx - x0
        fy = sy - y0
        for dy in (0, 1):
            wy = (1.0 - fy) if dy == 0 else fy
            yt = y0 + dy
            for dx in (0, 1):
                wx = (1.0 - fx) if dx == 0 else fx
                xt = x0 + dx
                ok = finite & (xt >= 0) & (xt < sw) & (yt >= 0) & (yt < sh)
                if np.any(ok):
                    out[ok] += (wy[ok] * wx[ok])[:, None] * src_px[yt[ok], xt[ok]]
    pixels = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return pixels.reshape(out_h, out_w, src.channels)


def test_warp_image_equals_the_oracle_byte_for_byte():
    rng = philox(34)
    homs = list(seeded_homographies(rng, 40))
    for _ in range(20):
        # the inverse's third row [0, 1, -5] maps output row v = 5 to infinity
        hinv = np.vstack([np.eye(3)[:2] + rng.normal(0.0, [[0.1, 0.1, 5.0]] * 2), [0.0, 1.0, -5.0]])
        homs.append(Homography(np.linalg.inv(hinv)))
    for k, hom in enumerate(homs):
        channels = 1 + 2 * (k % 2)
        sw, sh, out_w, out_h = (1, 1, 9, 7) if k % 5 == 0 else rng.integers(1, 40, size=4).tolist()
        img = (gray_image, rgb_image)[k % 2](rng, sw, sh)
        for mode in ("bilinear", "nearest"):
            out = warp_image(hom, img, out_w, out_h, interpolation=mode)
            assert out.pixels.tobytes() == oracle_warp_image(hom, img, out_w, out_h, mode).tobytes()
            assert out.pixels.shape == (out_h, out_w, channels)


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
def test_warp_image_maps_positions_past_the_int64_range_without_a_warning(mode):
    # the output's right half maps past 2**63 source pixels while w = 1e-11
    # stays over the singularity tolerance; RuntimeWarnings are errors here
    hom = Homography(np.linalg.inv(np.diag([1e6, 1.0, 1e-11])))
    img = rgb_image(philox(36), 5, 4)
    out = warp_image(hom, img, 200, 2, interpolation=mode)
    with np.errstate(invalid="ignore"):
        expected = oracle_warp_image(hom, img, 200, 2, mode)
    assert out.pixels.tobytes() == expected.tobytes()


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
@pytest.mark.parametrize("make", [gray_image, rgb_image], ids=["gray", "rgb"])
def test_warp_image_peak_memory_is_within_its_estimate(make, mode):
    img = make(philox(35), 346, 260)
    hom = compose_homography(small_rig(0.02, -0.03, 0.04))
    peak = traced_peak(warp_image, hom, img, 346, 260, interpolation=mode)
    assert peak <= 346 * 260 * 8 * (20 + 2 * img.channels)


def test_warp_image_reads_the_source_in_place():
    # a 9 MB source sampled into a 10 x 10 output: a float64 copy of the
    # source alone would be 72 MB
    img = ImagePNM(width=2000, height=1500, channels=3, pixels=np.zeros((1500, 2000, 3), np.uint8))
    for mode in ("bilinear", "nearest"):
        assert traced_peak(warp_image, Homography(np.eye(3)), img, 10, 10, interpolation=mode) < 1_000_000


# -- box warping ------------------------------------------------------------------


def test_identity_keeps_boxes():
    out = warp_bbox(Homography(np.eye(3)), (2.0, 3.0, 4.0, 5.0), 64, 64)
    assert out == pytest.approx((2.0, 3.0, 4.0, 5.0))


def test_translation_moves_boxes():
    out = warp_bbox(translation(5.0, 7.0), (1.0, 2.0, 3.0, 4.0), 64, 64)
    assert out == pytest.approx((6.0, 9.0, 3.0, 4.0))


def test_box_clipped_to_the_target_plane():
    out = warp_bbox(translation(-3.0, 0.0), (1.0, 2.0, 6.0, 4.0), 64, 64)
    assert out == pytest.approx((0.0, 2.0, 4.0, 4.0))


def test_box_fully_outside_returns_none():
    assert warp_bbox(translation(-100.0, 0.0), (1.0, 2.0, 3.0, 4.0), 64, 64) is None


def test_box_with_non_positive_dims_is_rejected():
    with pytest.raises(DomainError):
        warp_bbox(Homography(np.eye(3)), (0.0, 0.0, 0.0, 2.0), 64, 64)


def test_rotation_warps_box_to_corner_hull():
    # 90-degree rotation about the origin maps (x,y) -> (-y, x)
    rot90 = Homography(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    out = warp_bbox(rot90, (2.0, 3.0, 4.0, 5.0), clip_w=100, clip_h=100)
    # corners map to x in [-8,-3], y in [2,6]; clipped at x=0 -> no area
    assert out is None


@pytest.mark.parametrize(
    "clip_w, clip_h",
    [(np.nan, 64), (64, np.nan), (np.inf, 64), (64, -np.inf), (-5, 64), (64, -5), (0, 64), (64, 0.0)],
)
def test_box_clip_window_must_be_finite_and_positive(clip_w, clip_h):
    with pytest.raises(DomainError, match="clip window must be finite and positive"):
        warp_bbox(Homography(np.eye(3)), (2.0, 3.0, 4.0, 5.0), clip_w, clip_h)


# -- box warping as columns -------------------------------------------------------


def scalar_warp_bbox(h, box, clip_w, clip_h):
    """The box-by-box reference: a box's four corners, their hull, then
    Python's max and min against the clip window."""
    x, y, w, hgt = (float(v) for v in box)
    warped = warp_points(h, np.array([[x, y], [x + w, y], [x, y + hgt], [x + w, y + hgt]]))
    x0, y0 = warped.min(axis=0)
    x1, y1 = warped.max(axis=0)
    x0c, y0c = max(x0, 0.0), max(y0, 0.0)
    x1c, y1c = min(x1, float(clip_w)), min(y1, float(clip_h))
    if x1c <= x0c or y1c <= y0c:
        return None
    return (x0c, y0c, x1c - x0c, y1c - y0c)


def seeded_homographies(rng, n):
    """Rotated rigs and perturbed projective maps, alternately."""
    for k in range(n):
        if k % 2:
            noise = rng.normal(0.0, [[0.1, 0.1, 5.0], [0.1, 0.1, 5.0], [1e-3, 1e-3, 0.05]])
            yield Homography(np.eye(3) + noise)
        else:
            yield compose_homography(small_rig(*rng.uniform(-0.6, 0.6, size=3)))


def test_warp_boxes_equals_the_box_by_box_warp_bit_for_bit():
    rng = philox(31)
    clip = (64, 48)
    kept_whole = clipped = dropped = 0
    for hom in seeded_homographies(rng, 40):
        boxes = np.hstack([rng.uniform(-40.0, 90.0, size=(150, 2)), rng.uniform(0.5, 40.0, size=(150, 2))])
        out, kept = warp_boxes(hom, boxes, *clip)
        ref = [scalar_warp_bbox(hom, box, *clip) for box in boxes]
        assert kept.tolist() == [r is not None for r in ref]
        assert out.tobytes() == np.array([r for r in ref if r is not None]).tobytes()
        one_by_one = [warp_bbox(hom, box, *clip) for box in boxes]
        assert [r is None for r in one_by_one] == [r is None for r in ref]
        assert np.array([r for r in one_by_one if r is not None]).tobytes() == out.tobytes()
        at_edge = np.any((out[:, :2] == 0.0) | (out[:, :2] + out[:, 2:] >= clip), axis=1)
        clipped += int(at_edge.sum())
        kept_whole += int((~at_edge).sum())
        dropped += int((~kept).sum())
    assert min(kept_whole, clipped, dropped) > 100


def test_warp_boxes_of_no_boxes_still_checks_the_clip_window():
    out, kept = warp_boxes(Homography(np.eye(3)), np.zeros((0, 4)), 64, 48)
    assert (out.shape, out.dtype, kept.shape, kept.dtype) == ((0, 4), np.float64, (0,), bool)
    with pytest.raises(DomainError, match="^clip window must be finite and positive, got nanx48.0$"):
        warp_boxes(Homography(np.eye(3)), np.zeros((0, 4)), np.nan, 48)


@pytest.mark.parametrize(
    "warp, shape",
    [
        (lambda h: warp_points(h, np.zeros((2, 3))), "(2, 3)"),
        (lambda h: warp_points(h, np.zeros(4)), "(4,)"),
        (lambda h: warp_boxes(h, np.ones((2, 3)), 10, 10), "(2, 3)"),
        (lambda h: warp_boxes(h, np.ones((2, 5)), 10, 10), "(2, 5)"),
        (lambda h: warp_boxes(h, [], 10, 10), "(0,)"),
        (lambda h: warp_bbox(h, (1.0, 2.0, 3.0), 10, 10), "(1, 3)"),
    ],
    ids=["points-3-wide", "points-flat", "boxes-3-wide", "boxes-5-wide", "boxes-empty-list", "bbox-3-tuple"],
)
def test_a_wrong_width_array_is_a_shape_error_naming_its_shape(warp, shape):
    with pytest.raises(ShapeError) as exc:
        warp(Homography(np.eye(3)))
    kind = "points must be an (n, 2)" if "points" in str(exc.value) else "boxes must be an (n, 4)"
    assert str(exc.value) == f"{kind} array, got shape {shape}"


def test_warp_boxes_refuses_the_first_box_without_area():
    boxes = [(1.0, 1.0, 2.0, 2.0), (0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 3.0, -1.0)]
    with pytest.raises(DomainError, match="^box dims must be positive, got w=0.0, h=2.0$"):
        warp_boxes(Homography(np.eye(3)), boxes, 64, 48)


@pytest.mark.parametrize(
    "bad", [(1e308, 1e308, 1e308, 1e308), (np.nan, 0.0, 1.0, 1.0)], ids=["overflow", "nan"]
)
def test_warp_boxes_refuses_a_box_whose_corners_are_not_finite_by_its_row(bad):
    # pytest turns a numpy RuntimeWarning into a failure, so none is emitted
    h = compose_homography(small_rig(0.3, -0.2, 0.25))
    with pytest.raises(DomainError) as exc:
        warp_boxes(h, [(5.0, 5.0, 10.0, 8.0), bad, bad], 64, 48)
    assert str(exc.value) == f"row 1: box corners are not finite after the warp, got {bad}"
    with pytest.raises(DomainError, match="^row 0: box corners are not finite"):
        warp_bbox(h, bad, 64, 48)


def test_warp_boxes_clips_as_python_max_does_keeping_a_negative_zero():
    # -I maps (x, y) to itself, but a corner at x = 0 comes out as -0.0:
    # Python's max(-0.0, 0.0) keeps it, np.maximum would give +0.0
    hom = Homography(-np.eye(3))
    out, kept = warp_boxes(hom, [(0.0, 1.0, 2.0, 3.0)], 10, 10)
    assert kept.tolist() == [True]
    assert np.signbit(out[0, 0]) and out[0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert out[0].tobytes() == np.array(scalar_warp_bbox(hom, (0.0, 1.0, 2.0, 3.0), 10, 10)).tobytes()
    assert np.array(warp_bbox(hom, (0.0, 1.0, 2.0, 3.0), 10, 10)).tobytes() == out[0].tobytes()
