"""Detection head: anchors, pyramid assembly, subnets, offset codec, suppression."""

import math

import numpy as np
import pytest

from evframe import (
    Anchor,
    BBox,
    DetectionRecord,
    DomainError,
    FeaturePyramid,
    HeadConfig,
    OffsetVector,
    ShapeError,
    build_fpn,
    decode_head,
    decode_offsets,
    encode_detections,
    encode_offsets,
    gen_anchors,
    gen_pyramid_anchors,
    head_forward,
    init_fpn_weights,
    level_anchors,
    nms,
)
from evframe.detect_head import BBOX_XFORM_CLIP, HeadWeights, FpnWeights
from evframe.tensor_math import ConvWeights


def det(score, box=(0.0, 0.0, 10.0, 10.0), image=0, cat=0):
    return DetectionRecord(image_id=image, category_id=cat, bbox=box, score=score)


def center_tap(out_ch, in_ch, src=0):
    """3x3 kernel that copies input channel `src` into every output channel."""
    k = np.zeros((out_ch, in_ch, 3, 3))
    k[:, src, 1, 1] = 1.0
    return k


# -- config and containers ----------------------------------------------------------


def test_box_rejects_non_positive_dims():
    with pytest.raises(DomainError):
        BBox(0.0, 0.0, 0.0, 5.0)
    with pytest.raises(DomainError):
        BBox(0.0, 0.0, 5.0, -1.0)


def test_offsets_reject_non_finite():
    with pytest.raises(DomainError):
        OffsetVector(0.0, 0.0, math.inf, 0.0)


def test_config_counts_anchor_layout():
    cfg = HeadConfig(num_classes=7)
    assert cfg.anchors_per_position == 9
    with pytest.raises(DomainError):
        HeadConfig(num_classes=0)
    with pytest.raises(DomainError):
        HeadConfig(num_classes=2, scales=())


# -- anchors ---------------------------------------------------------------------


def test_anchor_grid_count_and_centers():
    cfg = HeadConfig(num_classes=1)
    anchors = gen_anchors(3, 4, 8, cfg)
    assert anchors.shape == (3 * 4 * 9, 4)
    assert tuple(anchors[0, :2]) == (4.0, 4.0)
    # anchor index runs fastest, then column, then row
    assert tuple(anchors[9, :2]) == (12.0, 4.0)
    assert tuple(anchors[4 * 9, :2]) == (4.0, 12.0)


def test_anchor_shapes_encode_scale_and_ratio():
    cfg = HeadConfig(num_classes=1, scales=(1.0, 2.0), ratios=(0.5, 1.0, 2.0))
    anchors = gen_anchors(1, 1, 4, cfg)
    base = 16.0
    idx = 0
    for r in cfg.ratios:
        for s in cfg.scales:
            _, _, w, h = anchors[idx]
            assert w / h == pytest.approx(r, rel=1e-12)
            assert w * h == pytest.approx((base * s) ** 2, rel=1e-12)
            idx += 1


def test_anchor_stride_must_be_positive():
    with pytest.raises(DomainError):
        gen_anchors(2, 2, 0, HeadConfig(num_classes=1))


def tiny_pyramid(c=3):
    levels = (
        np.zeros((c, 8, 6)),
        np.zeros((c, 4, 3)),
        np.zeros((c, 2, 2)),
        np.zeros((c, 1, 1)),
        np.zeros((c, 1, 1)),
    )
    return FeaturePyramid(levels, (4, 8, 16, 32, 64))


def test_pyramid_anchor_levels_and_counts():
    cfg = HeadConfig(num_classes=2, scales=(1.0,), ratios=(1.0,))
    anchors = gen_pyramid_anchors(tiny_pyramid(), cfg)
    assert anchors.shape == (48 + 12 + 4 + 1 + 1, 4)
    # rows run level by level: 48 of level 1, ..., the last 1 of level 5
    starts = np.cumsum([0, 48, 12, 4, 1, 1])
    for (h, w), stride, lo, hi in zip(
        [(8, 6), (4, 3), (2, 2), (1, 1), (1, 1)], (4, 8, 16, 32, 64), starts, starts[1:]
    ):
        assert np.array_equal(anchors[lo:hi], gen_anchors(h, w, stride, cfg))
    assert anchors[-1, 2] == 4.0 * 64


def test_pyramid_validates_ceil_halving():
    levels = [np.zeros((2, 8, 8))] + [np.zeros((2, 4, 4))] * 4
    with pytest.raises(ShapeError):
        FeaturePyramid(tuple(levels), (4, 8, 16, 32, 64))


def test_pyramid_validates_stride_doubling():
    p = tiny_pyramid()
    with pytest.raises(ShapeError):
        FeaturePyramid(p.levels, (4, 8, 16, 32, 128))


def test_pyramid_requires_uniform_channels():
    levels = (
        np.zeros((2, 8, 6)),
        np.zeros((3, 4, 3)),
        np.zeros((2, 2, 2)),
        np.zeros((2, 1, 1)),
        np.zeros((2, 1, 1)),
    )
    with pytest.raises(ShapeError):
        FeaturePyramid(levels, (4, 8, 16, 32, 64))


# -- pyramid assembly ----------------------------------------------------------------


def identity_fpn(c):
    eye1 = np.eye(c).reshape(c, c, 1, 1)
    eye3 = np.eye(c)[:, :, None, None] * np.pad([[1.0]], 1)[None, None]
    lat = tuple(ConvWeights(eye1.copy(), np.zeros(c)) for _ in range(4))
    sm = tuple(ConvWeights(eye3.copy(), np.zeros(c)) for _ in range(4))
    return FpnWeights(lat, sm, ConvWeights(eye3.copy(), np.zeros(c)))


def test_fpn_merges_top_down_with_nearest_upsampling(rng):
    c = 3
    feats = [
        rng.standard_normal((c, 8, 6)),
        rng.standard_normal((c, 4, 3)),
        rng.standard_normal((c, 2, 2)),
        rng.standard_normal((c, 1, 1)),
    ]
    pyr = build_fpn(feats, identity_fpn(c))

    def up(x, h, w):
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)[:, :h, :w]

    want3 = feats[3]
    want2 = feats[2] + up(want3, 2, 2)
    want1 = feats[1] + up(want2, 4, 3)
    want0 = feats[0] + up(want1, 8, 6)
    for got, want in zip(pyr.levels[:4], (want0, want1, want2, want3)):
        assert np.allclose(got, want, atol=1e-12)
    # fifth level: stride-2 center tap picks even coordinates of level four
    assert np.allclose(pyr.levels[4], want3[:, ::2, ::2], atol=1e-12)
    assert pyr.strides == (4, 8, 16, 32, 64)


def test_fpn_requires_four_maps(rng):
    with pytest.raises(ShapeError):
        build_fpn([rng.standard_normal((2, 4, 4))] * 3, init_fpn_weights([2] * 4, width=2))


def test_fpn_init_shapes_follow_backbone_channels():
    w = init_fpn_weights([8, 16, 32, 64], width=12, seed=1)
    assert [lw.kernel.shape for lw in w.laterals] == [
        (12, 8, 1, 1),
        (12, 16, 1, 1),
        (12, 32, 1, 1),
        (12, 64, 1, 1),
    ]
    assert w.extra.kernel.shape == (12, 12, 3, 3)


# -- subnets ----------------------------------------------------------------------


def test_head_rows_follow_position_then_anchor_order(rng):
    c, a, k = 2, 2, 3
    cfg = HeadConfig(num_classes=k, width=c, scales=(1.0,), ratios=(0.5, 2.0))
    assert cfg.anchors_per_position == a

    levels = (
        rng.standard_normal((c, 4, 4)),
        rng.standard_normal((c, 2, 2)),
        rng.standard_normal((c, 1, 1)),
        rng.standard_normal((c, 1, 1)),
        rng.standard_normal((c, 1, 1)),
    )
    pyr = FeaturePyramid(levels, (4, 8, 16, 32, 64))

    # empty towers; output convs copy input channel 0 plus a per-channel bias,
    # so each head row is fully predictable
    cls_bias = np.arange(a * k) * 0.25
    reg_bias = np.arange(a * 4) * 0.125
    w = HeadWeights(
        (),
        ConvWeights(center_tap(a * k, c), cls_bias),
        (),
        ConvWeights(center_tap(a * 4, c), reg_bias),
    )
    cls, reg = head_forward(pyr, w, cfg)

    n = sum(lvl.shape[1] * lvl.shape[2] for lvl in levels) * a
    assert cls.shape == (n, k)
    assert reg.shape == (n, 4)
    assert np.all((cls > 0) & (cls < 1))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    row = 0
    for lvl in levels:
        h, wd = lvl.shape[1:]
        for y in range(h):
            for x in range(wd):
                for ai in range(a):
                    for ki in range(k):
                        want = sigmoid(lvl[0, y, x] + cls_bias[ai * k + ki])
                        assert cls[row, ki] == pytest.approx(want, abs=1e-12)
                    for j in range(4):
                        want = lvl[0, y, x] + reg_bias[ai * 4 + j]
                        assert reg[row, j] == pytest.approx(want, abs=1e-12)
                    row += 1
    assert row == n


# -- offset codec --------------------------------------------------------------------


def test_offset_worked_example():
    t = encode_offsets(Anchor(10.0, 10.0, 4.0, 4.0), BBox(12.0, 10.0, 8.0, 4.0))
    assert abs(t.t_x - 0.5) < 1e-12
    assert abs(t.t_y) < 1e-12
    assert abs(t.t_w - math.log(2.0)) < 1e-12
    assert abs(t.t_h) < 1e-12


def test_offset_roundtrip(rng):
    for _ in range(300):
        a = Anchor(*rng.uniform(1.0, 100.0, size=2), *rng.uniform(0.5, 50.0, size=2))
        g = BBox(*rng.uniform(1.0, 100.0, size=2), *rng.uniform(0.5, 50.0, size=2))
        back = decode_offsets(a, encode_offsets(a, g))
        assert abs(back.x - g.x) < 1e-9
        assert abs(back.y - g.y) < 1e-9
        assert abs(back.w - g.w) < 1e-9
        assert abs(back.h - g.h) < 1e-9


def test_offset_decode_overflow_is_rejected():
    with pytest.raises(DomainError):
        decode_offsets(Anchor(0.0, 0.0, 1.0, 1.0), OffsetVector(0.0, 0.0, 1e6, 0.0))


# -- suppression -----------------------------------------------------------------


def test_nms_drops_overlap_above_threshold():
    kept = nms([det(0.9), det(0.8, box=(1.0, 0.0, 10.0, 10.0))], 0.5)
    assert len(kept) == 1 and kept[0].score == 0.9


def test_nms_keeps_iou_exactly_at_threshold():
    # identical 10x10 boxes shifted 5px: intersection 50, union 150, iou 1/3
    a = det(0.9)
    b = det(0.8, box=(5.0, 0.0, 10.0, 10.0))
    assert len(nms([a, b], 1.0 / 3.0)) == 2


def test_nms_groups_by_image_and_class():
    dets = [
        det(0.9),
        det(0.8, cat=1),
        det(0.7, image=1),
        det(0.6),  # same group as first, fully overlapping
    ]
    kept = nms(dets, 0.5)
    assert [d.score for d in kept] == [0.9, 0.8, 0.7]


def test_nms_breaks_score_ties_by_input_order():
    first = det(0.5, box=(0.0, 0.0, 10.0, 10.0))
    second = det(0.5, box=(2.0, 0.0, 10.0, 10.0))
    kept = nms([first, second], 0.5)
    assert kept == [first]


def test_nms_output_is_score_sorted():
    dets = [det(0.1, box=(0, 0, 2, 2)), det(0.9, box=(50, 50, 2, 2)), det(0.5, box=(100, 0, 2, 2))]
    assert [d.score for d in nms(dets, 0.5)] == [0.9, 0.5, 0.1]


def test_nms_rejects_unscored_and_bad_threshold():
    with pytest.raises(DomainError):
        nms([DetectionRecord(0, 0, (0, 0, 1, 1), None)], 0.5)
    with pytest.raises(DomainError):
        nms([], 1.5)


# -- full decode ------------------------------------------------------------------


def test_decode_head_filters_and_decodes():
    anchors = np.array([[8.0, 8.0, 16.0, 16.0], [24.0, 8.0, 16.0, 16.0]])
    cls = np.array([[0.9, 0.01], [0.02, 0.6]])
    reg = np.zeros((2, 4))
    reg[1] = (0.5, 0.0, 0.0, 0.0)
    out = decode_head(cls, reg, anchors, image_id=3, score_threshold=0.05)
    assert len(out) == 2
    assert {d.category_id for d in out} == {0, 1}
    assert all(d.image_id == 3 for d in out)
    by_cat = {d.category_id: d for d in out}
    assert by_cat[0].bbox == (0.0, 0.0, 16.0, 16.0)
    # second anchor shifted by half its width: center 32 -> tlx 24
    assert by_cat[1].bbox == (24.0, 0.0, 16.0, 16.0)


def test_decode_head_trims_to_top_k():
    anchors = np.array([[10.0 + 100.0 * i, 10.0, 4.0, 4.0] for i in range(6)])
    cls = np.linspace(0.2, 0.9, 6).reshape(6, 1)
    reg = np.zeros((6, 4))
    out = decode_head(cls, reg, anchors, image_id=0, pre_nms_top_k=3)
    assert len(out) == 3
    assert [round(d.score, 2) for d in out] == [0.9, 0.76, 0.62]


def test_decode_head_maps_category_ids():
    anchors = np.array([[10.0, 10.0, 4.0, 4.0]])
    cls = np.array([[0.7, 0.8]])
    reg = np.zeros((1, 4))
    out = decode_head(cls, reg, anchors, image_id=0, categories=[17, 42])
    assert sorted(d.category_id for d in out) == [17, 42]
    with pytest.raises(ShapeError):
        decode_head(cls, reg, anchors, image_id=0, categories=[17])


@pytest.mark.parametrize("wild", [800.0, -800.0])
def test_decode_head_clips_a_wild_size_offset_and_keeps_the_other_boxes(wild):
    # exp(+800) overflows and exp(-800) underflows to a zero-size box; either
    # used to raise and drop every detection of the image
    anchors = np.array([[10.0 + 100.0 * i, 10.0, 4.0, 4.0] for i in range(3)])
    cls = np.array([[0.9], [0.8], [0.7]])
    reg = np.zeros((3, 4))
    reg[1] = (0.0, 0.0, wild, wild)
    reg_before = reg.copy()
    out = decode_head(cls, reg, anchors, image_id=0)
    assert [d.score for d in out] == [0.9, 0.8, 0.7]
    assert out[0].bbox == (8.0, 8.0, 4.0, 4.0)
    assert out[2].bbox == (208.0, 8.0, 4.0, 4.0)
    size = 4.0 * math.exp(math.copysign(BBOX_XFORM_CLIP, wild))
    assert out[1].bbox[2:] == (size, size)
    assert np.array_equal(reg, reg_before)


def test_decode_head_validates_row_counts():
    anchors = np.array([[10.0, 10.0, 4.0, 4.0]])
    with pytest.raises(ShapeError):
        decode_head(np.zeros((2, 1)), np.zeros((2, 4)), anchors, image_id=0)


def test_decode_head_rejects_anchors_that_are_not_rows_of_four():
    with pytest.raises(ShapeError, match="anchors"):
        decode_head(np.zeros((2, 1)), np.zeros((2, 4)), np.zeros((2, 3)), image_id=0)


def test_anchor_shapes_must_be_positive():
    with pytest.raises(DomainError, match="box dims must be positive"):
        gen_anchors(2, 2, 4, HeadConfig(num_classes=1, scales=(0.0,)))


# -- array back end against the object back end ---------------------------------------
#
# The oracles below are the per-object anchor loop, decode and scalar NMS that
# the array back end replaced. Anchors, boxes and scores must match them with
# ==, and the encoded JSONL byte for byte.

# detect-346's pyramid: a 346x260 frame at stride 4, ceil-halved four times
BENCH_LEVELS = ((65, 87), (33, 44), (17, 22), (9, 11), (5, 6))


def oracle_anchors(shapes, base_stride, cfg):
    out = []
    stride = base_stride
    for level, (height, width) in enumerate(shapes, start=1):
        base = 4.0 * stride
        sizes = [
            (base * s * math.sqrt(r), base * s / math.sqrt(r))
            for r in cfg.ratios
            for s in cfg.scales
        ]
        for i in range(height):
            cy = (i + 0.5) * stride
            for j in range(width):
                cx = (j + 0.5) * stride
                out.extend(Anchor(cx, cy, aw, ah, level) for aw, ah in sizes)
        stride *= 2
    return out


def oracle_iou(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    try:
        return inter / (aw * ah + bw * bh - inter)
    except ZeroDivisionError:
        raise DomainError("zero union") from None


def oracle_nms(dets, iou_threshold):
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept_by_group = {}
    kept = []
    for i in order:
        d = dets[i]
        group = kept_by_group.setdefault((d.image_id, d.category_id), [])
        if any(oracle_iou(d.bbox, k.bbox) > iou_threshold for k in group):
            continue
        group.append(d)
        kept.append(d)
    return kept


def oracle_decode(cls, reg, anchors, image_id, score_threshold=0.05, iou_threshold=0.5,
                  categories=None, pre_nms_top_k=1000):
    if categories is None:
        categories = list(range(cls.shape[1]))
    rows, cols = np.nonzero(cls > score_threshold)
    if len(rows) > pre_nms_top_k:
        best = np.argsort(-cls[rows, cols], kind="stable")[:pre_nms_top_k]
        rows, cols = rows[best], cols[best]
    sizes = np.clip(reg[rows, 2:], -BBOX_XFORM_CLIP, BBOX_XFORM_CLIP)
    candidates = []
    with np.errstate(all="ignore"):  # numpy scalars warn on overflow
        for n, k, (t_w, t_h) in zip(rows, cols, sizes):
            box = decode_offsets(anchors[n], OffsetVector(reg[n, 0], reg[n, 1], t_w, t_h))
            candidates.append(
                DetectionRecord(image_id, int(categories[k]), box.to_tlwh(), float(cls[n, k]))
            )
    return oracle_nms(candidates, iou_threshold)


def as_rows(anchors):
    return np.array([(a.x, a.y, a.w, a.h) for a in anchors]).reshape(-1, 4)


@pytest.fixture(scope="module")
def bench_anchors():
    cfg = HeadConfig(num_classes=3)
    objects = oracle_anchors(BENCH_LEVELS, 4, cfg)
    return cfg, objects, as_rows(objects)


def bench_head(anchors, seed, ties=False):
    """Seeded (N, 3) scores and (N, 4) offsets shaped like a detect-346 frame.

    Every score is over 0.3, so the top-k cut decides the candidates, and
    each class has a few hot spots, so the best candidates overlap heavily.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n = len(anchors)
    cls = rng.uniform(0.3, 0.5, size=(n, 3))
    for k in range(3):
        for cx, cy in rng.uniform((0.0, 0.0), (348.0, 260.0), size=(4, 2)):
            d2 = (anchors[:, 0] - cx) ** 2 + (anchors[:, 1] - cy) ** 2
            cls[:, k] += 0.45 * np.exp(-d2 / (2.0 * 24.0 ** 2))
    cls = np.minimum(cls, 1.0)
    if ties:
        cls = np.round(cls, 2)
    reg = rng.normal(0.0, 0.4, size=(n, 4))
    reg[rng.random(n) < 0.01, 2:] *= 50.0  # some rows hit the size clip
    return cls, reg


def assert_same_detections(got, want):
    assert [d.bbox for d in got] == [d.bbox for d in want]
    assert [d.score for d in got] == [d.score for d in want]
    assert [(d.image_id, d.category_id) for d in got] == [
        (d.image_id, d.category_id) for d in want
    ]
    assert encode_detections(got) == encode_detections(want)


def test_bench_anchors_equal_the_object_loop(bench_anchors):
    cfg, objects, rows = bench_anchors
    got = level_anchors(BENCH_LEVELS, 4, cfg)
    assert got.shape == (68_490, 4)
    assert np.array_equal(got, rows)
    # per-level row counts, in level order
    levels = np.array([a.level for a in objects])
    counts = [h * w * cfg.anchors_per_position for h, w in BENCH_LEVELS]
    assert [int(np.sum(levels == i)) for i in range(1, 6)] == counts
    assert np.all(np.diff(levels) >= 0)


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied-scores"])
def test_bench_decode_equals_the_object_decode(bench_anchors, ties):
    cfg, objects, rows = bench_anchors
    cls, reg = bench_head(rows, seed=7 if ties else 11, ties=ties)
    got = decode_head(cls, reg, rows, image_id=5, score_threshold=0.3)
    want = oracle_decode(cls, reg, objects, image_id=5, score_threshold=0.3)
    # the cut and suppression are exercised, not a trivial pass-through
    assert 50 < len(want) < 1000
    assert_same_detections(got, want)


def small_case(seed, n=150, dtype=np.float64):
    """Random anchors and head outputs small enough for many cases."""
    rng = np.random.Generator(np.random.Philox(seed))
    anchors = np.column_stack([
        rng.uniform(0.0, 80.0, size=(n, 2)),
        rng.uniform(4.0, 30.0, size=(n, 2)),
    ])
    cls = np.round(rng.uniform(0.0, 1.0, size=(n, 3)), 1).astype(dtype)
    reg = rng.normal(0.0, 0.3, size=(n, 4)).astype(dtype)
    return anchors, cls, reg


def objects_of(rows):
    return [Anchor(*r) for r in rows.tolist()]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_decode_equals_the_object_decode(seed, dtype):
    # float32 is what head-decode reads from .ftns files: the centre
    # arithmetic then runs in float32, as the object decode's scalars did
    anchors, cls, reg = small_case(seed, dtype=dtype)
    for top_k in (1000, 50):
        got = decode_head(cls, reg, anchors, 0, pre_nms_top_k=top_k)
        want = oracle_decode(cls, reg, objects_of(anchors), 0, pre_nms_top_k=top_k)
        assert_same_detections(got, want)


def test_decode_groups_by_category_id_not_class_index():
    anchors, cls, reg = small_case(4)
    cats = [7, 7, 9]
    got = decode_head(cls, reg, anchors, 0, categories=cats)
    want = oracle_decode(cls, reg, objects_of(anchors), 0, categories=cats)
    assert_same_detections(got, want)


@pytest.mark.parametrize("below", [False, True], ids=["at-threshold", "one-ulp-below"])
def test_decode_iou_exactly_at_the_threshold(below):
    # 10x10 boxes 5 px apart: intersection 50, union 150, IoU exactly 1/3
    anchors = np.array([[5.0, 5.0, 10.0, 10.0], [10.0, 5.0, 10.0, 10.0]])
    cls = np.array([[0.9], [0.8]])
    reg = np.zeros((2, 4))
    thr = math.nextafter(1.0 / 3.0, 0.0) if below else 1.0 / 3.0
    got = decode_head(cls, reg, anchors, 0, iou_threshold=thr)
    want = oracle_decode(cls, reg, objects_of(anchors), 0, iou_threshold=thr)
    assert len(got) == (1 if below else 2)
    assert_same_detections(got, want)


@pytest.mark.parametrize("col", [0, 1, 2, 3])
def test_non_finite_offset_in_a_suppressed_row_still_raises(col):
    # row 1 duplicates row 0's anchor at a lower score, so NMS would drop it
    anchors = np.array([[20.0, 20.0, 10.0, 10.0]] * 2 + [[80.0, 20.0, 10.0, 10.0]])
    cls = np.array([[0.9], [0.5], [0.7]])
    reg = np.zeros((3, 4))
    reg[1, col] = math.nan
    with pytest.raises(DomainError) as want:
        oracle_decode(cls, reg, objects_of(anchors), 0)
    with pytest.raises(DomainError) as got:
        decode_head(cls, reg, anchors, 0)
    assert str(got.value) == str(want.value)
    assert "offsets must be finite" in str(got.value)


@pytest.mark.parametrize(
    "row, anchor, score",
    [
        ((1e308, 0.0, 0.0, 0.0), (5.0, 5.0, 10.0, 10.0), 0.8),  # centre overflows
        ((0.0, 0.0, 0.0, 0.0), (5.0, 5.0, math.inf, 10.0), 0.8),  # infinite size
        ((0.0, 0.0, 0.0, 0.0), (5.0, 5.0, 0.0, 10.0), 0.8),  # zero size
        ((0.0, 0.0, 0.0, 0.0), (5.0, 5.0, 10.0, 10.0), 1.5),  # score past 1
    ],
)
def test_every_selected_row_is_checked_like_the_object_decode(row, anchor, score):
    anchors = np.array([[50.0, 50.0, 10.0, 10.0], anchor])
    cls = np.array([[0.9], [score]])
    reg = np.array([[0.0] * 4, row])
    with pytest.raises(DomainError) as got:
        decode_head(cls, reg, anchors, 0)
    objects = [Anchor(50.0, 50.0, 10.0, 10.0)]
    try:
        objects.append(Anchor(*anchor))
    except DomainError as exc:
        # the object path refused the anchor itself, with the same message
        assert str(got.value) == str(exc)
        return
    with pytest.raises(DomainError) as want:
        oracle_decode(cls, reg, objects, 0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("same_class", [True, False])
def test_zero_union_pair_raises_exactly_when_the_oracle_does(same_class):
    # both areas underflow to 0.0; only a compared pair can raise
    anchors = np.array([[3.0, 4.0, 1e-200, 1e-200]] * 2)
    cls = np.array([[0.9, 0.0], [0.8, 0.0]] if same_class else [[0.9, 0.0], [0.0, 0.8]])
    reg = np.zeros((2, 4))
    objects = objects_of(anchors)
    if same_class:
        with pytest.raises(DomainError):
            oracle_decode(cls, reg, objects, 0)
        with pytest.raises(DomainError, match="union is 0"):
            decode_head(cls, reg, anchors, 0)
    else:
        assert_same_detections(decode_head(cls, reg, anchors, 0), oracle_decode(cls, reg, objects, 0))


def test_nms_equals_the_scalar_loop_across_images_and_classes():
    rng = np.random.Generator(np.random.Philox(21))
    dets = [
        det(
            float(np.round(rng.uniform(), 1)),
            box=tuple(np.round(rng.uniform((0, 0, 5, 5), (40, 40, 25, 25)), 1).tolist()),
            image=int(rng.integers(3)),
            cat=int(rng.integers(2)),
        )
        for _ in range(300)
    ]
    for thr in (0.0, 0.3, 0.5, 1.0):
        assert nms(dets, thr) == oracle_nms(dets, thr)


def test_decode_head_builds_records_only_for_kept_boxes(monkeypatch, bench_anchors):
    from evframe import detect_head

    made = []

    class CountingRecord(DetectionRecord):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    def refuse(*args, **kwargs):
        raise AssertionError("decode_head built a per-candidate object")

    monkeypatch.setattr(detect_head, "DetectionRecord", CountingRecord)
    for name in ("Anchor", "BBox", "OffsetVector"):
        monkeypatch.setattr(detect_head, name, refuse)
    _, _, rows = bench_anchors
    cls, reg = bench_head(rows, seed=3)
    out = decode_head(cls, reg, rows, image_id=0, score_threshold=0.3)
    assert len(made) == len(out) < 1000


def test_nms_shares_the_decode_suppression_core(monkeypatch):
    from evframe import detect_head

    calls = []
    real = detect_head._nms_keep

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(detect_head, "_nms_keep", spy)
    nms([det(0.9), det(0.8)], 0.5)
    anchors, cls, reg = small_case(5, n=20)
    decode_head(cls, reg, anchors, 0)
    assert len(calls) == 2


@pytest.mark.parametrize("k", [1, 7, 33, 50, 99])
def test_top_k_equals_the_stable_argsort_prefix(k):
    from evframe.detect_head import _top_k_stable

    rng = np.random.Generator(np.random.Philox(k))
    keys = np.round(rng.uniform(-0.5, 0.5, size=100), 1)  # ties everywhere
    keys[rng.random(100) < 0.2] = -0.0  # equal to 0.0, different bits
    for dtype in (np.float64, np.float32):
        keys = keys.astype(dtype)
        assert np.array_equal(_top_k_stable(keys, k), np.argsort(keys, kind="stable")[:k])


@pytest.mark.parametrize("top_k", [0, -3])
def test_decode_head_rejects_a_top_k_below_one(top_k):
    anchors, cls, reg = small_case(6, n=10)
    with pytest.raises(DomainError, match="pre_nms_top_k"):
        decode_head(cls, reg, anchors, 0, pre_nms_top_k=top_k)


@pytest.mark.parametrize("cls_shape", [(2,), (2, 1, 1)])
def test_decode_head_refuses_scores_that_are_not_rank_2(cls_shape):
    anchors = np.array([[10.0, 10.0, 4.0, 4.0], [20.0, 10.0, 4.0, 4.0]])
    with pytest.raises(ShapeError) as exc:
        decode_head(np.full(cls_shape, 0.9), np.zeros((2, 4)), anchors, image_id=0)
    assert str(exc.value) == (
        f"expected rank-2 score/offset tensors, got {cls_shape} and (2, 4)"
    )
