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
    encode_offsets,
    gen_anchors,
    gen_pyramid_anchors,
    head_forward,
    init_fpn_weights,
    init_head_weights,
    load_fpn_weights,
    load_head_weights,
    nms,
    save_fpn_weights,
    save_head_weights,
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
    assert len(anchors) == 3 * 4 * 9
    assert (anchors[0].x, anchors[0].y) == (4.0, 4.0)
    # anchor index runs fastest, then column, then row
    assert (anchors[9].x, anchors[9].y) == (12.0, 4.0)
    assert (anchors[4 * 9].x, anchors[4 * 9].y) == (4.0, 12.0)


def test_anchor_shapes_encode_scale_and_ratio():
    cfg = HeadConfig(num_classes=1, scales=(1.0, 2.0), ratios=(0.5, 1.0, 2.0))
    anchors = gen_anchors(1, 1, 4, cfg)
    base = 16.0
    idx = 0
    for r in cfg.ratios:
        for s in cfg.scales:
            a = anchors[idx]
            assert a.w / a.h == pytest.approx(r, rel=1e-12)
            assert a.w * a.h == pytest.approx((base * s) ** 2, rel=1e-12)
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
    assert len(anchors) == 48 + 12 + 4 + 1 + 1
    assert anchors[0].level == 1
    assert anchors[-1].level == 5
    assert anchors[-1].w == 4.0 * 64


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


def test_fpn_weight_roundtrip(tmp_path):
    w = init_fpn_weights([4, 4, 4, 4], width=6, seed=7)
    save_fpn_weights(w, tmp_path)
    back = load_fpn_weights(tmp_path)
    for a, b in zip(w.laterals + w.smooths + (w.extra,), back.laterals + back.smooths + (back.extra,)):
        assert np.array_equal(a.kernel.astype(np.float32), b.kernel.astype(np.float32))


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


def test_head_weight_roundtrip(tmp_path):
    cfg = HeadConfig(num_classes=2, width=4)
    w = init_head_weights(cfg, seed=3)
    save_head_weights(w, tmp_path)
    back = load_head_weights(tmp_path)
    assert np.array_equal(
        w.cls_out.kernel.astype(np.float32), back.cls_out.kernel.astype(np.float32)
    )
    assert len(back.cls_tower) == len(back.reg_tower) == 4


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
    anchors = [Anchor(8.0, 8.0, 16.0, 16.0), Anchor(24.0, 8.0, 16.0, 16.0)]
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
    anchors = [Anchor(10.0 + 100.0 * i, 10.0, 4.0, 4.0) for i in range(6)]
    cls = np.linspace(0.2, 0.9, 6).reshape(6, 1)
    reg = np.zeros((6, 4))
    out = decode_head(cls, reg, anchors, image_id=0, pre_nms_top_k=3)
    assert len(out) == 3
    assert [round(d.score, 2) for d in out] == [0.9, 0.76, 0.62]


def test_decode_head_maps_category_ids():
    anchors = [Anchor(10.0, 10.0, 4.0, 4.0)]
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
    anchors = [Anchor(10.0 + 100.0 * i, 10.0, 4.0, 4.0) for i in range(3)]
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
    anchors = [Anchor(10.0, 10.0, 4.0, 4.0)]
    with pytest.raises(ShapeError):
        decode_head(np.zeros((2, 1)), np.zeros((2, 4)), anchors, image_id=0)
