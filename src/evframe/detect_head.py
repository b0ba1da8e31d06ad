"""Feature pyramid, anchor grid, detection subnets, box codec, and NMS.

The pyramid keeps the P1..P5 level naming used throughout this package
(P1 is the finest level; conventional FPN literature would call these
levels P3..P7 when the finest stride is 8). Anchors, head outputs, and the
decode path all share one flattening order: level, then row, then column,
then anchor index, so row n of the head output corresponds to row n of the
(N, 4) (cx, cy, w, h) anchor array.

The back end works on arrays: ``decode_head`` decodes the selected rows as
columns with the float operations of ``decode_offsets`` in their order, and
its suppression core gives each kept box one IoU column against its group's
boxes still alive; the kept boxes leave as a ``DetectionTable``. ``Anchor``,
``BBox``, ``OffsetVector`` and the offset codec stay as the scalar form for
single boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Tuple

import numpy as np

from .errors import MAX_BYTES, DomainError, ShapeError, check_budget, check_count
from .eval_metrics import _iou
from .formats_io import DetectionTable, _int64_id
from .tensor_math import ConvWeights, conv2d, philox, uniform_conv

DEFAULT_SCORE_THRESHOLD = 0.05
DEFAULT_NMS_IOU = 0.5
# decode_head clips log size offsets here, so one wild row cannot overflow
# (or underflow to a zero-size box) and abort the whole image
# (torchvision BoxCoder's bbox_xform_clip)
BBOX_XFORM_CLIP = math.log(1000.0 / 16)


@dataclass
class BBox:
    """Center-form box: center (x, y) plus positive width and height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise DomainError(f"box dims must be positive, got w={self.w}, h={self.h}")


@dataclass
class Anchor(BBox):
    """A BBox used as the reference box of the offset codec."""


@dataclass
class OffsetVector:
    """Dimensionless regression offsets (t_x, t_y, t_w, t_h)."""

    t_x: float
    t_y: float
    t_w: float
    t_h: float

    def __post_init__(self):
        vals = (self.t_x, self.t_y, self.t_w, self.t_h)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"offsets must be finite, got {tuple(float(v) for v in vals)}")


@dataclass
class HeadConfig:
    """Class count and subnet width; the anchor table is fixed, 3 scales by 3 ratios."""

    num_classes: int
    width: int = 256
    scales: ClassVar[tuple] = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
    ratios: ClassVar[tuple] = (0.5, 1.0, 2.0)

    def __post_init__(self):
        self.num_classes = check_count("num_classes", self.num_classes)
        self.width = check_count("width", self.width)

    @property
    def anchors_per_position(self) -> int:
        return len(self.scales) * len(self.ratios)


@dataclass
class FeaturePyramid:
    """Five same-channel levels with ceil-halving dims; level i has stride base_stride * 2**i."""

    levels: tuple
    base_stride: int

    def __post_init__(self):
        if len(self.levels) != 5:
            raise ShapeError("pyramid must have exactly 5 levels")
        chans = {lvl.shape[0] for lvl in self.levels}
        if len(chans) != 1:
            raise ShapeError(f"pyramid channel counts differ: {sorted(chans)}")
        for i in range(4):
            h, w = self.levels[i].shape[1:]
            hn, wn = self.levels[i + 1].shape[1:]
            if (hn, wn) != (-(-h // 2), -(-w // 2)):
                raise ShapeError(
                    f"level {i + 2} dims {(hn, wn)} are not the ceil-half of {(h, w)}"
                )


# -- weights ----------------------------------------------------------------------

@dataclass
class FpnWeights:
    """Four lateral 1x1 convs, four 3x3 smoothing convs, one stride-2 extra conv."""

    laterals: Tuple[ConvWeights, ...]
    smooths: Tuple[ConvWeights, ...]
    extra: ConvWeights

    def __post_init__(self):
        if len(self.laterals) != 4 or len(self.smooths) != 4:
            raise ShapeError("need 4 lateral and 4 smoothing convs")


@dataclass
class HeadWeights:
    """Shared-across-levels classification and regression towers."""

    cls_tower: Tuple[ConvWeights, ...]
    cls_out: ConvWeights
    reg_tower: Tuple[ConvWeights, ...]
    reg_out: ConvWeights


def init_fpn_weights(in_channels: Sequence[int], width: int = 256, seed: int = 0) -> FpnWeights:
    """Seeded fan-in uniform init for fixture pyramids."""
    if len(in_channels) != 4:
        raise ShapeError(f"need 4 backbone channel counts, got {len(in_channels)}")
    width = check_count("width", width)
    in_channels = [check_count("in_channels", c) for c in in_channels]
    # float64 kernels and biases: four 1x1 laterals and five width x width 3x3 convs
    need = 8 * width * (sum(in_channels) + 4 + 5 * (9 * width + 1))
    check_budget(f"an FPN weight set of width {width}", need, "byte", MAX_BYTES)
    rng = philox(seed)
    laterals = tuple(uniform_conv(rng, width, c, 1) for c in in_channels)
    smooths = tuple(uniform_conv(rng, width, width, 3) for _ in range(4))
    extra = uniform_conv(rng, width, width, 3)
    return FpnWeights(laterals, smooths, extra)


def init_head_weights(cfg: HeadConfig, seed: int = 0) -> HeadWeights:
    """Seeded fan-in uniform init for the two subnets."""
    a = cfg.anchors_per_position
    # float64 kernels and biases of ten 3x3 convs over width channels: eight
    # width-output tower convs, the class and the box output convs
    need = 8 * (9 * cfg.width + 1) * (8 * cfg.width + (cfg.num_classes + 4) * a)
    check_budget(f"a {cfg.num_classes}-class head weight set of width {cfg.width}", need, "byte", MAX_BYTES)
    rng = philox(seed)
    cls_tower = tuple(uniform_conv(rng, cfg.width, cfg.width, 3) for _ in range(4))
    cls_out = uniform_conv(rng, cfg.num_classes * a, cfg.width, 3)
    reg_tower = tuple(uniform_conv(rng, cfg.width, cfg.width, 3) for _ in range(4))
    reg_out = uniform_conv(rng, 4 * a, cfg.width, 3)
    return HeadWeights(cls_tower, cls_out, reg_tower, reg_out)


# -- pyramid ----------------------------------------------------------------------

def _upsample2x_to(x: np.ndarray, h: int, w: int) -> np.ndarray:
    up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
    return up[:, :h, :w]


def build_fpn(backbone_feats: Sequence[np.ndarray], w: FpnWeights, base_stride: int = 4) -> FeaturePyramid:
    """Standard top-down pyramid over four backbone maps, finest first.

    Lateral 1x1 convs project to a common width; coarser levels are
    nearest-neighbor upsampled 2x and added on the way down; each merged map
    gets a 3x3 smoothing conv; the fifth level is a stride-2 3x3 conv on the
    fourth. Any four maps whose dims ceil-halve level to level are accepted.
    """
    if len(backbone_feats) != 4:
        raise ShapeError(f"need 4 backbone maps, got {len(backbone_feats)}")
    feats = [np.asarray(f, dtype=np.float64) for f in backbone_feats]
    laterals = [conv2d(f, lw) for f, lw in zip(feats, w.laterals)]
    merged = [None] * 4
    merged[3] = laterals[3]
    for i in (2, 1, 0):
        h, wd = laterals[i].shape[1:]
        merged[i] = laterals[i] + _upsample2x_to(merged[i + 1], h, wd)
    smoothed = [conv2d(m, sw, stride=1, pad=1) for m, sw in zip(merged, w.smooths)]
    p5 = conv2d(smoothed[3], w.extra, stride=2, pad=1)
    return FeaturePyramid(tuple(smoothed) + (p5,), base_stride)


# -- anchors ----------------------------------------------------------------------

def _anchor_shapes(stride: int, cfg: HeadConfig) -> np.ndarray:
    """(A, 2) anchor widths and heights, ratio-major, computed in Python floats."""
    # clamped, so an int stride beyond the float range overflows to inf, not an OverflowError
    base = 4.0 * min(stride, 2**1023)
    shapes = np.array([
        (base * s * math.sqrt(r), base * s / math.sqrt(r))
        for r in cfg.ratios
        for s in cfg.scales
    ])
    if not np.isfinite(shapes).all():
        raise DomainError(f"stride {stride} is too large: its anchor sizes overflow float64")
    return shapes


def level_anchors(shapes: Sequence[tuple], base_stride: int, cfg: HeadConfig) -> np.ndarray:
    """(N, 4) anchors as (cx, cy, w, h) rows of levels with (H, W) ``shapes``.

    Level i has stride s = base_stride * 2**i and centers at (i+0.5)*s. Base
    size is 4*s; w = base*scale*sqrt(ratio), h = base*scale/sqrt(ratio), so
    w/h equals the ratio. Order: level, row, column, then ratio-major anchor
    index. No levels give a (0, 4) array, as empty levels do.
    """
    base_stride = check_count("base_stride", base_stride)
    levels = [np.empty((0, 4))]
    for i, (height, width) in enumerate(shapes):
        stride = base_stride * 2 ** i
        sizes = _anchor_shapes(stride, cfg)
        cy = (np.arange(height) + 0.5) * stride
        cx = (np.arange(width) + 0.5) * stride
        grid = np.empty((len(cy), len(cx), len(sizes), 4))
        grid[..., 0] = cx[None, :, None]
        grid[..., 1] = cy[:, None, None]
        grid[..., 2:] = sizes
        levels.append(grid.reshape(-1, 4))
    return np.concatenate(levels)


def gen_pyramid_anchors(pyr: FeaturePyramid, cfg: HeadConfig) -> np.ndarray:
    """Anchors for every level, concatenated in level order."""
    return level_anchors([lvl.shape[1:] for lvl in pyr.levels], pyr.base_stride, cfg)


# -- head -------------------------------------------------------------------------

def _run_tower(x: np.ndarray, tower: tuple, out: ConvWeights) -> np.ndarray:
    for cw in tower:
        x = conv2d(x, cw, stride=1, pad=1)
        np.maximum(x, 0.0, out=x)
    return conv2d(x, out, stride=1, pad=1)


def head_forward(pyr: FeaturePyramid, w: HeadWeights, cfg: HeadConfig):
    """Run both subnets on every level.

    Returns (cls, reg): cls is [N, K] of sigmoid scores and reg is [N, 4]
    offsets, N = sum over levels of H*W*A, rows in the shared anchor order.
    """
    a = cfg.anchors_per_position
    k = cfg.num_classes
    cls_rows, reg_rows = [], []
    for lvl in pyr.levels:
        logits = _run_tower(lvl, w.cls_tower, w.cls_out)
        offsets = _run_tower(lvl, w.reg_tower, w.reg_out)
        h, wd = lvl.shape[1:]
        # channel layout (A,K) resp. (A,4); reorder to rows of (pos, anchor)
        cls_rows.append(
            logits.reshape(a, k, h, wd).transpose(2, 3, 0, 1).reshape(h * wd * a, k)
        )
        reg_rows.append(
            offsets.reshape(a, 4, h, wd).transpose(2, 3, 0, 1).reshape(h * wd * a, 4)
        )
    logits = np.vstack(cls_rows)
    scores = 1.0 / (1.0 + np.exp(-logits))
    return scores, np.vstack(reg_rows)


# -- offset codec -------------------------------------------------------------------

def encode_offsets(anchor: Anchor, gt: BBox) -> OffsetVector:
    """Anchor-relative offsets: shifts in anchor units, log size ratios."""
    if gt.w <= 0 or gt.h <= 0:
        raise DomainError(f"ground-truth dims must be positive, got {gt.w}x{gt.h}")
    return OffsetVector(
        (gt.x - anchor.x) / anchor.w,
        (gt.y - anchor.y) / anchor.h,
        math.log(gt.w / anchor.w),
        math.log(gt.h / anchor.h),
    )


def decode_offsets(anchor: Anchor, t: OffsetVector) -> BBox:
    """Inverse of encode_offsets; overflow in exp is a domain error."""
    try:
        w = anchor.w * math.exp(t.t_w)
        h = anchor.h * math.exp(t.t_h)
    except OverflowError:
        raise DomainError(f"offset ({t.t_w}, {t.t_h}) overflows the size decode")
    return BBox(t.t_x * anchor.w + anchor.x, t.t_y * anchor.h + anchor.y, w, h)


# -- non-maximum suppression -----------------------------------------------------------

def _nms_keep(
    boxes: np.ndarray, scores: np.ndarray, groups: np.ndarray, iou_threshold: float
) -> np.ndarray:
    """Indices of the (n, 4) top-left ``boxes`` greedy suppression keeps.

    Boxes are visited by descending score (ties in input order) within each
    group label. Each kept box gets one ``_iou`` column against the
    group's later boxes that are still alive, and every one of them with an
    IoU above the threshold dies. A candidate is thus compared with exactly
    the kept boxes a scalar loop compares it with, up to the first that
    suppresses it, and with the same ``iou_tlwh(candidate, kept)`` bits.
    The result is in visit order.
    """
    order = np.argsort(-scores, kind="stable")
    by_group = order[np.argsort(groups[order], kind="stable")]
    cuts = np.flatnonzero(np.diff(groups[by_group])) + 1
    keep = np.zeros(len(scores), dtype=bool)
    for idx in np.split(by_group, cuts):
        while len(idx):
            kept, idx = idx[0], idx[1:]
            keep[kept] = True
            if len(idx):
                ious = _iou(boxes[idx], boxes[kept])
                idx = idx[~(ious > iou_threshold)]
    return order[keep[order]]


def _top_k_stable(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")[:k]`` for NaN-free keys, 0 < k < len(keys).

    A partition finds the k-th smallest key u; every key below u and the
    first (in index order) of the keys equal to u make up the k, and only
    they are stably sorted.
    """
    u = np.partition(keys, k - 1)[k - 1]
    below = keys < u
    at = keys == u
    at &= np.cumsum(at) <= k - np.count_nonzero(below)
    picked = np.flatnonzero(below | at)
    return picked[np.argsort(keys[picked], kind="stable")]


def _first_bad_candidate(i, offsets, w, h, boxes, scores):
    """The error the checks of one decoded candidate raise first."""
    if not np.isfinite(offsets[i]).all():
        return DomainError(f"offsets must be finite, got {tuple(offsets[i].tolist())}")
    if not (w[i] > 0 and h[i] > 0):
        return DomainError(f"box dims must be positive, got w={float(w[i])}, h={float(h[i])}")
    if not np.isfinite(boxes[i]).all():
        return DomainError(f"bbox entries must be finite, got {tuple(boxes[i].tolist())}")
    return DomainError(f"score must be in [0, 1], got {float(scores[i])}")


def decode_head(
    cls: np.ndarray,
    reg: np.ndarray,
    anchors: np.ndarray,
    image_id: int,
    score_threshold: float = DEFAULT_SCORE_THRESHOLD,
    iou_threshold: float = DEFAULT_NMS_IOU,
    pre_nms_top_k: int = 1000,
) -> DetectionTable:
    """Turn head outputs into the suppressed detections of one image.

    ``anchors`` is the (N, 4) (cx, cy, w, h) array of ``gen_pyramid_anchors``.
    Candidates over the score threshold are trimmed to the pre_nms_top_k
    best before suppression, which bounds NMS cost on dense outputs. Their
    log size offsets are clipped to +-BBOX_XFORM_CLIP, and the selected rows
    are decoded as columns with the operations of ``decode_offsets`` in
    their order (``math.exp`` for the sizes, and the centre arithmetic in
    the offsets' dtype), then shifted to top-left corners. Every selected
    row is checked, kept or not: a non-finite offset, a non-positive size, a
    non-finite box or a score outside [0, 1] is a ``DomainError`` for the
    first such row. A box's category id is its column of ``cls``;
    suppression is ``_nms_keep`` per category id, and the kept boxes are
    returned as the columns of a DetectionTable, with no per-box record. An
    ``image_id`` that is not an integer within int64, a ``pre_nms_top_k``
    that is not a Python or numpy integer >= 1 (a bool is not one), a NaN
    score threshold, an IoU threshold outside [0, 1] or a finite anchor
    entry beyond the offsets' dtype (a stride too large for float32
    offsets) is a ``DomainError``, raised before any work.
    """
    image_id = _int64_id("image_id", image_id)
    cls = np.asarray(cls)
    reg = np.asarray(reg)
    anchors = np.asarray(anchors, dtype=np.float64)
    if cls.ndim != 2 or reg.ndim != 2:
        raise ShapeError(
            f"expected rank-2 score/offset tensors, got {cls.shape} and {reg.shape}"
        )
    if anchors.ndim != 2 or anchors.shape[1] != 4:
        raise ShapeError(f"anchors must be an (N, 4) array, got shape {anchors.shape}")
    if cls.shape[0] != len(anchors) or reg.shape != (len(anchors), 4):
        raise ShapeError(
            f"head outputs {cls.shape}/{reg.shape} do not cover {len(anchors)} anchors"
        )
    if math.isnan(score_threshold):
        raise DomainError("score_threshold must be a number, got nan")
    pre_nms_top_k = check_count("pre_nms_top_k", pre_nms_top_k)
    if not 0.0 <= iou_threshold <= 1.0:
        raise DomainError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    dt = np.result_type(reg.dtype, 0.0)
    with np.errstate(over="ignore"):
        beyond = np.isfinite(anchors) & ~np.isfinite(anchors.astype(dt, copy=False))
    if beyond.any():
        largest = np.abs(anchors[beyond]).max()
        raise DomainError(
            f"anchors are not finite in the offsets' {dt}: the largest entry is {largest:.6g}"
        )

    rows, cols = np.nonzero(cls > score_threshold)
    if len(rows) > pre_nms_top_k:
        best = _top_k_stable(-cls[rows, cols], pre_nms_top_k)
        rows, cols = rows[best], cols[best]
    t = reg[rows].astype(dt)
    t[:, 2:] = np.clip(t[:, 2:], -BBOX_XFORM_CLIP, BBOX_XFORM_CLIP)
    ax, ay, aw, ah = anchors[rows].T
    with np.errstate(over="ignore", invalid="ignore"):
        w = aw * np.array([math.exp(v) for v in t[:, 2].tolist()], dtype=np.float64)
        h = ah * np.array([math.exp(v) for v in t[:, 3].tolist()], dtype=np.float64)
        x = t[:, 0] * aw.astype(dt) + ax.astype(dt)
        y = t[:, 1] * ah.astype(dt) + ay.astype(dt)
        boxes = np.stack(
            [x - (w / 2.0).astype(dt), y - (h / 2.0).astype(dt), w, h], axis=1
        ).astype(np.float64, copy=False)
    scores = cls[rows, cols].astype(np.float64)
    bad = (
        ~np.isfinite(t).all(axis=1)
        | ~((w > 0) & (h > 0))
        | ~np.isfinite(boxes).all(axis=1)
        | ~((scores >= 0.0) & (scores <= 1.0))
    )
    if bad.any():
        raise _first_bad_candidate(int(np.argmax(bad)), t, w, h, boxes, scores)

    kept = _nms_keep(boxes, scores, cols, iou_threshold)
    return DetectionTable(np.full(len(kept), image_id), cols[kept], boxes[kept], scores[kept])
