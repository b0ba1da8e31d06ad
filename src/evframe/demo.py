"""End-to-end smoke pipeline on a synthetic scene.

Builds a moving-rectangle frame pair, simulates events, rasterizes a voxel
grid and runs both streams through a ``Detector``, the paper's fixed chain:
``Detector.fuse`` runs two stride-4 stems and CAFR fusion, and
``Detector.detect`` pools the fused map into four scales, runs the pyramid and
the anchor head and decodes with NMS at score 0.3, IoU 0.5 and top-k 1000.
The detections are scored against the scene's ground truth. Every stage
re-checks its core invariant, so a single run exercises the whole stack.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .detect_head import FpnWeights, HeadConfig, HeadWeights, build_fpn, decode_head
from .detect_head import gen_pyramid_anchors, head_forward, init_fpn_weights, init_head_weights
from .errors import DomainError, ValidationError, check_budget, check_count
from .eval_metrics import _iou, map_coco
from .event_core import SimConfig, build_voxel_grid, modality_dropout, simulate_events
from .formats_io import DetectionTable, ImagePNM, encode_detections, encode_image
from .fusion_cafr import MAX_TOKENS, CafrWeights, FeaturePair, cafr_forward, init_cafr_weights
from .tensor_math import ConvWeights, conv2d, philox, uniform_conv

SCENE_CATEGORY = 0
# Smallest scene that fits the block, its 4 px slide and the margins around it.
MIN_SCENE_WIDTH = 17
MIN_SCENE_HEIGHT = 13
# The stems' stride and the decode settings of every Detector.
STEM_STRIDE = 4
SCORE_THRESHOLD = 0.3
NMS_IOU = 0.5
PRE_NMS_TOP_K = 1000


@dataclass
class PipelineResult:
    """Key counts and scores from one demo run."""

    n_events: int
    grid_shape: tuple
    fused_shape: tuple
    n_detections: int
    map: float
    map50: float
    outputs: dict


def make_scene(width: int = 64, height: int = 48, seed: int = 0):
    """Two grayscale frames of a dark block sliding over a bright background.

    Returns (frame_a, frame_b, gts) where gts is a one-row DetectionTable of
    the block's top-left-form box in frame_b, with no score. A scene whose
    stride-4 features, ceil(W/4) x ceil(H/4), exceed MAX_TOKENS is refused
    before any draw.
    """
    # only a number is held to the minimum; anything else is check_count's to refuse
    if isinstance(width, numbers.Real) and width < MIN_SCENE_WIDTH:
        raise DomainError(f"width must be >= {MIN_SCENE_WIDTH}, got {width}")
    if isinstance(height, numbers.Real) and height < MIN_SCENE_HEIGHT:
        raise DomainError(f"height must be >= {MIN_SCENE_HEIGHT}, got {height}")
    width, height = check_count("width", width), check_count("height", height)
    tokens = -(-width // STEM_STRIDE) * -(-height // STEM_STRIDE)
    check_budget(f"CAFR fusion of a {width}x{height} scene", tokens, "token", MAX_TOKENS)
    rng = philox(seed)
    base = np.full((height, width), 200, dtype=np.float64)
    base += rng.uniform(-8.0, 8.0, size=base.shape)

    bw, bh = max(8, width // 4), max(8, height // 4)
    x0 = int(rng.integers(2, width - bw - 6))
    y0 = int(rng.integers(2, height - bh - 2))
    dx = 4

    def render(left: int) -> ImagePNM:
        px = base.copy()
        px[y0:y0 + bh, left:left + bw] = 40.0
        return ImagePNM.from_float01(px[:, :, None] / 255.0)

    frame_a = render(x0)
    frame_b = render(x0 + dx)
    gts = DetectionTable([0], [SCENE_CATEGORY], [(x0 + dx, y0, bw, bh)], [np.nan])
    return frame_a, frame_b, gts


def _halve(x: np.ndarray) -> np.ndarray:
    """2x mean pool with edge replication to ceil-half dims."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    hh, ww = padded.shape[1:]
    return padded.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(f"pipeline invariant violated: {message}")


@dataclass(frozen=True)
class Detector:
    """The paper's detection chain with fixed weights; each method checks its output."""

    frame_stem: ConvWeights
    event_stem: ConvWeights
    cafr: CafrWeights
    fpn: FpnWeights
    head: HeadWeights
    cfg: HeadConfig

    def fuse(self, frame: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Fused features of a (1, H, W) frame and a (C, H, W) voxel grid tensor."""
        frame_feats = conv2d(frame, self.frame_stem, stride=STEM_STRIDE, pad=1)
        event_feats = conv2d(grid, self.event_stem, stride=STEM_STRIDE, pad=1)
        fused, _ = cafr_forward(FeaturePair(frame_feats, event_feats), self.cafr)
        _check(bool(np.all(np.isfinite(fused))), "fused features must be finite")
        return fused

    def detect(self, fused: np.ndarray, image_id: int) -> DetectionTable:
        """The suppressed detections of image ``image_id`` from its fused features."""
        maps = [fused]
        for _ in range(3):
            maps.append(_halve(maps[-1]))
        pyr = build_fpn(maps, self.fpn, base_stride=STEM_STRIDE)
        cls, reg = head_forward(pyr, self.head, self.cfg)
        _check(bool(np.all((cls > 0.0) & (cls < 1.0))), "classification scores must be in (0,1)")
        anchors = gen_pyramid_anchors(pyr, self.cfg)
        dets = decode_head(cls, reg, anchors, image_id, SCORE_THRESHOLD, NMS_IOU, PRE_NMS_TOP_K)
        for c in np.unique(dets.category_id):
            same = dets.bbox[dets.category_id == c]
            ious = _iou(same[:, None], same)
            np.fill_diagonal(ious, 0.0)
            _check(bool(np.all(ious <= NMS_IOU)), "NMS left overlapping boxes")
        return dets


def run_pipeline_demo(
    out_dir,
    seed: int = 0,
    width: int = 64,
    height: int = 48,
    dropout_p: float = 0.0,
) -> PipelineResult:
    """Run the full synthetic pipeline, writing frames, grid, and detections."""
    frame_a, frame_b, gts = make_scene(width, height, seed)
    # drawn before anything is written, so a bad rate leaves no files behind
    rgb = frame_b.to_float01()[:, :, 0][None, :, :]
    rgb = modality_dropout(rgb, probability=dropout_p, rng_seed=seed + 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    channels = 8

    (out / "frame_a.pnm").write_bytes(encode_image(frame_a))
    (out / "frame_b.pnm").write_bytes(encode_image(frame_b))

    stream = simulate_events(frame_a, frame_b, t_a=0, t_b=10_000, cfg=SimConfig(threshold=0.1))
    _check(len(stream.t) > 0, "scene produced no events")

    grid = build_voxel_grid(stream, bins=channels)
    mass = float(grid.data.sum())
    total_polarity = float(stream.p.sum())
    _check(abs(mass - total_polarity) < 1e-6, "voxel grid does not conserve event mass")

    cfg = HeadConfig(num_classes=3, width=64)
    detector = Detector(
        frame_stem=uniform_conv(philox(seed + 2), channels, 1, 3),
        event_stem=uniform_conv(philox(seed + 3), channels, channels, 3),
        cafr=init_cafr_weights(channels, seed + 4),
        fpn=init_fpn_weights([2 * channels] * 4, width=64, seed=seed + 5),
        head=init_head_weights(cfg, seed + 6),
        cfg=cfg,
    )
    fused = detector.fuse(rgb, grid.as_tensor())
    dets = detector.detect(fused, 0)
    _check(len(dets) > 0, "decode produced no detections")

    det_path = out / "detections.jsonl"
    det_path.write_bytes(encode_detections(dets))
    gt_path = out / "ground_truth.jsonl"
    gt_path.write_bytes(encode_detections(gts))

    result = map_coco(dets, gts)
    _check(0.0 <= result.map <= 1.0, "mAP must lie in [0,1]")

    summary = PipelineResult(
        n_events=len(stream.t),
        grid_shape=grid.data.shape,
        fused_shape=fused.shape,
        n_detections=len(dets),
        map=result.map,
        map50=result.map50,
        outputs={
            "frame_a": str(out / "frame_a.pnm"),
            "frame_b": str(out / "frame_b.pnm"),
            "detections": str(det_path),
            "ground_truth": str(gt_path),
        },
    )
    (out / "summary.json").write_text(json.dumps(asdict(summary), indent=2))
    return summary
