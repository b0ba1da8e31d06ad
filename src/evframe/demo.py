"""End-to-end smoke pipeline on a synthetic scene.

Builds a moving-rectangle frame pair, simulates events, rasterizes a voxel
grid, extracts seeded features for both streams, fuses them, runs the
pyramid and detection head, decodes with NMS, and scores the detections
against the scene's ground truth. Every stage re-checks its core invariant
inline so a single run exercises the whole stack.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .detect_head import (
    HeadConfig,
    build_fpn,
    decode_head,
    gen_pyramid_anchors,
    head_forward,
    init_fpn_weights,
    init_head_weights,
)
from .errors import DomainError, ValidationError, check_budget
from .eval_metrics import _iou_matrix, map_coco
from .event_core import SimConfig, build_voxel_grid, modality_dropout, simulate_events
from .formats_io import (
    DetectionRecord,
    ImagePNM,
    encode_detections,
    encode_image,
)
from .fusion_cafr import MAX_TOKENS, FeaturePair, cafr_forward, init_cafr_weights
from .tensor_math import conv2d, philox, uniform_conv

SCENE_CATEGORY = 0
# Smallest scene that fits the block, its 4 px slide and the margins around it.
MIN_SCENE_WIDTH = 17
MIN_SCENE_HEIGHT = 13


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

    Returns (frame_a, frame_b, gts) where gts hold the block's position in
    frame_b as a top-left-form detection record. A scene whose stride-4
    features, ceil(W/4) x ceil(H/4), exceed MAX_TOKENS is refused before any draw.
    """
    if width < MIN_SCENE_WIDTH:
        raise DomainError(f"width must be >= {MIN_SCENE_WIDTH}, got {width}")
    if height < MIN_SCENE_HEIGHT:
        raise DomainError(f"height must be >= {MIN_SCENE_HEIGHT}, got {height}")
    tokens = -(-width // 4) * -(-height // 4)
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
    gts = [
        DetectionRecord(
            image_id=0,
            category_id=SCENE_CATEGORY,
            bbox=(float(x0 + dx), float(y0), float(bw), float(bh)),
            score=None,
        )
    ]
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


def run_pipeline_demo(
    out_dir,
    seed: int = 0,
    width: int = 64,
    height: int = 48,
    dropout_p: float = 0.0,
) -> PipelineResult:
    """Run the full synthetic pipeline, writing frames, grid, and detections."""
    frame_a, frame_b, gts = make_scene(width, height, seed)
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

    rgb = frame_b.to_float01()[:, :, 0][None, :, :]
    rgb = modality_dropout(rgb, probability=dropout_p, rng_seed=seed + 1)

    frame_conv = uniform_conv(philox(seed + 2), channels, 1, 3)
    event_conv = uniform_conv(philox(seed + 3), channels, channels, 3)
    frame_feats = conv2d(rgb, frame_conv, stride=4, pad=1)
    event_feats = conv2d(grid.as_tensor(), event_conv, stride=4, pad=1)
    pair = FeaturePair(frame_feats, event_feats)

    fused, _ = cafr_forward(pair, init_cafr_weights(channels, seed + 4))
    _check(fused.shape[0] == 2 * channels, "fusion must concatenate both streams")
    _check(bool(np.all(np.isfinite(fused))), "fused features must be finite")

    maps = [fused]
    for _ in range(3):
        maps.append(_halve(maps[-1]))
    fpn_w = init_fpn_weights([2 * channels] * 4, width=64, seed=seed + 5)
    pyr = build_fpn(maps, fpn_w, base_stride=4)

    cfg = HeadConfig(num_classes=3, width=64)
    head_w = init_head_weights(cfg, seed + 6)
    cls, reg = head_forward(pyr, head_w, cfg)
    _check(bool(np.all((cls > 0.0) & (cls < 1.0))), "classification scores must be in (0,1)")

    anchors = gen_pyramid_anchors(pyr, cfg)
    _check(cls.shape[0] == len(anchors), "head rows must cover every anchor")
    dets = decode_head(cls, reg, anchors, image_id=0, score_threshold=0.3, iou_threshold=0.5)
    _check(len(dets) > 0, "decode produced no detections")
    for c in np.unique(dets.category_id):
        same = dets.bbox[dets.category_id == c]
        ious = _iou_matrix(same, same)
        np.fill_diagonal(ious, 0.0)
        _check(bool(np.all(ious <= 0.5)), "NMS left overlapping boxes")

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
