"""Synthetic end-to-end demo: scene construction, the Detector chain and full-run determinism."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from evframe import (
    Detector,
    DomainError,
    HeadConfig,
    decode_detections,
    encode_detections,
    init_cafr_weights,
    init_fpn_weights,
    init_head_weights,
    run_pipeline_demo,
    warp_image,
)
from evframe import demo
from evframe.demo import make_scene
from evframe.tensor_math import philox, uniform_conv

ROOT = Path(__file__).resolve().parent.parent


def test_scene_is_seed_deterministic():
    a1, b1, g1 = make_scene(seed=4)
    a2, b2, g2 = make_scene(seed=4)
    assert np.array_equal(a1.pixels, a2.pixels)
    assert np.array_equal(b1.pixels, b2.pixels)
    assert g1[0].bbox == g2[0].bbox


def test_scene_budget_is_the_fusion_budget_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(demo, "MAX_TOKENS", 16 * 12)
    make_scene(64, 48)  # exactly at the budget: a 16x12 stride-4 feature map
    with pytest.raises(DomainError) as exc:
        make_scene(65, 48)
    assert str(exc.value) == "CAFR fusion of a 65x48 scene needs 204 tokens, over the 192-token budget"


def test_the_scene_budget_is_one_dsec_frame():
    make_scene(640, 480)
    message = "^CAFR fusion of a 641x480 scene needs 19320 tokens, over the 19200-token budget$"
    with pytest.raises(DomainError, match=message):
        make_scene(641, 480)


def test_a_demo_of_a_non_integer_width_is_refused_before_any_write(tmp_path):
    with pytest.raises(DomainError) as exc:
        run_pipeline_demo(tmp_path / "d", width=64.0)
    assert str(exc.value) == "width must be an int >= 1, got 64.0"
    assert not (tmp_path / "d").exists()


def test_scene_block_moves_right():
    a, b, gts = make_scene(seed=4)
    assert not np.array_equal(a.pixels, b.pixels)
    x, y, w, h = gts[0].bbox
    # ground truth frames the block in the later frame
    block = b.pixels[int(y) : int(y + h), int(x) : int(x + w), 0]
    assert block.mean() < 80  # dark block on a bright background


def test_demo_run_is_deterministic(tmp_path):
    r1 = run_pipeline_demo(tmp_path / "a", seed=11)
    r2 = run_pipeline_demo(tmp_path / "b", seed=11)
    assert r1.n_events == r2.n_events
    assert r1.n_detections == r2.n_detections
    assert r1.map == r2.map
    d1 = decode_detections((tmp_path / "a" / "detections.jsonl").read_bytes())
    d2 = decode_detections((tmp_path / "b" / "detections.jsonl").read_bytes())
    assert d1 == d2


def test_demo_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    res = run_pipeline_demo(out, seed=2, width=48, height=32)
    for name in ("frame_a.pnm", "frame_b.pnm", "detections.jsonl", "ground_truth.jsonl", "summary.json"):
        assert (out / name).exists(), name
    assert res.grid_shape[0] == 8
    assert res.fused_shape[0] == 16
    assert 0.0 <= res.map <= 1.0


def test_demo_full_dropout_still_completes(tmp_path):
    # with the frame stream blanked the event half must carry the pipeline
    res = run_pipeline_demo(tmp_path / "d", seed=1, dropout_p=1.0)
    assert res.n_detections > 0


def test_a_detector_of_the_bench_weights_gives_the_bench_detections(monkeypatch):
    # the bench's own chain and a Detector of its weights, on one scene: the
    # same bytes mean the bench can drop its copy without a new reference
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    model = workloads.DetectModel(workloads.REF_SEED)
    detector = Detector(
        frame_stem=model.frame_stem,
        event_stem=model.event_stem,
        cafr=model.cafr,
        fpn=model.fpn,
        head=model.head,
        cfg=model.cfg,
    )
    scene = make_scene(64, 48, workloads.REF_SEED)
    bench = workloads.detect_frame(model, scene, 0)
    frame_b = scene[1]
    aligned = warp_image(model.homography, frame_b, frame_b.width, frame_b.height)
    fused = detector.fuse(aligned.to_float01()[:, :, 0][None], bench["grid"].as_tensor())
    dets = detector.detect(fused, 0)
    assert len(dets) > 0
    assert encode_detections(dets) == encode_detections(bench["dets"])


def seeded_detector(seed: int) -> Detector:
    cfg = HeadConfig(num_classes=2, width=8)
    return Detector(
        frame_stem=uniform_conv(philox(seed), 4, 1, 3),
        event_stem=uniform_conv(philox(seed + 1), 4, 3, 3),
        cafr=init_cafr_weights(4, seed),
        fpn=init_fpn_weights([8] * 4, width=8, seed=seed),
        head=init_head_weights(cfg, seed),
        cfg=cfg,
    )


def test_the_detector_decodes_at_its_fixed_settings():
    rng = np.random.default_rng(3)
    detector = seeded_detector(3)
    fused = detector.fuse(rng.uniform(size=(1, 30, 38)), rng.standard_normal((3, 30, 38)))
    assert fused.shape == (8, 8, 10)  # 2C channels at stride 4, rounded up
    dets = detector.detect(fused, 7)
    assert 0 < len(dets) <= demo.PRE_NMS_TOP_K
    assert np.all(dets.score > demo.SCORE_THRESHOLD)
    assert set(dets.image_id.tolist()) == {7}
