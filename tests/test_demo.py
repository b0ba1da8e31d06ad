"""Synthetic end-to-end demo: scene construction and full-run determinism."""

import numpy as np
import pytest

from evframe import DomainError, decode_detections, run_pipeline_demo
from evframe import demo
from evframe.demo import make_scene


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
