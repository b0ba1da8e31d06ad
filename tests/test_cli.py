"""Command-line front end: exit codes, config merging, file plumbing."""

import hashlib
import json

import numpy as np
import pytest

from evframe import (
    CorruptionType,
    encode_detections,
    encode_image,
    DetectionRecord,
    DetectionTable,
    FeaturePair,
    cafr_forward,
    compose_homography,
    init_cafr_weights,
    load_weights,
    read_tensor,
    save_weights,
    warp_image,
    write_tensor,
)
from evframe.cli import main
from evframe.fusion_cafr import weight_arrays
from conftest import calibration_json, philox, rgb_image, gray_image, small_rig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_events_csv(path):
    path.write_text(
        "t,x,y,p\n"
        "100,0,0,1\n"
        "200,1,0,1\n"
        "300,1,1,-1\n"
        "400,2,2,1\n"
    )
    return path


@pytest.fixture
def identity_calib(tmp_path):
    import numpy as np
    from evframe import CameraRig

    k = np.array([[100.0, 0.0, 32.0], [0.0, 100.0, 24.0], [0.0, 0.0, 1.0]])
    rig = CameraRig(k, k.copy(), np.eye(3), np.eye(3), np.eye(3))
    p = tmp_path / "calib.json"
    p.write_bytes(calibration_json(rig))
    return p


# -- exit-code contract ----------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "evt2grid", "--input", str(tmp_path / "e.csv"))
    assert code == 2
    assert "--bins" in err or "--out" in err


def test_missing_input_file_is_a_runtime_error(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "evt2grid",
        "--input", str(tmp_path / "absent.csv"),
        "--bins", "5",
        "--out", str(tmp_path / "g.ftns"),
    )
    assert code == 1
    assert err.strip()


def test_help_exits_cleanly_for_every_subcommand(capsys):
    for sub in (
        "simulate-events", "evt2grid", "warp", "warp-labels", "corrupt",
        "corrupt-dataset", "cafr-forward", "cafr-gradcheck", "head-decode",
        "eval-map", "eval-mpc", "pipeline-demo",
    ):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "--config" in out


# -- evt2grid -------------------------------------------------------------------


def test_evt2grid_happy_path(capsys, tmp_path):
    csv = write_events_csv(tmp_path / "e.csv")
    out = tmp_path / "g.ftns"
    code, _, err = run(capsys, "evt2grid", "--input", str(csv), "--bins", "5", "--out", str(out))
    assert code == 0, err
    grid = read_tensor(out)
    assert grid.shape == (5, 3, 3)  # dims inferred from the events
    assert float(grid.sum()) == pytest.approx(1 + 1 - 1 + 1, abs=1e-9)


def test_evt2grid_explicit_dims(capsys, tmp_path):
    csv = write_events_csv(tmp_path / "e.csv")
    out = tmp_path / "g.ftns"
    code, _, _ = run(
        capsys, "evt2grid", "--input", str(csv), "--bins", "3",
        "--width", "10", "--height", "8", "--out", str(out),
    )
    assert code == 0
    assert read_tensor(out).shape == (3, 8, 10)


@pytest.mark.parametrize(
    "body, code, err",
    [
        (b"t,x,y,p\n1,0,0,1\n2,0,0,0\n", 1, "error: line 3: polarity must be -1 or +1, got 0\n"),
        (b"t,x,y,p\n+1, 0,0,1\n", 0, ""),
    ],
    ids=["zero-polarity", "signed-and-padded-fields"],
)
def test_evt2grid_reads_outside_csv(capsys, tmp_path, body, code, err):
    csv = tmp_path / "e.csv"
    csv.write_bytes(body)
    out = tmp_path / "g.ftns"
    got_code, stdout, got_err = run(capsys, "evt2grid", "--input", str(csv), "--bins", "2", "--out", str(out))
    assert (got_code, got_err) == (code, err)
    if code:
        assert stdout == ""
        assert not out.exists()
    else:
        assert json.loads(stdout)["events"] == 1


# -- config file ------------------------------------------------------------------


def test_config_file_supplies_flags(capsys, tmp_path):
    csv = write_events_csv(tmp_path / "e.csv")
    out = tmp_path / "g.ftns"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(csv), "bins": 4, "out": str(out)}))
    code, _, err = run(capsys, "evt2grid", "--config", str(cfg))
    assert code == 0, err
    assert read_tensor(out).shape[0] == 4


def test_explicit_flags_beat_the_config(capsys, tmp_path):
    csv = write_events_csv(tmp_path / "e.csv")
    out = tmp_path / "g.ftns"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(csv), "bins": 4, "out": str(out)}))
    code, _, _ = run(capsys, "evt2grid", "--config", str(cfg), "--bins", "7")
    assert code == 0
    assert read_tensor(out).shape[0] == 7


def test_unknown_config_key_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"binz": 4}))
    code, _, err = run(capsys, "evt2grid", "--config", str(cfg))
    assert code == 2
    assert "binz" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["warp", "--convention", "printed"], None),
        (["warp"], {"convention": "printed"}),
        (["cafr-forward", "--sigmoid-map"], None),
        (["cafr-forward"], {"sigmoid_map": True}),
    ],
    ids=["warp-flag", "warp-config", "cafr-flag", "cafr-config"],
)
def test_removed_switches_are_usage_errors(capsys, tmp_path, argv, config):
    # every required input is named, so a switch still accepted would run the
    # command and fail on the missing files with exit code 1
    inputs = {
        "warp": {"--image": "in.ppm", "--calib": "calib.json", "--out": "out.ppm"},
        "cafr-forward": {"--frame-features": "f.ftns", "--event-features": "e.ftns", "--out": "o.ftns"},
    }
    for flag, name in inputs[argv[0]].items():
        argv = argv + [flag, str(tmp_path / name)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "convention" in err or "sigmoid" in err


# -- simulate-events ----------------------------------------------------------------


def test_simulate_events_writes_a_parsable_stream(capsys, tmp_path):
    rng = philox(1)
    a = gray_image(rng, 16, 12)
    bright = np.clip(a.pixels.astype(np.int32) + 60, 0, 255).astype(np.uint8)
    from evframe import ImagePNM

    b = ImagePNM(16, 12, 1, bright)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pa.write_bytes(encode_image(a))
    pb.write_bytes(encode_image(b))
    out = tmp_path / "events.csv"
    code, _, err = run(
        capsys, "simulate-events", "--frame-a", str(pa), "--frame-b", str(pb), "--out", str(out)
    )
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,p"
    assert len(lines) > 1


def test_simulate_events_refuses_frames_of_different_dims(capsys, tmp_path):
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pa.write_bytes(encode_image(gray_image(philox(1), 4, 3)))
    pb.write_bytes(encode_image(gray_image(philox(2), 5, 3)))
    out = tmp_path / "events.csv"
    code, stdout, err = run(
        capsys, "simulate-events", "--frame-a", str(pa), "--frame-b", str(pb), "--out", str(out)
    )
    assert (code, stdout, err) == (1, "", "error: frame dims differ: 4x3 vs 5x3\n")
    assert not out.exists()


# -- warp ------------------------------------------------------------------------


def test_warp_identity_rig_is_byte_lossless(capsys, tmp_path, identity_calib):
    img = rgb_image(philox(2), 20, 15)
    src = tmp_path / "in.ppm"
    src.write_bytes(encode_image(img))
    dst = tmp_path / "out.ppm"
    code, _, err = run(capsys, "warp", "--image", str(src), "--calib", str(identity_calib), "--out", str(dst))
    assert code == 0, err
    assert dst.read_bytes() == src.read_bytes()


def test_warp_nearest_writes_the_library_warp(capsys, tmp_path):
    img = rgb_image(philox(4), 20, 15)
    src = tmp_path / "in.ppm"
    src.write_bytes(encode_image(img))
    calib = tmp_path / "calib.json"
    calib.write_bytes(calibration_json(small_rig()))
    dst = tmp_path / "out.ppm"
    code, _, err = run(
        capsys, "warp", "--image", str(src), "--calib", str(calib), "--interp", "nearest", "--out", str(dst)
    )
    assert code == 0, err
    want = warp_image(compose_homography(small_rig()), img, 20, 15, interpolation="nearest")
    assert dst.read_bytes() == encode_image(want)


def test_warp_refuses_a_singular_rgb_intrinsic_matrix(capsys, tmp_path):
    src = tmp_path / "in.ppm"
    src.write_bytes(encode_image(rgb_image(philox(2), 20, 15)))
    calib = tmp_path / "calib.json"
    doc = json.loads(calibration_json(small_rig()))
    doc["K_rgb"] = np.diag([1e-5] * 3).ravel().tolist()
    calib.write_text(json.dumps(doc))
    dst = tmp_path / "out.ppm"
    code, out, err = run(capsys, "warp", "--image", str(src), "--calib", str(calib), "--out", str(dst))
    assert (code, out, err) == (1, "", "error: K_rgb is singular, cannot invert\n")
    assert not dst.exists()


def test_warp_labels_identity_keeps_boxes(capsys, tmp_path, identity_calib):
    labels = tmp_path / "labels.jsonl"
    recs = [
        DetectionRecord(0, 0, (5.0, 5.0, 10.0, 8.0), None),
        DetectionRecord(0, 1, (2.0, 3.0, 4.0, 4.0), 0.9),
    ]
    labels.write_bytes(encode_detections(recs))
    out = tmp_path / "warped.jsonl"
    code, stdout, err = run(
        capsys, "warp-labels", "--labels", str(labels), "--calib", str(identity_calib),
        "--clip-width", "64", "--clip-height", "48", "--out", str(out),
    )
    assert code == 0, err
    from evframe import decode_detections

    back = decode_detections(out.read_bytes())
    assert len(back) == 2
    assert back[0].bbox == pytest.approx(recs[0].bbox, abs=1e-9)


def test_warp_labels_drops_a_box_outside_the_clip_window(capsys, tmp_path, identity_calib):
    labels = tmp_path / "labels.jsonl"
    inside = DetectionRecord(0, 0, (5.0, 5.0, 10.0, 8.0), 0.5)
    labels.write_bytes(encode_detections([inside, DetectionRecord(0, 1, (70.0, 5.0, 4.0, 4.0), 0.9)]))
    out = tmp_path / "warped.jsonl"
    code, stdout, err = run(
        capsys, "warp-labels", "--labels", str(labels), "--calib", str(identity_calib),
        "--clip-width", "64", "--clip-height", "48", "--out", str(out),
    )
    assert code == 0, err
    assert json.loads(stdout) == {"kept": 1, "dropped": 1, "out": str(out)}
    from evframe import decode_detections

    (kept,) = decode_detections(out.read_bytes())
    assert (kept.image_id, kept.category_id, kept.score) == (0, 0, 0.5)
    assert kept.bbox == pytest.approx(inside.bbox, abs=1e-9)


# sha256 of the seeded labels file and of warp-labels' output for it, and the
# kept/dropped counts, recorded from the box-by-box implementation
WARP_LABELS_PINS = {
    "scored": (
        "9bd7191caeaaaaecbbc5373cda65dfc4c32ba72f3f77d9d2188faddf6d857fb0",
        "c28a8007f38023691926e4810b825e174322926d8d478c57b60771aa9a90d96b",
        316,
        184,
    ),
    "unscored": (
        "19cac7798c72af0a9cd02cd31242b28b27493da8c7fa85995efc98fe75e46c41",
        "af88ff240fae8b27d4edebf2d6125eceae212a23f264435f54835d82eda4846e",
        316,
        184,
    ),
}


@pytest.mark.parametrize("case", sorted(WARP_LABELS_PINS))
def test_warp_labels_under_a_rotated_rig_gives_the_pinned_bytes(capsys, tmp_path, case):
    # 500 seeded boxes around a 64x48 window under a rotated rig: some are
    # kept whole, some clipped at an edge and some dropped
    rng = philox(27)
    n = 500
    xy = rng.uniform(-30.0, 80.0, size=(n, 2))
    wh = rng.uniform(0.5, 30.0, size=(n, 2))
    ids, cats = rng.integers(0, 5, size=n), rng.integers(0, 3, size=n)
    scores = rng.uniform(0.0, 1.0, size=n) if case == "scored" else np.full(n, np.nan)
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes(encode_detections(DetectionTable(ids, cats, np.hstack([xy, wh]), scores)))
    calib = tmp_path / "calib.json"
    calib.write_bytes(calibration_json(small_rig(0.3, -0.2, 0.25)))
    out = tmp_path / "warped.jsonl"
    code, stdout, err = run(
        capsys, "warp-labels", "--labels", str(labels), "--calib", str(calib),
        "--clip-width", "64", "--clip-height", "48", "--out", str(out),
    )
    labels_sha, out_sha, kept, dropped = WARP_LABELS_PINS[case]
    assert (code, err) == (0, "")
    assert stdout == json.dumps({"dropped": dropped, "kept": kept, "out": str(out)}, indent=2) + "\n"
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha


def test_warp_over_the_memory_budget_exits_1_without_allocating(capsys, tmp_path, identity_calib):
    src = tmp_path / "in.ppm"
    src.write_bytes(encode_image(rgb_image(philox(2), 20, 15)))
    dst = tmp_path / "out.ppm"
    code, out, err = run(
        capsys, "warp", "--image", str(src), "--calib", str(identity_calib),
        "--out", str(dst), "--out-width", "100000000",
    )
    assert (code, out) == (1, "")
    assert err == "error: a 100000000x15 warp needs 312000000000 bytes, over the 1073741824-byte budget\n"
    assert not dst.exists()


@pytest.mark.parametrize(
    "clip, n_boxes",
    [(["nan", "48"], 1), (["-5", "48"], 1), (["64", "0"], 1), (["64", "inf"], 1), (["nan", "48"], 0)],
    ids=["nan-width", "negative-width", "zero-height", "inf-height", "nan-width-no-boxes"],
)
def test_warp_labels_refuses_a_bad_clip_window(capsys, tmp_path, identity_calib, clip, n_boxes):
    # the window is checked before any box, so an empty labels file is refused too
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes(encode_detections([DetectionRecord(0, 0, (5.0, 5.0, 10.0, 8.0), None)][:n_boxes]))
    out = tmp_path / "warped.jsonl"
    code, stdout, err = run(
        capsys, "warp-labels", "--labels", str(labels), "--calib", str(identity_calib),
        "--clip-width", clip[0], "--clip-height", clip[1], "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err.startswith("error: clip window must be finite and positive")
    assert not out.exists()


def test_warp_labels_refuses_a_box_whose_corners_overflow_by_its_input_row(capsys, tmp_path):
    # decode_detections accepts 1e308; its corners overflow float64 in the warp
    labels = tmp_path / "labels.jsonl"
    labels.write_bytes(encode_detections([
        DetectionRecord(0, 0, (5.0, 5.0, 10.0, 8.0), None),
        DetectionRecord(0, 1, (1e308, 1e308, 1e308, 1e308), 0.5),
    ]))
    calib = tmp_path / "calib.json"
    calib.write_bytes(calibration_json(small_rig(0.3, -0.2, 0.25)))
    out = tmp_path / "warped.jsonl"
    code, stdout, err = run(
        capsys, "warp-labels", "--labels", str(labels), "--calib", str(calib),
        "--clip-width", "64", "--clip-height", "48", "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err == (
        "error: row 1: box corners are not finite after the warp, "
        "got (1e+308, 1e+308, 1e+308, 1e+308)\n"
    )
    assert not out.exists()


# -- corrupt ----------------------------------------------------------------------


def test_corrupt_happy_path_and_determinism(capsys, tmp_path):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(3), 16, 16)))
    out1, out2 = tmp_path / "c1.ppm", tmp_path / "c2.ppm"
    for out in (out1, out2):
        code, _, err = run(
            capsys, "corrupt", "--image", str(src), "--type", "gaussian_noise",
            "--severity", "3", "--seed", "42", "--out", str(out),
        )
        assert code == 0, err
    assert out1.read_bytes() == out2.read_bytes()


def test_corrupt_unknown_type_names_the_options(capsys, tmp_path):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(3), 8, 8)))
    code, _, err = run(
        capsys, "corrupt", "--image", str(src), "--type", "vignette",
        "--severity", "1", "--out", str(tmp_path / "x.ppm"),
    )
    assert code == 1
    assert "vignette" in err and "gaussian_noise" in err


def test_corrupt_bad_severity(capsys, tmp_path):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(3), 8, 8)))
    code, _, err = run(
        capsys, "corrupt", "--image", str(src), "--type", "fog",
        "--severity", "9", "--out", str(tmp_path / "x.ppm"),
    )
    assert code == 1


def test_corrupt_dataset_respects_thread_env(capsys, tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(4), 12, 10)))
    monkeypatch.setenv("EVFRAME_THREADS", "2")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "corrupt-dataset", "--images", str(src), "--out-dir", str(out_dir))
    assert code == 0, err
    assert len(list(out_dir.glob("*.pnm"))) == 75
    assert (out_dir / "manifest.jsonl").exists()


def test_bad_thread_env_is_a_runtime_error(capsys, tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(4), 8, 8)))
    monkeypatch.setenv("EVFRAME_THREADS", "zero")
    code, _, err = run(
        capsys, "corrupt-dataset", "--images", str(src), "--out-dir", str(tmp_path / "o")
    )
    assert code == 1
    assert "EVFRAME_THREADS" in err


def test_zero_thread_env_is_refused_before_any_work(capsys, tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(4), 8, 8)))
    monkeypatch.setenv("EVFRAME_THREADS", "0")
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "corrupt-dataset", "--images", str(src), "--out-dir", str(out_dir))
    assert (code, out, err) == (1, "", "error: EVFRAME_THREADS must be >= 1, got 0\n")
    assert not out_dir.exists()


def test_absurd_thread_env_is_refused_before_any_work(capsys, tmp_path, monkeypatch):
    src = tmp_path / "img.ppm"
    src.write_bytes(encode_image(rgb_image(philox(4), 8, 8)))
    monkeypatch.setenv("EVFRAME_THREADS", "1000000")
    out_dir = tmp_path / "o"
    code, _, err = run(capsys, "corrupt-dataset", "--images", str(src), "--out-dir", str(out_dir))
    assert code == 1
    assert "workers" in err
    assert not out_dir.exists()


def test_corrupt_dataset_names_an_undecodable_image_and_writes_nothing(capsys, tmp_path):
    good, bad = tmp_path / "good.ppm", tmp_path / "bad.ppm"
    good.write_bytes(encode_image(rgb_image(philox(4), 8, 8)))
    bad.write_bytes(good.read_bytes()[:5])
    out_dir = tmp_path / "o"
    code, out, err = run(
        capsys, "corrupt-dataset", "--images", str(good), str(bad), "--out-dir", str(out_dir)
    )
    assert (code, out, err) == (1, "", f"error: {bad}: truncated PNM header\n")
    assert not out_dir.exists()


# -- fusion subcommands ----------------------------------------------------------------


def feature_pair_files(tmp_path, seed, shape):
    rng = philox(seed)
    ff, fe = tmp_path / "ff.ftns", tmp_path / "fe.ftns"
    write_tensor(ff, rng.standard_normal(shape))
    write_tensor(fe, rng.standard_normal(shape))
    return ["--frame-features", str(ff), "--event-features", str(fe)]


def test_cafr_forward_writes_fused_features(capsys, tmp_path):
    inputs = feature_pair_files(tmp_path, 5, (4, 3, 2))
    out = tmp_path / "fused.ftns"
    code, _, err = run(capsys, "cafr-forward", *inputs, "--seed", "9", "--out", str(out))
    assert code == 0, err
    assert read_tensor(out).shape == (8, 3, 2)


@pytest.mark.parametrize("skip", [[], ["--skip-attention"], ["--skip-enhance", "--skip-refine"]])
def test_cafr_forward_branch_slices_the_dual_output(capsys, tmp_path, skip):
    inputs = feature_pair_files(tmp_path, 6, (3, 2, 2))

    def fuse(branch, channels):
        out = tmp_path / f"{branch}.ftns"
        argv = ["cafr-forward", *inputs, "--branch", branch, *skip, "--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(stdout) == {"branch": branch, "out": str(out), "shape": [channels, 2, 2]}
        return read_tensor(out)

    dual = fuse("dual", 6)
    assert fuse("frame", 3).tobytes() == dual[:3].tobytes()
    assert fuse("event", 3).tobytes() == dual[3:].tobytes()


def test_cafr_forward_unknown_branch_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "fused.ftns"
    inputs = feature_pair_files(tmp_path, 6, (3, 2, 2))
    code, stdout, err = run(capsys, "cafr-forward", *inputs, "--branch", "both", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "invalid choice: 'both'" in err
    assert not out.exists()


def test_cafr_forward_reads_a_weight_bundle(capsys, tmp_path):
    inputs = feature_pair_files(tmp_path, 7, (4, 3, 2))
    bundle = tmp_path / "weights"
    save_weights(init_cafr_weights(4, seed=2), bundle)
    out = tmp_path / "fused.ftns"
    code, _, err = run(capsys, "cafr-forward", *inputs, "--weights", str(bundle), "--out", str(out))
    assert code == 0, err
    pair = FeaturePair(read_tensor(inputs[1]), read_tensor(inputs[3]))
    want, _ = cafr_forward(pair, load_weights(bundle))
    assert np.array_equal(read_tensor(out), want.astype(np.float32))


def test_cafr_forward_broken_bundle_exits_1(capsys, tmp_path):
    ff = tmp_path / "ff.ftns"
    write_tensor(ff, np.ones((2, 2, 2)))
    bundle = tmp_path / "weights"
    bundle.mkdir()
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(
        capsys, "cafr-forward", "--frame-features", str(ff), "--event-features", str(ff),
        "--weights", str(bundle), "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err == "error: weight bundle is missing member 'conv1x1_f.kernel'\n"
    assert not out.exists()


def test_cafr_forward_bundle_for_other_channels_exits_1(capsys, tmp_path):
    inputs = feature_pair_files(tmp_path, 7, (4, 3, 2))
    bundle = tmp_path / "weights"
    save_weights(init_cafr_weights(3, seed=2), bundle)
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(capsys, "cafr-forward", *inputs, "--weights", str(bundle), "--out", str(out))
    assert (code, stdout, err) == (1, "", "error: pair has 4 channels, weights expect 3\n")
    assert not out.exists()


def test_cafr_forward_overflowing_attention_prints_only_the_error(capsys, tmp_path):
    # queries of +1e38 against keys of -1e38 on inputs of 1e38: the scores
    # overflow to -inf, which is refused without a numpy warning first
    w = init_cafr_weights(2)
    for name, arr in weight_arrays(w).items():
        if name.endswith(".kernel") or name.startswith("wq_"):
            arr[...] = 1e38
        elif name.startswith("wk_"):
            arr[...] = -1e38
    bundle = tmp_path / "weights"
    save_weights(w, bundle)
    ff = tmp_path / "ff.ftns"
    write_tensor(ff, np.full((2, 3, 4), 1e38, dtype=np.float32))
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(
        capsys, "cafr-forward", "--frame-features", str(ff), "--event-features", str(ff),
        "--weights", str(bundle), "--out", str(out),
    )
    assert (code, stdout, err) == (1, "", "error: softmax input must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "member, value, message",
    [
        ("wq_f", np.zeros((4, 3)), "wq_f must be 4x4, got (4, 3)"),
        ("wq_f", np.full((4, 4), np.nan), "wq_f must be finite"),
        ("conv1x1_f.kernel", np.zeros((4, 4)), "kernel must be rank 4, got rank 2"),
        ("conv1x1_f.bias", np.zeros(3), "bias shape (3,) does not match 4 outputs"),
        (
            "conv1x1_f.kernel", np.zeros((4, 4, 3, 3)),
            "activation conv must be 4x4x1x1, got (4, 4, 3, 3)",
        ),
    ],
    ids=["linear-shape", "linear-nan", "kernel-rank", "bias-length", "kernel-3x3"],
)
def test_cafr_forward_refuses_a_malformed_bundle_member(capsys, tmp_path, member, value, message):
    inputs = feature_pair_files(tmp_path, 7, (4, 3, 2))
    bundle = tmp_path / "weights"
    save_weights(init_cafr_weights(4, seed=2), bundle)
    write_tensor(bundle / (member.replace(".", "_") + ".ftns"), value)
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(capsys, "cafr-forward", *inputs, "--weights", str(bundle), "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_cafr_forward_refuses_a_pair_without_channels(capsys, tmp_path):
    inputs = feature_pair_files(tmp_path, 7, (0, 3, 2))
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(capsys, "cafr-forward", *inputs, "--out", str(out))
    assert (code, stdout, err) == (1, "", "error: channels must be an int >= 1, got 0\n")
    assert not out.exists()


def test_cafr_forward_refuses_a_zero_channel_bundle(capsys, tmp_path):
    inputs = feature_pair_files(tmp_path, 7, (0, 3, 4))
    bundle = tmp_path / "weights"
    save_weights(init_cafr_weights(1), bundle)
    # every member with its channel axes emptied: kernels (0, 0, 1, 1),
    # biases (0,), matrices (0, 0)
    for name, arr in weight_arrays(init_cafr_weights(1)).items():
        shape = tuple(0 if axis < 2 else n for axis, n in enumerate(arr.shape))
        write_tensor(bundle / (name.replace(".", "_") + ".ftns"), np.zeros(shape))
    out = tmp_path / "fused.ftns"
    code, stdout, err = run(capsys, "cafr-forward", *inputs, "--weights", str(bundle), "--out", str(out))
    assert (code, stdout, err) == (1, "", "error: channels must be an int >= 1, got 0\n")
    assert not out.exists()


def test_cafr_gradcheck_reports_worst_error(capsys):
    code, out, err = run(
        capsys, "cafr-gradcheck", "--channels", "3", "--height", "2", "--width", "2",
        "--probes", "10",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["max_rel_error"] < 1e-5


def test_cafr_gradcheck_tolerance_gate(capsys):
    code, _, err = run(
        capsys, "cafr-gradcheck", "--channels", "3", "--height", "2", "--width", "2",
        "--probes", "5", "--tolerance", "1e-30",
    )
    assert code == 1
    assert "tolerance" in err


# -- detection subcommands ---------------------------------------------------------


def test_head_decode_emits_detections(capsys, tmp_path):
    # one pyramid level of 2x2 cells, one anchor shape, one class
    cls = np.full((4 * 1, 1), 3.0)  # logits
    reg = np.zeros((4, 4))
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    write_tensor(clsf, 1.0 / (1.0 + np.exp(-cls)))
    write_tensor(regf, reg)
    out = tmp_path / "dets.jsonl"
    code, _, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf),
        "--levels", "2x2,1x1,1x1,1x1,1x1", "--out", str(out),
    )
    # 2x2+1+1+1+1 = 8 anchors with default 9 shapes... mismatch: rows must
    # cover every anchor, so this exercises the row-count validation instead
    assert code == 1
    assert err.strip()


def test_head_decode_full_grid(capsys, tmp_path):
    from evframe import HeadConfig

    cfg = HeadConfig(num_classes=2)
    n = (2 * 2 + 1 + 1 + 1 + 1) * cfg.anchors_per_position
    rng = philox(7)
    cls = rng.uniform(0.0, 0.3, size=(n, 2))
    cls[5, 0] = 0.95
    reg = np.zeros((n, 4))
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    write_tensor(clsf, cls)
    write_tensor(regf, reg)
    out = tmp_path / "dets.jsonl"
    code, stdout, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf),
        "--levels", "2x2,1x1,1x1,1x1,1x1", "--score-threshold", "0.5",
        "--image-id", "4", "--out", str(out),
    )
    assert code == 0, err
    from evframe import decode_detections

    dets = decode_detections(out.read_bytes())
    assert len(dets) >= 1
    assert all(d.image_id == 4 for d in dets)
    assert any(abs(d.score - float(cls[5, 0])) < 1e-6 for d in dets)


@pytest.mark.parametrize(
    "levels, message",
    [
        ("2x2,1x1,axb,1x1,1x1", "bad level shape 'axb', expected HxW"),
        ("2x2,1x1,1x1x1,1x1,1x1", "bad level shape '1x1x1', expected HxW"),
        ("2x2,0x1,1x1,1x1,1x1", "level dims must be positive, got '0x1'"),
        ("2x2,1x1,1x1,1x1", "--levels needs exactly 5 entries, got 4"),
        ("2x2,1x1,1x1,1x1,2x1", "head outputs (72, 1)/(72, 4) do not cover 81 anchors"),
    ],
    ids=["malformed", "three-dims", "zero-dim", "four-entries", "more-anchors-than-rows"],
)
def test_head_decode_refuses_bad_levels(capsys, tmp_path, levels, message):
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    write_tensor(clsf, np.full((72, 1), 0.9))
    write_tensor(regf, np.zeros((72, 4)))
    out = tmp_path / "dets.jsonl"
    code, stdout, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf), "--levels", levels, "--out", str(out)
    )
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_head_decode_refuses_a_stride_beyond_the_offsets_float32(capsys, tmp_path):
    # .ftns tensors are float32; at base stride 10**37 the coarse anchors are not
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    write_tensor(clsf, np.full((45, 1), 0.9))
    write_tensor(regf, np.zeros((45, 4)))
    out = tmp_path / "dets.jsonl"
    code, stdout, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf),
        "--levels", "1x1,1x1,1x1,1x1,1x1", "--base-stride", str(10**37), "--out", str(out),
    )
    message = "anchors are not finite in the offsets' float32: the largest entry is 1.43675e+39"
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_head_decode_names_a_non_finite_offset_row_in_python_floats(capsys, tmp_path):
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    reg = np.zeros((45, 4))
    reg[3, 0] = np.nan
    write_tensor(clsf, np.full((45, 1), 0.9))
    write_tensor(regf, reg)
    out = tmp_path / "dets.jsonl"
    code, stdout, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf),
        "--levels", "1x1,1x1,1x1,1x1,1x1", "--out", str(out),
    )
    assert (code, stdout, err) == (1, "", "error: offsets must be finite, got (nan, 0.0, 0.0, 0.0)\n")
    assert not out.exists()


def test_eval_map_matches_module_value(capsys, tmp_path):
    gts = [
        DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), None),
        DetectionRecord(0, 1, (50.0, 50.0, 10.0, 10.0), None),
    ]
    preds = [
        DetectionRecord(0, 0, (10.0, 10.0, 19.0, 19.0), 0.9),
        DetectionRecord(0, 1, (0.0, 0.0, 5.0, 5.0), 0.95),
        DetectionRecord(0, 1, (50.0, 50.0, 14.0, 10.0), 0.8),
    ]
    gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    gt_path.write_bytes(encode_detections(gts))
    pred_path.write_bytes(encode_detections(preds))
    code, out, err = run(capsys, "eval-map", "--pred", str(pred_path), "--gt", str(gt_path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["map"] == pytest.approx(0.575, abs=1e-9)
    assert doc["map50"] == pytest.approx(0.75, abs=1e-9)


def test_eval_map_out_writes_the_printed_report(capsys, tmp_path):
    gts = [DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), None)]
    gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    gt_path.write_bytes(encode_detections(gts))
    pred_path.write_bytes(encode_detections([DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), 0.9)]))
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "eval-map", "--pred", str(pred_path), "--gt", str(gt_path), "--out", str(report)
    )
    assert code == 0, err
    assert report.read_text() == out
    assert json.loads(out) == {"map": 1.0, "map50": 1.0, "per_class": {"0": 1.0}}


@pytest.mark.parametrize("case", ["gt-as-pred", "negative-cap", "zero-cap", "zero-union"])
def test_eval_map_domain_errors_exit_1(capsys, tmp_path, case):
    gts = [DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), None)]
    preds = [DetectionRecord(0, 0, (10.0, 10.0, 19.0, 19.0), 0.9)]
    extra = []
    if case == "gt-as-pred":
        preds = gts
    elif case == "negative-cap":
        extra = ["--max-detections", "-1"]
    elif case == "zero-cap":
        extra = ["--max-detections", "0"]
    else:
        # both areas underflow to 0.0, so the union is 0
        tiny = (3.0, 4.0, 1e-200, 1e-200)
        preds = [DetectionRecord(0, 0, tiny, 0.9)]
        gts = [DetectionRecord(0, 0, tiny, None)]
    gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    gt_path.write_bytes(encode_detections(gts))
    pred_path.write_bytes(encode_detections(preds))
    code, out, err = run(
        capsys, "eval-map", "--pred", str(pred_path), "--gt", str(gt_path), *extra
    )
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_eval_map_non_numeric_field_exits_1_naming_the_line(capsys, tmp_path):
    gts = [DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), None)]
    gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    gt_path.write_bytes(encode_detections(gts))
    pred_path.write_bytes(
        encode_detections([DetectionRecord(0, 0, (10.0, 10.0, 19.0, 19.0), 0.9)])
        + b'{"image_id": 0, "category_id": 0, "bbox": [1, 1, 2, 2], "score": "x"}\n'
    )
    code, out, err = run(capsys, "eval-map", "--pred", str(pred_path), "--gt", str(gt_path))
    assert code == 1
    assert err.startswith("error:")
    assert "line 2: score must be a number" in err
    assert out == ""


def test_eval_map_refuses_a_bbox_of_three_entries(capsys, tmp_path):
    gt_path, pred_path = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    gt_path.write_bytes(encode_detections([DetectionRecord(0, 0, (10.0, 10.0, 20.0, 20.0), None)]))
    pred_path.write_text('{"image_id": 0, "category_id": 0, "bbox": [1, 1, 2], "score": 0.9}\n')
    report = tmp_path / "report.json"
    code, out, err = run(
        capsys, "eval-map", "--pred", str(pred_path), "--gt", str(gt_path), "--out", str(report)
    )
    assert (code, out, err) == (1, "", "error: line 1: bbox must be a 4-element array\n")
    assert not report.exists()


def test_eval_mpc_full_grid(capsys, tmp_path):
    from evframe import CorruptionType

    per_type = {c.value: [0.4, 0.35, 0.3, 0.25, 0.2] for c in CorruptionType}
    src = tmp_path / "mpc.json"
    src.write_text(json.dumps({"per_type": per_type, "map_clean": 0.5}))
    code, out, err = run(capsys, "eval-mpc", "--input", str(src))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mpc"] == pytest.approx(0.3, abs=1e-12)
    assert doc["rpc_per_severity"][0] == pytest.approx(0.8, abs=1e-12)


def test_eval_mpc_without_map_clean_reports_mpc_and_writes_out(capsys, tmp_path):
    per_type = {c.value: [1, 0.5, 0.5, 0.5, 0] for c in CorruptionType}
    src, report = tmp_path / "mpc.json", tmp_path / "report.json"
    src.write_text(json.dumps({"per_type": per_type}))
    code, out, err = run(capsys, "eval-mpc", "--input", str(src), "--out", str(report))
    assert code == 0, err
    assert json.loads(out) == {"mpc": 0.5, "map_matrix": [[1.0, 0.5, 0.5, 0.5, 0.0]] * 15}
    assert report.read_text() == out


EVERY_TYPE = {c.value: [0.5] * 5 for c in CorruptionType}
NOT_A_TABLE = "input must be a JSON object with a 'per_type' table of corruption type names to severity lists"


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], NOT_A_TABLE),
        ({"per_type": []}, NOT_A_TABLE),
        ({"per_type": {**EVERY_TYPE, "vignette": [0.5] * 5}}, "unknown corruption type 'vignette'"),
        ({"per_type": {**EVERY_TYPE, "fog": [0.5] * 4}}, "type 'fog' needs exactly 5 severity entries"),
        ({"per_type": {**EVERY_TYPE, "fog": 5}}, "type 'fog' needs exactly 5 severity entries"),
        ({"per_type": {**EVERY_TYPE, "fog": None}}, "type 'fog' needs exactly 5 severity entries"),
        ({"per_type": {**EVERY_TYPE, "fog": "abcde"}}, "type 'fog' needs exactly 5 severity entries"),
        ({"per_type": {**EVERY_TYPE, "fog": {"a": 1}}}, "type 'fog' needs exactly 5 severity entries"),
    ],
    ids=["array", "per-type-array", "unknown-type", "short-row", "number-row", "null-row", "string-row", "object-row"],
)
def test_eval_mpc_refuses_a_malformed_document(capsys, tmp_path, doc, message):
    src, report = tmp_path / "mpc.json", tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval-mpc", "--input", str(src), "--out", str(report))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not report.exists()


def test_eval_mpc_missing_type_is_named(capsys, tmp_path):
    from evframe import CorruptionType

    per_type = {c.value: [0.4] * 5 for c in CorruptionType if c.value != "fog"}
    src = tmp_path / "mpc.json"
    src.write_text(json.dumps({"per_type": per_type}))
    code, _, err = run(capsys, "eval-mpc", "--input", str(src))
    assert code == 1
    assert "fog" in err


# -- pipeline demo ----------------------------------------------------------------


def test_pipeline_demo_smoke(capsys, tmp_path):
    out_dir = tmp_path / "demo"
    code, out, err = run(capsys, "pipeline-demo", "--out-dir", str(out_dir), "--seed", "3")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["n_detections"] > 0
    assert doc["n_events"] > 0
    assert (out_dir / "detections.jsonl").exists()
    # the emitted files support a follow-up evaluation run
    code2, out2, _ = run(
        capsys, "eval-map",
        "--pred", str(out_dir / "detections.jsonl"),
        "--gt", str(out_dir / "ground_truth.jsonl"),
    )
    assert code2 == 0
    assert "map" in json.loads(out2)


@pytest.mark.parametrize(
    "size, message",
    [
        (["--width", "0"], "width must be >= 17, got 0"),
        (["--width", "-5"], "width must be >= 17, got -5"),
        (["--width", "16"], "width must be >= 17, got 16"),
        (["--height", "12"], "height must be >= 13, got 12"),
    ],
)
def test_pipeline_demo_refuses_a_scene_too_small_for_its_block(capsys, tmp_path, size, message):
    out_dir = tmp_path / "demo"
    code, out, err = run(capsys, "pipeline-demo", "--out-dir", str(out_dir), *size)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("rate", ["1.5", "-0.1", "nan"])
def test_pipeline_demo_refuses_a_bad_dropout_before_writing_anything(capsys, tmp_path, rate):
    out_dir = tmp_path / "demo"
    code, out, err = run(capsys, "pipeline-demo", "--out-dir", str(out_dir), "--dropout", rate)
    assert (code, out, err) == (1, "", f"error: probability must be in [0, 1], got {float(rate)}\n")
    assert not out_dir.exists()


def test_pipeline_demo_runs_the_smallest_scene(capsys, tmp_path):
    code, _, err = run(
        capsys, "pipeline-demo", "--out-dir", str(tmp_path), "--width", "17", "--height", "13"
    )
    assert code == 0, err


# -- report bytes ------------------------------------------------------------------


def report_bytes(capsys, tmp_path, case):
    """Stdout, then the bytes of the JSON file the run wrote, for one case."""
    if case == "eval-map":
        rng = philox(41)
        gts, preds = [], []
        for image in range(4):
            for cat in range(3):
                x, y = rng.uniform(0, 40, 2)
                gts.append(DetectionRecord(image, cat, (x, y, 12.5, 9.25), None))
                for score in rng.uniform(0, 1, 3):
                    dx, dy = rng.normal(0, 3, 2)
                    preds.append(DetectionRecord(image, cat, (x + dx, y + dy, 12.0, 10.0), score))
        (tmp_path / "gt.jsonl").write_bytes(encode_detections(gts))
        (tmp_path / "pred.jsonl").write_bytes(encode_detections(preds))
        argv = ["eval-map", "--pred", "pred.jsonl", "--gt", "gt.jsonl", "--out", "report.json"]
        report = "report.json"
    elif case.startswith("eval-mpc"):
        per_type = {c.value: [0.61 - i / 37 - s / 19 for s in range(5)]
                    for i, c in enumerate(CorruptionType)}
        doc = {"per_type": per_type}
        if case.endswith("clean"):
            doc["map_clean"] = 0.73
        (tmp_path / "mpc.json").write_text(json.dumps(doc))
        argv = ["eval-mpc", "--input", "mpc.json", "--out", "report.json"]
        report = "report.json"
    else:
        argv = ["pipeline-demo", "--out-dir", "demo", "--seed", case.rpartition("/")[2]]
        report = "demo/summary.json"
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return out.encode(), (tmp_path / report).read_bytes()


# sha256 prefixes of each case's stdout and report bytes, recorded while the
# reports were still built by hand-written to_dict methods
REPORT_DIGESTS = {
    "eval-map": "4c905bbf3378c83c",
    "eval-mpc": "8c544af8ae5c5708",
    "eval-mpc/map_clean": "edffcab702a498fa",
    "pipeline-demo/0": "43bcfb8d6bcdf4f4",
    "pipeline-demo/3": "bfadee31d2dba82a",
}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_json_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for part in report_bytes(capsys, tmp_path, case):
        h.update(len(part).to_bytes(8, "little") + part)
    assert h.hexdigest()[:16] == REPORT_DIGESTS[case]


# -- config entries are flags ------------------------------------------------------


def outcome(capsys, argv):
    """Stdout of a successful run and the bytes of the file its payload names as "out"."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    target = json.loads(out).get("out")
    return out, None if target is None else open(target, "rb").read()


# kind, subcommand, config entry, the same entry as flags, an explicit override
FLAG_KINDS = [
    ("int", "cafr-gradcheck", {"probes": 3}, ["--probes", "3"], ["--probes", "2"]),
    ("int-from-float", "cafr-gradcheck", {"probes": 3.0}, ["--probes", "3"], ["--probes", "2"]),
    ("float", "cafr-gradcheck", {"step": 1e-4}, ["--step", "1e-4"], ["--step", "0.001"]),
    ("str", "cafr-forward", {"out": "a.ftns"}, ["--out", "a.ftns"], ["--out", "b.ftns"]),
    ("choices", "cafr-forward", {"branch": "event"}, ["--branch", "event"], ["--branch", "frame"]),
    ("switch", "cafr-forward", {"skip_attention": False}, [], ["--skip-attention"]),
    (
        "nargs+",
        "corrupt-dataset",
        {"images": ["a.pgm", "b.pgm"]},
        ["--images", "a.pgm", "b.pgm"],
        ["--images", "a.pgm"],
    ),
]


@pytest.mark.parametrize("kind, sub, entry, flags, override", FLAG_KINDS, ids=[k[0] for k in FLAG_KINDS])
def test_a_config_entry_acts_as_its_flag_and_explicit_flags_win(
    capsys, tmp_path, monkeypatch, kind, sub, entry, flags, override
):
    monkeypatch.chdir(tmp_path)
    rng = philox(11)
    write_tensor("ff.ftns", rng.standard_normal((2, 3, 2)))
    write_tensor("fe.ftns", rng.standard_normal((2, 3, 2)))
    for name in ("a.pgm", "b.pgm"):
        (tmp_path / name).write_bytes(encode_image(gray_image(rng, 6, 5)))
    base = {
        "cafr-gradcheck": {"--channels": "2", "--height": "2", "--width": "2"},
        "cafr-forward": {"--frame-features": "ff.ftns", "--event-features": "fe.ftns", "--out": "o.ftns"},
        "corrupt-dataset": {"--images": "a.pgm", "--out-dir": "out"},
    }[sub]
    tested = "--" + next(iter(entry)).replace("_", "-")
    argv = [sub] + [a for flag, value in base.items() if flag != tested for a in (flag, value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    from_config = outcome(capsys, argv + ["--config", str(cfg)])
    assert from_config == outcome(capsys, argv + flags)
    overridden = outcome(capsys, argv + override)
    assert overridden != from_config
    assert outcome(capsys, argv + ["--config", str(cfg)] + override) == overridden


@pytest.mark.parametrize(
    "sub, config",
    [
        ("evt2grid", {"binz": 4}),
        ("evt2grid", {"bin": 4}),
        ("evt2grid", {"config": "other.json"}),
        ("evt2grid", {"help": True}),
        ("evt2grid", {"bins": None}),
        ("evt2grid", {"bins": {"n": 4}}),
        ("evt2grid", {"bins": [4]}),
        ("evt2grid", {"bins": True}),
        ("evt2grid", {"out": None}),
        ("evt2grid", {"bins": 2.7}),
        ("evt2grid", {"bins": float("inf")}),
        ("cafr-forward", {"skip_refine": 1}),
        ("cafr-forward", {"skip_refine": "true"}),
        ("cafr-forward", {"skip_refine": None}),
    ],
)
def test_refused_config_values_are_usage_errors_naming_the_key(capsys, tmp_path, sub, config):
    out_file = tmp_path / "out.ftns"
    required = {
        "evt2grid": {"input": str(write_events_csv(tmp_path / "e.csv")), "bins": 4},
        "cafr-forward": {"frame_features": "f.ftns", "event_features": "e.ftns"},
    }[sub]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**required, "out": str(out_file), **config}))
    code, out, err = run(capsys, sub, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert repr(list(config)[0]) in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "content", [None, b"\xff\xfe{}", b"{", b"[1]"], ids=["missing", "not-utf8", "not-json", "not-object"]
)
def test_an_unusable_config_file_is_a_usage_error(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    code, out, err = run(capsys, "evt2grid", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "config file" in err


def test_cafr_gradcheck_over_tolerance_still_prints_its_payload(capsys):
    code, out, err = run(
        capsys, "cafr-gradcheck", "--channels", "2", "--height", "2", "--width", "2",
        "--probes", "3", "--tolerance", "1e-30",
    )
    assert code == 1
    assert json.loads(out)["probes"] == 3
    assert err.startswith("error: max relative error")


# -- eval-mpc inputs the library refuses --------------------------------------------


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"map_clean": "abc"}, "clean mAP must be a number in (0,1], got 'abc'"),
        ({"map_clean": [1]}, "clean mAP must be a number in (0,1], got [1.0]"),
        ({"map_clean": 1.5}, "clean mAP must be a number in (0,1], got 1.5"),
        ({"map_clean": True}, "clean mAP must be a number in (0,1], got True"),
        ({"fog": [0.4, 0.4, True, 0.4, 0.4]}, "mAP entry True is not a number in [0,1]"),
        ({"fog": [0.4, 0.4, "x", 0.4, 0.4]}, "mAP entry 'x' is not a number in [0,1]"),
    ],
)
def test_eval_mpc_bad_values_exit_1_without_a_traceback(capsys, tmp_path, patch, message):
    from evframe import CorruptionType

    per_type = {c.value: [0.4] * 5 for c in CorruptionType}
    doc = {"per_type": per_type, "map_clean": 0.5}
    if "fog" in patch:
        per_type["fog"] = patch["fog"]
    else:
        doc.update(patch)
    src = tmp_path / "mpc.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval-mpc", "--input", str(src))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_eval_mpc_non_utf8_input_is_a_schema_error(capsys, tmp_path):
    src = tmp_path / "mpc.json"
    src.write_bytes(b'{"per_type": {"\xff": []}}')
    code, out, err = run(capsys, "eval-mpc", "--input", str(src))
    assert (code, out) == (1, "")
    assert "UTF-8" in err


def test_eval_mpc_integer_entries_are_reported_as_floats(capsys, tmp_path):
    from evframe import CorruptionType

    per_type = {c.value: [1, 0, 0, 0, 0] for c in CorruptionType}
    src = tmp_path / "mpc.json"
    src.write_text(json.dumps({"per_type": per_type, "map_clean": 1}))
    code, out, err = run(capsys, "eval-mpc", "--input", str(src))
    assert code == 0, err
    assert '"map_clean": 1.0' in out and "      1.0,\n      0.0," in out


def test_head_decode_rank_check_comes_from_the_library(capsys, tmp_path):
    clsf, regf = tmp_path / "cls.ftns", tmp_path / "reg.ftns"
    # one row per anchor of the five 1x1 levels, so only the rank is wrong
    write_tensor(clsf, np.ones((45, 2, 1)))
    write_tensor(regf, np.zeros((45, 4)))
    code, out, err = run(
        capsys, "head-decode", "--cls", str(clsf), "--reg", str(regf),
        "--levels", "1x1,1x1,1x1,1x1,1x1", "--out", str(tmp_path / "d.jsonl"),
    )
    assert (code, out) == (1, "")
    assert "error: expected rank-2 score/offset tensors, got (45, 2, 1) and (45, 4)" in err
