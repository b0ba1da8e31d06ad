"""Boundary sweep: every numeric flag of every subcommand at 0, -1, nan and inf.

Each case runs ``cli.main`` in-process on tiny fixtures and must end in a
result (exit 0), a typed error (exit 1) or a usage error (exit 2), never in
a traceback. Huge values are swept only for evt2grid's grid dims and
pipeline-demo's scene dims, whose stages estimate their memory before they
allocate; not every allocating stage does, so elsewhere they could really
allocate.
"""

import json
import tracemalloc

import numpy as np
import pytest

from evframe import (
    CameraRig,
    CorruptionType,
    DetectionRecord,
    HeadConfig,
    encode_detections,
    encode_image,
    write_tensor,
)
from evframe.cli import main
from conftest import calibration_json, gray_image, philox, rgb_image

BOUNDARY_VALUES = ("0", "-1", "nan", "inf")

# case name: (subcommand, base argv, numeric flags). "{in}" is the fixture
# directory and "{out}" the case's own output directory.
COMMANDS = {
    "simulate-events": (
        "simulate-events",
        ["--frame-a", "{in}/a.pgm", "--frame-b", "{in}/b.pgm", "--out", "{out}/e.csv"],
        ["--t-a", "--t-b", "--threshold", "--log-eps"],
    ),
    "evt2grid": (
        "evt2grid",
        ["--input", "{in}/events.csv", "--bins", "3", "--width", "4", "--height", "3",
         "--out", "{out}/g.ftns"],
        ["--bins", "--width", "--height"],
    ),
    "evt2grid-empty": (
        "evt2grid",
        ["--input", "{in}/empty.csv", "--bins", "3", "--width", "4", "--height", "3",
         "--out", "{out}/g.ftns"],
        ["--bins", "--width", "--height"],
    ),
    "warp": (
        "warp",
        ["--image", "{in}/rgb.ppm", "--calib", "{in}/calib.json", "--out", "{out}/w.ppm"],
        ["--out-width", "--out-height"],
    ),
    "warp-labels": (
        "warp-labels",
        ["--labels", "{in}/gt.jsonl", "--calib", "{in}/calib.json", "--clip-width", "20",
         "--clip-height", "15", "--out", "{out}/l.jsonl"],
        ["--clip-width", "--clip-height"],
    ),
    "corrupt": (
        "corrupt",
        ["--image", "{in}/rgb.ppm", "--type", "fog", "--severity", "2", "--out", "{out}/c.ppm"],
        ["--severity", "--seed"],
    ),
    "corrupt-dataset": (
        "corrupt-dataset",
        ["--images", "{in}/rgb.ppm", "--out-dir", "{out}/set"],
        ["--seed"],
    ),
    "cafr-forward": (
        "cafr-forward",
        ["--frame-features", "{in}/frame.ftns", "--event-features", "{in}/event.ftns",
         "--out", "{out}/fused.ftns"],
        ["--seed"],
    ),
    "cafr-gradcheck": (
        "cafr-gradcheck",
        ["--channels", "2", "--height", "2", "--width", "2", "--probes", "3", "--tolerance", "1"],
        ["--channels", "--height", "--width", "--probes", "--step", "--seed", "--tolerance"],
    ),
    "head-decode": (
        "head-decode",
        ["--cls", "{in}/cls.ftns", "--reg", "{in}/reg.ftns", "--levels", "2x2,1x1,1x1,1x1,1x1",
         "--out", "{out}/d.jsonl"],
        ["--base-stride", "--image-id", "--score-threshold", "--iou-threshold"],
    ),
    "eval-map": (
        "eval-map",
        ["--pred", "{in}/pred.jsonl", "--gt", "{in}/gt.jsonl"],
        ["--max-detections"],
    ),
    "eval-mpc": ("eval-mpc", ["--input", "{in}/mpc.json"], []),
    "pipeline-demo": (
        "pipeline-demo",
        ["--out-dir", "{out}/demo", "--width", "17", "--height", "13"],
        ["--seed", "--width", "--height", "--dropout"],
    ),
}

CASES = [
    pytest.param(case, extra, id=f"{case}:{extra[0] if extra else 'base'}")
    for case, (_, _, flags) in COMMANDS.items()
    for extra in [[]] + [[f"{flag}={value}"] for flag in flags for value in BOUNDARY_VALUES]
]


def run_case(case, extra, inputs, out_dir):
    """Run one case through ``main``; returns its exit code."""
    sub, base, _ = COMMANDS[case]
    return main([sub, *(a.format(**{"in": inputs, "out": out_dir}) for a in base), *extra])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One tiny input file of every kind the subcommands read."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "a.pgm").write_bytes(encode_image(gray_image(philox(1), 6, 4)))
    (d / "b.pgm").write_bytes(encode_image(gray_image(philox(2), 6, 4)))
    (d / "rgb.ppm").write_bytes(encode_image(rgb_image(philox(3), 8, 6)))
    (d / "events.csv").write_text("t,x,y,p\n100,0,0,1\n200,3,1,-1\n300,2,2,1\n")
    (d / "empty.csv").write_text("t,x,y,p\n")
    k = np.array([[100.0, 0.0, 4.0], [0.0, 100.0, 3.0], [0.0, 0.0, 1.0]])
    (d / "calib.json").write_bytes(
        calibration_json(CameraRig(k, k.copy(), np.eye(3), np.eye(3), np.eye(3)))
    )
    gts = [
        DetectionRecord(0, 0, (1.0, 1.0, 4.0, 3.0)),
        DetectionRecord(0, 1, (5.0, 5.0, 2.0, 2.0)),
    ]
    preds = [
        DetectionRecord(0, 0, (1.0, 1.5, 4.0, 3.0), 0.9),
        DetectionRecord(0, 1, (0.0, 0.0, 2.0, 2.0), 0.4),
    ]
    (d / "gt.jsonl").write_bytes(encode_detections(gts))
    (d / "pred.jsonl").write_bytes(encode_detections(preds))
    rng = philox(4)
    write_tensor(d / "frame.ftns", rng.standard_normal((2, 3, 3)))
    write_tensor(d / "event.ftns", rng.standard_normal((2, 3, 3)))
    n = (2 * 2 + 4) * HeadConfig(num_classes=2).anchors_per_position
    write_tensor(d / "cls.ftns", rng.uniform(0.0, 1.0, size=(n, 2)))
    write_tensor(d / "reg.ftns", rng.uniform(-0.5, 0.5, size=(n, 4)))
    per_type = {t.value: [0.5, 0.4, 0.3, 0.2, 0.1] for t in CorruptionType}
    (d / "mpc.json").write_text(json.dumps({"map_clean": 0.6, "per_type": per_type}))
    return d


@pytest.mark.parametrize("case, extra", CASES)
def test_boundary_values_end_in_an_exit_code_not_a_traceback(capsys, tmp_path, inputs, case, extra):
    code = run_case(case, extra, inputs, tmp_path)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if not extra:
        assert code == 0, err


@pytest.mark.parametrize(
    "case, extra, message",
    [
        pytest.param("cafr-gradcheck", ["--channels=-1"], "must be >= 1", id="gradcheck-channels"),
        pytest.param("cafr-gradcheck", ["--height=-1"], "must be >= 1", id="gradcheck-height"),
        pytest.param("cafr-gradcheck", ["--width=0"], "must be >= 1", id="gradcheck-width"),
        pytest.param("cafr-gradcheck", ["--tolerance=nan"], "tolerance", id="gradcheck-tolerance"),
        pytest.param(
            "head-decode", ["--score-threshold=nan"], "score_threshold", id="score-threshold"
        ),
        pytest.param(
            "evt2grid-empty", ["--width=-1", "--height=-1"], "sensor dims", id="dims-negative"
        ),
        pytest.param("evt2grid-empty", ["--width=0", "--height=0"], "sensor dims", id="dims-zero"),
        pytest.param(
            "simulate-events", ["--threshold=nan"], "threshold must be finite and positive", id="threshold-nan"
        ),
        pytest.param(
            "simulate-events", ["--threshold=inf"], "threshold must be finite and positive", id="threshold-inf"
        ),
        pytest.param(
            "simulate-events", ["--log-eps=nan"], "log_eps must be finite and positive", id="log-eps-nan"
        ),
        pytest.param(
            "simulate-events", ["--log-eps=inf"], "log_eps must be finite and positive", id="log-eps-inf"
        ),
        pytest.param(
            "cafr-gradcheck", ["--step=nan"], "step must be finite and positive", id="gradcheck-step-nan"
        ),
        pytest.param(
            "cafr-gradcheck", ["--step=inf"], "step must be finite and positive", id="gradcheck-step-inf"
        ),
        pytest.param(
            "head-decode", ["--image-id=9223372036854775808", "--score-threshold=1"], "image_id",
            id="image-id-no-box-kept",
        ),
    ],
)
def test_inputs_that_once_crashed_or_passed_silently_exit_1(
    capsys, tmp_path, inputs, case, extra, message
):
    code = run_case(case, extra, inputs, tmp_path)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.iterdir())  # nothing was written


@pytest.mark.parametrize("flag", ["--bins", "--width", "--height"])
def test_a_huge_grid_dim_exits_1_before_the_grid_is_allocated(capsys, tmp_path, inputs, flag):
    tracemalloc.start()
    try:
        code = run_case("evt2grid", [f"{flag}=1000000000000"], inputs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "voxel grid needs" in err and "budget" in err
    assert peak < 4 * 1024 * 1024  # every grid asked for is over 70 TB
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--width", "--height"])
def test_a_huge_scene_dim_exits_1_before_the_scene_is_drawn(capsys, tmp_path, inputs, flag):
    tracemalloc.start()
    try:
        code = run_case("pipeline-demo", [f"{flag}=1000000000000"], inputs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: a ") and "scene needs" in err and "134217728-byte budget" in err
    assert peak < 4 * 1024 * 1024  # every frame asked for is over 100 TB
    assert not list(tmp_path.iterdir())
