"""Boundary sweep: every numeric flag of every subcommand at 0, -1, nan and inf.

Each case runs ``cli.main`` in-process on tiny fixtures and must end in a
result (exit 0), a typed error (exit 1) or a usage error (exit 2), never in
a traceback. Huge values are swept only for evt2grid's grid dims,
pipeline-demo's scene dims, warp's output dims, head-decode's levels and base
stride, and the CAFR feature dims and channels of cafr-gradcheck and
cafr-forward, whose stages check their size before they allocate; not every
allocating stage does, so elsewhere they could really allocate.

A second sweep varies file content rather than flags: each calibration key
out of the float range or non-numeric, and a calibration file or a weight
bundle manifest nested too deep to parse.
"""

import json
import shutil
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
    init_cafr_weights,
    save_weights,
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


@pytest.mark.parametrize(
    "extra, scene, tokens",
    [
        pytest.param(["--width=1000000000000"], "1000000000000x13", 10**12, id="huge-width"),
        pytest.param(["--height=1000000000000"], "17x1000000000000", 5 * 25 * 10**10, id="huge-height"),
        # 307 020 pixels, inside one DSEC frame, but 5 x 4515 stride-4 tokens
        pytest.param(["--width=17", "--height=18060"], "17x18060", 22_575, id="odd-aspect"),
    ],
)
def test_a_scene_over_the_fusion_budget_exits_1_before_the_scene_is_drawn(
    capsys, tmp_path, inputs, extra, scene, tokens
):
    tracemalloc.start()
    try:
        code = run_case("pipeline-demo", extra, inputs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        f"error: CAFR fusion of a {scene} scene needs {tokens} tokens, "
        "over the 19200-token budget\n"
    )
    assert peak < 4 * 1024 * 1024  # every frame asked for is over 100 TB, or 2.5 MB
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "case, extra, message",
    [
        pytest.param(
            "warp", ["--out-width=1000000000000"],
            "a 1000000000000x6 warp needs 1248000000000000 bytes, over the 1073741824-byte budget",
            id="warp-out-width",
        ),
        pytest.param(
            "warp", ["--out-height=1000000000000"],
            "a 8x1000000000000 warp needs 1664000000000000 bytes, over the 1073741824-byte budget",
            id="warp-out-height",
        ),
        pytest.param(
            "head-decode", ["--levels=1000000000000x1000000000000,1x1,1x1,1x1,1x1"],
            "do not cover 9000000000000000000000036 anchors", id="head-decode-levels",
        ),
        # 10**400 is beyond the float range, so its anchor sizes are too
        pytest.param(
            "head-decode", [f"--base-stride={10**400}"], f"stride {10**400} is too large",
            id="head-decode-base-stride",
        ),
    ],
)
def test_a_huge_output_size_exits_1_before_the_output_is_allocated(
    capsys, tmp_path, inputs, case, extra, message
):
    tracemalloc.start()
    try:
        code = run_case(case, extra, inputs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    # every image or anchor set asked for is over 1 PB, or has sizes beyond float64
    assert peak < 4 * 1024 * 1024
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param(
            ["--height=1000000000000"],
            "CAFR fusion over 1000000000000x2 features needs 2000000000000 tokens, "
            "over the 19200-token budget",
            id="huge-height",
        ),
        pytest.param(
            ["--width=1000000000000"],
            "CAFR fusion over 2x1000000000000 features needs 2000000000000 tokens, "
            "over the 19200-token budget",
            id="huge-width",
        ),
        pytest.param(
            ["--height=200", "--width=200"],
            "CAFR fusion over 200x200 features needs 40000 tokens, over the 19200-token budget",
            id="200x200",
        ),
        pytest.param(
            ["--channels=1000000", "--height=1", "--width=1"],
            "a CAFR weight set for 1000000 channels needs 80000000000000 bytes, "
            "over the 1073741824-byte budget",
            id="huge-channels",
        ),
        # 3600 channels pass the weight budget (1.04 GB), but not their pair
        pytest.param(
            ["--channels=3600", "--height=120", "--width=160"],
            "a 3600x120x160 feature pair needs 1105920000 bytes, over the 1073741824-byte budget",
            id="pair-over-budget",
        ),
    ],
)
def test_cafr_gradcheck_over_a_budget_exits_1_before_the_pair_is_drawn(
    capsys, tmp_path, inputs, extra, message
):
    tracemalloc.start()
    try:
        code = run_case("cafr-gradcheck", extra, inputs, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert peak < 1024 * 1024  # the 200x200 pair alone would take 1.3 MB, a huge one TBs
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "channels, tokens, message, peak_bound",
    [
        # one token over the budget; the two 1x1x19201 inputs take 77 KB each on disk
        pytest.param(
            1, 19_201,
            "CAFR fusion over 1x19201 features needs 19201 tokens, over the 19200-token budget",
            2 * 1024 * 1024, id="19201-tokens",
        ),
        # the fewest channels whose ten C x C matrices exceed 1 GiB
        pytest.param(
            3664, 1,
            "a CAFR weight set for 3664 channels needs 1073991680 bytes, "
            "over the 1073741824-byte budget",
            2 * 1024 * 1024, id="3664-channels",
        ),
        pytest.param(
            100_000, 1,
            "a CAFR weight set for 100000 channels needs 800000000000 bytes, "
            "over the 1073741824-byte budget",
            2 * 1024 * 1024, id="100000-channels",
        ),
    ],
)
def test_cafr_forward_over_a_budget_exits_1_before_the_fusion(
    capsys, tmp_path, channels, tokens, message, peak_bound
):
    rng = philox(5)
    write_tensor(tmp_path / "frame.ftns", rng.standard_normal((channels, 1, tokens)))
    write_tensor(tmp_path / "event.ftns", rng.standard_normal((channels, 1, tokens)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["cafr-forward", "--frame-features", str(tmp_path / "frame.ftns"),
            "--event-features", str(tmp_path / "event.ftns"), "--out", str(out_dir / "f.ftns")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert peak < peak_bound
    assert not list(out_dir.iterdir())


CALIB_KEYS = ("K_rgb", "K_event", "R_rgb", "R_event", "R_event_rgb")
DEEP_JSON = b"[" * 100_000  # deeper than the JSON decoder's recursion limit


def calibration_with(inputs, key, value) -> bytes:
    """The fixture calibration with the first entry of ``key`` set to ``value``."""
    doc = json.loads((inputs / "calib.json").read_text())
    doc[key][0] = value
    return json.dumps(doc).encode()


# calibration entries that are not finite JSON numbers, by test id
BAD_ENTRIES = {
    "10**400": 10**400,
    "x": "x",
    "str-nan": "nan",
    "str-Infinity": "Infinity",
    "str-2": "2",
    "true": True,
    "NaN": float("nan"),
    "Infinity": float("inf"),
}

FILE_CASES = [
    pytest.param(
        case, "calib.json", (key, value), f"'{key}' contains", id=f"{case}:{key}={label}"
    )
    for case in ("warp", "warp-labels")
    for key in CALIB_KEYS
    for label, value in BAD_ENTRIES.items()
] + [
    pytest.param(
        case, "calib.json", DEEP_JSON, "calibration is not valid JSON", id=f"{case}:nested"
    )
    for case in ("warp", "warp-labels")
] + [
    pytest.param(
        "cafr-forward", "bundle/manifest.json", DEEP_JSON, "bundle manifest is not valid JSON",
        id="cafr-forward:nested-manifest",
    )
]


@pytest.mark.parametrize("case, name, content, message", FILE_CASES)
def test_a_bad_input_file_exits_1_and_writes_nothing(
    capsys, tmp_path, inputs, case, name, content, message
):
    # the case's inputs, with the one file ``name`` replaced
    shutil.copytree(inputs, tmp_path / "in")
    if isinstance(content, tuple):
        content = calibration_with(inputs, *content)
    extra = []
    if case == "cafr-forward":
        save_weights(init_cafr_weights(2), tmp_path / "in" / "bundle")
        extra = ["--weights", str(tmp_path / "in" / "bundle")]
    (tmp_path / "in" / name).write_bytes(content)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run_case(case, extra, tmp_path / "in", out_dir)
    out, err = capsys.readouterr()
    assert (code, out) == (1, ""), err
    assert "Traceback" not in err
    assert err.startswith("error:") and message in err
    assert not list(out_dir.iterdir())
