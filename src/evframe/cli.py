"""Command line front end.

One executable, twelve subcommands. Exit codes follow the usual convention:
0 on success, 1 when the inputs are semantically bad (any library domain
error), 2 for usage mistakes such as unknown flags, unknown subcommands,
missing required arguments, or a broken ``--config`` file.

Every subcommand accepts ``--config FILE`` pointing at a flat JSON object of
flag names to values. The entries are read as flags placed before the command
line's own, so explicit flags win and a flag's checks (required, type,
choices) apply to config values too. A key that does not name a flag of the
active subcommand, or a value of the wrong kind for its flag, is a usage error
naming the key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .corruption_bench import CorruptionSpec, CorruptionType, apply_corruption, corrupt_dataset
from .demo import run_pipeline_demo
from .detect_head import DEFAULT_NMS_IOU, DEFAULT_SCORE_THRESHOLD, HeadConfig
from .detect_head import decode_head, level_anchors
from .errors import MAX_BYTES, DomainError, EvframeError, SchemaError, ShapeError, check_budget
from .eval_metrics import DEFAULT_MAX_DETECTIONS, build_mpc_report, map_coco, mpc
from .event_core import DEFAULT_LOG_EPS, SimConfig, build_voxel_grid, simulate_events
from .formats_io import (
    DetectionTable,
    decode_detections,
    decode_events,
    decode_image,
    encode_detections,
    encode_events,
    encode_image,
    parse_calibration,
    read_tensor,
    write_tensor,
)
from .fusion_cafr import (
    FeaturePair,
    _check_probes,
    _check_tokens,
    cafr_forward,
    cafr_gradcheck,
    init_cafr_weights,
    load_weights,
)
from .geometry_align import compose_homography, warp_boxes, warp_image
from .tensor_math import philox

THREADS_ENV = "EVFRAME_THREADS"


# -- argument plumbing -------------------------------------------------------------


def _config_argv(parser: argparse.ArgumentParser, path: str) -> list:
    """The entries of the --config file at ``path`` spelled as flags of ``parser``.

    A key is a flag name (``-``/``_`` and leading dashes both accepted), a
    switch takes true or false, an ``nargs="+"`` flag takes a list or one
    value, and any other flag takes one string or number. Numbers keep
    their JSON spelling, except that an ``int`` flag takes an integral float
    as its integer. Anything else is a usage error naming the key.
    """
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        parser.error(f"config file {path} is not readable UTF-8 JSON: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object of flag names to values")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    argv = []
    for key, value in config.items():
        action = actions.get(key.lstrip("-").replace("-", "_"))
        if action is None:
            parser.error(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                parser.error(f"config key {key!r} takes true or false, got {value!r}")
            argv += [flag] if value else []
            continue
        items = value if action.nargs == "+" and isinstance(value, list) else [value]
        items = [_config_value(parser, key, action, v) for v in items]
        argv += [f"{flag}={items[0]}"] if len(items) == 1 else [flag, *items]
    return argv


def _config_value(parser, key: str, action, value) -> str:
    """One config value spelled for the flag's converter."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        parser.error(f"config key {key!r} takes a string or number, got {value!r}")
    if action.type is int and isinstance(value, float):
        if not value.is_integer():
            parser.error(f"config key {key!r} takes an integer, got {value!r}")
        value = int(value)
    return str(value)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_image(path):
    return decode_image(Path(path).read_bytes())


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise DomainError(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


# -- handlers ---------------------------------------------------------------------
#
# Each handler returns the JSON payload that main prints.


class _CheckFailed(Exception):
    """A check that ran to the end and failed; args are (payload, message)."""


def _cmd_simulate_events(ns) -> dict:
    cfg = SimConfig(threshold=ns.threshold, log_eps=ns.log_eps)
    frame_a = _read_image(ns.frame_a)
    frame_b = _read_image(ns.frame_b)
    stream = simulate_events(frame_a, frame_b, ns.t_a, ns.t_b, cfg)
    Path(ns.out).write_bytes(encode_events(stream))
    return {"events": len(stream.t), "out": str(ns.out)}


def _cmd_evt2grid(ns) -> dict:
    stream = decode_events(Path(ns.input).read_bytes(), ns.width, ns.height)
    grid = build_voxel_grid(stream, ns.bins)
    write_tensor(ns.out, grid.as_tensor())
    return {
        "bins": grid.bins,
        "height": grid.height,
        "width": grid.width,
        "events": len(stream.t),
        "mass": float(grid.data.sum()),
        "out": str(ns.out),
    }


def _cmd_warp(ns) -> dict:
    rig = parse_calibration(Path(ns.calib).read_bytes())
    hom = compose_homography(rig)
    img = _read_image(ns.image)
    out_w = ns.out_width if ns.out_width is not None else img.width
    out_h = ns.out_height if ns.out_height is not None else img.height
    warped = warp_image(hom, img, out_w, out_h, interpolation=ns.interp)
    Path(ns.out).write_bytes(encode_image(warped))
    return {"width": out_w, "height": out_h, "out": str(ns.out)}


def _cmd_warp_labels(ns) -> dict:
    rig = parse_calibration(Path(ns.calib).read_bytes())
    hom = compose_homography(rig)
    table = decode_detections(Path(ns.labels).read_bytes())
    boxes, kept = warp_boxes(hom, table.bbox, ns.clip_width, ns.clip_height)
    warped = DetectionTable(table.image_id[kept], table.category_id[kept], boxes, table.score[kept])
    Path(ns.out).write_bytes(encode_detections(warped))
    return {"kept": len(warped), "dropped": len(table) - len(warped), "out": str(ns.out)}


def _cmd_corrupt(ns) -> dict:
    try:
        ctype = CorruptionType(ns.type)
    except ValueError:
        names = ", ".join(t.value for t in CorruptionType)
        raise DomainError(f"unknown corruption type {ns.type!r}; valid types: {names}")
    img = _read_image(ns.image)
    out = apply_corruption(img, CorruptionSpec(ctype, ns.severity, ns.seed))
    Path(ns.out).write_bytes(encode_image(out))
    return {"type": ctype.value, "severity": ns.severity, "seed": ns.seed, "out": str(ns.out)}


def _cmd_corrupt_dataset(ns) -> dict:
    workers = _thread_count()
    rows = corrupt_dataset(ns.images, ns.out_dir, base_seed=ns.seed, workers=workers)
    return {
        "images": len(ns.images),
        "variants": len(rows),
        "workers": workers,
        "out_dir": str(ns.out_dir),
    }


def _cmd_cafr_forward(ns) -> dict:
    frame = read_tensor(ns.frame_features)
    event = read_tensor(ns.event_features)
    # weights before the pair, so the weight budget is checked before both
    # inputs are widened to float64
    if ns.weights is not None:
        weights = load_weights(ns.weights)
    else:
        weights = init_cafr_weights(frame.shape[0], seed=ns.seed)
    pair = FeaturePair(frame, event)
    fused, _ = cafr_forward(
        pair,
        weights,
        use_mul_add=not ns.skip_enhance,
        use_cross_att=not ns.skip_attention,
        use_fr=not ns.skip_refine,
    )
    c = pair.channels
    fused = {"dual": fused, "frame": fused[:c], "event": fused[c:]}[ns.branch]
    write_tensor(ns.out, fused)
    return {"shape": list(fused.shape), "branch": ns.branch, "out": str(ns.out)}


def _cmd_cafr_gradcheck(ns) -> dict:
    shape = (ns.channels, ns.height, ns.width)
    if min(shape) < 1:
        raise DomainError(f"--channels, --height and --width must be >= 1, got {shape}")
    if ns.tolerance is not None and math.isnan(ns.tolerance):
        raise DomainError("--tolerance must be a number, got nan")
    _check_tokens(ns.height, ns.width)
    _check_probes(ns.probes)
    c, h, w = shape
    check_budget(f"a {c}x{h}x{w} feature pair", 16 * c * h * w, "byte", MAX_BYTES)
    weights = init_cafr_weights(ns.channels, seed=ns.seed + 1)
    rng = philox(ns.seed)
    pair = FeaturePair(rng.standard_normal(shape), rng.standard_normal(shape))
    worst = cafr_gradcheck(pair, weights, probes=ns.probes, step=ns.step, seed=ns.seed + 2)
    payload = {"max_rel_error": worst, "probes": ns.probes, "step": ns.step, "shape": list(shape)}
    if ns.tolerance is not None and worst > ns.tolerance:
        raise _CheckFailed(
            payload, f"max relative error {worst:.6e} exceeds tolerance {ns.tolerance:g}"
        )
    return payload


def _parse_levels(text: str) -> list:
    """Parse 'HxW,HxW,...' into five (H, W) pairs."""
    shapes = []
    for part in text.split(","):
        bits = part.lower().split("x")
        try:
            h, w = (int(b) for b in bits)
        except ValueError:
            raise DomainError(f"bad level shape {part!r}, expected HxW")
        if h < 1 or w < 1:
            raise DomainError(f"level dims must be positive, got {part!r}")
        shapes.append((h, w))
    if len(shapes) != 5:
        raise DomainError(f"--levels needs exactly 5 entries, got {len(shapes)}")
    return shapes


def _cmd_head_decode(ns) -> dict:
    cls = read_tensor(ns.cls)
    reg = read_tensor(ns.reg)
    levels = _parse_levels(ns.levels)
    # the anchor table is fixed; the class count does not change it
    cfg = HeadConfig(num_classes=1)
    n = sum(h * w for h, w in levels) * cfg.anchors_per_position
    # counted before the anchors are built, which huge levels could not afford
    if cls.shape[:1] != (n,) or reg.shape[:1] != (n,):
        raise ShapeError(f"head outputs {cls.shape}/{reg.shape} do not cover {n} anchors")
    anchors = level_anchors(levels, ns.base_stride, cfg)
    dets = decode_head(
        cls,
        reg,
        anchors,
        image_id=ns.image_id,
        score_threshold=ns.score_threshold,
        iou_threshold=ns.iou_threshold,
    )
    Path(ns.out).write_bytes(encode_detections(dets))
    return {"detections": len(dets), "anchors": len(anchors), "out": str(ns.out)}


def _cmd_eval_map(ns) -> dict:
    preds = decode_detections(Path(ns.pred).read_bytes())
    gts = decode_detections(Path(ns.gt).read_bytes())
    payload = asdict(map_coco(preds, gts, max_detections=ns.max_detections))
    if ns.out is not None:
        _write_json(ns.out, payload)
    return payload


def _cmd_eval_mpc(ns) -> dict:
    try:
        # integers read as floats, so the report lists every mAP as a float
        data = json.loads(Path(ns.input).read_text(encoding="utf-8"), parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"input is not UTF-8 JSON: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("per_type"), dict):
        raise SchemaError(
            "input must be a JSON object with a 'per_type' table of "
            "corruption type names to severity lists"
        )
    per_type = data["per_type"]
    known = [t.value for t in CorruptionType]
    for name in per_type:
        if name not in known:
            raise DomainError(f"unknown corruption type {name!r}")
    missing = [n for n in known if n not in per_type]
    if missing:
        raise DomainError("missing corruption type(s): " + ", ".join(missing))
    matrix = [per_type[name] for name in known]
    if data.get("map_clean") is not None:
        payload = asdict(build_mpc_report(data["map_clean"], matrix))
    else:
        payload = {"mpc": mpc(matrix), "map_matrix": matrix}
    if ns.out is not None:
        _write_json(ns.out, payload)
    return payload


def _cmd_pipeline_demo(ns) -> dict:
    result = run_pipeline_demo(
        ns.out_dir,
        seed=ns.seed,
        width=ns.width,
        height=ns.height,
        dropout_p=ns.dropout,
    )
    return asdict(result)


# -- parser assembly ----------------------------------------------------------------


def _add_command(subparsers, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(name, help=help_text, description=help_text)
    parser.set_defaults(handler=handler)
    parser.add_argument(
        "--config",
        help="flat JSON object of flag names to values; explicit flags win",
    )
    return parser


def _build_parser() -> tuple:
    """The evframe parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="evframe",
        description="Event-frame fusion toolkit: simulation, alignment, "
        "fusion, detection decoding, corruption benchmarks, and evaluation.",
    )
    subparsers = parser.add_subparsers(metavar="COMMAND", dest="command", required=True)

    sub = _add_command(
        subparsers,
        "simulate-events",
        _cmd_simulate_events,
        "Emit threshold-crossing events between two grayscale frames.",
    )
    sub.add_argument("--frame-a", required=True, help="earlier frame (PGM)")
    sub.add_argument("--frame-b", required=True, help="later frame (PGM)")
    sub.add_argument("--t-a", type=int, default=0, help="start timestamp, microseconds")
    sub.add_argument("--t-b", type=int, default=1_000_000, help="end timestamp, microseconds")
    sub.add_argument("--threshold", type=float, default=0.1, help="log-intensity trigger level")
    sub.add_argument("--log-eps", type=float, default=DEFAULT_LOG_EPS, help="intensity floor")
    sub.add_argument("--out", required=True, help="output event CSV")

    sub = _add_command(
        subparsers,
        "evt2grid",
        _cmd_evt2grid,
        "Rasterize an event CSV into a time-binned voxel grid tensor.",
    )
    sub.add_argument("--input", required=True, help="event CSV")
    sub.add_argument("--bins", type=int, required=True, help="number of temporal bins")
    sub.add_argument("--width", type=int, help="sensor width; inferred when omitted")
    sub.add_argument("--height", type=int, help="sensor height; inferred when omitted")
    sub.add_argument("--out", required=True, help="output tensor file")

    sub = _add_command(
        subparsers,
        "warp",
        _cmd_warp,
        "Resample an image into the event camera plane via the rig homography.",
    )
    sub.add_argument("--image", required=True, help="input image (PNM)")
    sub.add_argument("--calib", required=True, help="camera rig calibration JSON")
    sub.add_argument("--out-width", type=int, help="output width; defaults to the input's")
    sub.add_argument("--out-height", type=int, help="output height; defaults to the input's")
    sub.add_argument(
        "--interp",
        choices=("bilinear", "nearest"),
        default="bilinear",
        help="sampling mode",
    )
    sub.add_argument("--out", required=True, help="output image (PNM)")

    sub = _add_command(
        subparsers,
        "warp-labels",
        _cmd_warp_labels,
        "Warp detection boxes through the rig homography and clip them.",
    )
    sub.add_argument("--labels", required=True, help="input detection JSONL")
    sub.add_argument("--calib", required=True, help="camera rig calibration JSON")
    sub.add_argument("--clip-width", type=float, required=True, help="target plane width")
    sub.add_argument("--clip-height", type=float, required=True, help="target plane height")
    sub.add_argument("--out", required=True, help="output detection JSONL")

    sub = _add_command(
        subparsers,
        "corrupt",
        _cmd_corrupt,
        "Apply one corruption type at one severity to an image.",
    )
    sub.add_argument("--image", required=True, help="input image (PNM)")
    sub.add_argument("--type", required=True, help="corruption type name")
    sub.add_argument("--severity", type=int, required=True, help="severity level, 1..5")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--out", required=True, help="output image (PNM)")

    sub = _add_command(
        subparsers,
        "corrupt-dataset",
        _cmd_corrupt_dataset,
        "Render every corruption type and severity for a set of images. "
        f"{THREADS_ENV} caps the worker fan-out.",
    )
    sub.add_argument("--images", nargs="+", required=True, help="input images (PNM)")
    sub.add_argument("--out-dir", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="base seed for per-variant seeds")

    sub = _add_command(
        subparsers,
        "cafr-forward",
        _cmd_cafr_forward,
        "Fuse a frame/event feature pair and write the fused tensor.",
    )
    sub.add_argument("--frame-features", required=True, help="frame feature tensor [C,H,W]")
    sub.add_argument("--event-features", required=True, help="event feature tensor [C,H,W]")
    sub.add_argument("--weights", help="weight bundle directory; seeded init when omitted")
    sub.add_argument("--seed", type=int, default=0, help="weight init seed when no bundle given")
    sub.add_argument(
        "--branch",
        choices=("dual", "frame", "event"),
        default="dual",
        help="emit the dual output or its frame or event half",
    )
    for stage, what in (
        ("enhance", "mutual enhancement"),
        ("attention", "cross attention"),
        ("refine", "statistics refinement"),
    ):
        sub.add_argument(f"--skip-{stage}", action="store_true", help=f"bypass the {what} stage")
    sub.add_argument("--out", required=True, help="output tensor file")

    sub = _add_command(
        subparsers,
        "cafr-gradcheck",
        _cmd_cafr_gradcheck,
        "Compare analytic fusion gradients against central differences.",
    )
    sub.add_argument("--channels", type=int, default=4)
    sub.add_argument("--height", type=int, default=3)
    sub.add_argument("--width", type=int, default=2)
    sub.add_argument("--probes", type=int, default=50, help="number of coordinates to probe")
    sub.add_argument("--step", type=float, default=1e-5, help="finite difference step")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--tolerance",
        type=float,
        help="fail (exit 1) when the worst relative error exceeds this",
    )

    sub = _add_command(
        subparsers,
        "head-decode",
        _cmd_head_decode,
        "Decode pyramid head scores and offsets into suppressed detections.",
    )
    sub.add_argument("--cls", required=True, help="score tensor [N,K]")
    sub.add_argument("--reg", required=True, help="offset tensor [N,4]")
    sub.add_argument(
        "--levels",
        required=True,
        help="five comma-separated HxW level shapes, finest first",
    )
    sub.add_argument("--base-stride", type=int, default=4, help="stride of the finest level")
    sub.add_argument("--image-id", type=int, default=0)
    sub.add_argument("--score-threshold", type=float, default=DEFAULT_SCORE_THRESHOLD)
    sub.add_argument("--iou-threshold", type=float, default=DEFAULT_NMS_IOU)
    sub.add_argument("--out", required=True, help="output detection JSONL")

    sub = _add_command(
        subparsers,
        "eval-map",
        _cmd_eval_map,
        "Score detections against ground truth with threshold-averaged mAP.",
    )
    sub.add_argument("--pred", required=True, help="detection JSONL")
    sub.add_argument("--gt", required=True, help="ground-truth JSONL")
    sub.add_argument("--max-detections", type=int, default=DEFAULT_MAX_DETECTIONS, help="per-image cap")
    sub.add_argument("--out", help="also write the report JSON here")

    sub = _add_command(
        subparsers,
        "eval-mpc",
        _cmd_eval_mpc,
        "Aggregate a full corruption mAP matrix into mPC and relative scores.",
    )
    sub.add_argument(
        "--input",
        required=True,
        help="JSON with 'per_type' (type name to 5 severity mAPs) and "
        "optionally 'map_clean'",
    )
    sub.add_argument("--out", help="also write the report JSON here")

    sub = _add_command(
        subparsers,
        "pipeline-demo",
        _cmd_pipeline_demo,
        "Run the synthetic end-to-end pipeline and write its artifacts.",
    )
    sub.add_argument("--out-dir", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--width", type=int, default=64, help="scene width")
    sub.add_argument("--height", type=int, default=48, help="scene height")
    sub.add_argument("--dropout", type=float, default=0.0, help="frame-branch dropout rate")

    return parser, subparsers.choices


def _with_config(commands: dict, argv: list) -> list:
    """``argv`` with the subcommand's --config entries spelled as flags
    right after the subcommand name, so that explicit flags, read later, win."""
    if not argv or argv[0] not in commands:
        return argv
    pre = argparse.ArgumentParser(prog=commands[argv[0]].prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    return [argv[0], *_config_argv(commands[argv[0]], path), *argv[1:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(_with_config(commands, argv))
    except SystemExit as exc:  # --help (0) or a usage error (2)
        return exc.code
    try:
        payload, failure = ns.handler(ns), None
    except _CheckFailed as exc:
        payload, failure = exc.args
    except (EvframeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
