"""Command line front end.

One executable, twelve subcommands. Exit codes follow the usual convention:
0 on success, 1 when the inputs are semantically bad (any library domain
error), 2 for usage mistakes such as unknown flags, unknown subcommands,
missing required arguments, or a broken ``--config`` file.

Every subcommand accepts ``--config FILE`` pointing at a flat JSON object of
flag names to values. Flags given on the command line always win over config
entries; config keys that do not name a flag of the active subcommand are
rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .corruption_bench import (
    CorruptionSpec,
    CorruptionType,
    apply_corruption,
    corrupt_dataset,
)
from .demo import run_pipeline_demo
from .detect_head import HeadConfig, decode_head, level_anchors
from .errors import DomainError, EvframeError, SchemaError, ShapeError
from .eval_metrics import SEVERITY_COUNT, build_mpc_report, map_coco, mpc
from .event_core import SimConfig, build_voxel_grid, simulate_events
from .formats_io import (
    DetectionRecord,
    decode_detections,
    decode_events,
    decode_image,
    encode_detections,
    encode_events,
    encode_image,
    load_weights,
    parse_calibration,
    read_tensor,
    write_tensor,
)
from .fusion_cafr import (
    CafrWeights,
    FeaturePair,
    cafr_forward,
    cafr_gradcheck,
    init_cafr_weights,
)
from .geometry_align import compose_homography, warp_bbox, warp_image
from .tensor_math import philox

THREADS_ENV = "EVFRAME_THREADS"


# -- argument plumbing -------------------------------------------------------------


def _mark_explicit(namespace, dest) -> None:
    # subparsers may hand the action a fresh namespace, so create lazily
    if not hasattr(namespace, "_explicit"):
        namespace._explicit = set()
    namespace._explicit.add(dest)


class _Track(argparse.Action):
    """Store the value and remember that it came from the command line."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        _mark_explicit(namespace, self.dest)


class _TrackTrue(argparse.Action):
    def __init__(self, option_strings, dest, **kwargs):
        kwargs.pop("nargs", None)
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)
        _mark_explicit(namespace, self.dest)


class _Sub:
    """One subcommand: its parser, handler, and flag registry."""

    def __init__(self, subparsers, name: str, handler, help_text: str):
        self.parser = subparsers.add_parser(name, help=help_text, description=help_text)
        self.name = name
        self.handler = handler
        self.required: list = []
        self.actions: dict = {}
        self.parser.set_defaults(_sub=self)
        self.add(
            "--config",
            help="flat JSON object of flag names to values; explicit flags win",
        )

    def add(self, *flags, required=False, **kwargs):
        action = self.parser.add_argument(*flags, action=_Track, **kwargs)
        self.actions[action.dest] = action
        if required:
            self.required.append(action.dest)
        return action

    def add_flag(self, *flags, help=None):
        action = self.parser.add_argument(
            *flags, action=_TrackTrue, default=False, help=help
        )
        self.actions[action.dest] = action
        return action


def _convert_config_value(action, value):
    """Coerce one JSON config value to what the flag's converter expects."""
    if isinstance(action, _TrackTrue):
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if isinstance(value, bool):
        raise ValueError("expected a value, got true/false")
    conv = action.type or str
    if action.nargs in ("+", "*"):
        items = value if isinstance(value, list) else [value]
        return [conv(v) for v in items]
    if isinstance(value, (list, dict)):
        raise ValueError("expected a single flat value")
    out = conv(value)
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"must be one of: {', '.join(map(str, action.choices))}")
    return out


def _apply_config(ns) -> str:
    """Merge the --config file into the namespace. Returns '' or an error."""
    if ns.config is None:
        return ""
    try:
        raw = Path(ns.config).read_text()
    except OSError as exc:
        return f"cannot read config file: {exc}"
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        return f"config file is not valid JSON: {exc}"
    if not isinstance(data, dict):
        return "config file must hold a JSON object of flag names to values"
    sub = ns._sub
    for key, value in data.items():
        dest = key.lstrip("-").replace("-", "_")
        if dest == "config" or dest not in sub.actions:
            return f"unknown config key for {sub.name}: {key!r}"
        if dest in ns._explicit:
            continue
        try:
            coerced = _convert_config_value(sub.actions[dest], value)
        except (TypeError, ValueError) as exc:
            return f"bad config value for {key!r}: {exc}"
        setattr(ns, dest, coerced)
    return ""


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


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


def _cmd_simulate_events(ns) -> int:
    cfg = SimConfig(threshold=ns.threshold, log_eps=ns.log_eps)
    frame_a = _read_image(ns.frame_a)
    frame_b = _read_image(ns.frame_b)
    stream = simulate_events(frame_a, frame_b, ns.t_a, ns.t_b, cfg)
    Path(ns.out).write_bytes(encode_events(stream))
    _print_json({"events": len(stream.t), "out": str(ns.out)})
    return 0


def _cmd_evt2grid(ns) -> int:
    stream = decode_events(Path(ns.input).read_bytes(), ns.width, ns.height)
    grid = build_voxel_grid(stream, ns.bins)
    write_tensor(ns.out, grid.as_tensor())
    _print_json(
        {
            "bins": grid.bins,
            "height": grid.height,
            "width": grid.width,
            "events": len(stream.t),
            "mass": float(grid.data.sum()),
            "out": str(ns.out),
        }
    )
    return 0


def _cmd_warp(ns) -> int:
    rig = parse_calibration(Path(ns.calib).read_bytes())
    hom = compose_homography(rig)
    img = _read_image(ns.image)
    out_w = ns.out_width if ns.out_width is not None else img.width
    out_h = ns.out_height if ns.out_height is not None else img.height
    warped = warp_image(hom, img, out_w, out_h, interpolation=ns.interp)
    Path(ns.out).write_bytes(encode_image(warped))
    _print_json({"width": out_w, "height": out_h, "out": str(ns.out)})
    return 0


def _cmd_warp_labels(ns) -> int:
    rig = parse_calibration(Path(ns.calib).read_bytes())
    hom = compose_homography(rig)
    records = decode_detections(Path(ns.labels).read_bytes())
    kept = []
    dropped = 0
    for rec in records:
        box = warp_bbox(hom, rec.bbox, ns.clip_width, ns.clip_height)
        if box is None:
            dropped += 1
            continue
        kept.append(
            DetectionRecord(
                image_id=rec.image_id,
                category_id=rec.category_id,
                bbox=box,
                score=rec.score,
            )
        )
    Path(ns.out).write_bytes(encode_detections(kept))
    _print_json({"kept": len(kept), "dropped": dropped, "out": str(ns.out)})
    return 0


def _cmd_corrupt(ns) -> int:
    try:
        ctype = CorruptionType(ns.type)
    except ValueError:
        names = ", ".join(t.value for t in CorruptionType)
        raise DomainError(f"unknown corruption type {ns.type!r}; valid types: {names}")
    img = _read_image(ns.image)
    out = apply_corruption(img, CorruptionSpec(ctype, ns.severity, ns.seed))
    Path(ns.out).write_bytes(encode_image(out))
    _print_json(
        {"type": ctype.value, "severity": ns.severity, "seed": ns.seed, "out": str(ns.out)}
    )
    return 0


def _cmd_corrupt_dataset(ns) -> int:
    workers = _thread_count()
    rows = corrupt_dataset(ns.images, ns.out_dir, base_seed=ns.seed, workers=workers)
    _print_json(
        {
            "images": len(ns.images),
            "variants": len(rows),
            "workers": workers,
            "out_dir": str(ns.out_dir),
        }
    )
    return 0


def _cmd_cafr_forward(ns) -> int:
    frame = read_tensor(ns.frame_features)
    event = read_tensor(ns.event_features)
    pair = FeaturePair(frame, event)
    if ns.weights is not None:
        weights = load_weights(CafrWeights, ns.weights)
    else:
        weights = init_cafr_weights(pair.channels, seed=ns.seed)
    fused, _ = cafr_forward(
        pair,
        weights,
        branch=ns.branch,
        use_mul_add=not ns.skip_enhance,
        use_cross_att=not ns.skip_attention,
        use_fr=not ns.skip_refine,
    )
    write_tensor(ns.out, fused)
    _print_json({"shape": list(fused.shape), "branch": ns.branch, "out": str(ns.out)})
    return 0


def _cmd_cafr_gradcheck(ns) -> int:
    rng = philox(ns.seed)
    shape = (ns.channels, ns.height, ns.width)
    pair = FeaturePair(rng.standard_normal(shape), rng.standard_normal(shape))
    weights = init_cafr_weights(ns.channels, seed=ns.seed + 1)
    worst = cafr_gradcheck(pair, weights, probes=ns.probes, step=ns.step, seed=ns.seed + 2)
    _print_json(
        {
            "max_rel_error": worst,
            "probes": ns.probes,
            "step": ns.step,
            "shape": list(shape),
        }
    )
    if ns.tolerance is not None and worst > ns.tolerance:
        print(
            f"error: max relative error {worst:.6e} exceeds tolerance {ns.tolerance:g}",
            file=sys.stderr,
        )
        return 1
    return 0


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


def _cmd_head_decode(ns) -> int:
    cls = read_tensor(ns.cls)
    reg = read_tensor(ns.reg)
    if cls.ndim != 2 or reg.ndim != 2:
        raise ShapeError(
            f"expected rank-2 score/offset tensors, got {cls.shape} and {reg.shape}"
        )
    cfg = HeadConfig(num_classes=cls.shape[1])
    anchors = level_anchors(_parse_levels(ns.levels), ns.base_stride, cfg)
    dets = decode_head(
        cls,
        reg,
        anchors,
        image_id=ns.image_id,
        score_threshold=ns.score_threshold,
        iou_threshold=ns.iou_threshold,
    )
    Path(ns.out).write_bytes(encode_detections(dets))
    _print_json({"detections": len(dets), "anchors": len(anchors), "out": str(ns.out)})
    return 0


def _cmd_eval_map(ns) -> int:
    preds = decode_detections(Path(ns.pred).read_bytes())
    gts = decode_detections(Path(ns.gt).read_bytes())
    result = map_coco(preds, gts, max_detections=ns.max_detections)
    payload = result.to_dict()
    _print_json(payload)
    if ns.out is not None:
        _write_json(ns.out, payload)
    return 0


def _cmd_eval_mpc(ns) -> int:
    try:
        data = json.loads(Path(ns.input).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}")
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
    matrix = []
    for name in known:
        row = per_type[name]
        if not isinstance(row, list) or len(row) != SEVERITY_COUNT:
            raise DomainError(
                f"type {name!r} needs exactly {SEVERITY_COUNT} severity entries"
            )
        try:
            matrix.append([float(v) for v in row])
        except (TypeError, ValueError):
            raise DomainError(f"type {name!r} has a non-numeric entry")
    if data.get("map_clean") is not None:
        payload = build_mpc_report(float(data["map_clean"]), matrix).to_dict()
    else:
        payload = {"mpc": mpc(matrix), "map_matrix": matrix}
    _print_json(payload)
    if ns.out is not None:
        _write_json(ns.out, payload)
    return 0


def _cmd_pipeline_demo(ns) -> int:
    result = run_pipeline_demo(
        ns.out_dir,
        seed=ns.seed,
        width=ns.width,
        height=ns.height,
        dropout_p=ns.dropout,
    )
    _print_json(result.to_dict())
    return 0


# -- parser assembly ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evframe",
        description="Event-frame fusion toolkit: simulation, alignment, "
        "fusion, detection decoding, corruption benchmarks, and evaluation.",
    )
    subparsers = parser.add_subparsers(metavar="COMMAND")

    sub = _Sub(
        subparsers,
        "simulate-events",
        _cmd_simulate_events,
        "Emit threshold-crossing events between two grayscale frames.",
    )
    sub.add("--frame-a", required=True, help="earlier frame (PGM)")
    sub.add("--frame-b", required=True, help="later frame (PGM)")
    sub.add("--t-a", type=int, default=0, help="start timestamp, microseconds")
    sub.add("--t-b", type=int, default=1_000_000, help="end timestamp, microseconds")
    sub.add("--threshold", type=float, default=0.1, help="log-intensity trigger level")
    sub.add("--log-eps", type=float, default=1.0 / 255.0, help="intensity floor")
    sub.add("--out", required=True, help="output event CSV")

    sub = _Sub(
        subparsers,
        "evt2grid",
        _cmd_evt2grid,
        "Rasterize an event CSV into a time-binned voxel grid tensor.",
    )
    sub.add("--input", required=True, help="event CSV")
    sub.add("--bins", type=int, required=True, help="number of temporal bins")
    sub.add("--width", type=int, help="sensor width; inferred when omitted")
    sub.add("--height", type=int, help="sensor height; inferred when omitted")
    sub.add("--out", required=True, help="output tensor file")

    sub = _Sub(
        subparsers,
        "warp",
        _cmd_warp,
        "Resample an image into the event camera plane via the rig homography.",
    )
    sub.add("--image", required=True, help="input image (PNM)")
    sub.add("--calib", required=True, help="camera rig calibration JSON")
    sub.add("--out-width", type=int, help="output width; defaults to the input's")
    sub.add("--out-height", type=int, help="output height; defaults to the input's")
    sub.add(
        "--interp",
        choices=("bilinear", "nearest"),
        default="bilinear",
        help="sampling mode",
    )
    sub.add("--out", required=True, help="output image (PNM)")

    sub = _Sub(
        subparsers,
        "warp-labels",
        _cmd_warp_labels,
        "Warp detection boxes through the rig homography and clip them.",
    )
    sub.add("--labels", required=True, help="input detection JSONL")
    sub.add("--calib", required=True, help="camera rig calibration JSON")
    sub.add("--clip-width", type=float, required=True, help="target plane width")
    sub.add("--clip-height", type=float, required=True, help="target plane height")
    sub.add("--out", required=True, help="output detection JSONL")

    sub = _Sub(
        subparsers,
        "corrupt",
        _cmd_corrupt,
        "Apply one corruption type at one severity to an image.",
    )
    sub.add("--image", required=True, help="input image (PNM)")
    sub.add("--type", required=True, help="corruption type name")
    sub.add("--severity", type=int, required=True, help="severity level, 1..5")
    sub.add("--seed", type=int, default=0, help="random seed")
    sub.add("--out", required=True, help="output image (PNM)")

    sub = _Sub(
        subparsers,
        "corrupt-dataset",
        _cmd_corrupt_dataset,
        "Render every corruption type and severity for a set of images. "
        f"{THREADS_ENV} caps the worker fan-out.",
    )
    sub.add("--images", nargs="+", required=True, help="input images (PNM)")
    sub.add("--out-dir", required=True, help="output directory")
    sub.add("--seed", type=int, default=0, help="base seed for per-variant seeds")

    sub = _Sub(
        subparsers,
        "cafr-forward",
        _cmd_cafr_forward,
        "Fuse a frame/event feature pair and write the fused tensor.",
    )
    sub.add("--frame-features", required=True, help="frame feature tensor [C,H,W]")
    sub.add("--event-features", required=True, help="event feature tensor [C,H,W]")
    sub.add("--weights", help="weight bundle directory; seeded init when omitted")
    sub.add("--seed", type=int, default=0, help="weight init seed when no bundle given")
    sub.add(
        "--branch",
        choices=("dual", "frame", "event"),
        default="dual",
        help="which fused half to emit",
    )
    sub.add_flag("--skip-enhance", help="bypass the mutual enhancement stage")
    sub.add_flag("--skip-attention", help="bypass the cross attention stage")
    sub.add_flag("--skip-refine", help="bypass the statistics refinement stage")
    sub.add("--out", required=True, help="output tensor file")

    sub = _Sub(
        subparsers,
        "cafr-gradcheck",
        _cmd_cafr_gradcheck,
        "Compare analytic fusion gradients against central differences.",
    )
    sub.add("--channels", type=int, default=4)
    sub.add("--height", type=int, default=3)
    sub.add("--width", type=int, default=2)
    sub.add("--probes", type=int, default=50, help="number of coordinates to probe")
    sub.add("--step", type=float, default=1e-5, help="finite difference step")
    sub.add("--seed", type=int, default=0)
    sub.add(
        "--tolerance",
        type=float,
        help="fail (exit 1) when the worst relative error exceeds this",
    )

    sub = _Sub(
        subparsers,
        "head-decode",
        _cmd_head_decode,
        "Decode pyramid head scores and offsets into suppressed detections.",
    )
    sub.add("--cls", required=True, help="score tensor [N,K]")
    sub.add("--reg", required=True, help="offset tensor [N,4]")
    sub.add(
        "--levels",
        required=True,
        help="five comma-separated HxW level shapes, finest first",
    )
    sub.add("--base-stride", type=int, default=4, help="stride of the finest level")
    sub.add("--image-id", type=int, default=0)
    sub.add("--score-threshold", type=float, default=0.05)
    sub.add("--iou-threshold", type=float, default=0.5)
    sub.add("--out", required=True, help="output detection JSONL")

    sub = _Sub(
        subparsers,
        "eval-map",
        _cmd_eval_map,
        "Score detections against ground truth with threshold-averaged mAP.",
    )
    sub.add("--pred", required=True, help="detection JSONL")
    sub.add("--gt", required=True, help="ground-truth JSONL")
    sub.add("--max-detections", type=int, default=100, help="per-image cap")
    sub.add("--out", help="also write the report JSON here")

    sub = _Sub(
        subparsers,
        "eval-mpc",
        _cmd_eval_mpc,
        "Aggregate a full corruption mAP matrix into mPC and relative scores.",
    )
    sub.add(
        "--input",
        required=True,
        help="JSON with 'per_type' (type name to 5 severity mAPs) and "
        "optionally 'map_clean'",
    )
    sub.add("--out", help="also write the report JSON here")

    sub = _Sub(
        subparsers,
        "pipeline-demo",
        _cmd_pipeline_demo,
        "Run the synthetic end-to-end pipeline and write its artifacts.",
    )
    sub.add("--out-dir", required=True, help="output directory")
    sub.add("--seed", type=int, default=0)
    sub.add("--width", type=int, default=64, help="scene width")
    sub.add("--height", type=int, default=48, help="scene height")
    sub.add("--dropout", type=float, default=0.0, help="frame-branch dropout rate")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2

    sub = getattr(ns, "_sub", None)
    if sub is None:
        parser.print_usage(sys.stderr)
        print("evframe: a COMMAND is required", file=sys.stderr)
        return 2
    if not hasattr(ns, "_explicit"):
        ns._explicit = set()

    config_error = _apply_config(ns)
    if config_error:
        print(f"usage error: {config_error}", file=sys.stderr)
        return 2
    missing = [
        sub.actions[d].option_strings[0]
        for d in sub.required
        if getattr(ns, d) is None
    ]
    if missing:
        print(
            f"usage error: {sub.name} is missing required arguments: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 2

    try:
        return sub.handler(ns)
    except EvframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
