"""The four workloads: inputs made from the run seed, one op, its checks.

Each workload makes all of its inputs and weights in ``setup`` from the run
seed, runs one op per ``op`` call with every evframe call inside a tracer
span, and checks an op's outputs in ``check``, outside the timed region.
``reference`` runs a fixed case whose outputs ``reference.json`` records
from the seed commit; ``compare`` checks a fresh run against that record.

Only ``EvframeError`` is an op failure; any other exception aborts the run.
No input or head output is clamped, filtered or re-seeded to dodge a known
failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import ndimage

import evframe as ef
from evframe import EvframeError
from evframe.demo import make_scene
from evframe.tensor_math import ConvWeights, conv2d

from tracing import NULL, MemTracer, Tracer

WIDTH, HEIGHT = 346, 260  # DAVIS346 sensor
MASK64 = (1 << 64) - 1
REF_SEED = 0  # seed of every fixed reference case


def subseed(*parts) -> int:
    """A 64-bit seed derived from the run seed and an input index."""
    ss = np.random.SeedSequence([p & MASK64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def generator(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(subseed(*parts)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def max_same_class_iou(dets) -> float:
    """Largest IoU between two kept boxes of one image and class.

    Same operation order as ``eval_metrics.iou_tlwh``, so the values are
    bit-identical to the ones NMS compared.
    """
    worst = 0.0
    groups = {}
    for d in dets:
        groups.setdefault((d.image_id, d.category_id), []).append(d.bbox)
    for boxes in groups.values():
        if len(boxes) < 2:
            continue
        b = np.array(boxes)
        x, y, w, h = b[:, 0:1], b[:, 1:2], b[:, 2:3], b[:, 3:4]
        ix = np.maximum(0.0, np.minimum(x + w, (x + w).T) - np.maximum(x, x.T))
        iy = np.maximum(0.0, np.minimum(y + h, (y + h).T) - np.maximum(y, y.T))
        inter = ix * iy
        iou = inter / (w * h + (w * h).T - inter)
        np.fill_diagonal(iou, 0.0)
        worst = max(worst, float(iou.max()))
    return worst


def grid_mass_error(grid, events) -> float:
    return abs(float(grid.data.sum()) - float(sum(e.p for e in events)))


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


class Workload:
    """What run.py needs of a workload.

    ``setup(seed, tmp)`` makes inputs, weights and a warm-up; ``op(i, tr)``
    runs op i and returns its outputs; ``items(out)`` counts the work done;
    ``check(i, out)`` and ``compare(got, want)`` return mismatch messages;
    ``reference(tmp, tr)`` runs the fixed case; ``trace_passes(tracers)``
    adds passes to a traced run and returns mismatch messages.
    """

    busy_cores = 1  # cores a calibration keeps busy to track an op's speed

    def trace_passes(self, tracers: dict) -> list:
        return []


# -- detect-346 -------------------------------------------------------------------


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rig_homography() -> ef.Homography:
    """A DAVIS346-like RGB/event rig with small relative rotations."""
    rig = ef.CameraRig(
        k_rgb=np.array([[330.0, 0.0, 173.0], [0.0, 330.0, 130.0], [0.0, 0.0, 1.0]]),
        k_event=np.array([[320.0, 0.0, 171.0], [0.0, 322.0, 131.0], [0.0, 0.0, 1.0]]),
        r_rgb=_rot_z(0.002),
        r_event=_rot_z(-0.003),
        r_event_rgb=_rot_z(0.004),
    )
    return ef.compose_homography(rig)


def _halve(x: np.ndarray) -> np.ndarray:
    """2x mean pool with edge replication to ceil-half dims."""
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    hh, ww = padded.shape[1:]
    return padded.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))


class DetectModel:
    """Stems, fusion, pyramid and head weights, all seeded."""

    channels = 8
    score_threshold = 0.3
    pre_nms_top_k = 1000  # decode_head's default

    def __init__(self, seed: int):
        c = self.channels
        rng = generator(seed, 0)

        def stem(in_ch):
            bound = 1.0 / np.sqrt(in_ch * 9)
            return ConvWeights(
                rng.uniform(-bound, bound, size=(c, in_ch, 3, 3)),
                rng.uniform(-bound, bound, size=c),
            )

        self.frame_stem = stem(1)
        self.event_stem = stem(c)
        self.cafr = ef.init_cafr_weights(c, subseed(seed, 1))
        self.fpn = ef.init_fpn_weights([2 * c] * 4, width=64, seed=subseed(seed, 2))
        self.cfg = ef.HeadConfig(num_classes=3, width=64)
        self.head = ef.init_head_weights(self.cfg, subseed(seed, 3))
        self.homography = rig_homography()


def detect_frame(m: DetectModel, scene, image_id: int, tr=NULL) -> dict:
    """One frame pair through events, alignment, fusion, head and decode."""
    frame_a, frame_b, gts = scene
    with tr.span("simulate_events", "event_core"):
        stream = ef.simulate_events(frame_a, frame_b, 0, 10_000, ef.SimConfig(threshold=0.1))
    with tr.span("build_voxel_grid", "event_core"):
        grid = ef.build_voxel_grid(stream, bins=m.channels)
    with tr.span("warp_image", "geometry_align"):
        aligned = ef.warp_image(m.homography, frame_b, frame_b.width, frame_b.height)
    rgb = aligned.to_float01()[:, :, 0][None, :, :]
    with tr.span("conv2d", "tensor_math"):
        frame_feats = conv2d(rgb, m.frame_stem, stride=4, pad=1)
    with tr.span("conv2d", "tensor_math"):
        event_feats = conv2d(grid.as_tensor(), m.event_stem, stride=4, pad=1)
    with tr.span("cafr_forward", "fusion_cafr"):
        fused, _ = ef.cafr_forward(ef.FeaturePair(frame_feats, event_feats), m.cafr)
    maps = [fused]
    for _ in range(3):
        maps.append(_halve(maps[-1]))
    with tr.span("build_fpn", "detect_head"):
        pyr = ef.build_fpn(maps, m.fpn, base_stride=4)
    with tr.span("head_forward", "detect_head"):
        cls, reg = ef.head_forward(pyr, m.head, m.cfg)
    with tr.span("gen_pyramid_anchors", "detect_head"):
        anchors = ef.gen_pyramid_anchors(pyr, m.cfg)
    try:
        with tr.span("decode_head", "detect_head"):
            dets = ef.decode_head(
                cls, reg, anchors, image_id=image_id,
                score_threshold=m.score_threshold, iou_threshold=0.5,
                pre_nms_top_k=m.pre_nms_top_k,
            )
    except EvframeError:
        tr.count(decode_errors=1)
        raise
    with tr.span("encode_detections", "formats_io"):
        encoded = ef.encode_detections(dets)
    with tr.span("warp_bbox", "geometry_align"):
        warped = [ef.warp_bbox(m.homography, g.bbox, frame_b.width, frame_b.height) for g in gts]
    if tr.enabled:
        tokens = fused.shape[1] * fused.shape[2]
        candidates = int(np.count_nonzero(cls > m.score_threshold))
        tr.count(
            events=len(stream.events),
            tokens=tokens,
            attn_bytes=2 * tokens * tokens * 8,  # two dense N x N float64 maps, computed
            anchors=len(anchors),
            candidates=candidates,
            kept=len(dets),
            keep_ratio=len(dets) / min(candidates, m.pre_nms_top_k) if candidates else 0.0,
            boxes_dropped=warped.count(None),
        )
    return {"stream": stream, "grid": grid, "fused": fused, "dets": dets, "encoded": encoded}


class Detect(Workload):
    # One busy core: the BLAS calls use two threads, but a one-core
    # calibration tracked this op's speed (meta.json, noise).
    name = "detect-346"
    item = "frames"
    n_scenes = 16

    def setup(self, seed: int, tmp: Path) -> None:
        # Fixed weights, like a trained model: the seed varies the scenes only.
        self.model = DetectModel(REF_SEED)
        self.scenes = [make_scene(WIDTH, HEIGHT, subseed(seed, 2, k)) for k in range(self.n_scenes)]
        # warm-up at demo size: BLAS start-up and first-call costs
        detect_frame(self.model, make_scene(64, 48, subseed(seed, 3)), 0)

    def op(self, i: int, tr=NULL) -> dict:
        return detect_frame(self.model, self.scenes[i % self.n_scenes], i, tr)

    def items(self, out) -> int:
        return 1

    def check(self, i: int, out) -> list:
        errors = []
        if grid_mass_error(out["grid"], out["stream"].events) > 1e-6:
            errors.append(f"op {i}: voxel grid mass differs from the polarity sum")
        if not np.all(np.isfinite(out["fused"])):
            errors.append(f"op {i}: fused features are not finite")
        worst = max_same_class_iou(out["dets"])
        if worst > 0.5:
            errors.append(f"op {i}: same-class boxes with IoU {worst} > 0.5 after NMS")
        return errors

    def trace_passes(self, tracers: dict) -> list:
        """tracemalloc pass: peak bytes of each call for one frame."""
        mem = tracers["memory"] = MemTracer()
        tracemalloc.start()
        try:
            with mem.op("memory"):
                self.op(0, mem)
        finally:
            tracemalloc.stop()
        return []

    def reference(self, tmp: Path, tr=NULL) -> dict:
        model = DetectModel(REF_SEED)
        out = detect_frame(model, make_scene(WIDTH, HEIGHT, REF_SEED), 0, tr)
        return {
            "events": len(out["stream"].events),
            "detections": [[d.category_id, *d.bbox, d.score] for d in out["dets"]],
        }

    # ROADMAP item 3 allows 1e-12 drift in fused features; these bounds hold
    # that drift through the head and decode with a wide margin.
    BOX_TOL = 1e-6
    SCORE_TOL = 1e-9

    def compare(self, got: dict, want: dict) -> list:
        errors = []
        if got["events"] != want["events"]:
            errors.append(f"reference frame: {got['events']} events, recorded {want['events']}")
        g, w = got["detections"], want["detections"]
        if len(g) != len(w):
            return errors + [f"reference frame: {len(g)} detections, recorded {len(w)}"]
        for n, (a, b) in enumerate(zip(g, w)):
            if a[0] != b[0]:
                errors.append(f"reference detection {n}: class {a[0]}, recorded {b[0]}")
            elif max(abs(p - q) for p, q in zip(a[1:5], b[1:5])) > self.BOX_TOL:
                errors.append(f"reference detection {n}: box {a[1:5]}, recorded {b[1:5]}")
            elif abs(a[5] - b[5]) > self.SCORE_TOL:
                errors.append(f"reference detection {n}: score {a[5]}, recorded {b[5]}")
        return errors[:10]


# -- events-250k ------------------------------------------------------------------


def event_counts(frame_a: ef.ImagePNM, frame_b: ef.ImagePNM, threshold: float) -> np.ndarray:
    """Per-pixel event counts by the simulator's documented rule,
    floor(|log(i_b + eps) - log(i_a + eps)| / threshold)."""
    eps = ef.SimConfig(threshold=threshold).log_eps
    ia = frame_a.to_float01()[:, :, 0]
    ib = frame_b.to_float01()[:, :, 0]
    delta = np.log(ib + eps) - np.log(ia + eps)
    return np.floor(np.abs(delta) / threshold)


def event_pair(width: int, height: int, target: int, seed: int):
    """A textured frame pair under a fixed shift and gain, with the threshold that
    makes at least ``target`` events (the fewest such).

    Returns (frame_a, frame_b, threshold, expected event count).
    """
    rng = generator(seed)
    pad = 8
    noise = ndimage.gaussian_filter(rng.uniform(0.0, 1.0, (height + 2 * pad, width + 2 * pad)), 2.0)
    noise = (noise - noise.min()) / (noise.max() - noise.min())
    # One motion and gain for every pair, so pairs differ in texture only
    # and every window costs about the same to simulate and sort.
    dy, dx, gain = 3, 5, 1.1
    a = noise[pad:pad + height, pad:pad + width]
    b = noise[pad + dy:pad + dy + height, pad + dx:pad + dx + width]
    frame_a = ef.ImagePNM.from_float01(0.05 + 0.9 * a)
    frame_b = ef.ImagePNM.from_float01(np.clip((0.05 + 0.9 * b) * gain, 0.0, 1.0))
    lo, hi = 1e-4, 10.0  # count(lo) >= target > count(hi)
    for _ in range(60):
        mid = (lo * hi) ** 0.5
        if event_counts(frame_a, frame_b, mid).sum() >= target:
            lo = mid
        else:
            hi = mid
    return frame_a, frame_b, lo, int(event_counts(frame_a, frame_b, lo).sum())


def event_window(pair, tr=NULL) -> dict:
    """Simulate one window, write it as CSV, read it back, grid it."""
    frame_a, frame_b, threshold, _ = pair
    with tr.span("simulate_events", "event_core"):
        stream = ef.simulate_events(frame_a, frame_b, 0, 50_000, ef.SimConfig(threshold=threshold))
    with tr.span("encode_events", "formats_io"):
        encoded = ef.encode_events(stream)
    with tr.span("decode_events", "formats_io"):
        decoded = ef.decode_events(encoded, frame_a.width, frame_a.height)
    with tr.span("build_voxel_grid", "event_core"):
        grid = ef.build_voxel_grid(decoded, bins=5)
    tr.count(events=len(stream.events), event_csv_bytes=len(encoded))
    return {"stream": stream, "encoded": encoded, "decoded": decoded, "grid": grid}


class Events(Workload):
    name = "events-250k"
    item = "events"
    target = 250_000
    n_pairs = 6

    def setup(self, seed: int, tmp: Path) -> None:
        self.pairs = [
            event_pair(WIDTH, HEIGHT, self.target, subseed(seed, 1, k)) for k in range(self.n_pairs)
        ]
        event_window(event_pair(32, 24, 500, subseed(seed, 2)))  # warm-up

    def op(self, i: int, tr=NULL) -> dict:
        return event_window(self.pairs[i % self.n_pairs], tr)

    def items(self, out) -> int:
        return len(out["stream"].events)

    def check(self, i: int, out) -> list:
        errors = []
        expected = self.pairs[i % self.n_pairs][3]
        events = out["stream"].events
        if len(events) != expected:
            errors.append(f"op {i}: {len(events)} events, the trigger rule gives {expected}")
        if out["decoded"].events != events:
            errors.append(f"op {i}: decoded CSV differs from the simulated stream")
        if grid_mass_error(out["grid"], events) > 1e-6:
            errors.append(f"op {i}: voxel grid mass differs from the polarity sum")
        return errors

    def reference(self, tmp: Path, tr=NULL) -> dict:
        out = event_window(event_pair(173, 130, 60_000, REF_SEED), tr)
        return {
            "events": len(out["stream"].events),
            "csv_sha256": sha256(out["encoded"]),
            "grid_sha256": sha256(out["grid"].data.tobytes()),
        }

    def compare(self, got: dict, want: dict) -> list:
        return [f"reference window: {k} is {got[k]}, recorded {want[k]}" for k in want if got[k] != want[k]]


# -- corrupt-346 ------------------------------------------------------------------


def structured_image(width: int, height: int, seed: int) -> ef.ImagePNM:
    """RGB stand-in photo: a sine carrier, gradients, flat blocks, mild noise."""
    rng = generator(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    fx, fy = rng.uniform(0.02, 0.08), rng.uniform(0.0, 0.04)
    r = 0.5 + 0.5 * np.sin(2 * np.pi * (xx * fx + yy * fy) + rng.uniform(0, 2 * np.pi))
    g = (xx / width) * rng.uniform(0.5, 1.0)
    b = (yy / height) * rng.uniform(0.5, 1.0)
    img = np.stack([r, g, b], axis=2)
    for _ in range(12):
        bw = int(rng.integers(4, max(5, width // 8)))
        bh = int(rng.integers(4, max(5, height // 8)))
        x0 = int(rng.integers(0, width - bw))
        y0 = int(rng.integers(0, height - bh))
        img[y0:y0 + bh, x0:x0 + bw] = rng.uniform(0, 1, size=3)
    img += rng.normal(0, 0.02, size=img.shape)
    return ef.ImagePNM.from_float01(np.clip(img, 0, 1))


class Corrupt(Workload):
    name = "corrupt-346"
    item = "variants"
    n_images = 3

    def setup(self, seed: int, tmp: Path) -> None:
        self.workers = self.busy_cores = pool_workers()
        self.tmp = tmp
        self.base_seed = subseed(seed, 1)
        (tmp / "in").mkdir(exist_ok=True)
        self.images = []
        for k in range(self.n_images):
            img = structured_image(WIDTH, HEIGHT, subseed(seed, 2, k))
            path = tmp / "in" / f"img{k}.pnm"
            path.write_bytes(ef.encode_image(img))
            self.images.append((path, img))
        warm = tmp / "in" / "warm.pnm"
        warm.write_bytes(ef.encode_image(structured_image(32, 24, subseed(seed, 3))))
        ef.corrupt_dataset([warm], tmp / "warm", base_seed=0, workers=self.workers)
        shutil.rmtree(tmp / "warm")
        self.op0_sha = None  # digests of op 0's variants, for the sequential pass

    def op(self, i: int, tr=NULL) -> dict:
        path, clean = self.images[i % self.n_images]
        out_dir = self.tmp / f"op{i}"
        with tr.span("corrupt_dataset", "corruption_bench"):
            rows = ef.corrupt_dataset(
                [path], out_dir, base_seed=(self.base_seed + i) & MASK64, workers=self.workers
            )
        dims, scores, written = [], [], 0
        for row in rows:
            data = Path(row["dst"]).read_bytes()
            written += len(data)
            with tr.span("decode_image", "formats_io"):
                img = ef.decode_image(data)
            with tr.span("psnr", "corruption_bench"):
                scores.append(ef.psnr(clean, img))
            dims.append((img.width, img.height, img.channels))
        if tr.enabled:
            written += (out_dir / "manifest.jsonl").stat().st_size
            tr.count(variants=len(rows), bytes_written=written)
        return {"rows": rows, "dir": out_dir, "dims": dims, "psnr": scores, "clean": clean}

    def items(self, out) -> int:
        return len(out["rows"])

    def check(self, i: int, out) -> list:
        errors = []
        rows, clean = out["rows"], out["clean"]
        if len(rows) != 75:
            errors.append(f"op {i}: {len(rows)} variants, expected 75")
        manifest = (out["dir"] / "manifest.jsonl").read_text().splitlines()
        if [json.loads(line) for line in manifest] != rows:
            errors.append(f"op {i}: manifest differs from the returned rows")
        if any(d != (clean.width, clean.height, clean.channels) for d in out["dims"]):
            errors.append(f"op {i}: a variant changed the image dims")
        if any(np.isnan(v) for v in out["psnr"]):
            errors.append(f"op {i}: PSNR is NaN")
        if i == 0:
            digests = {(r["type"], r["severity"]): sha256(Path(r["dst"]).read_bytes()) for r in rows}
            if self.op0_sha not in (None, digests):
                errors.append("op 0: a repeated render wrote different bytes")
            self.op0_sha = digests
        shutil.rmtree(out["dir"])
        return errors

    def trace_passes(self, tracers: dict) -> list:
        """Sequential pass over op 0's input: apply and encode each variant.

        Its bytes must equal what the thread pool wrote for op 0.
        """
        seq = tracers["sequential"] = Tracer()
        _, clean = self.images[0]
        base = self.base_seed & MASK64
        mismatched = []
        with seq.op("sequential"):
            for ti, ctype in enumerate(ef.CorruptionType):
                for severity in range(1, 6):
                    spec = ef.CorruptionSpec(ctype, severity, ef.corruption_seed(base, 0, ti, severity))
                    with seq.span(f"apply.{ctype.value}", "corruption_bench"):
                        variant = ef.apply_corruption(clean, spec)
                    with seq.span("encode_image", "formats_io"):
                        data = ef.encode_image(variant)
                    if sha256(data) != self.op0_sha[(ctype.value, severity)]:
                        mismatched.append(f"{ctype.value}/s{severity}")
        if mismatched:
            return [f"sequential rendering differs from the pooled one: {', '.join(mismatched)}"]
        return []

    def reference(self, tmp: Path, tr=NULL) -> dict:
        ref = tmp / "reference"
        ref.mkdir()
        (ref / "ref.pnm").write_bytes(ef.encode_image(structured_image(64, 48, REF_SEED)))
        cwd = os.getcwd()
        os.chdir(ref)  # relative paths keep the manifest bytes independent of tmp
        try:
            with tr.span("corrupt_dataset", "corruption_bench"):
                rows = ef.corrupt_dataset(["ref.pnm"], "out", base_seed=REF_SEED, workers=pool_workers())
            digests = {r["dst"]: sha256(Path(r["dst"]).read_bytes()) for r in rows}
            digests["out/manifest.jsonl"] = sha256(Path("out/manifest.jsonl").read_bytes())
        finally:
            os.chdir(cwd)
        shutil.rmtree(ref)
        return {"sha256": digests}

    def compare(self, got: dict, want: dict) -> list:
        g, w = got["sha256"], want["sha256"]
        bad = sorted(k for k in set(g) | set(w) if g.get(k) != w.get(k))
        return [f"reference variants differ from the record: {', '.join(bad[:10])}"] if bad else []


# -- score-coco -------------------------------------------------------------------

N_CONDITIONS = 1 + 15 * 5  # clean, then (type, severity) in type-major order


class CocoSplit:
    """Synthetic ground truth plus one prediction JSONL per condition.

    Predictions jitter around the ground truth; box error, class confusion
    and score loss grow with severity, scaled per corruption type; false
    positives fill each image up to ``preds_per_image``.
    """

    def __init__(self, seed: int, n_images: int, gts_per_image: int, preds_per_image: int,
                 hits_per_gt: int, conditions=range(N_CONDITIONS)):
        rng = generator(seed, 0)
        n = n_images * gts_per_image
        self.n_images = n_images
        self.preds_per_image = preds_per_image
        self.hits_per_gt = hits_per_gt
        self.gt_image = np.repeat(np.arange(n_images), gts_per_image)
        self.gt_class = rng.integers(0, 3, size=n)
        wh = np.round(rng.uniform(16.0, 96.0, size=(n, 2)), 2)
        xy = np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * ([WIDTH, HEIGHT] - wh), 2)
        self.gt_box = np.hstack([xy, wh])
        self.gts = [
            ef.DetectionRecord(int(i), int(c), tuple(b), None)
            for i, c, b in zip(self.gt_image.tolist(), self.gt_class.tolist(), self.gt_box.tolist())
        ]
        self.jsonl = {c: self._predictions(seed, c) for c in conditions}

    def _predictions(self, seed: int, condition: int) -> bytes:
        rng = generator(seed, 1, condition)
        if condition == 0:
            e = 0.0
        else:
            ti, s = divmod(condition - 1, 5)
            e = (s + 1) / 5 * (0.5 + ti / 14)  # severity effect in [0.1, 1.5]
        k = self.hits_per_gt
        img = np.repeat(self.gt_image, k)
        cls = np.repeat(self.gt_class, k)
        box = np.repeat(self.gt_box, k, axis=0)
        m = len(img)
        size = box[:, 2:]
        xy = box[:, :2] + rng.normal(0.0, 0.03 + 0.12 * e, size=(m, 2)) * size
        wh = size * np.exp(rng.normal(0.0, 0.05 + 0.25 * e, size=(m, 2)))
        confused = rng.random(m) < 0.02 + 0.3 * e
        cls = np.where(confused, rng.integers(0, 3, size=m), cls)
        score = rng.uniform(0.35, 1.0, size=m) - 0.3 * e * rng.random(m)

        n_fp = self.preds_per_image - m // self.n_images
        fp_img = np.repeat(np.arange(self.n_images), n_fp)
        f = len(fp_img)
        fp_wh = rng.uniform(10.0, 90.0, size=(f, 2))
        fp_xy = rng.uniform(0.0, 1.0, size=(f, 2)) * ([WIDTH, HEIGHT] - fp_wh)
        fp_score = rng.uniform(0.0, 0.4 + 0.3 * e, size=f)

        img = np.concatenate([img, fp_img])
        cls = np.concatenate([cls, rng.integers(0, 3, size=f)])
        boxes = np.round(np.vstack([np.hstack([xy, wh]), np.hstack([fp_xy, fp_wh])]), 2)
        boxes[:, 2:] = np.maximum(boxes[:, 2:], 1.0)
        scores = np.clip(np.round(np.concatenate([score, fp_score]), 4), 0.0001, 1.0)
        order = np.argsort(img, kind="stable")
        rows = zip(img[order].tolist(), cls[order].tolist(), boxes[order].tolist(), scores[order].tolist())
        return "".join(
            '{"image_id": %d, "category_id": %d, "bbox": [%r, %r, %r, %r], "score": %r}\n'
            % (i, c, b[0], b[1], b[2], b[3], s)
            for i, c, b, s in rows
        ).encode("utf-8")


def score_condition(split: CocoSplit, condition: int, matrix: dict, tr=NULL) -> dict:
    """Decode one condition's predictions and score them; after the last
    condition of a matrix, build the mPC/rPC report."""
    with tr.span("decode_detections", "formats_io"):
        preds = ef.decode_detections(split.jsonl[condition])
    with tr.span("map_coco", "eval_metrics"):
        result = ef.map_coco(preds, split.gts)
    matrix[condition] = result.map
    report = None
    if condition == N_CONDITIONS - 1 and len(matrix) == N_CONDITIONS:
        rows = [[matrix[1 + 5 * t + s] for s in range(5)] for t in range(15)]
        with tr.span("build_mpc_report", "eval_metrics"):
            report = ef.build_mpc_report(matrix[0], rows)
    tr.count(preds=len(preds), gts=len(split.gts))
    return {"condition": condition, "preds": preds, "result": result, "report": report}


class Score(Workload):
    name = "score-coco"
    item = "preds"
    # Clean plus every severity of four types spread over the battery: the
    # whole 76-condition matrix would take ~3 s to write per set-up and a
    # run scores ~20 conditions. The reference pass scores a full matrix.
    pool = (0,) + tuple(1 + 5 * t + s for t in (0, 4, 9, 14) for s in range(5))

    def setup(self, seed: int, tmp: Path) -> None:
        self.split = CocoSplit(subseed(seed, 1), n_images=100, gts_per_image=8,
                               preds_per_image=100, hits_per_gt=6, conditions=self.pool)
        self.matrix = {}
        self.first_map = {}
        warm = CocoSplit(subseed(seed, 2), n_images=2, gts_per_image=2, preds_per_image=6, hits_per_gt=2)
        score_condition(warm, 0, {})  # warm-up

    def op(self, i: int, tr=NULL) -> dict:
        return score_condition(self.split, self.pool[i % len(self.pool)], self.matrix, tr)

    def items(self, out) -> int:
        return len(out["preds"])

    def check(self, i: int, out) -> list:
        errors = []
        c = out["condition"]
        expected = self.split.n_images * self.split.preds_per_image
        if len(out["preds"]) != expected:
            errors.append(f"op {i}: {len(out['preds'])} predictions decoded, {expected} written")
        if ef.encode_detections(out["preds"]) != self.split.jsonl[c]:
            errors.append(f"op {i}: decoded predictions do not re-encode to the input bytes")
        res = out["result"]
        if not (0.0 <= res.map <= 1.0 and 0.0 <= res.map50 <= 1.0):
            errors.append(f"op {i}: mAP {res.map} / mAP50 {res.map50} outside [0, 1]")
        if self.first_map.setdefault(c, (res.map, res.map50)) != (res.map, res.map50):
            errors.append(f"op {i}: condition {c} scored differently on a repeat")
        return errors

    def reference(self, tmp: Path, tr=NULL) -> dict:
        split = CocoSplit(REF_SEED, n_images=6, gts_per_image=3, preds_per_image=12, hits_per_gt=2)
        matrix = {}
        maps = []
        for c in range(N_CONDITIONS):
            out = score_condition(split, c, matrix, tr)
            maps.append([out["result"].map, out["result"].map50])
        report = out["report"]
        return {"map_map50": maps, "mpc": report.mpc, "rpc": list(report.rpc_per_severity)}

    def compare(self, got: dict, want: dict) -> list:
        # c08's contract: scores are reproduced exactly, not within a tolerance
        return [f"reference {k} differs from the record" for k in want if got[k] != want[k]]


WORKLOADS = {w.name: w for w in (Detect, Events, Corrupt, Score)}
