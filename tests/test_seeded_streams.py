"""Every seeded stream of the package, pinned by digest.

The digests were recorded from the code before its seeding was routed
through one helper; a change that re-draws any stream (a different key
derivation, draw order, size or dtype) changes a digest here.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from evframe import (
    CorruptionSpec,
    CorruptionType,
    HeadConfig,
    apply_corruption,
    init_cafr_weights,
    init_fpn_weights,
    init_head_weights,
    modality_dropout,
)
from evframe.cli import main
from evframe.demo import make_scene
from conftest import rgb_image, philox

SEEDS = (0, -1, 2**64 + 5)


def _arrays(obj):
    """Every array of a weight dataclass, in field order.

    Walks the fields itself, so the digests do not depend on the bundle codec.
    """
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    else:
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            p = np.ascontiguousarray(p).tobytes()
        elif not isinstance(p, bytes):
            p = repr(p).encode()
        h.update(p)
    return h.hexdigest()[:16]


def seeded_digests(tmp_path) -> dict:
    out = {}
    img = rgb_image(philox(5), 16, 12)
    for seed in SEEDS:
        out[f"cafr/{seed}"] = digest(*_arrays(init_cafr_weights(4, seed=seed)))
        out[f"fpn/{seed}"] = digest(*_arrays(init_fpn_weights([3, 5, 4, 2], width=6, seed=seed)))
        head = init_head_weights(HeadConfig(num_classes=2, width=6), seed=seed)
        out[f"head/{seed}"] = digest(*_arrays(head))
        a, b, gts = make_scene(32, 24, seed=seed)
        out[f"scene/{seed}"] = digest(a.pixels, b.pixels, [g.bbox for g in gts])
        for ctype in (
            CorruptionType.GAUSSIAN_NOISE,
            CorruptionType.SHOT_NOISE,
            CorruptionType.IMPULSE_NOISE,
        ):
            corrupted = apply_corruption(img, CorruptionSpec(ctype, 3, seed))
            out[f"{ctype.value}/{seed}"] = digest(corrupted.pixels)
        demo = tmp_path / f"demo{seed}"
        assert main(["pipeline-demo", "--out-dir", str(demo), "--seed", str(seed)]) == 0
        names = ("detections.jsonl", "ground_truth.jsonl", "frame_a.pnm", "frame_b.pnm")
        out[f"demo/{seed}"] = digest(*((demo / n).read_bytes() for n in names))
    # which of 66 seeds blank at three rates pins each seed's single draw
    x = np.ones((1, 2, 2))
    blanked = [
        not modality_dropout(x, p, rng_seed=s).any()
        for s in SEEDS + tuple(range(1, 64))
        for p in (0.25, 0.5, 0.75)
    ]
    out["dropout"] = digest(bytes(blanked))
    return out


PINNED = {
    "cafr/0": "d6762a98133fabad",
    "fpn/0": "31b00651c227d8c4",
    "head/0": "efe89c8d6f50ec45",
    "scene/0": "2d9da6c63a7351fe",
    "gaussian_noise/0": "d5a54e183bac50b7",
    "shot_noise/0": "427d3cbfae113939",
    "impulse_noise/0": "b3274da39db9a5e2",
    "demo/0": "3c1d51d36bd2f46c",
    "cafr/-1": "c59b64025b55cb0b",
    "fpn/-1": "6a568cbe0cc9b378",
    "head/-1": "0fcb665d6070434b",
    "scene/-1": "fb4f130db1a3e4a7",
    "gaussian_noise/-1": "96eec4f044cefc87",
    "shot_noise/-1": "3e24c5404250c480",
    "impulse_noise/-1": "f9d88cbadbc84116",
    "demo/-1": "2ec36146004e428a",
    "cafr/18446744073709551621": "0c410b59aafa31e2",
    "fpn/18446744073709551621": "6dae5137ebef3b7e",
    "head/18446744073709551621": "7489912bc15ba64a",
    "scene/18446744073709551621": "5736f0885f895b77",
    "gaussian_noise/18446744073709551621": "9cba799306d7815f",
    "shot_noise/18446744073709551621": "b48f0fd5df165662",
    "impulse_noise/18446744073709551621": "c9b46b954fd0df9c",
    "demo/18446744073709551621": "5a0a0c45859bd11c",
    "dropout": "064022297b4b738d",
}


def test_seeded_streams_are_pinned(tmp_path):
    got = seeded_digests(tmp_path)
    assert got == PINNED


# summary.json of each seed's default pipeline-demo run, recorded from the
# code before the detection chain moved into one Detector; "outputs" holds
# paths and is left out
PINNED_SUMMARIES = {
    0: {
        "n_events": 1472, "grid_shape": [8, 48, 64], "fused_shape": [16, 12, 16],
        "n_detections": 292, "map": 0.009999999999999993, "map50": 0.03333333333333331,
    },
    -1: {
        "n_events": 1480, "grid_shape": [8, 48, 64], "fused_shape": [16, 12, 16],
        "n_detections": 260, "map": 0.0, "map50": 0.0,
    },
    2**64 + 5: {
        "n_events": 1463, "grid_shape": [8, 48, 64], "fused_shape": [16, 12, 16],
        "n_detections": 227, "map": 0.0, "map50": 0.0,
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_demo_summaries_are_pinned(tmp_path, seed):
    assert main(["pipeline-demo", "--out-dir", str(tmp_path), "--seed", str(seed)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["outputs"]
    assert summary == PINNED_SUMMARIES[seed]
