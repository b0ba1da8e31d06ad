"""Corruption battery: determinism, output contracts, per-type oracles, the runner."""

import dataclasses
import json
import math
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.ndimage as ndi

from evframe import (
    CorruptionSpec,
    CorruptionType,
    DomainError,
    FormatError,
    ImagePNM,
    ShapeError,
    apply_corruption,
    corrupt_dataset,
    corruption_seed,
    decode_image,
    psnr,
)
from evframe import corruption_bench
from evframe.corruption_bench import SEVERITY_TABLE
from conftest import philox, rgb_image, gray_image

ALL_TYPES = list(CorruptionType)


def small_rgb(seed=0, w=24, h=18):
    return rgb_image(philox(seed), w, h)


# -- catalogue -------------------------------------------------------------------


def test_fifteen_types_with_five_severity_rows_each():
    assert len(ALL_TYPES) == 15
    for ctype in ALL_TYPES:
        assert len(SEVERITY_TABLE[ctype]) == 5


def test_severity_bounds():
    for bad, message in (
        (0, "severity must be an int >= 1, got 0"),
        (6, "severity must be an integer in [1,5], got 6"),
        (2.5, "severity must be an int >= 1, got 2.5"),
    ):
        with pytest.raises(DomainError) as exc:
            CorruptionSpec(CorruptionType.FOG, bad)
        assert str(exc.value) == message


def test_a_checked_spec_cannot_be_changed():
    # apply_corruption indexes the severity table with it unchecked
    spec = CorruptionSpec(CorruptionType.FOG, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.severity = 0


def test_spec_rejects_non_enum_type():
    with pytest.raises(DomainError):
        CorruptionSpec("fog", 1)


def test_string_values_round_trip_through_the_enum():
    assert CorruptionType("jpeg_compression") is CorruptionType.JPEG_COMPRESSION


# -- output contract over the whole battery ---------------------------------------------


@pytest.mark.parametrize("ctype", ALL_TYPES, ids=lambda c: c.value)
def test_every_type_preserves_dims_and_dtype(ctype):
    img = small_rgb()
    for severity in range(1, 6):
        out = apply_corruption(img, CorruptionSpec(ctype, severity, seed=7))
        assert (out.width, out.height, out.channels) == (img.width, img.height, img.channels)
        assert out.pixels.dtype == np.uint8


@pytest.mark.parametrize("ctype", ALL_TYPES, ids=lambda c: c.value)
def test_every_type_is_seed_deterministic(ctype):
    img = small_rgb(3)
    spec = CorruptionSpec(ctype, 4, seed=123)
    a = apply_corruption(img, spec)
    b = apply_corruption(img, spec)
    assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.parametrize("ctype", ALL_TYPES, ids=lambda c: c.value)
def test_every_type_accepts_grayscale(ctype):
    img = gray_image(philox(5), 20, 16)
    out = apply_corruption(img, CorruptionSpec(ctype, 2, seed=1))
    assert out.channels == 1 and (out.width, out.height) == (20, 16)


def test_randomized_types_differ_across_seeds():
    img = small_rgb(9)
    for ctype in (CorruptionType.GAUSSIAN_NOISE, CorruptionType.SNOW, CorruptionType.FROST):
        a = apply_corruption(img, CorruptionSpec(ctype, 3, seed=0))
        b = apply_corruption(img, CorruptionSpec(ctype, 3, seed=1))
        assert not np.array_equal(a.pixels, b.pixels), ctype


def test_corruption_changes_the_image():
    img = small_rgb(11)
    for ctype in ALL_TYPES:
        out = apply_corruption(img, CorruptionSpec(ctype, 5, seed=2))
        assert not np.array_equal(out.pixels, img.pixels), ctype


# -- closed-form types checked against direct pixel arithmetic ---------------------------


def test_brightness_is_an_additive_lift():
    img = small_rgb(21)
    out = apply_corruption(img, CorruptionSpec(CorruptionType.BRIGHTNESS, 2, seed=0))
    lift = SEVERITY_TABLE[CorruptionType.BRIGHTNESS][2 - 1]["lift"]
    want = np.clip(np.rint(np.clip(img.to_float01() + lift, 0, 1) * 255), 0, 255)
    assert np.array_equal(out.pixels, want.astype(np.uint8))


def test_contrast_scales_about_the_mean():
    img = small_rgb(22)
    out = apply_corruption(img, CorruptionSpec(CorruptionType.CONTRAST, 3, seed=0))
    f = SEVERITY_TABLE[CorruptionType.CONTRAST][3 - 1]["factor"]
    x = img.to_float01()
    m = x.mean(axis=(0, 1), keepdims=True)
    want = np.clip(np.rint(np.clip((x - m) * f + m, 0, 1) * 255), 0, 255)
    assert np.array_equal(out.pixels, want.astype(np.uint8))


def test_pixelate_produces_constant_blocks():
    img = small_rgb(23, w=24, h=16)
    out = apply_corruption(img, CorruptionSpec(CorruptionType.PIXELATE, 3, seed=0))
    k = SEVERITY_TABLE[CorruptionType.PIXELATE][3 - 1]["factor"]
    px = out.pixels
    for by in range(0, img.height, k):
        for bx in range(0, img.width, k):
            block = px[by : by + k, bx : bx + k]
            assert (block == block[0, 0]).all()


def test_impulse_noise_flips_to_extremes_only():
    img = ImagePNM.from_float01(np.full((30, 30, 1), 0.5))
    out = apply_corruption(img, CorruptionSpec(CorruptionType.IMPULSE_NOISE, 5, seed=4))
    changed = out.pixels != img.pixels
    assert set(np.unique(out.pixels[changed])) <= {0, 255}
    rate = SEVERITY_TABLE[CorruptionType.IMPULSE_NOISE][5 - 1]["rate"]
    # ~27% of pixels hit, half of which land on the salt side
    assert abs(changed.mean() - rate) < 0.06


def test_gaussian_noise_sigma_is_respected():
    img = ImagePNM.from_float01(np.full((64, 64, 1), 0.5))
    out = apply_corruption(img, CorruptionSpec(CorruptionType.GAUSSIAN_NOISE, 1, seed=8))
    resid = out.to_float01() - 0.5
    assert abs(resid.std() - 0.04) < 0.005


def test_zoom_blur_keeps_the_center_pixel_brightest():
    # a centered bright dot smears outward, never inward
    arr = np.zeros((31, 31, 1))
    arr[15, 15, 0] = 1.0
    out = apply_corruption(
        ImagePNM.from_float01(arr), CorruptionSpec(CorruptionType.ZOOM_BLUR, 3, seed=0)
    )
    assert out.pixels.argmax() == np.ravel_multi_index((15, 15, 0), out.pixels.shape)


# -- psnr ------------------------------------------------------------------------


def test_psnr_identical_is_infinite():
    img = small_rgb(31)
    assert psnr(img, img) == float("inf")


def test_psnr_known_mse():
    a = ImagePNM.from_float01(np.zeros((4, 4, 1)))
    b = ImagePNM.from_float01(np.full((4, 4, 1), 10.0 / 255.0))
    # mse = 100 -> 10*log10(65025/100)
    assert psnr(a, b) == pytest.approx(10 * np.log10(65025 / 100), abs=1e-12)


def test_psnr_requires_matching_dims():
    with pytest.raises(ShapeError):
        psnr(small_rgb(1, w=8, h=8), small_rgb(1, w=9, h=8))


def float_psnr(a, b):
    """psnr from the float64 mean of squared differences, as it was before int64 sums."""
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return 10.0 * math.log10(255.0 * 255.0 / float(np.mean(diff * diff)))


@pytest.mark.parametrize("seed", range(6))
def test_psnr_equals_the_float_formula_exactly(seed):
    rng = philox(200 + seed)
    w, h = int(rng.integers(1, 120)), int(rng.integers(1, 90))
    make = gray_image if seed % 2 else rgb_image
    a, b = make(rng, w, h), make(rng, w, h)
    assert psnr(a, b) == float_psnr(a, b)


def test_psnr_of_black_against_white_is_exactly_zero_past_int32():
    # 33 027 * 255**2 exceeds 2**31 - 1: an int32 sum of squares would wrap
    n = 33_027
    black = ImagePNM(width=n, height=1, channels=1, pixels=np.zeros((1, n, 1), np.uint8))
    white = ImagePNM(width=n, height=1, channels=1, pixels=np.full((1, n, 1), 255, np.uint8))
    assert psnr(black, white) == 0.0
    assert psnr(white, black) == 0.0


def test_severity_monotonically_hurts_psnr_for_noise():
    img = small_rgb(41, w=48, h=48)
    vals = [
        psnr(img, apply_corruption(img, CorruptionSpec(CorruptionType.GAUSSIAN_NOISE, s, seed=5)))
        for s in range(1, 6)
    ]
    assert all(vals[i] > vals[i + 1] for i in range(4))


# -- seed chain -------------------------------------------------------------------


def test_corruption_seed_is_stable():
    assert corruption_seed(0, 0, 0, 1) == corruption_seed(0, 0, 0, 1)


def test_corruption_seed_separates_every_axis():
    base = corruption_seed(7, 1, 2, 3)
    assert corruption_seed(8, 1, 2, 3) != base
    assert corruption_seed(7, 2, 2, 3) != base
    assert corruption_seed(7, 1, 3, 3) != base
    assert corruption_seed(7, 1, 2, 4) != base


def test_corruption_seed_grid_has_no_collisions():
    seen = {
        corruption_seed(0, i, t, s)
        for i in range(20)
        for t in range(15)
        for s in range(1, 6)
    }
    assert len(seen) == 20 * 15 * 5


# -- dataset runner ----------------------------------------------------------------


def write_corpus(tmp_path, n=2):
    paths = []
    for i in range(n):
        img = small_rgb(100 + i, w=16, h=12)
        p = tmp_path / f"img{i}.pnm"
        from evframe import encode_image

        p.write_bytes(encode_image(img))
        paths.append(p)
    return paths


def test_dataset_writes_all_variants_and_manifest(tmp_path):
    paths = write_corpus(tmp_path, n=1)
    out = tmp_path / "out"
    rows = corrupt_dataset(paths, out, base_seed=3)
    assert len(rows) == 75
    assert (out / "manifest.jsonl").exists()
    lines = (out / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 75
    first = json.loads(lines[0])
    assert set(first) == {"src", "dst", "type", "severity", "seed"}
    assert first["type"] == "gaussian_noise" and first["severity"] == 1
    # every referenced file exists, is named by its grid cell, and decodes
    from pathlib import Path

    for row in rows:
        dst = Path(row["dst"])
        assert dst.name.endswith(f"_{row['type']}_s{row['severity']}.pnm")
        img = decode_image(dst.read_bytes())
        assert (img.width, img.height) == (16, 12)


def test_dataset_outputs_do_not_depend_on_worker_count(tmp_path):
    paths = write_corpus(tmp_path, n=2)
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    rows_seq = corrupt_dataset(paths, seq_dir, base_seed=11, workers=1)
    rows_par = corrupt_dataset(paths, par_dir, base_seed=11, workers=4)
    assert [(r["type"], r["severity"], r["seed"]) for r in rows_seq] == [
        (r["type"], r["severity"], r["seed"]) for r in rows_par
    ]
    from pathlib import Path

    for rs, rp in zip(rows_seq, rows_par):
        assert Path(rs["dst"]).read_bytes() == Path(rp["dst"]).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_variant_does_not_stop_the_others(tmp_path, monkeypatch, workers):
    def broken(arr, rng, **params):
        raise DomainError("broken fog")

    monkeypatch.setitem(corruption_bench._CORRUPT, CorruptionType.FOG, broken)
    out = tmp_path / "out"
    with pytest.raises(DomainError, match="broken fog"):
        corrupt_dataset(write_corpus(tmp_path, n=1), out, workers=workers)
    written = [p.name for p in out.glob("*.pnm")]
    assert len(written) == 70 and not any("_fog_" in name for name in written)
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fails_after", [0, 3])
def test_a_failing_zoom_step_does_not_stop_the_other_variants(
    tmp_path, monkeypatch, workers, fails_after
):
    real = corruption_bench._zoom_means

    def broken(arr, max_zooms):
        for k, mean in enumerate(real(arr, max_zooms)):
            if k == fails_after:
                raise DomainError("broken zoom step")
            yield mean

    monkeypatch.setattr(corruption_bench, "_zoom_means", broken)
    out = tmp_path / "out"
    with pytest.raises(DomainError, match="broken zoom step"):
        corrupt_dataset(write_corpus(tmp_path, n=1), out, workers=workers)
    written = [p.name for p in out.glob("*.pnm")]
    zoom = sorted(name for name in written if "_zoom_blur_" in name)
    # the severities below the failing step were rendered first
    assert zoom == [f"img0_zoom_blur_s{s}.pnm" for s in range(1, fails_after + 1)]
    assert len(written) - len(zoom) == 70
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("channels", [1, 3])
def test_dataset_zoom_variants_match_apply_corruption_byte_for_byte(tmp_path, channels):
    from evframe import encode_image

    rng = philox(60 + channels)
    img = (gray_image if channels == 1 else rgb_image)(rng, 37, 23)
    src = tmp_path / "odd.pnm"
    src.write_bytes(encode_image(img))
    rows = corrupt_dataset([src], tmp_path / "out", base_seed=9, workers=2)
    zoom = [r for r in rows if r["type"] == "zoom_blur"]
    assert [r["severity"] for r in zoom] == [1, 2, 3, 4, 5]
    for r in zoom:
        spec = CorruptionSpec(CorruptionType.ZOOM_BLUR, r["severity"], r["seed"])
        want = encode_image(apply_corruption(img, spec))
        assert (tmp_path / "out" / f"odd_zoom_blur_s{r['severity']}.pnm").read_bytes() == want


def test_dataset_input_validation(tmp_path):
    with pytest.raises(DomainError):
        corrupt_dataset([], tmp_path / "x")
    with pytest.raises(DomainError):
        corrupt_dataset([tmp_path / "missing.pnm"], tmp_path / "x", workers=0)


def test_an_undecodable_image_keeps_its_error_class_and_gains_its_path(tmp_path):
    good, bad = write_corpus(tmp_path, n=2)
    bad.write_bytes(bad.read_bytes()[:5])
    out = tmp_path / "out"
    with pytest.raises(FormatError) as exc:
        corrupt_dataset([good, bad], out)
    assert str(exc.value) == f"{bad}: truncated PNM header"
    assert not out.exists()


# -- level-at-a-time plasma and per-channel zoom against their scalar forms ----------


def scalar_plasma(rng, height, width, roughness):
    """Point-by-point diamond-square: the reference for corruption_bench._plasma."""
    size = 1
    while size < max(height, width):
        size *= 2
    n = size + 1
    g = np.zeros((n, n))
    g[0, 0], g[0, -1], g[-1, 0], g[-1, -1] = rng.random(4)
    step, scale = size, 1.0
    while step > 1:
        half = step // 2
        for y in range(half, n, step):
            for x in range(half, n, step):
                avg = (
                    g[y - half, x - half] + g[y - half, x + half]
                    + g[y + half, x - half] + g[y + half, x + half]
                ) / 4.0
                g[y, x] = avg + (rng.random() - 0.5) * scale
        for y in range(0, n, half):
            xstart = half if (y % step) == 0 else 0
            for x in range(xstart, n, step):
                total, cnt = 0.0, 0
                for dy, dx in ((-half, 0), (half, 0), (0, -half), (0, half)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < n and 0 <= xx < n:
                        total += g[yy, xx]
                        cnt += 1
                g[y, x] = total / cnt + (rng.random() - 0.5) * scale
        step = half
        scale *= roughness
    g = g[:height, :width]
    lo, hi = g.min(), g.max()
    return (g - lo) / (hi - lo) if hi > lo else np.zeros_like(g)


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
@pytest.mark.parametrize("roughness", [0.55, 0.7, 1.0])
@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 5), (24, 32), (129, 129), (257, 100), (260, 346)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_plasma_matches_the_scalar_oracle_byte_for_byte(shape, roughness, seed):
    got = corruption_bench._plasma(philox(seed), *shape, roughness)
    want = scalar_plasma(philox(seed), *shape, roughness)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


class CountingGenerator:
    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


def test_plasma_draws_once_per_step_and_level():
    rng = CountingGenerator(philox(1))
    corruption_bench._plasma(rng, 260, 346, 0.55)
    # 512 covers 346: four corners, then one diamond and one square draw per level
    assert rng.calls <= 2 * 9 + 1


def scalar_zoom_blur(arr, max_zoom):
    """Zoom blur with one 3-D zoom per step: the reference for corrupt_zoom_blur."""
    h, w = arr.shape[:2]
    acc = arr.copy()
    count = 1
    for z in np.arange(1.02, max_zoom + 1e-9, 0.02):
        zoomed = ndi.zoom(arr, (z, z, 1.0), order=1)
        zh, zw = zoomed.shape[:2]
        top, left = (zh - h) // 2, (zw - w) // 2
        acc += zoomed[top:top + h, left:left + w]
        count += 1
    return acc / count


@pytest.mark.parametrize("severity", range(1, 6))
@pytest.mark.parametrize("channels", [3, 1], ids=["rgb", "gray"])
def test_zoom_blur_matches_the_3d_zoom_oracle_byte_for_byte(channels, severity):
    arr = philox(severity).random((37, 50, channels))
    max_zoom = SEVERITY_TABLE[CorruptionType.ZOOM_BLUR][severity - 1]["max_zoom"]
    got = corruption_bench.corrupt_zoom_blur(arr, None, max_zoom)  # it draws nothing
    assert got.tobytes() == scalar_zoom_blur(arr, max_zoom).tobytes()


# -- worker pool bounds ---------------------------------------------------------------


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap ThreadPoolExecutor for a serial stand-in; returns the pool sizes asked for."""
    sizes = []

    class SerialExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(corruption_bench, "ThreadPoolExecutor", SerialExecutor)
    return sizes


# 14 types render one task per severity; zoom blur renders its 5 in one task
TASKS_PER_IMAGE = 14 * 5 + 1


@pytest.mark.parametrize(
    "workers,pool",
    [(3, 3), (TASKS_PER_IMAGE, TASKS_PER_IMAGE), (corruption_bench.MAX_WORKERS, TASKS_PER_IMAGE)],
)
def test_dataset_pool_is_no_larger_than_the_task_list(tmp_path, pool_sizes, workers, pool):
    rows = corrupt_dataset(write_corpus(tmp_path, n=1), tmp_path / "out", workers=workers)
    assert pool_sizes == [pool]
    assert len(rows) == 75 and len(list((tmp_path / "out").glob("*.pnm"))) == 75


def test_dataset_refuses_too_many_workers_before_reading_anything(tmp_path, pool_sizes):
    # the input does not exist: reaching the decode would raise FileNotFoundError
    with pytest.raises(DomainError, match="workers"):
        corrupt_dataset(
            [tmp_path / "missing.pnm"], tmp_path / "out", workers=corruption_bench.MAX_WORKERS + 1
        )
    assert pool_sizes == []
    assert not (tmp_path / "out").exists()
