"""evframe benchmark: four closed-loop workloads with output checks.

    python3 perfbench/run.py [--seed N] [--seconds S]
        every workload in its own process, untraced then traced; prints one
        row of end-to-end metrics per workload, then the per-layer metrics
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last stdout line is the result
        {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
        with --trace 0, per-layer metrics with --trace 1
    python3 perfbench/run.py --record
        rewrite perfbench/reference.json from the fixed reference cases

Each run makes its inputs from --seed, sets up three times (set-up time is
the median import time of a fresh interpreter plus the median set-up: input
generation, weight init and a small warm-up), then runs ops one after another
(one client, closed loop) until the next op would end after --seconds.
Op times are gated in cal units (see END_TO_END) and printed in ms as well.
Every op's outputs are checked between ops, outside the timing, and a fixed
reference case is compared with reference.json after the loop. The exit
code is 1 on any mismatch and 2 when the evframe sources are missing.

A traced run spends half of --seconds untraced, then replays the same ops
with spans around every evframe call, and adds the workload's extra passes
(tracemalloc for detect-346, a sequential render for corrupt-346). Spans
are written once, at the end, to .perfbench_run/spans-<workload>.jsonl.
Temporary outputs go to .perfbench_run/ and are deleted.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

# Op timings are gated in cal units: an op's wall time divided by the mean of
# two calibrations (a fixed pure-Python loop on as many cores as the op keeps
# busy) taken just before it and just before the next op. On a shared host a
# core's speed drifts by up to 2x over tens of seconds: over ten seeds the
# quartile spread of wall-clock run medians reached 34% of the median, in cal
# units at most 13% (meta.json, noise). Wall-clock values are printed too.
END_TO_END = (
    ("setup_s", "s"),
    ("op_cal_p50", "cal"),
    ("op_cal_tail", "cal"),
    ("items_per_cal", "1/cal"),
    ("peak_rss_mb", "MB"),
)

# Public calls whose summed seconds per op are reported as "<call>.s".
OP_CALLS = (
    "encode_events", "decode_events", "decode_image", "decode_detections",
    "encode_detections", "simulate_events", "build_voxel_grid", "warp_image",
    "warp_bbox", "conv2d", "cafr_forward", "build_fpn", "head_forward",
    "gen_pyramid_anchors", "decode_head", "map_coco", "corrupt_dataset", "psnr",
)
CORRUPTION_TYPES = (
    "gaussian_noise", "shot_noise", "impulse_noise", "defocus_blur", "glass_blur",
    "motion_blur", "zoom_blur", "fog", "snow", "frost", "brightness", "contrast",
    "elastic", "pixelate", "jpeg_compression",
)
# Per-op means of the counts the ops record.
COUNTS = (
    ("events", "count"), ("event_csv_bytes", "B"), ("boxes_dropped", "count"),
    ("tokens", "count"), ("attn_bytes", "B"), ("anchors", "count"),
    ("candidates", "count"), ("kept", "count"), ("keep_ratio", "ratio"),
    ("decode_errors", "count"), ("preds", "count"), ("gts", "count"),
    ("variants", "count"), ("bytes_written", "B"),
)
PER_LAYER = (
    tuple((f"{c}.s", "s") for c in OP_CALLS)
    + (("encode_image.s", "s"), ("build_mpc_report.s", "s"))
    + tuple((f"apply.{t}.s", "s") for t in CORRUPTION_TYPES)
    + COUNTS
    + (("cafr_forward.peak_mb", "MB"), ("pool_efficiency", "ratio"), ("trace_overhead_pct", "%"))
    + tuple((f"{m}.self_s", "s") for m in MODULES)
    + tuple((f"{m}.share", "%") for m in MODULES)
)


def loop_seconds() -> float:
    """Median of 7 timings of a fixed pure-Python loop."""
    tries = []
    for _ in range(7):
        start = time.perf_counter()
        s = 0
        for k in range(20_000):
            s += k * k % 7
        tries.append(time.perf_counter() - start)
    return statistics.median(tries)


def calibration(cores: int) -> float:
    """The current speed of ``cores`` busy cores, which other tenants of a
    shared host can halve: ``loop_seconds`` run on that many cores at once
    (helper processes for the extra ones), averaged."""
    helpers = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--calibrate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(cores - 1)
    ]
    for h in helpers:
        h.stdout.readline()  # started
    for h in helpers:
        h.stdin.write("go\n")
        h.stdin.flush()
    times = [loop_seconds()]
    for h in helpers:
        out, _ = h.communicate()
        times.append(float(out))
    return statistics.mean(times)


class Loop:
    """Outcome of one closed loop of ops."""

    def __init__(self):
        self.seconds = []  # per attempted op
        self.ok = []  # per attempted op; False when it raised EvframeError
        self.cal = []  # calibration seconds before each op and after the last
        self.items = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def latencies(self) -> list:
        return [s for s, ok in zip(self.seconds, self.ok) if ok]

    def in_cal(self, successful_only: bool = True) -> list:
        """Op times in cal units: seconds over the mean of the calibrations
        taken just before the op and just before the next one."""
        return [
            s / ((self.cal[i] + self.cal[i + 1]) / 2)
            for i, (s, ok) in enumerate(zip(self.seconds, self.ok))
            if ok or not successful_only
        ]


def run_loop(wl, tr, errors, error_type, seconds=None, count=None) -> Loop:
    """Run ops back to back: ``count`` of them, or while the next op is
    expected (from the median so far) to end within ``seconds``."""
    loop = Loop()
    begin = time.perf_counter()
    i = 0
    while True:
        gc.collect()  # every op starts from the same collector state
        loop.cal.append(calibration(wl.busy_cores))
        start = time.perf_counter()
        try:
            with tr.op(i):
                out = wl.op(i, tr)
        except error_type as exc:
            loop.seconds.append(time.perf_counter() - start)
            loop.ok.append(False)
            print(f"{wl.name} op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            loop.seconds.append(time.perf_counter() - start)
            loop.ok.append(True)
            loop.items += wl.items(out)
            errors.extend(wl.check(i, out))
            del out
        i += 1
        if count is not None:
            if i >= count:
                break
        elif time.perf_counter() - begin + statistics.median(loop.seconds) > seconds:
            break
    loop.cal.append(calibration(wl.busy_cores))
    return loop


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, but never below the median."""
    n = len(samples)
    if n >= 2 * TAIL_BEYOND:
        return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return statistics.median(samples), 50.0


def median_or_zero(samples: list) -> float:
    return statistics.median(samples) if samples else 0.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    cal = loop.in_cal()
    values = {
        "setup_s": setup_s,
        "op_cal_p50": median_or_zero(cal),
        "op_cal_tail": tail(cal)[0] if cal else 0.0,
        "items_per_cal": loop.items / sum(loop.in_cal(successful_only=False)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def wall_clock(loop: Loop) -> dict:
    """The same op timings in wall-clock units; printed, not gated."""
    lat = loop.latencies
    return {
        "op_ms_p50": 1000.0 * median_or_zero(lat),
        "op_ms_tail": 1000.0 * tail(lat)[0] if lat else 0.0,
        "items_per_s": loop.items / sum(loop.seconds),
    }


def per_layer(wl, tracers: dict, plain: Loop, traced: Loop) -> dict:
    ops, seq = tracers["ops"], tracers.get("sequential")
    n = len(ops.op_walls())
    values = {f"{c}.s": ops.seconds(c) / n for c in OP_CALLS}
    values["encode_image.s"] = seq.seconds("encode_image") if seq else 0.0
    for t in CORRUPTION_TYPES:
        values[f"apply.{t}.s"] = seq.seconds(f"apply.{t}") if seq else 0.0
    ref = tracers["reference"]
    calls = sum(1 for s in ref.spans if s.name == "build_mpc_report")
    values["build_mpc_report.s"] = ref.seconds("build_mpc_report") / calls if calls else 0.0
    for name, _ in COUNTS:
        values[name] = ops.counts.get(name, 0.0) / n
    mem = tracers.get("memory")
    values["cafr_forward.peak_mb"] = mem.peak_bytes["cafr_forward"] / 2**20 if mem else 0.0
    pool = values["corrupt_dataset.s"] * getattr(wl, "workers", 1)
    applied = sum(values[f"apply.{t}.s"] for t in CORRUPTION_TYPES)
    values["pool_efficiency"] = applied / pool if pool else 0.0
    p50_plain, p50_traced = median_or_zero(plain.in_cal()), median_or_zero(traced.in_cal())
    values["trace_overhead_pct"] = 100.0 * (p50_traced - p50_plain) / p50_plain if p50_plain else 0.0
    wall = sum(ops.op_walls()) / n
    for module, self_s in ops.self_seconds().items():
        values[f"{module}.self_s"] = self_s / n
        values[f"{module}.share"] = 100.0 * self_s / n / wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def write_spans(path: Path, tracers: dict) -> None:
    with open(path, "w") as f:
        for pass_name, tr in tracers.items():
            for s in tr.spans:
                f.write(json.dumps(dict(s.record(), **{"pass": pass_name})) + "\n")


def import_evframe():
    """Import evframe from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import evframe

    if Path(evframe.__file__).resolve().parent != SRC / "evframe":
        raise SystemExit(f"evframe was imported from {evframe.__file__}, not from {SRC}")
    if tuple(t.value for t in evframe.CorruptionType) != CORRUPTION_TYPES:
        raise SystemExit("evframe's corruption types differ from the ones this benchmark reports")
    return evframe


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import evframe
    (and with it numpy and scipy)."""
    cmd = [sys.executable, "-c", "import evframe"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    evframe = import_evframe()
    import tracing
    import workloads

    import_s = import_seconds()
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    wl = workloads.WORKLOADS[name]()
    errors = []
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        tmp = Path(tmp)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(seed, tmp)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if trace:
            plain = run_loop(wl, tracing.NULL, errors, evframe.EvframeError, seconds=seconds / 2)
            tracers = {"ops": tracing.Tracer()}
            loop = run_loop(wl, tracers["ops"], errors, evframe.EvframeError, count=plain.attempted)
            errors.extend(wl.trace_passes(tracers))
            ref_tracer = tracers["reference"] = tracing.Tracer()
        else:
            loop = run_loop(wl, tracing.NULL, errors, evframe.EvframeError, seconds=seconds)
            ref_tracer = tracing.NULL

        if name in recorded:
            errors.extend(wl.compare(wl.reference(tmp, ref_tracer), recorded[name]))
        else:
            errors.append(f"{REFERENCE.name} holds no reference for {name}")

    if trace:
        metrics = per_layer(wl, tracers, plain, loop)
        write_spans(RUN_DIR / f"spans-{name}.jsonl", tracers)
        attempted = plain.attempted + loop.attempted
        failed = plain.failed + loop.failed
    else:
        metrics = end_to_end(loop, setup_s)
        attempted, failed = loop.attempted, loop.failed

    for message in errors:
        print(f"{name}: MISMATCH {message}", file=sys.stderr)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "item": wl.item,
        "wall_clock": wall_clock(loop),
        "tail_percentile": tail(loop.latencies)[1] if loop.latencies else 50.0,
        "samples": len(loop.latencies),
        "op_ms": [1000.0 * s for s in loop.seconds],
        "cal_ms": [1000.0 * s for s in loop.cal],
        "failed_share": failed / attempted,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "mismatches": len(errors),
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def record_references() -> int:
    import_evframe()
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            refs[name] = cls().reference(Path(tmp))
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def environment() -> dict:
    """What the numbers depend on, read from this process only."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    import workloads

    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")),
        platform.processor(),
    )
    llc = None
    caches = sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"))
    if caches:
        llc = Path(caches[-1]).read_text().strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_size": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "corrupt_dataset_workers": workloads.pool_workers(),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced, then traced."""
    import_evframe()
    import workloads

    results, status = {}, 0
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
            if len(lines) < 2:
                print(f"{name} (trace {trace}) printed no result, exit code {proc.returncode}")
                status = 1
                continue
            results[name, trace] = json.loads(lines[-2]), json.loads(lines[-1])

    print(f"end-to-end metrics (tracing off), seed {seed}, {seconds:g} s per workload;"
          " 1 cal = the calibration loop's time next to the op")
    for name in workloads.WORKLOADS:
        if (name, 0) not in results:
            continue
        detail, result = results[name, 0]
        item, wall = detail["item"], detail["wall_clock"]
        cells = [
            f"{metric.replace('items', item)}={value['value']:.6g} {value['unit']}"
            for metric, value in result["metrics"].items()
        ]
        cells += [
            f"op_ms_p50={wall['op_ms_p50']:.6g} ms",
            f"op_ms_tail={wall['op_ms_tail']:.6g} ms (p{detail['tail_percentile']:.3g} of {detail['samples']})",
            f"{item}_per_s={wall['items_per_s']:.6g} 1/s",
            f"failed_share={detail['failed_share']:.6g} ({result['failed']}/{result['attempted']})",
            f"correct={str(result['correct']).lower()}",
        ]
        print(f"{name:12s} " + "  ".join(cells))

    print("per-layer metrics (traced run; zero where the workload does not reach the layer)")
    for name in workloads.WORKLOADS:
        if (name, 1) not in results:
            continue
        detail, result = results[name, 1]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items() if v["value"]]
        print(f"{name:12s} correct={str(result['correct']).lower()}  " + "  ".join(cells))
    print("environment " + json.dumps(environment()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    parser.add_argument("--calibrate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.calibrate:  # helper of calibration(): time the loop when told to
        print("ready", flush=True)
        sys.stdin.readline()
        print(loop_seconds())
        return 0
    if not (SRC / "evframe" / "__init__.py").is_file():
        print(f"no evframe sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record:
        return record_references()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
