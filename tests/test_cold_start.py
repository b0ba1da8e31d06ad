"""Cold start: SciPy is imported on the first corruption render, not with evframe.

Each test runs a fresh interpreter, since this process has SciPy loaded already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import evframe
from evframe import corrupt_dataset, encode_image
from conftest import philox, rgb_image

SRC = Path(evframe.__file__).resolve().parents[1]


def run_fresh(code: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# an expression, in the fresh interpreter, for the SciPy modules it has loaded
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_importing_evframe_and_its_cli_loads_no_scipy(tmp_path):
    out = run_fresh(f"""
        import sys
        import evframe, evframe.cli
        print({SCIPY_MODULES})
    """, tmp_path)
    assert out == "[]\n"


def snapshot(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_dataset_whose_pool_first_imports_scipy_writes_the_in_process_bytes(tmp_path):
    src = tmp_path / "img.pnm"
    src.write_bytes(encode_image(rgb_image(philox(35), 8, 6)))
    out = tmp_path / "out"
    # the main thread only submits, so SciPy is first imported on a pool thread
    stdout = run_fresh(f"""
        import sys
        from evframe import corrupt_dataset
        before = {SCIPY_MODULES}
        corrupt_dataset([{str(src)!r}], {str(out)!r}, base_seed=5, workers=2)
        print(before, 'scipy.ndimage' in sys.modules)
    """, tmp_path)
    assert stdout == "[] True\n"
    fresh = snapshot(out)
    for p in out.iterdir():
        p.unlink()
    corrupt_dataset([src], out, base_seed=5, workers=2)
    assert len(fresh) == 15 * 5 + 1
    assert snapshot(out) == fresh
