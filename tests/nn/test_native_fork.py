"""Fork safety of the native kernels: native → fork → native.

libgomp's worker threads do not survive ``fork``; a child that inherits
a library which already ran a parallel region used to hang in its next
one — the 12-minute ``[native]`` transport-parity cell.  Run in a
subprocess under ``OMP_NUM_THREADS=2`` so a 1-core runner reproduces it
too (the parity cell only hung where ``cpu_count() >= 2``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.nn.backend import native_available

SCRIPT = """
import multiprocessing as mp
import numpy as np
from repro.nn.backend import resolve_backend

def conv():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    out = resolve_backend("native").conv2d_forward(x, w, None, 1, 1)
    return np.asarray(out[0] if isinstance(out, tuple) else out).tobytes()

def child(queue):
    queue.put(conv())

if __name__ == "__main__":
    expected = conv()  # the parent's OpenMP team exists before the fork
    queue = mp.get_context("fork").Queue()
    proc = mp.get_context("fork").Process(target=child, args=(queue,), daemon=True)
    proc.start()
    try:
        got = queue.get(timeout=30)
    except Exception:
        proc.kill()
        raise SystemExit("forked child hung in its first native kernel")
    proc.join(5)
    raise SystemExit(0 if got == expected else "forked child computed different bits")
"""


@pytest.mark.skipif(not native_available(), reason="native extension unavailable")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
def test_forked_child_runs_native_kernels_with_the_parents_bits():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "OMP_NUM_THREADS": "2", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
