"""The dist conftest's failure report, exercised by a test that fails on
purpose in a child pytest (so this suite stays green)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

FAILING_TEST = '''
import numpy as np
from repro import nn
from repro.data import synthetic_images
from repro.dist import ChaosTransport, Fault, ddp_engine, shutdown
from repro.nn.losses import CrossEntropyLoss


def test_fails_after_a_recovered_kill():
    rng = np.random.default_rng(0)
    model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.ReLU(),
                          nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng))
    split = synthetic_images(3, 32, 16, image_size=8, seed=0)
    chaos = ChaosTransport("local", faults=[Fault("kill", rank=1, op="compute", nth=1)])
    engine = ddp_engine(model, CrossEntropyLoss(), workers=2, transport=chaos,
                        inner="bp", lr=0.05)
    engine.fit(lambda: split.train.batches(16, rng=np.random.default_rng(1)),
               lambda: split.val.batches(16, shuffle=False), 1)
    shutdown(engine)
    assert False, "deliberate"
'''


def test_failed_dist_test_prints_fault_rows_and_recovery_spans(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_deliberate.py").write_text(FAILING_TEST)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    out = proc.stdout
    assert proc.returncode == 1, out + proc.stderr
    assert "deliberate" in out
    assert "repro.dist fault report" in out
    assert "epoch  faults  retries  rebuilds  recovery_s  recovery_bytes" in out
    assert "'kind': 'died'" in out and "'rank': 1" in out  # the fault_log row
    assert "span dist.rebuild rank=1" in out  # the recovery-phase span
