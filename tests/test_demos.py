"""Every demo runs to completion as a script and prints the stdout it is pinned to."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: a run must print exactly this
STDOUT_SHA256 = {
    "01_normalization_methods": "7d1db7a7805d0889377f9fac2ec9ce4dbfa96d21cb3e28f8ecdee210dab5741d",
    "02_loss_scale_sensitivity": "85a5aee26a6ea09e1b713874c0ae4ec53e1e7b4d515ba63d5a3a3d8ab6d08ecf",
    "03_clipped_and_hybrid": "472a8c4bddf968e37449b5a9700d6202ba8d03f82cfe9e23424e40e661d4b9bc",
    "04_zero_shot_benchmark": "a7b52e9a57b4cb7d265801b5c2fb84569be71e3b7ffe95a068b025adae6edb65",
}


def test_demos_found():
    assert sorted(p.stem for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem], (
        proc.stdout.decode())
