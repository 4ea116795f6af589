"""Smoke tests for the narrative demos that drive the stencil, split-step
and pointer kernels: each runs as a script and prints its key results."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hydrodynamic_vs_spectral_demo():
    out = run_demo("02_hydrodynamic_vs_spectral_evolution.py")
    residuals = re.findall(r"continuity (\S+), momentum (\S+)", out)
    assert len(residuals) == 3
    assert all(float(c) < 1e-5 and float(m) < 1e-5 for c, m in residuals)
    gap = re.search(r"density L2 gap at t=0\.5:\s+(\S+)", out)
    assert gap and float(gap.group(1)) < 1e-9
    assert "wave-function gap (phase-aligned):" in out


def test_pointer_measurement_demo():
    out = run_demo("05_pointer_measurement.py")
    means = re.findall(r"k=\d: <y> = (\S+)\s+expected (\S+)", out)
    assert len(means) == 3
    assert all(abs(float(a) - float(b)) < 1e-3 for a, b in means)
    lobes = re.findall(r"lobe masses: (\S+) / (\S+)", out)
    assert len(lobes) == 2  # closed form, then the brute-force cross-check
    assert all(abs(float(v) - 0.5) < 2e-2 for pair in lobes for v in pair)
