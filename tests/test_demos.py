"""Smoke tests for the narrative demos: each runs as a script at full size
and prints its key results. Demos 03 and 04 are the end-to-end runs of a
demo on the stored and the streaming timeline."""

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


def test_guided_trajectories_equivariance_demo():
    out = run_demo("03_guided_trajectories_equivariance.py")
    rows = re.findall(r"^ +\d+\.\d\d +(\S+)$", out, re.MULTILINE)
    assert len(rows) == 11
    assert all(float(l1) <= 0.03 for l1 in rows)
    assert "(degraded run: False)" in out


def test_relaxation_to_born_rule_demo():
    out = run_demo("04_relaxation_to_born_rule.py")
    rows = re.findall(r"^ +\d\.\d\d +(\S+)$", out, re.MULTILINE)
    assert len(rows) == 11
    decay = re.search(r"decay over one period: (\d+)%", out)
    assert decay and int(decay.group(1)) >= 50


def test_pointer_measurement_demo():
    out = run_demo("05_pointer_measurement.py")
    means = re.findall(r"k=\d: <y> = (\S+)\s+expected (\S+)", out)
    assert len(means) == 3
    assert all(abs(float(a) - float(b)) < 1e-3 for a, b in means)
    lobes = re.findall(r"lobe masses: (\S+) / (\S+)", out)
    assert len(lobes) == 2  # closed form, then the brute-force cross-check
    assert all(abs(float(v) - 0.5) < 2e-2 for pair in lobes for v in pair)


def test_quantum_force_from_diffusion_demo():
    out = run_demo("01_quantum_force_from_diffusion.py")
    rows = re.findall(r"^ +(\S+e-0\d) +(\S+)$", out, re.MULTILINE)
    assert len(rows) == 5
    delta_t = [float(d) for d, _ in rows]
    errors = [float(e) for _, e in rows]
    # first order in the micro-interval: halving delta_t halves the error
    for (d0, e0), (d1, e1) in zip(zip(delta_t, errors), zip(delta_t[1:], errors[1:])):
        assert d0 / d1 == 2.0
        assert 1.9 <= e0 / e1 <= 2.1
    assert errors[-1] < 1e-4
    deviations = re.findall(r"^ +\S+ +\S+ +\S+ +(\S+e-\d+)$", out, re.MULTILINE)
    assert len(deviations) == 3
    assert all(float(d) < 1e-3 for d in deviations)


def test_conditional_pilot_waves_demo():
    out = run_demo("06_conditional_pilot_waves.py")
    worst = re.search(r"max \|difference\| over 500 sampled configurations: (\S+)", out)
    assert worst and float(worst.group(1)) < 1e-12
    drift = re.search(r"max variation across conditioning positions: (\S+)", out)
    assert drift and float(drift.group(1)) < 1e-12
    overlaps = re.findall(r"left branch (\S+), right branch (\S+),", out)
    assert len(overlaps) == 3
    # the slice at one packet's position picks the other particle's branch
    assert float(overlaps[0][1]) > 0.99 and float(overlaps[2][0]) > 0.99
