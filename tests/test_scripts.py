"""The experiment scripts run end to end on the library."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_family_curves_script():
    proc = run_script("family_curves.py")
    assert proc.returncode == 0, proc.stderr
    assert "== x^6 family, g=m=1" in proc.stdout
    assert "w^2 = z^3 + (32*A2)*z^2" in proc.stdout


def test_singularity_scan_script():
    proc = run_script("singularity_scan.py", "--g-max", "2", "--above-diagonal", "1")
    assert proc.returncode == 0, proc.stderr
    assert "  g=m=2: singular " in proc.stdout
