"""The README's library example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_library_example():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bound, lam, classification = proc.stdout.splitlines()
    assert bound == "6"
    assert float(lam) == pytest.approx(6.0, abs=1e-12)
    assert classification == "fubini-study"
