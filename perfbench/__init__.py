"""Benchmark of toriceig: workloads, independent oracles and traced timings.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload ritz --seed 1 --seconds 36 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def use_checkout_src() -> None:
    """Put the checkout's own `src/` first on sys.path.

    Raises FileNotFoundError when the checkout has no toriceig sources, so a
    copy installed elsewhere is never measured by mistake.
    """
    if not (SRC / "toriceig" / "__init__.py").is_file():
        raise FileNotFoundError(f"no toriceig sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child interpreter that imports the checkout's src/."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env
