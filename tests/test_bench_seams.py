"""The benchmark's tracer patches engine names by module and attribute; each
must still exist, or the benchmark fails only when it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ in this tree")
def test_tracer_installs_and_the_bench_imports():
    path = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tracer import Tracer; Tracer().install(); import worker, inputs"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
