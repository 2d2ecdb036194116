"""The benchmark's tracer patches engine names by module and attribute, and
``scripts/scan_inputs.py`` reads the token memos' counters; each must still
exist, or the benchmark or the script fails only when it runs."""

import importlib.util
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


def test_scan_inputs_stats_reads_the_memos(tmp_path, capsys):
    """``scripts/scan_inputs.py stats`` reads the token memos' counters; a
    memo change that drops one fails here, not only when the script runs."""
    path = ROOT / "scripts" / "scan_inputs.py"
    spec = importlib.util.spec_from_file_location("scan_inputs", path)
    scan_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan_inputs)
    (tmp_path / "a.txt").write_text("One cat sat. The cat ran!\n\nA dog, too.\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("Ünïcode wörds. 東京は大きい。\n", encoding="utf-8")
    scan_inputs.stats(tmp_path)
    count, embed, times = capsys.readouterr().out.splitlines()
    for line, name in ((count, "count"), (embed, "embed")):
        assert line.startswith(f"{name}: ") and line.endswith("of texts rested")
    assert times.startswith("build_corpus ")
