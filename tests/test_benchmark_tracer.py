"""The benchmark's tracer wraps entlab functions by name; a refactor that
renames or drops one makes ``tracer.install`` raise."""

import subprocess
import sys
from pathlib import Path

from helpers import CLI_ENV

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs():
    code = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); "
        "import tracer; tracer.install(tracer.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 0, proc.stderr
