"""The names the benchmark's tracer wraps stay attributes of the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_library():
    # perfbench/tracer.py looks each hooked name up with getattr, so one
    # that is renamed or removed fails here, not only in a traced run
    code = "from wordorbits import cli\nfrom tracer import Tracer\nTracer().install()\n"
    path = [str(ROOT / "perfbench"), str(ROOT / "src")]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=60)
    assert done.returncode == 0, done.stderr
