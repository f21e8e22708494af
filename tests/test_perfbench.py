"""The benchmark's tracer finds every program function it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_layer():
    # the traced benchmark wraps functions by module and name; a metric
    # whose function was renamed or deleted would read null
    code = (
        "import json, tracer\n"
        "import cyclotrace.special_forms as sf\n"
        "missing = tracer.install(tracer.Tracer())\n"
        "print(json.dumps({'missing': missing,\n"
        "                  'cache_info': callable(getattr(sf.hurwitz, 'cache_info', None))}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"missing": [], "cache_info": True}
