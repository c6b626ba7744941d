"""The installed runtime needs numpy and PyYAML only; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import cpfsim


def test_runtime_modules_do_not_import_scipy():
    code = ("import sys\n"
            "import cpfsim, cpfsim.cli, cpfsim.config, cpfsim.simulator, cpfsim.verification\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cpfsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
