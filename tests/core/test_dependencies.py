"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so a fresh install
can import ``repro`` only if nothing it loads comes from elsewhere.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.bench, repro.cli, repro.service
from repro.stats import t_interval
t_interval([1.0, 2.0, 4.0])
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_imports_load_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = json.loads(done.stdout)
    assert "repro" in loaded
    assert [name for name in loaded
            if name not in sys.stdlib_module_names
            and name not in ("repro", "__mp_main__")] == []
