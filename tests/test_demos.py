"""Each script in demos/ runs to completion against the package in src/.

The demos run in order in one directory, since 02 reads the model and
corpus that 01 writes there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, f"{demo.name} failed:\n{result.stderr}"
