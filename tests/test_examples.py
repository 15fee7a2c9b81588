"""Every script in ``examples/`` runs to completion.

Each example is run as its own process, the way a user runs it, at a
small scale so the whole set takes seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Command-line arguments per script; scripts not listed take none.
ARGS = {
    "compare_samplers.py": ["lbm", "0.05"],
    "interference_analysis.py": ["0.05"],
    "lbm_prefetch_tuning.py": ["0.05"],
    "nab_flush_analysis.py": ["0.05"],
    "optimization_workflow.py": ["0.05"],
}


def test_args_name_existing_examples():
    assert set(ARGS) <= {path.name for path in EXAMPLES}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
