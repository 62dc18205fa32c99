"""One traced pass of each benchmark workload.

A pass runs every operation of the workload once (for cli-files the
adversarial single facets included) with its answer checks, and fails if
an answer is wrong, an operation passes its time limit, or a layer that
``perfbench/run.py`` lists in ``LAYER_WORK`` for the workload records no
work.  A rewrite that stops calling a traced public function fails here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def layer_work() -> dict:
    """The metrics per workload that ``--self-check`` requires to be nonzero."""
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_WORK


@pytest.mark.parametrize(
    "workload", ["cli-files", "crosscheck-mixed", "certify-corpus"]
)
def test_pass_is_correct_complete_and_traced(workload):
    flags = ["--workload", workload, "--quick", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    idle = [m for m in layer_work()[workload] if not result["metrics"][m]["value"]]
    assert not idle, idle
