"""One traced pass of the cli-files benchmark workload, with its answer checks.

The pass runs every CLI call of the workload once, the adversarial single
facets included, and fails if an answer is wrong or an operation passes
its time limit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_files_pass_is_correct_and_complete():
    flags = ["--workload", "cli-files", "--quick", "--trace", "1"]
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
