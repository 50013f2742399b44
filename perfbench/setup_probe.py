"""Set-up probe: import ifelab in a fresh process and validate problems.

    python3 perfbench/setup_probe.py '[["ex1", [10.0, 1000.0]], ["ex4", null]]'

run.py times this process from start to exit as the workload's setup_s.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ifelab  # noqa: E402

for name, beta in json.loads(sys.argv[1]):
    ifelab.validate(ifelab.get_example(name, *beta) if beta else ifelab.get_example(name))
