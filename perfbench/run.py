"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload appendix --seed 1 --seconds 30 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
