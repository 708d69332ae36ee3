"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <exact|fast|service>``.  Prints
the seconds from importing ``repro`` until the workload's
``first_handle()`` is ready -- for ``service``, until the first
``GET /health`` answers 200.  Only the standard library is imported
before the clock starts; tearing the handle down is not timed.
"""

import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload: str) -> float:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)

    module = importlib.import_module(f"workload_{workload}")
    with module.first_handle():
        return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
