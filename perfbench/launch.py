"""Run the package CLI as ``python -m stretched_gasket`` does, and record its peak RSS.

Usage: python3 perfbench/launch.py PEAK_FILE <stretched_gasket CLI args>

A child process inherits its parent's RSS high-water mark when it is
spawned, so the parent's ``getrusage(RUSAGE_CHILDREN)`` reports at least
the parent's own peak.  VmHWM starts afresh at exec, so this process
reads it at exit and writes it (in kB) to PEAK_FILE.  Only ``sys`` and
``runpy`` are imported here, both of which ``-m`` loads anyway.
"""

import runpy
import sys


def main() -> None:
    peak_file = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    try:
        runpy.run_module("stretched_gasket", run_name="__main__", alter_sys=True)
    finally:
        with open("/proc/self/status", encoding="ascii") as fh:
            hwm_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(hwm_kb + "\n")


if __name__ == "__main__":
    main()
