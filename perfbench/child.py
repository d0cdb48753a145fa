"""Run one CLI command under the layer tracer and write its trace.

Usage: python3 perfbench/child.py TRACE_PREFIX JOB_ID -- <stretched_gasket CLI args>

Writes TRACE_PREFIX.json (import time, per-span totals, counters, cache
hit counts, tableau cache bytes) and TRACE_PREFIX.npz (every span), then
exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))


def main() -> int:
    prefix, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_PREFIX JOB_ID -- <cli args>")
    t0 = time.perf_counter()
    from stretched_gasket import cli

    import_s = time.perf_counter() - t0
    import tracer

    rec = tracer.Recorder()
    rec.job_id = int(job)
    tracer.install(rec)
    before = tracer.cache_counts()
    idx = rec.open(rec.name("cli.main"))
    try:
        code = cli.main(argv)
    finally:
        rec.close(idx)
        sys.stdout.flush()
        rec.sample_cache_bytes()
        summary = {
            "import_s": import_s,
            "totals": rec.totals(),
            "counts": rec.counts,
            "caches": tracer.cache_delta(before, tracer.cache_counts()),
            "cache_bytes": rec.cache_bytes_peak,
        }
        Path(prefix + ".json").write_text(json.dumps(summary), encoding="utf-8")
        rec.dump(prefix + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main())
