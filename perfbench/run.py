#!/usr/bin/env python3
"""Benchmark runner for stretched-gasket.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {energy-deep,vertex-diagnostics,cli-mix} \
        --seed N --seconds S --trace {0,1}

Workloads (closed loop: one client, one job at a time, one process and
thread; cli-mix starts one child at a time):

* energy-deep         library calls on the batched tableau path, plus one
                      depth-12 ``energy_total`` (the cap job) per run;
* vertex-diagnostics  the per-edge path: vertex stars, weak pairing,
                      Laplacian samples and nd_gamma at depths 6 and 7;
* cli-mix             the nine CLI subcommands as child processes, plus
                      the known-defect job ``energy --u x^12 --quad-order 2``.

A run is set-up, then a fixed job list: the cap job (energy-deep), then a
number of rounds.  A library round runs one configuration of each
sequence regime from the pools of ``refs.json``; a cli-mix round runs
every CLI slot once.  The number of rounds is ``--seconds`` over the
nominal round time on the reference machine, and the configurations of
each round are fixed (``Plan``): the seed only shuffles the order, so two
commits, and two seeds, do the same work for the same seconds.
Every job's output is checked against its stored reference and the
program's own gates; a failure is counted and the run goes on.

End-to-end metrics (``--trace 0``), with their sample counts printed:
setup_s (median of several set-ups spread over the run: import plus
input generation, or the ``--help`` child floor for cli-mix); wall_s
(time to finish the run's fixed job list: the sum of its job latencies,
cap job included); peak_rss_mb (this process, or the largest CLI
child).  job_p50_ms and job_tail_ms (the median job latency, and the
highest percentile with ten jobs beyond it) are printed but not gated
(``end_to_end``).  Times are scaled to a reference host
speed measured by a calibration kernel during the run (see "host speed"
below); the raw times are printed too.  The failure share is the
result's ``failed`` over ``attempted``, printed as failed_frac; it is not
a metric, because it is zero on clean workloads, where a bound relative
to its median means nothing.

Jobs tagged with a known defect of the seed code (``common.py``) count as
failed but leave ``correct`` true, as long as every problem they show is
that defect's own symptom (``common.excused``); any other failure makes
it false.

``--trace 1`` runs each of a few rounds untraced and as a traced twin on
the same inputs, in ABBA order, with the layer wrappers of ``tracer.py``
installed only for the twins (and the cap job), and prints the
per-layer metrics, including the tracing overhead.
Spans are written to ``.perfbench_out/``.  The last stdout line is the
JSON result; the lines before it give every metric with its unit and
sample count, the machine facts and each failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The workloads are single-threaded: keep BLAS to one thread here and in
# every child, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, REFS, REGIMES, ROOT, SRC, excused, load_refs  # noqa: E402

#: Nominal seconds per round at the seed on the reference machine
#: (2 vCPU Xeon, Python 3.11, numpy 2.4); sets the number of rounds.
NOMINAL_ROUND_S = {"energy-deep": 7.5, "vertex-diagnostics": 7.5, "cli-mix": 3.75}
MIN_ROUNDS = 2
#: Rounds of a traced run; each also runs untraced, as its twin.
TRACE_ROUNDS = 2
#: Set-up samples per run (the first one is this process's own set-up).
SETUP_SAMPLES = 7
#: job_tail_ms is the highest percentile with this many jobs beyond it.
TAIL_BEYOND = 10


# -- set-up ------------------------------------------------------------------


def check_checkout() -> None:
    """Refuse to run without the package sources and the references."""
    missing = [p for p in (SRC / "stretched_gasket" / "__init__.py", REFS) if not p.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: missing {', '.join(str(p) for p in missing)}; run from a full checkout\n")
        raise SystemExit(2)


def import_package():
    sys.path.insert(0, str(SRC))
    import stretched_gasket

    if Path(stretched_gasket.__file__).resolve().parent != (SRC / "stretched_gasket").resolve():
        sys.stderr.write(f"perfbench: imported {stretched_gasket.__file__}, not the checkout's package\n")
        raise SystemExit(2)
    return stretched_gasket


#: Pool entry of the depth-cap job (fixed, like the rest of the job list).
CAP_CONFIG = "prefix_exp-0"


class Plan:
    """The fixed job list of one run; the seed only shuffles its order.

    Library round c runs, for each sequence regime, the pool entry with
    index c; entry i has eps_1 at end i % 3, so three consecutive rounds
    cover every (regime, end) bucket.  In energy-deep the l=11 rung goes to
    regime c % 3.  A cli-mix round runs entry c of every CLI slot.  The
    number of rounds depends only on ``--seconds``, so every seed does the
    same work: the seed shuffles the rounds, and the configurations (or
    CLI jobs) inside each round.

    ``twins`` holds each round's traced counterpart over the same inputs:
    the same jobs for the library workloads (the wrappers are installed
    around them), tracing children for cli-mix.  ``reset`` empties the
    package caches before each library round, so a round and its twin
    start from the same state whatever ran before.
    """

    def __init__(self, workload: str, seed: int, rounds: int, trace: bool):
        rng = random.Random(seed)
        pool = load_refs()[workload]
        order = list(range(rounds))
        rng.shuffle(order)
        self.cap = None
        self.reset = None
        self.child_traces: list[str] = []
        self.trace_prefix = str(OUT / f"trace-{workload}-seed{seed}")
        self.rounds: list[list] = []
        self.twins: list[list] = []
        if workload == "cli-mix":
            import climix

            job_ids = itertools.count()
            for c in order:
                entries = [(slot, pool[slot][c % len(pool[slot])]) for slot in climix.SLOTS]
                rng.shuffle(entries)
                self.rounds.append([climix.cli_job(slot, cfg) for slot, cfg in entries])
                if trace:
                    prefixes = [f"{self.trace_prefix}-r{c}-{slot}" for slot, _ in entries]
                    self.child_traces += prefixes
                    self.twins.append([climix.cli_job(slot, cfg, (pre, next(job_ids))) for (slot, cfg), pre in zip(entries, prefixes)])
            return
        import library as lib

        self.reset = lib.clear_caches
        by_id = {cfg["id"]: cfg for cfg in pool}
        per_regime = len(pool) // len(REGIMES)
        if workload == "energy-deep":
            self.cap = lib.cap_job(by_id[CAP_CONFIG], lib.Inputs(by_id[CAP_CONFIG]))
        for c in order:
            groups = []
            for k, regime in enumerate(REGIMES):
                cfg = by_id[f"{regime}-{c % per_regime}"]
                if workload == "energy-deep":
                    groups.append(lib.energy_round(cfg, lib.Inputs(cfg), deepest=k == c % 3))
                else:
                    groups.append(lib.vertex_round(cfg, lib.Inputs(cfg)))
            rng.shuffle(groups)
            self.rounds.append([job for group in groups for job in group])
        self.twins = self.rounds if trace else []


def setup_probe(workload: str, seed: int, rounds: int) -> float:
    """Import plus input generation, timed in this (fresh) process."""
    if workload == "cli-mix":
        import climix

        return climix.help_floor()
    t0 = time.perf_counter()
    import_package()
    Plan(workload, seed, rounds, trace=False)
    return time.perf_counter() - t0


def setup_sample(workload: str, seed: int, rounds: int) -> float:
    """One set-up time, from a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--rounds", str(rounds), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- running -----------------------------------------------------------------


@dataclass(slots=True)
class Record:
    name: str
    seconds: float
    problems: list
    known_defect: str | None
    out_bytes: int
    round: int
    peak_kb: int | None = None


def run_job(job, rnd: int, rec=None) -> Record:
    t0 = time.perf_counter()
    try:
        out = job.call()
        problems = None
    except Exception as exc:  # a raising job is a failed job, not a failed run
        out = None
        problems = [f"{job.name} raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    if problems is None:
        try:
            problems = job.check(out)
        except Exception as exc:
            problems = [f"{job.name} output could not be checked: {type(exc).__name__}: {exc}"]
    if rec is not None:
        rec.sample_cache_bytes()
    if isinstance(out, dict):  # a CLI child's outputs
        return Record(job.name, seconds, problems, job.known_defect, out["bytes"], rnd, out["peak_kb"])
    return Record(job.name, seconds, problems, job.known_defect, 0, rnd)


# -- host speed --------------------------------------------------------------
#
# The reference machine is a shared host whose speed flips between two
# states about 1.5x apart several times a second, in shares that drift over
# tens of seconds; raw wall times of identical work moved by up to 30%
# between runs.  A fixed calibration kernel (a pure-Python loop, then
# array arithmetic over a few MB), timed before and after every job and
# set-up sample, measures the host's mean speed over the run, and the
# reported times are scaled to a host on which the kernel takes
# CALIB_REF_S.  The kernel runs no package code: it measures the host, not
# the code under test.  Raw times are printed beside the scaled ones.  Its
# array stays allocated: a constant ~3 MB in the library workloads' peak
# RSS, none in cli-mix's (children report their own peak, ``launch.py``).

CALIB_ITERS = 40_000
CALIB_ARRAY_LEN = 400_000
CALIB_PASSES = 6
#: About the kernel's mean time on the reference machine (2 vCPU Xeon,
#: Python 3.11, numpy 2.4), so scaled times stay close to the raw ones there.
CALIB_REF_S = 0.0075
_calib: list[float] = []


@functools.cache
def _calib_array():
    import numpy as np

    return np.linspace(0.0, 1.0, CALIB_ARRAY_LEN)


def calibrate() -> None:
    """Time the calibration kernel once."""
    arr = _calib_array()
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIB_ITERS):
        s += i * i
    for _ in range(CALIB_PASSES):
        (arr * 1.0001 + 0.5).sum()
    _calib.append(time.perf_counter() - t0)


def speed_scale() -> float:
    """CALIB_REF_S over the kernel's mean time in this run."""
    return CALIB_REF_S / statistics.fmean(_calib)


def run_rounds(rounds, first: int, reset=None) -> list[Record]:
    """Run rounds untraced, emptying the caches first when ``reset`` is given.

    The host speed is sampled before and after each job, outside its time.
    """
    records = []
    for i, jobs in enumerate(rounds):
        if reset is not None:
            reset()
        for job in jobs:
            calibrate()
            records.append(run_job(job, first + i))
            calibrate()
    return records


def unexpected_failures(records: list[Record]) -> list[Record]:
    """Failed jobs that a known defect does not explain: any of them makes the run incorrect."""
    return [r for r in records if r.problems and not excused(r.name, r.known_defect, r.problems)]


# -- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / len(ordered))


def end_to_end(workload: str, records: list[Record], setup: list[float]) -> tuple[dict, list[str]]:
    """The gated metrics, scaled to the reference host speed, plus printed lines.

    The printed lines give the raw times, the speed scale and the sample
    counts, and the job percentiles: those are not gated, because their
    run-to-run spread on the reference machine (up to 0.18 of the median,
    scaled) is too wide for the largest allowed bound (0.25).  A
    percentile of a few dozen jobs of very different sizes jumps between
    job kinds.  failed_frac is printed by ``main``.
    """
    scale = speed_scale()
    latencies = [r.seconds * scale for r in records]
    rounds = {r.round for r in records if r.round >= 0}
    tail_s, pct = tail(latencies)
    if workload == "cli-mix":
        peak_mb = max(r.peak_kb or 0 for r in records) / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
        "wall_s": {"value": math.fsum(latencies), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    rss = {"cli-mix": "largest CLI child's own peak RSS (VmHWM, read by launch.py)", "energy-deep": "this process's peak RSS, cap job included"}
    notes = [
        f"speed scale = {scale!r} (calibration kernel: {len(_calib)} samples, mean {statistics.fmean(_calib)!r} s, reference {CALIB_REF_S} s)",
        f"setup_s: median of {len(setup)} set-ups, raw {statistics.median(setup)!r} s",
        f"wall_s: all {len(latencies)} jobs of {len(rounds)} rounds" + (", cap job included" if len(rounds) and any(r.round < 0 for r in records) else "") + f", raw {math.fsum(r.seconds for r in records)!r} s",
        f"job_p50_ms = {1000.0 * statistics.median(latencies)!r} ms (median of {len(latencies)} jobs; printed, not gated)",
        f"job_tail_ms = {1000.0 * tail_s!r} ms (p{pct:.2f} of {len(latencies)} jobs, {TAIL_BEYOND} beyond it; printed, not gated)",
        "peak_rss_mb: " + rss.get(workload, "this process's peak RSS"),
    ]
    return metrics, notes


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(totals: dict, counts: dict, caches: dict, cache_bytes: int, cli: dict, overhead: float) -> dict:
    def calls(span):
        return totals.get(span, [0, 0])[0]

    def self_s(*spans):
        return sum(v[1] for k, v in totals.items() if k in spans) / 1e9

    def prefixed(prefix):
        return [k for k in totals if k.startswith(prefix)]

    m = {
        "geometry.word_table.calls": (calls("geometry.word_table"), "count"),
        "geometry.word_table.self_s": (self_s("geometry.word_table"), "s"),
        "geometry.word_table.cells": (counts.get("geometry.word_table.cells", 0), "count"),
        "geometry.word_table.cache_hit_ratio": (_ratio(*caches["geometry.word_table.cache_hit_ratio"]), "ratio"),
        "energy.tableau.cache_hit_ratio": (_ratio(*caches["energy.tableau.cache_hit_ratio"]), "ratio"),
        "energy.tableau.cache_bytes": (cache_bytes, "bytes"),
        "energy.energy_total.calls": (calls("energy.energy_total"), "count"),
        "energy.energy_total.self_s": (self_s("energy.energy_total"), "s"),
        "energy.sweeps.self_s": (self_s(*prefixed("energy.sweeps.")), "s"),
        "scalarfield.eval_batch.points": (counts.get("scalarfield.eval_batch.points", 0), "count"),
        "scalarfield.eval_batch.self_s": (self_s("scalarfield.eval_batch"), "s"),
        "geometry.prefractal_edges.edges": (counts.get("geometry.prefractal_edges.edges", 0), "count"),
        "geometry.prefractal_edges.self_s": (self_s("geometry.prefractal_edges"), "s"),
        "scalarfield.compose_with_segment.calls": (calls("scalarfield.compose_with_segment"), "count"),
        "scalarfield.compose_with_segment.self_s": (self_s("scalarfield.compose_with_segment"), "s"),
        "harmonicity.vertex_stars.vertices": (counts.get("harmonicity.vertex_stars.vertices", 0), "count"),
        "harmonicity.vertex_stars.self_s": (self_s("harmonicity.vertex_stars"), "s"),
        "harmonicity.weak_pairing.self_s": (self_s("harmonicity.weak_pairing"), "s"),
        "harmonicity.nd_gamma.self_s": (self_s("harmonicity.nd_gamma"), "s"),
        "kusuoka.cable_mass.calls": (calls("kusuoka.cable_mass"), "count"),
        "kusuoka.tau_table.cells": (counts.get("kusuoka.tau_table.cells", 0), "count"),
        "kusuoka.tau_table.self_s": (self_s("kusuoka.tau_table"), "s"),
        "kusuoka.scaled_linears.cache_hit_ratio": (_ratio(*caches["kusuoka.scaled_linears.cache_hit_ratio"]), "ratio"),
        "laplacian.laplacian_samples.samples": (counts.get("laplacian.laplacian_samples.samples", 0), "count"),
        "laplacian.laplacian_samples.self_s": (self_s("laplacian.laplacian_samples"), "s"),
        "laplacian.ibp_table.self_s": (self_s("laplacian.ibp_table"), "s"),
        "params.calls": (sum(calls(k) for k in prefixed("params.")), "count"),
        "params.self_s": (self_s(*prefixed("params.")), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.out_bytes": (cli["out_bytes"], "bytes"),
        "cli.import_s": (cli["import_s"], "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def merge_children(prefixes: list[str]) -> tuple[dict, dict, dict, int, list[float]]:
    """Sum the traced children's span totals, counters and cache counts."""
    totals: dict = {}
    counts: dict = {}
    caches: dict = {}
    cache_bytes = 0
    imports = []
    for prefix in prefixes:
        path = Path(prefix + ".json")
        if not path.exists():
            continue
        child = json.loads(path.read_text(encoding="utf-8"))
        imports.append(child["import_s"])
        cache_bytes = max(cache_bytes, child["cache_bytes"])
        for k, (n, ns) in child["totals"].items():
            t = totals.setdefault(k, [0, 0])
            t[0] += n
            t[1] += ns
        for k, n in child["counts"].items():
            counts[k] = counts.get(k, 0) + n
        for k, (h, m) in child["caches"].items():
            c = caches.setdefault(k, [0, 0])
            c[0] += h
            c[1] += m
    return totals, counts, caches, cache_bytes, imports


def traced_run(plan: Plan, workload: str) -> tuple[list[Record], dict, str]:
    """Each round untraced and as its traced twin, in ABBA order; per-layer metrics from the twins.

    A round and its twin run the same inputs from emptied caches, and
    alternating which side runs first cancels warm-up and slow drift in
    the overhead estimate; each side's time is also scaled by its own
    calibration samples, so a host speed change between the sides does
    not read as overhead.  Library twins run in-process under the
    wrappers; cli-mix children trace themselves (``child.py``).  The cap
    job runs once, traced, and is left out of the overhead.
    """
    import tracer

    rec = tracer.Recorder()
    job_ids = itertools.count()
    caches = {metric: [0, 0] for _, _, metric in tracer.CACHES}
    untraced: list[Record] = []
    traced: list[Record] = []
    calib_untraced: list[float] = []
    calib_traced: list[float] = []

    def run_side(samples: list[float], run, jobs: list, rnd: int) -> list[Record]:
        """Run one side's round and keep the calibration samples it took."""
        start = len(_calib)
        out = run(jobs, rnd)
        samples += _calib[start:]
        return out

    def run_untraced(jobs: list, rnd: int) -> list[Record]:
        return run_rounds([jobs], rnd, plan.reset)

    def run_traced(jobs: list, rnd: int) -> list[Record]:
        if workload == "cli-mix":
            return run_rounds([jobs], rnd)
        # Empty the caches before installing: cache_clear also zeroes the hit counts.
        plan.reset()
        restore = tracer.install(rec)
        before = tracer.cache_counts()
        try:
            out = []
            for job in jobs:
                rec.job_id = next(job_ids)
                calibrate()
                out.append(run_job(job, rnd, rec))
                calibrate()
            delta = tracer.cache_delta(before, tracer.cache_counts())
        finally:
            restore()
        for metric, (hits, misses) in delta.items():
            caches[metric][0] += hits
            caches[metric][1] += misses
        return out

    for i, (jobs, twin) in enumerate(zip(plan.rounds, plan.twins)):
        if i % 2:
            traced += run_side(calib_traced, run_traced, twin, i)
            untraced += run_side(calib_untraced, run_untraced, jobs, i)
        else:
            untraced += run_side(calib_untraced, run_untraced, jobs, i)
            traced += run_side(calib_traced, run_traced, twin, i)
    speed_traced = statistics.fmean(calib_untraced) / statistics.fmean(calib_traced)
    overhead = math.fsum(r.seconds for r in traced) / math.fsum(r.seconds for r in untraced) * speed_traced - 1.0
    if plan.cap is not None:
        traced += run_traced([plan.cap], -1)

    if workload == "cli-mix":
        totals, counts, child_caches, cache_bytes, imports = merge_children(plan.child_traces)
        caches.update(child_caches)
        cli = {"out_bytes": sum(r.out_bytes for r in traced), "import_s": statistics.median(imports) if imports else 0.0}
    else:
        totals, counts, cache_bytes = rec.totals(), rec.counts, rec.cache_bytes_peak
        cli = {"out_bytes": 0, "import_s": 0.0}
        rec.dump(plan.trace_prefix + ".npz")
    metrics = per_layer(totals, counts, caches, cache_bytes, cli, overhead)
    n = len(plan.rounds)
    line = f"traced {n} rounds against {n} untraced twins on the same inputs (host speed of the traced side relative to the untraced side: {speed_traced!r}); spans in {plan.trace_prefix}*"
    return untraced + traced, metrics, line


# -- machine facts -------------------------------------------------------------


def _blas_threads():
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _llc_bytes():
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        nbytes = int(size.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, nbytes)
    return best


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    llc = _llc_bytes()
    n12 = 3**12
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "llc_level": llc[0] if llc else None,
        "llc_bytes": llc[1] if llc else None,
        # Sizes below are computed from array shapes, not measured.
        "computed_tableau_l12_bytes": (2 * 3 * n12 + 2 * 3 * (n12 - 1) // 2) * 2 * 8,
        "computed_word_table_l12_bytes": n12 * (4 + 2) * 8,
        "computed_word_tables_l0_to_l12_bytes": sum(3**k for k in range(13)) * (4 + 2) * 8,
    }


# -- main ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    check_checkout()
    if args.trace:
        rounds = args.rounds or TRACE_ROUNDS
    else:
        rounds = args.rounds or max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, rounds))
        return 0
    OUT.mkdir(exist_ok=True)

    own_setup = None
    t0 = time.perf_counter()
    if args.workload != "cli-mix":
        import_package()
    plan = Plan(args.workload, args.seed, rounds, bool(args.trace))
    if args.workload != "cli-mix":
        own_setup = time.perf_counter() - t0

    # Keep the collector from rescanning the harness's own objects
    # (references, job lists) during timed jobs.
    gc.collect()
    gc.freeze()
    records: list[Record] = []
    lines: list[str] = []
    if not args.trace:
        # Set-up samples are spread over the run (one before the rounds, one
        # after each round) so they see the same machine states as the rounds.
        setup = [] if own_setup is None else [own_setup]

        def probe() -> float:
            calibrate()
            value = setup_sample(args.workload, args.seed, rounds)
            calibrate()
            return value

        setup.append(probe())
        if plan.cap is not None:
            plan.reset()
            calibrate()
            records.append(run_job(plan.cap, -1))
            calibrate()
        for i, jobs in enumerate(plan.rounds):
            records += run_rounds([jobs], i, plan.reset)
            if len(setup) < SETUP_SAMPLES:
                setup.append(probe())
        while len(setup) < SETUP_SAMPLES:
            setup.append(probe())
        metrics, notes = end_to_end(args.workload, records, setup)
        lines += notes
    else:
        records, metrics, line = traced_run(plan, args.workload)
        lines.append(line)

    failed = [r for r in records if r.problems]
    unexpected = unexpected_failures(records)
    facts = machine_facts()
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for line in lines:
        print(line)
    print(f"failed_frac = {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for r in failed:
        tag = "FAILED" if r in unexpected else f"known defect {r.known_defect}"
        print(f"{tag}: {r.name}: {r.problems[0]}")
    for k, v in facts.items():
        print(f"fact {k} = {v}")
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, facts=facts, notes=lines, failures=[[r.name, r.known_defect, r.problems] for r in failed], jobs=[[r.name, r.round, r.seconds] for r in records])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
