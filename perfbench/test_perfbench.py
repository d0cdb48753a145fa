"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q perfbench

* A smoke-sized run of each workload (one round per phase) prints every
  metric that BENCHMARK.json declares, with its unit, plus the printed-only
  job percentiles and failure share.
* Negative controls: a corrupted reference value makes the correctness
  check report a failure, for a library job and for a CLI job; a job
  tagged with a known defect that fails in any other way than the
  defect's own symptom makes the run incorrect.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import ROOT, SRC, load_refs  # noqa: E402

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--rounds", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        # Printed with units but not gated (see run.py).
        for line in ("job_p50_ms = ", "job_tail_ms = ", "failed_frac = "):
            assert line in stdout


def test_corrupted_library_reference_is_reported():
    import library as lib

    cfg = copy.deepcopy(next(c for c in load_refs()["energy-deep"] if c["regime"] == "tail_only"))
    inp = lib.Inputs(cfg)
    job = lib.energy_round(cfg, inp)[0]
    assert job.check(job.call()) == []
    cfg["ref"]["energy"]["8"][2] *= 1.0 + 1e-6
    job = lib.energy_round(cfg, inp)[0]
    problems = job.check(job.call())
    assert problems and "energy_total(l=8)" in problems[0]


def test_corrupted_cli_reference_is_reported():
    import climix

    cfg = copy.deepcopy(load_refs()["cli-mix"]["ruelle"][0])
    out = climix.run_cli(cfg["argv"])
    assert climix.check("ruelle", cfg["ref"], out) == []
    cfg["ref"]["lambda"] *= 1.0 + 1e-6
    problems = climix.check("ruelle", cfg["ref"], out)
    assert problems and "lambda" in problems[0]


def test_tagged_library_job_failing_otherwise_is_unexpected():
    import library as lib
    from run import run_job, unexpected_failures

    cfg = copy.deepcopy(next(c for c in load_refs()["vertex-diagnostics"] if "harmonic_report.l6" in c.get("known_defects", {})))
    inp = lib.Inputs(cfg)

    def run_tagged():
        job = next(j for j in lib.vertex_round(cfg, inp) if j.name == "harmonic_report.l6")
        assert job.known_defect == "gates-not-scaled"
        return run_job(job, 0)

    rec = run_tagged()
    assert rec.problems and unexpected_failures([rec]) == []
    cfg["ref"]["harm"]["6"]["n_interior"] += 1
    rec = run_tagged()
    assert unexpected_failures([rec]) == [rec]
    assert any("interior vertices" in p for p in rec.problems)


def test_defect_job_is_excused_only_for_a_wrong_value():
    import climix
    from run import Record, unexpected_failures

    ref = load_refs()["cli-mix"]["energy-defect"][0]["ref"]
    wrong = {"code": 0, "stdout": json.dumps({"e1": 0.1, "e2": 0.0, "total": 0.138114}), "stderr": "", "json": None}
    crash = {"code": 2, "stdout": "", "stderr": "Traceback (most recent call last):\n", "json": None}
    garbled = dict(wrong, stdout="not json")

    def record(out):
        return Record("cli.energy-defect", 0.0, climix.check_defect(ref, out), climix.QUAD_DEFECT, 0, 0)

    assert unexpected_failures([record(wrong)]) == []
    for out in (crash, garbled):
        rec = record(out)
        assert rec.problems and unexpected_failures([rec]) == [rec]


def test_known_defect_job_is_judged_by_value_or_refusal():
    import climix

    ref = load_refs()["cli-mix"]["energy-defect"][0]["ref"]
    wrong = {"code": 0, "stdout": json.dumps({"e1": 0.1, "e2": 0.0, "total": 0.138114}), "stderr": "", "json": None}
    right = dict(wrong, stdout=json.dumps({"e1": ref["values"][0], "e2": ref["values"][1], "total": ref["values"][2]}))
    refusal = {"code": 1, "stdout": "", "stderr": "error: quadrature order 2 is below the minimum 12\n", "json": None}
    assert climix.check_defect(ref, wrong)
    assert climix.check_defect(ref, right) == []
    assert climix.check_defect(ref, refusal) == []
