"""The ``cli-mix`` workload: CLI subcommands as child processes.

Each job starts the CLI from a cold interpreter, waits for it (one child
at a time) and checks its exit code and outputs.  The child is
``launch.py``, which runs the package as ``python -m stretched_gasket``
does and records its own peak RSS; in the traced run it is ``child.py``,
which installs the layer wrappers around the same ``cli.main``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from functools import partial

from common import (
    BENCH_DIR,
    CONST_A,
    HARMONIC_GATE,
    OUT,
    QUAD_DEFECT,
    ROOT,
    SRC,
    Job,
    compare,
    compare_summary,
    csv_column,
    summarize_columns,
    summarize_edges_json,
    summarize_svg,
)

#: A child that runs this long is killed and its job counted as failed.
CHILD_TIMEOUT_S = 120.0

#: The job that exposes the unchecked quadrature order: order 2 is exact
#: only to degree 3, far below what x^12 needs, yet the seed exits 0.
DEFECT_ARGV = ["energy", "--u", "x^12", "--depth", "2", "--quad-order", "2"]

#: Slots of one round, lightest first.  Each round draws one configuration
#: per slot from the slot's pool in ``refs.json``; the defect job is fixed.
SLOTS = (
    "ruelle",
    "energy",
    "energy-defect",
    "selfsim",
    "harmonicity-light",
    "convergence",
    "ibp",
    "laplacian",
    "harmonicity",
    "geometry",
    "kusuoka",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(argv: list[str], trace: tuple[str, int] | None = None, peak_path=None) -> list[str]:
    """``launch.py`` writing the peak RSS to ``peak_path``, or ``child.py`` with a (trace prefix, job id) pair."""
    if trace is None:
        return [sys.executable, str(BENCH_DIR / "launch.py"), str(peak_path), *argv]
    prefix, job = trace
    return [sys.executable, str(BENCH_DIR / "child.py"), prefix, str(job), "--", *argv]


def _read_and_remove(path) -> str | None:
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def run_cli(argv: list[str], trace: tuple[str, int] | None = None) -> dict:
    """Run one CLI child to completion and collect its outputs and peak RSS (kB, untraced only)."""
    OUT.mkdir(exist_ok=True)
    json_path = OUT / f"cli-{os.getpid()}.json"
    peak_path = OUT / f"cli-{os.getpid()}.peak"
    argv = [str(json_path) if a == "{json}" else a for a in argv]
    proc = subprocess.Popen(
        cli_command(argv, trace, peak_path),
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    json_text = _read_and_remove(json_path)
    peak = _read_and_remove(peak_path)
    return {
        "code": proc.returncode,
        "stdout": stdout.decode("utf-8", "replace"),
        "stderr": stderr.decode("utf-8", "replace"),
        "json": json_text,
        "bytes": len(stdout) + (len(json_text.encode("utf-8")) if json_text is not None else 0),
        "peak_kb": int(peak) if peak else None,
    }


# -- summaries: the numbers stored as references ---------------------------


def summarize(slot: str, out: dict) -> dict:
    text = out["stdout"]
    if slot in ("energy", "energy-defect"):
        payload = json.loads(text)
        return {"values": [payload["e1"], payload["e2"], payload["total"]]}
    if slot == "ruelle":
        payload = json.loads(text)
        return {"lambda": payload["lambda"], "q": [x for row in payload["q"] for x in row]}
    if slot == "selfsim":
        payload = json.loads(text)
        return {"bound": payload["bound"]}
    if slot == "convergence":
        return {"energy": csv_column(text, "energy")}
    if slot == "ibp":
        return {"energy_lhs": csv_column(text, "energy_lhs"), "integral_rhs": csv_column(text, "integral_rhs")}
    if slot in ("harmonicity", "harmonicity-light"):
        return {"nd_gamma": json.loads(text)["nd_gamma"]}
    if slot == "geometry":
        return {"svg": summarize_svg(text), "edges": summarize_edges_json(out["json"])}
    if slot == "laplacian":
        return summarize_columns(text, ["x", "y", "value"])
    if slot == "kusuoka":
        return summarize_columns(text, ["kappa", "tau11", "tau12", "tau22"])
    raise ValueError(f"unknown cli slot {slot!r}")


def _gates(slot: str, out: dict) -> list[str]:
    """The program's own invariant gates, re-applied to its reported numbers."""
    if slot == "ruelle":
        res = json.loads(out["stdout"])["residual"]
        return [] if res <= 1e-12 else [f"ruelle eigen-residual {res:.3e} exceeds 1e-12"]
    if slot == "selfsim":
        payload = json.loads(out["stdout"])
        if payload["residual"] <= payload["bound"] + 1e-12:
            return []
        return [f"self-similarity residual {payload['residual']:.3e} exceeds bound {payload['bound']:.3e}"]
    if slot in ("harmonicity", "harmonicity-light"):
        res = json.loads(out["stdout"])["residual"]
        gate = HARMONIC_GATE * CONST_A
        return [] if res <= gate else [f"harmonic residual {res:.3e} exceeds {gate:.1e}"]
    if slot == "kusuoka":
        total = json.loads(out["json"])["sum_kappa"]
        return [] if abs(total - 1.0) <= 1e-12 else [f"|sum kappa - 1| = {abs(total - 1.0):.3e} exceeds 1e-12"]
    if slot == "ibp":
        res = csv_column(out["stdout"], "residual")
        return [] if res[-1] <= res[0] else [f"ibp residuals do not decay: {res}"]
    return []


def _compare(slot: str, got: dict, ref: dict) -> list[str]:
    if slot == "geometry":
        return compare_summary("svg", got["svg"], ref["svg"]) + compare_summary("edges", got["edges"], ref["edges"])
    if slot in ("laplacian", "kusuoka"):
        return compare_summary(slot, got, ref)
    out: list[str] = []
    for key, want in ref.items():
        scale = max(abs(x) for x in want) if isinstance(want, list) else None
        out += compare(f"{slot}.{key}", got[key], want, scale)
    return out


def check(slot: str, ref: dict, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"{slot}: exit code {out['code']}: {out['stderr'].strip()[-300:]}"]
    try:
        return _gates(slot, out) + _compare(slot, summarize(slot, out), ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{slot}: unreadable output ({type(exc).__name__}: {exc})"]


def check_defect(ref: dict, out: dict) -> list[str]:
    """Correct is the right value, or a refusal (exit 1) that names the quadrature order."""
    if out["code"] == 1:
        err = out["stderr"].lower()
        if "quad" in err and "order" in err:
            return []
        return [f"refused without naming the quadrature order: {out['stderr'].strip()[-300:]}"]
    return check("energy-defect", ref, out)


def cli_job(slot: str, cfg: dict, trace: tuple[str, int] | None = None) -> Job:
    call = partial(run_cli, cfg["argv"], trace)
    if slot == "energy-defect":
        return Job(f"cli.{slot}", call, partial(check_defect, cfg["ref"]), known_defect=QUAD_DEFECT)
    name = f"cli.{slot}"
    known = cfg.get("known_defects", {}).get(name, {}).get("defect")
    return Job(name, call, partial(check, slot, cfg["ref"]), known_defect=known)


def help_floor() -> float:
    """Wall time of one ``--help`` child: the interpreter plus package import floor."""
    # Pipes, not DEVNULL: completion is then seen at EOF, while a bare
    # wait with a timeout polls at up to 50 ms steps.
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "stretched_gasket", "--help"]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0
