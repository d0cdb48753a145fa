"""Paths, tolerances and output summaries shared by the benchmark modules.

Everything here is stdlib only, so the CLI output checks work without
importing the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFS = BENCH_DIR / "refs.json"

#: Sequence regimes of the pools, and where eps_1 lies in (0, 1).
REGIMES = ("const", "prefix_exp", "tail_only")
ENDS = ("low", "mid", "high")

#: Relative tolerance for every comparison against a stored reference.
#: References come from the seed code at a higher quadrature order, so the
#: only expected difference is rounding (~1e-15 relative).
RTOL = 1e-9

#: Harmonic-residual gate of the CLI and README, relative to the constant a.
HARMONIC_GATE = 1e-10
#: Default energy constant a of the package.
CONST_A = 1.0 / 3.0

#: Defects of the seed code that some jobs expose.  A job tagged with one
#: still counts as failed; it does not make the run incorrect as long as
#: it fails only with that defect's symptom (``excused``).
QUAD_DEFECT = "quad-order-not-checked"
#: The harmonic-residual gate (1e-10 a, 1e-8 a inside weak_pairing) and the
#: IBP decay gate compare absolute values, while the quantities they judge
#: grow like eps^-l; at small eps they fail on rounding noise.
SCALE_DEFECT = "gates-not-scaled"


def scale_gate_failure(name: str, problems: list[str]) -> bool:
    """True when a job failed only on an absolute gate of the scale defect."""
    if name.startswith("harmonic_report"):
        return all(": harmonic residual " in p and " exceeds " in p for p in problems)
    if name.startswith("weak_pairing"):
        return all(" raised NonHarmonicError: " in p and " residual " in p for p in problems)
    if name == "ibp_table":
        return all(p.startswith("ibp residuals do not decay") for p in problems)
    if name.startswith("cli.harmonicity"):
        return all("exit code 2: assertion failed: harmonic residual " in p for p in problems)
    if name == "cli.ibp":
        return all("exit code 2: assertion failed: residuals do not decay" in p for p in problems)
    return False


def quad_defect_failure(problems: list[str]) -> bool:
    """True when the defect job exited 0 and only its values are wrong."""
    return all(p.startswith("energy-defect.values[") for p in problems)


def excused(name: str, defect: str | None, problems: list[str]) -> bool:
    """True when every problem is the known defect's own symptom.

    A tagged job that fails in any other way (a different value, an exit
    code or exception the defect does not produce) is a real failure.
    """
    if not problems:
        return False
    if defect == QUAD_DEFECT:
        return quad_defect_failure(problems)
    if defect == SCALE_DEFECT:
        return scale_gate_failure(name, problems)
    return False


@dataclass
class Job:
    """One timed unit of work and the check applied to its output.

    ``call`` returns the raw output; ``check`` returns a list of problems
    (empty when the output is correct).  ``known_defect`` names a defect
    the job is expected to expose at the seed; failures that show only
    that defect's symptom (``excused``) are counted but do not make the
    run incorrect.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_defect: str | None = None


def close(got: float, want: float, scale: float | None = None) -> bool:
    """|got - want| <= RTOL * max(|want|, scale), with NaN never close."""
    ref = max(abs(want), abs(scale) if scale is not None else 0.0)
    return math.isfinite(got) and abs(got - want) <= RTOL * ref


def compare(label: str, got, want, scale: float | None = None) -> list[str]:
    """Elementwise ``close`` over matching scalars or sequences."""
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{label}: shape {got!r} != reference {want!r}"]
        out: list[str] = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(f"{label}[{i}]", g, w, scale)
        return out
    if not close(float(got), float(want), scale):
        return [f"{label}: {got!r} != reference {want!r} (rtol {RTOL:g})"]
    return []


def fsum_abs(values) -> float:
    return math.fsum(abs(v) for v in values)


# -- CLI output summaries --------------------------------------------------
#
# Large CLI outputs are reduced to counts and compensated sums, which a
# later change that reorders float sums still matches within RTOL.


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def summarize_columns(text: str, numeric: list[str]) -> dict:
    """Row count plus sum, absolute sum and max |x| of numeric CSV columns."""
    rows = _csv_rows(text)
    header, body = rows[0], rows[1:]
    out: dict = {"rows": len(body)}
    for name in numeric:
        j = header.index(name)
        vals = [float(r[j]) for r in body if r[j] != ""]
        out[name] = [math.fsum(vals), fsum_abs(vals), max((abs(v) for v in vals), default=0.0)]
    return out


def csv_column(text: str, name: str) -> list[float]:
    rows = _csv_rows(text)
    j = rows[0].index(name)
    return [float(r[j]) if r[j] != "" else float("nan") for r in rows[1:]]


_SVG_NUM = re.compile(r'(?:x1|y1|x2|y2)="(-?[0-9.]+)"')
_SVG_POINTS = re.compile(r'points="([^"]*)"')


def summarize_svg(text: str) -> dict:
    """Element counts and coordinate sums of a geometry SVG."""
    coords = [float(v) for v in _SVG_NUM.findall(text)]
    poly = []
    for pts in _SVG_POINTS.findall(text):
        for pair in pts.split():
            x, y = pair.split(",")
            poly += [float(x), float(y)]
    return {
        "lines": text.count("<line "),
        "polygons": text.count("<polygon "),
        "line_coords": [math.fsum(coords), fsum_abs(coords)],
        "polygon_coords": [math.fsum(poly), fsum_abs(poly)],
    }


def summarize_edges_json(text: str) -> dict:
    edges = json.loads(text)["edges"]
    vals = [c for e in edges for c in e["p"] + e["q"]]
    return {
        "edges": len(edges),
        "cables": sum(1 for e in edges if e["kind"] == "cable"),
        "coords": [math.fsum(vals), fsum_abs(vals)],
    }


def compare_summary(label: str, got: dict, want: dict) -> list[str]:
    """Compare two summaries: ints exactly, [sum, abssum, ...] lists with abssum as scale."""
    out: list[str] = []
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, int) and not isinstance(w, bool):
            if g != w:
                out.append(f"{label}.{key}: {g!r} != reference {w!r}")
        elif isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w):
                out.append(f"{label}.{key}: {g!r} != reference {w!r}")
                continue
            scale = w[1] if len(w) > 1 else None
            for i, (gi, wi) in enumerate(zip(g, w)):
                out += compare(f"{label}.{key}[{i}]", gi, wi, scale)
        else:
            out += compare(f"{label}.{key}", g, w)
    return out


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)
