"""In-process workloads: ``energy-deep`` and ``vertex-diagnostics``.

Each configuration of the reference pool (``refs.json``) becomes a list
of library calls; a round of ``run.py`` runs one configuration per
sequence regime.  Calls look the package functions up at call time, so
the traced run's wrappers take effect without a source edit.

The ``*_outputs`` functions reduce a call's result to the numbers that
are stored as references; ``inputs.py`` runs them once at a higher
quadrature order to write ``refs.json``.
"""

from __future__ import annotations

import math
from functools import partial

import stretched_gasket as sg

from common import CONST_A, HARMONIC_GATE, Job, compare, fsum_abs

#: energy-deep job depths.
ENERGY_DEPTHS = (8, 9, 10, 11)
CONV_DEPTH = 10
IBP_DEPTHS = tuple(range(3, 11))
RECUR_DEPTH = 8
LIMIT_DEPTH = 9
CAP_DEPTH = 12
#: vertex-diagnostics job depths and the levels whose triples get nd_gamma.
VERTEX_DEPTHS = (6, 7)
ND_LEVELS = (1, 2, 3, 4)

#: The package's lru caches, held as the originals so a traced run's
#: wrappers do not hide them.
_CACHED = (
    sg.geometry.word_table,
    sg.geometry._triple_cached,
    sg.energy._tableau,
    sg.kusuoka._scaled_linears,
    sg.kusuoka.kappa_table,
)


def clear_caches() -> None:
    """Empty the package's caches, so a round starts cold whatever ran before it."""
    for fn in _CACHED:
        fn.cache_clear()


class Inputs:
    """Parsed inputs of one configuration: the sequence and its fields."""

    def __init__(self, cfg: dict):
        spec = cfg["seq"]
        mapping: dict = {"eps.prefix": tuple(spec["prefix"])}
        if spec["tail"]["kind"] == "const":
            mapping["eps.const"] = spec["tail"]["value"]
        else:
            mapping["eps.tail.c"] = spec["tail"]["c"]
            mapping["eps.tail.r"] = spec["tail"]["r"]
        self.seq = sg.seq_from_mapping(mapping)
        self.exp_tail = spec["tail"]["kind"] == "exp"
        self.u = sg.parse(cfg["u"])
        self.v = sg.parse(cfg["v"])
        self.a = sg.parse(cfg["a"]) if "a" in cfg else None
        self.b = sg.parse(cfg["b"]) if "b" in cfg else None


# -- energy-deep -----------------------------------------------------------


def energy_call(inp: Inputs, l: int, quad=None):
    return sg.energy_total(inp.seq, l, inp.u, inp.v, quad)


def energy_outputs(rep) -> list[float]:
    return [rep.e1, rep.e2, rep.total]


def conv_rows(inp: Inputs, quad=None) -> list[dict]:
    return sg.convergence_rows(inp.seq, inp.u, inp.v, CONV_DEPTH, quad)


def ibp_rows(inp: Inputs, quad=None) -> list[dict]:
    return sg.ibp_table(inp.seq, inp.u, inp.v, IBP_DEPTHS, quad)


def recur_residual(inp: Inputs, quad=None) -> float:
    return sg.recurrence_residual(inp.seq, RECUR_DEPTH, inp.u, inp.v, quad)


def selfsim_outputs(inp: Inputs, quad=None) -> list[float]:
    return list(sg.selfsimilar_residual(inp.seq, inp.u, inp.v, LIMIT_DEPTH, quad))


def measure_energy(inp: Inputs, quad=None) -> float:
    return sg.energy_via_measure(inp.seq, inp.a, inp.b, LIMIT_DEPTH, quad)


def measure_reference(inp: Inputs, quad) -> list[float]:
    """Quadrature route for the measure job: triangle form plus limit cables, and the tail bound."""
    e2, tail = sg.energy2_limit(inp.seq, inp.a, inp.b, LIMIT_DEPTH, quad)
    return [sg.energy1(inp.seq, LIMIT_DEPTH, inp.a, inp.b, quad) + e2, tail]


def _check_energy(ref: list, label: str, rep) -> list[str]:
    return compare(label, energy_outputs(rep), ref, scale=max(abs(x) for x in ref))


def _check_conv(ref: list, rows) -> list[str]:
    problems = compare("convergence_rows.total", [r["total"] for r in rows], ref, max(abs(x) for x in ref))
    # The CLI's gate: each increment stays inside the previous row's envelope.
    for prev, row in zip(rows, rows[1:]):
        if abs(row["delta"]) > prev["envelope"]:
            problems.append(f"convergence increment {row['delta']:.3e} at l={row['l']} exceeds envelope {prev['envelope']:.3e}")
    return problems


def _check_ibp(ref: list, rows) -> list[str]:
    got = [[r["energy_lhs"], r["integral_rhs"]] for r in rows]
    scale = max(abs(x) for pair in ref for x in pair)
    problems = compare("ibp_table", got, ref, scale)
    # The CLI's gate for non-affine phi: residuals decay over the sweep.
    if len(rows) != len(ref) or rows[-1]["residual"] > rows[0]["residual"]:
        problems.append(f"ibp residuals do not decay: {[r['residual'] for r in rows]}")
    return problems


def _check_recur(scale: float, res: float) -> list[str]:
    # Gate of the one-step recurrence criterion: 1e-11 relative to max(1, |E_(l+1)|).
    bound = 1e-11 * max(1.0, scale)
    return [] if res <= bound else [f"recurrence residual {res:.3e} exceeds {bound:.3e}"]


def _check_selfsim(ref_bound: float, out) -> list[str]:
    res, bound = out
    problems = compare("selfsim bound", bound, ref_bound)
    if not res <= bound + 1e-12:
        problems.append(f"self-similarity residual {res:.3e} exceeds bound {bound:.3e}")
    return problems


def _check_measure(ref: list, value: float) -> list[str]:
    direct, tail = ref
    # Criterion-8 gate: measure route within 1e-12 plus the cable tail bound.
    if abs(value - direct) <= 1e-12 + tail:
        return []
    return [f"energy_via_measure {value!r} differs from quadrature route {direct!r} by more than {1e-12 + tail:.3e}"]


def _tag_known(cfg: dict, jobs: list[Job]) -> list[Job]:
    """Mark the jobs that refs.json records as exposing a seed defect."""
    known = cfg.get("known_defects", {})
    for job in jobs:
        if job.name in known:
            job.known_defect = known[job.name]["defect"]
    return jobs


def energy_round(cfg: dict, inp: Inputs, deepest: bool = True) -> list[Job]:
    """One configuration's energy-deep jobs: a depth ladder, then sweeps that reuse its tables.

    ``deepest`` adds the l=11 rung; a round gives it to one configuration.
    """
    ref = cfg["ref"]
    depths = ENERGY_DEPTHS if deepest else ENERGY_DEPTHS[:-1]
    jobs = [
        Job(f"energy_total.l{l}", partial(energy_call, inp, l), partial(_check_energy, ref["energy"][str(l)], f"energy_total(l={l})"))
        for l in depths
    ]
    jobs += [
        Job("convergence_rows", partial(conv_rows, inp), partial(_check_conv, ref["conv"])),
        Job("ibp_table", partial(ibp_rows, inp), partial(_check_ibp, ref["ibp"])),
        Job("recurrence_residual", partial(recur_residual, inp), partial(_check_recur, abs(ref["energy"][str(RECUR_DEPTH + 1)][2]))),
    ]
    if inp.exp_tail:
        # Limit quantities exist only when the tail product is positive.
        jobs += [
            Job("selfsimilar_residual", partial(selfsim_outputs, inp), partial(_check_selfsim, ref["selfsim_bound"])),
            Job("energy_via_measure", partial(measure_energy, inp), partial(_check_measure, ref["measure"])),
        ]
    return _tag_known(cfg, jobs)


def cap_job(cfg: dict, inp: Inputs) -> Job:
    """The depth-cap job: one depth-12 energy_total, the memory high-water mark."""
    return Job(
        f"energy_total.l{CAP_DEPTH}",
        partial(energy_call, inp, CAP_DEPTH),
        partial(_check_energy, cfg["ref"]["cap"], f"energy_total(l={CAP_DEPTH})"),
    )


# -- vertex-diagnostics ----------------------------------------------------


def harmonic_outputs(rep) -> dict:
    return {"n_interior": rep.n_interior, "corner_norms": [rep.corner_norms[c] for c in "ABC"]}


def laplacian_outputs(samples) -> dict:
    vals = [s.value for s in samples]
    return {"n": len(vals), "sum": [math.fsum(vals), fsum_abs(vals)], "max": max(abs(v) for v in vals)}


def harmonic_call(inp: Inputs, l: int):
    return sg.harmonic_report(inp.seq, l)


def weak_call(inp: Inputs, l: int, quad=None):
    return sg.weak_pairing(inp.seq, l, inp.u, inp.v, quad=quad)


def laplacian_call(inp: Inputs, l: int):
    return sg.laplacian_samples(inp.seq, inp.u, l)


def nd_call(inp: Inputs, k: int):
    return sg.nd_gamma(inp.seq.eps(k))


def _check_harmonic(ref: dict, label: str, rep) -> list[str]:
    gate = HARMONIC_GATE * CONST_A
    problems = [] if rep.residual <= gate else [f"{label}: harmonic residual {rep.residual:.3e} exceeds {gate:.1e}"]
    got = harmonic_outputs(rep)
    if got["n_interior"] != ref["n_interior"]:
        problems.append(f"{label} interior vertices {got['n_interior']} != reference {ref['n_interior']}")
    return problems + compare(f"{label} corner norms", got["corner_norms"], ref["corner_norms"])


def _check_weak(ref: float, label: str, value: float) -> list[str]:
    return compare(label, value, ref)


def _check_laplacian(ref: dict, label: str, samples) -> list[str]:
    got = laplacian_outputs(samples)
    problems = [] if got["n"] == ref["n"] else [f"{label} sample count {got['n']} != reference {ref['n']}"]
    problems += compare(f"{label} sum", got["sum"], ref["sum"], scale=ref["sum"][1])
    problems += compare(f"{label} max", got["max"], ref["max"])
    # The CLI's gate: every sample within twice the Hessian sup bound.
    if got["max"] > ref["cap"]:
        problems.append(f"{label} sample {got['max']:.3e} exceeds the Hessian bound {ref['cap']:.3e}")
    return problems


def _check_nd(ref: float, label: str, value: float) -> list[str]:
    problems = compare(label, value, ref)
    return problems if value > 0.0 else problems + [f"{label} = {value!r} is not positive"]


def vertex_round(cfg: dict, inp: Inputs) -> list[Job]:
    """One vertex-diagnostics round: per-edge diagnostics at depths 6 and 7."""
    ref = cfg["ref"]
    jobs = []
    for l in VERTEX_DEPTHS:
        key = str(l)
        jobs += [
            Job(f"harmonic_report.l{l}", partial(harmonic_call, inp, l), partial(_check_harmonic, ref["harm"][key], f"harmonic_report(l={l})")),
            Job(f"weak_pairing.l{l}", partial(weak_call, inp, l), partial(_check_weak, ref["weak"][key], f"weak_pairing(l={l})")),
        ]
        if inp.exp_tail:
            # Laplacian samples use the limit cable measure: exponential tails only.
            jobs.append(Job(f"laplacian_samples.l{l}", partial(laplacian_call, inp, l), partial(_check_laplacian, ref["lapl"][key], f"laplacian_samples(l={l})")))
    jobs += [
        Job("nd_gamma", partial(nd_call, inp, k), partial(_check_nd, ref["nd"][i], f"nd_gamma(eps_{k})"))
        for i, k in enumerate(ND_LEVELS)
    ]
    return _tag_known(cfg, jobs)


def laplacian_cap(inp: Inputs) -> float:
    """The CLI's Laplacian bound: twice the Hessian sup bound plus slack."""
    return 2.0 * sg.sup_bounds(inp.u)[1] + 1e-9
