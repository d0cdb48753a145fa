"""Seeded input pools and their reference values.

Usage: python3 perfbench/inputs.py    (rewrites perfbench/refs.json; ~8 min on 2 vCPUs)

The benchmark never sees a hand-picked input.  This generator draws three
pools from a fixed pool seed; a run takes fixed entries from them (see
``run.Plan``) and its ``--seed`` only orders them, so every input a run
can use has a stored reference.
The references are computed by the package as it stands when this script
runs, at quadrature order 12, exact for every field degree used here
(order 12 integrates degree 23; the largest integrand, x^12 paired with
itself, has degree 22).  Before writing, every job is replayed at the
default order and checked; a failure that no registered defect explains
stops the script.

Why the pools look the way they do:

* Sequences cover the three regimes the package supports: constant tails
  (finite depth only), explicit prefixes followed by an exponential tail,
  and pure exponential tails.  Values are drawn near both ends of (0, 1)
  as well as in the middle, because the log-space products and the cable
  weights 1/(1 - eps) behave differently there.
* Limit quantities (self-similarity, the measure route, the Laplacian
  samples on the limit measure) need a positive tail product, so they are
  generated only for exponential tails.
* Library fields have degree <= 3: the depth, not the degree, is the scale
  axis there.  CLI fields reach degree 8, where the per-point cost of
  field evaluation is highest and the caches cannot help.
* Test functions ``v`` are combinations of products of the barycentric
  line forms, so they vanish at the three base corners as the weak
  pairing and the IBP table require.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys

from common import ENDS, OUT, REFS, REGIMES, SCALE_DEFECT, SRC, scale_gate_failure

sys.path.insert(0, str(SRC))

POOL_SEED = 20231013
#: Configurations per regime; index i has eps_1 near 0, in the middle or
#: near 1 for i % 3 = 0, 1, 2, so each (regime, end) bucket holds three.
PER_REGIME = 9
CAP_PER_REGIME = 2
CLI_POOL = 12
REF_ORDER = 12

_S3 = math.sqrt(3.0)
_LA = f"(1 - {2.0 / _S3!r}*x)"
_LB = f"(y + {1.0 / _S3!r}*x)"
_LC = f"({1.0 / _S3!r}*x - y)"


def _coef(rng: random.Random) -> float:
    return round(rng.uniform(0.2, 1.5) * rng.choice((-1.0, 1.0)), 4)


def _term(c: float, m: int, n: int) -> str:
    mono = "*".join(([f"x^{m}"] if m else []) + ([f"y^{n}"] if n else []))
    return f"{c!r}*{mono}" if mono else repr(c)


def _join(terms: list[str]) -> str:
    return " + ".join(terms).replace("+ -", "- ")


def poly(rng: random.Random, degree: int, extra: int = 3) -> str:
    """A field with one term of total degree ``degree`` plus ``extra`` lower terms."""
    top = rng.randint(0, degree)
    monos = {(top, degree - top)}
    while len(monos) < extra + 1:
        d = rng.randint(1, degree)
        m = rng.randint(0, d)
        monos.add((m, d - m))
    return _join([_term(_coef(rng), m, n) for m, n in sorted(monos)])


def vanishing(rng: random.Random) -> str:
    """A cubic combination of barycentric products: zero at A, B and C."""
    prods = (f"{_LA}*{_LB}", f"{_LB}*{_LC}", f"{_LA}*{_LC}", f"{_LA}*{_LB}*{_LC}")
    return _join([f"{_coef(rng)!r}*{p}" for p in prods])


def affine(rng: random.Random) -> str:
    return _join([repr(_coef(rng)), f"{_coef(rng)!r}*x", f"{_coef(rng)!r}*y"])


def _eps(rng: random.Random, end: int) -> float:
    """A stretch value near 0 (end 0), in the middle (1) or near 1 (2)."""
    lo, hi = ((0.01, 0.06), (0.2, 0.8), (0.94, 0.995))[end]
    return round(rng.uniform(lo, hi), 6)


def _tail(rng: random.Random, end: int) -> dict:
    """Exponential tail exp(-c r^i) with eps_1 near 0, in the middle or near 1."""
    r = round(rng.uniform(0.05, 0.95) if end == 1 else rng.uniform(0.4, 0.9), 4)
    target = _eps(rng, end)
    c = round(-math.log(target) / r, 6)
    return {"kind": "exp", "c": c, "r": r}


def sequence(rng: random.Random, regime: str, i: int) -> dict:
    end = i % 3
    if regime == "const":
        return {"prefix": [], "tail": {"kind": "const", "value": _eps(rng, end)}}
    if regime == "prefix_exp":
        prefix = [_eps(rng, (end + k) % 3) for k in range(rng.randint(1, 3))]
        return {"prefix": prefix, "tail": _tail(rng, (end + 1) % 3)}
    return {"prefix": [], "tail": _tail(rng, end)}


def seq_flags(spec: dict) -> list[str]:
    flags = []
    if spec["prefix"]:
        flags += ["--eps-prefix", ",".join(repr(v) for v in spec["prefix"])]
    tail = spec["tail"]
    if tail["kind"] == "const":
        return flags + ["--eps-const", repr(tail["value"])]
    return flags + ["--tail-c", repr(tail["c"]), "--tail-r", repr(tail["r"])]


# -- pools -----------------------------------------------------------------


def library_pool(rng: random.Random, with_affine: bool) -> list[dict]:
    pool = []
    for regime in REGIMES:
        for i in range(PER_REGIME):
            cfg = {
                "id": f"{regime}-{i}",
                "index": i,
                "regime": regime,
                "end": ENDS[i % 3],
                "seq": sequence(rng, regime, i),
                "u": poly(rng, rng.choice((2, 3))),
                "v": vanishing(rng),
            }
            if with_affine and regime != "const":
                cfg["a"], cfg["b"] = affine(rng), affine(rng)
            pool.append(cfg)
    return pool


def cli_pool(rng: random.Random) -> dict[str, list[dict]]:
    """Per slot, CLI_POOL argument lists cycling through the three regimes."""
    pools: dict[str, list[dict]] = {}
    for slot in ("ruelle", "energy", "selfsim", "harmonicity-light", "convergence", "ibp", "laplacian", "harmonicity", "geometry", "kusuoka"):
        entries = []
        for i in range(CLI_POOL):
            # Limit quantities (self-similarity, the limit measure behind the
            # Laplacian samples) exist only for exponential tails.
            regime = REGIMES[1 + i % 2] if slot in ("selfsim", "laplacian") else REGIMES[i % 3]
            flags = seq_flags(sequence(rng, regime, i // 3))
            argv = {
                "ruelle": lambda: ["ruelle", "--eps", repr(_eps(rng, i % 3))],
                "energy": lambda: ["energy", *flags, "--depth", "5", "--u", poly(rng, rng.randint(5, 8), 5), "--v", poly(rng, rng.randint(2, 4))],
                "selfsim": lambda: ["selfsim", *flags, "--depth", "5", "--u", poly(rng, 3), "--v", poly(rng, 3)],
                "harmonicity-light": lambda: ["harmonicity", *flags, "--depth", "5"],
                "convergence": lambda: ["convergence", *flags, "--depth", "7", "--u", poly(rng, rng.randint(2, 4))],
                "ibp": lambda: ["ibp", *flags, "--depths", "3,4,5,6,7", "--phi", poly(rng, rng.randint(2, 4)), "--v", vanishing(rng)],
                "laplacian": lambda: ["laplacian", *flags, "--depth", "6", "--phi", poly(rng, rng.randint(2, 4))],
                "harmonicity": lambda: ["harmonicity", *flags, "--depth", "7"],
                "geometry": lambda: ["geometry", *flags, "--depth", "6", "--shade", "--json", "{json}"],
                "kusuoka": lambda: ["kusuoka", *flags, "--depth", "10", "--json", "{json}"],
            }[slot]()
            entries.append({"id": f"{slot}-{i}", "regime": regime if slot != "ruelle" else None, "argv": argv})
        pools[slot] = entries
    return pools


# -- references --------------------------------------------------------------


def energy_refs(cfg: dict, cap: bool) -> dict:
    import library as lib
    import stretched_gasket as sg

    quad = sg.get_quadrature(REF_ORDER)
    inp = lib.Inputs(cfg)
    ref: dict = {
        "energy": {str(l): lib.energy_outputs(lib.energy_call(inp, l, quad)) for l in lib.ENERGY_DEPTHS},
        "conv": [r["total"] for r in lib.conv_rows(inp, quad)],
        "ibp": [[r["energy_lhs"], r["integral_rhs"]] for r in lib.ibp_rows(inp, quad)],
    }
    if inp.exp_tail:
        ref["selfsim_bound"] = lib.selfsim_outputs(inp, quad)[1]
        ref["measure"] = lib.measure_reference(inp, quad)
    if cap:
        ref["cap"] = lib.energy_outputs(lib.energy_call(inp, lib.CAP_DEPTH, quad))
    lib.clear_caches()
    return ref


def vertex_refs(cfg: dict) -> dict:
    """References for the per-edge diagnostics.

    The weak pairing's reference is the assembled form E_l(u, v) at order
    12: on a harmonic pre-fractal the two are equal for admissible v, so
    the check is an independent route, not a replay of the same code.
    """
    import library as lib
    import stretched_gasket as sg

    quad = sg.get_quadrature(REF_ORDER)
    inp = lib.Inputs(cfg)
    ref: dict = {"harm": {}, "weak": {}, "lapl": {}}
    for l in lib.VERTEX_DEPTHS:
        ref["harm"][str(l)] = lib.harmonic_outputs(lib.harmonic_call(inp, l))
        ref["weak"][str(l)] = lib.energy_call(inp, l, quad).total
        if inp.exp_tail:
            ref["lapl"][str(l)] = dict(lib.laplacian_outputs(lib.laplacian_call(inp, l)), cap=lib.laplacian_cap(inp))
    ref["nd"] = [lib.nd_call(inp, k) for k in lib.ND_LEVELS]
    lib.clear_caches()
    return ref


def verify_library(workload: str, cfg: dict, unexpected: list[str]) -> dict:
    """Run a configuration's round as the benchmark will; return its known defects.

    A failure at the seed is accepted only when it is the registered
    scale defect; anything else stops the generator.
    """
    import library as lib
    from run import run_job

    make = lib.energy_round if workload == "energy-deep" else lib.vertex_round
    inp = lib.Inputs(cfg)
    jobs = make(cfg, inp) + ([lib.cap_job(cfg, inp)] if "cap" in cfg["ref"] else [])
    defects = {}
    for job in jobs:
        rec = run_job(job, 0)
        if not rec.problems:
            continue
        if not scale_gate_failure(job.name, rec.problems):
            unexpected.append(f"{workload} {cfg['id']} {job.name} fails at the seed: {rec.problems}")
        defects[job.name] = {"defect": SCALE_DEFECT, "at_seed": rec.problems[0]}
    lib.clear_caches()
    return defects


def run_cli_inprocess(argv: list[str], quad_order: int | None = None) -> dict:
    """The CLI's outputs from an in-process call, in ``climix.run_cli``'s format."""
    from stretched_gasket import cli

    json_path = OUT / "refs-cli.json"
    argv = [str(json_path) if a == "{json}" else a for a in argv]
    if quad_order is not None:
        if "--quad-order" in argv:
            argv[argv.index("--quad-order") + 1] = str(quad_order)
        else:
            argv += ["--quad-order", str(quad_order)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    json_text = None
    if json_path.exists():
        json_text = json_path.read_text(encoding="utf-8")
        json_path.unlink()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "json": json_text}


def cli_ref(slot: str, cfg: dict, unexpected: list[str]) -> None:
    """Store the slot's reference summary and any known defect it shows at the seed."""
    import climix

    order = REF_ORDER if slot in ("energy", "energy-defect", "selfsim", "convergence", "ibp") else None
    ref_out = run_cli_inprocess(cfg["argv"], order)
    cfg["ref"] = climix.summarize(slot, ref_out)
    if slot == "energy-defect":
        return
    problems = climix.check(slot, cfg["ref"], run_cli_inprocess(cfg["argv"]))
    if not problems:
        return
    if not scale_gate_failure(f"cli.{slot}", problems):
        unexpected.append(f"cli {cfg['id']} {cfg['argv']} fails at the seed: {problems}")
    cfg["known_defects"] = {f"cli.{slot}": {"defect": SCALE_DEFECT, "at_seed": problems[0]}}


def main() -> None:
    import climix

    OUT.mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    energy = library_pool(rng, with_affine=True)
    vertex = library_pool(rng, with_affine=False)
    cli = cli_pool(rng)
    cli["energy-defect"] = [{"id": "energy-defect", "regime": None, "argv": climix.DEFECT_ARGV}]
    unexpected: list[str] = []
    for cfg in energy:
        cfg["ref"] = energy_refs(cfg, cap=cfg["index"] < CAP_PER_REGIME)
        cfg["known_defects"] = verify_library("energy-deep", cfg, unexpected)
        print("energy-deep", cfg["id"], sorted(cfg["known_defects"]), file=sys.stderr)
    for cfg in vertex:
        cfg["ref"] = vertex_refs(cfg)
        cfg["known_defects"] = verify_library("vertex-diagnostics", cfg, unexpected)
        print("vertex-diagnostics", cfg["id"], sorted(cfg["known_defects"]), file=sys.stderr)
    for slot, entries in cli.items():
        for cfg in entries:
            cli_ref(slot, cfg, unexpected)
            print("cli-mix", cfg["id"], sorted(cfg.get("known_defects", {})), file=sys.stderr)
    if unexpected:
        raise SystemExit("unexpected failures at the seed:\n" + "\n".join(unexpected))
    payload = {
        "pool_seed": POOL_SEED,
        "ref_quad_order": REF_ORDER,
        "energy-deep": energy,
        "vertex-diagnostics": vertex,
        "cli-mix": cli,
    }
    REFS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
