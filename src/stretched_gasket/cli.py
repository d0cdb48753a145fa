"""Command line surface: geometry export and numeric reports.

Configuration resolves in three layers: built-in defaults, then a flat
key=value config file (``--config``), then explicit flags.  Config lines
use dotted keys, ``#`` comments and blank lines are ignored:

    eps.prefix = 0.9,0.8,0.7
    eps.tail.c = 0.05
    eps.tail.r = 0.5
    depth = 4
    quad.order = 8

A key that no subcommand reads is refused with its line.  A tail flag
(``--eps-const``, or ``--tail-c``/``--tail-r``) replaces a file's tail of
the other kind, and flags of both kinds are refused.

Exit codes: 0 success, 1 usage or configuration error, 2 assertion
failure (a computed invariant out of tolerance; the message names the
failing quantity).  Each gate asks ``not value <= bound``, so a NaN
fails it.  All outputs are deterministic for a fixed config: fixed
enumeration orders, fixed float formatting, no wall clock.  All numeric
work runs before the first byte of an output; tables are then written
in row blocks, so their text never exists whole.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import energy as energy_mod
from . import harmonicity as harm_mod
from . import kusuoka as kus_mod
from . import laplacian as lap_mod
from .errors import GasketError, PolyParseError
from .geometry import HARMONIC_RATIO, SIDE_NAMES, iter_words, prefractal_edges
from .harmonicity import HARMONIC_GATES
from .params import A, ParamSeq, seq_from_mapping
from .scalarfield import corner_values, parse as parse_poly, sup_bounds, vanishes_at_corners, vanishing_cubic


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _assert_fail(message: str) -> int:
    sys.stderr.write(f"assertion failed: {message}\n")
    return 2


#: The keys a config file may set: each is read by at least one subcommand, and one file may
#: serve every subcommand, so a key another subcommand reads passes.
_CONFIG_KEYS = frozenset(
    {"eps.prefix", "eps.tail.c", "eps.tail.r", "eps.const", "depth", "depths", "quad.order", "u", "v", "phi", "ratio", "eps", "shade"}
)


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file with dotted keys; later lines win, a key outside ``_CONFIG_KEYS`` is refused."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            out[key] = val.strip()
    return out


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().split(","))


def _build_seq(args, cfg: dict[str, str]) -> ParamSeq:
    mapping: dict = {}
    if "eps.prefix" in cfg:
        mapping["eps.prefix"] = _parse_floats(cfg["eps.prefix"])
    if "eps.tail.c" in cfg:
        mapping["eps.tail.c"] = float(cfg["eps.tail.c"])
    if "eps.tail.r" in cfg:
        mapping["eps.tail.r"] = float(cfg["eps.tail.r"])
    if "eps.const" in cfg:
        mapping["eps.const"] = float(cfg["eps.const"])
    if args.eps_prefix is not None:
        mapping["eps.prefix"] = _parse_floats(args.eps_prefix)
    # A tail flag replaces the file's tail of the other kind; flags of both
    # kinds stay together, and seq_from_mapping refuses them.
    if args.eps_const is not None:
        mapping.pop("eps.tail.c", None)
        mapping.pop("eps.tail.r", None)
    if args.tail_c is not None or args.tail_r is not None:
        mapping.pop("eps.const", None)
    flags = {"eps.const": args.eps_const, "eps.tail.c": args.tail_c, "eps.tail.r": args.tail_r}
    mapping.update((key, val) for key, val in flags.items() if val is not None)
    return seq_from_mapping(mapping)


def _resolve(args, cfg, attr, key, default, conv):
    val = getattr(args, attr, None)
    if val is not None:
        return val
    if key in cfg:
        return conv(cfg[key])
    return default


def _quadrature(args, cfg):
    """The explicit Gauss rule, or None: the forms then pick the lowest
    order exact for the field degrees, at least 8."""
    order = _resolve(args, cfg, "quad_order", "quad.order", None, int)
    return None if order is None else energy_mod.get_quadrature(order)


#: Rows per block of a written table: 3^7, the depth-l words below one depth-(l - 7) prefix.
_BLOCK_ROWS = 3**7


@contextlib.contextmanager
def _output(out_path: str | None):
    """stdout, or ``out_path`` opened for text without newline translation."""
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit(text: str, out_path: str | None):
    with _output(out_path) as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_csv(out_path: str | None, header: list[str], n_rows: int, block_rows):
    """CRLF CSV of ``n_rows`` rows, written ``_BLOCK_ROWS`` at a time: ``block_rows(start, stop)``
    gives rows start..stop-1 as sequences of strings.  No field needs quoting: fields are
    float reprs, digit words and fixed labels."""
    with _output(out_path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = block_rows(start, min(start + _BLOCK_ROWS, n_rows))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _word_str(word: tuple[int, ...]) -> str:
    return "".join(str(i) for i in word)


def _word_strs(index: np.ndarray, length) -> list[str]:
    """Digit strings of the words with lexicographic ``index`` among the words of their ``length``."""
    index, length = np.broadcast_arrays(np.asarray(index, np.int64), np.asarray(length, np.int64))
    width = max(int(length.max(initial=0)), 1)
    # Letter k of a length-L word is digit L - 1 - k of its base-3 index, plus one;
    # past the word's end a zero byte, which the bytes dtype drops.
    places = length[:, None] - 1 - np.arange(width)
    letters = (index[:, None] // (3 ** np.arange(width))[np.maximum(places, 0)] % 3 + ord("1")).astype(np.uint8)
    letters[places < 0] = 0
    return [word.decode() for word in letters.view(f"S{width}").ravel().tolist()]


def _reprs(col: np.ndarray):
    return map(repr, col.tolist())


# -- geometry --------------------------------------------------------------


def _svg_text(depth, edges, kappas) -> str:
    """SVG of the edge table, over cells shaded by their ``kappas`` unless those are None."""
    # Hull of the base triangle with a 5% margin; y axis flipped for SVG.
    margin = 0.05
    width = math.sqrt(3.0) / 2.0
    view = f"{-margin:.6f} {-0.5 - margin:.6f} {width + 2 * margin:.6f} {1.0 + 2 * margin:.6f}"
    sw = max(0.0012, 0.012 * 0.72**depth)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    if kappas is not None:
        # Corners A, B, C of each cell: the starts of its sides AB and BC, and the end of BC.
        cells = edges[: 3 * len(kappas)].reshape(-1, 3)
        corners = (cells.px[:, 0], cells.py[:, 0], cells.px[:, 1], cells.py[:, 1], cells.qx[:, 1], cells.qy[:, 1])
        ops = (0.75 * kappas / float(np.max(kappas))).tolist()
        for (ax, ay, bx, by, cx, cy), op in zip(zip(*(c.tolist() for c in corners)), ops):
            pts = f"{ax:.6f},{-ay:.6f} {bx:.6f},{-by:.6f} {cx:.6f},{-cy:.6f}"
            lines.append(f'<polygon points="{pts}" fill="#3a7bd5" fill-opacity="{op:.4f}"/>')
    styles = (
        f'stroke="#1a1a1a" stroke-width="{sw:.6f}"',
        f'stroke="#c0392b" stroke-width="{sw:.6f}" stroke-dasharray="{2 * sw:.6f},{2 * sw:.6f}"',
    )
    for cable, px, py, qx, qy in zip(*(edges[c].tolist() for c in ("generation", "px", "py", "qx", "qy"))):
        lines.append(f'<line x1="{px:.6f}" y1="{-py:.6f}" x2="{qx:.6f}" y2="{-qy:.6f}" {styles[cable > 0]}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _edges_json(depth, edges) -> dict:
    words = [[list(w) for w in iter_words(k)] for k in range(depth + 1)]
    out = []
    columns = (edges[c].tolist() for c in ("generation", "word", "slot", "px", "py", "qx", "qy"))
    for g, i, slot, px, py, qx, qy in zip(*columns):
        ident = {"kind": "cable", "slot": slot} if g else {"kind": "tri", "side": SIDE_NAMES[slot]}
        out.append({**ident, "word": words[g - 1 if g else depth][i], "p": [px, py], "q": [qx, qy]})
    return {"edges": out}


def cmd_geometry(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 2, int)
    shade = args.shade or cfg.get("shade", "") == "true"
    kappas = kus_mod.kappa_table(depth) if shade else None
    edges = prefractal_edges(seq, depth)
    _emit(_svg_text(depth, edges, kappas), args.out)
    if args.json is not None:
        with _output(args.json) as fh:
            # json.dump writes the chunks that json.dumps would join.
            json.dump(_edges_json(depth, edges), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# -- reports ---------------------------------------------------------------


def cmd_energy(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 3, int)
    quad = _quadrature(args, cfg)
    u = parse_poly(_resolve(args, cfg, "u", "u", "x", str))
    v_expr = _resolve(args, cfg, "v", "v", None, str)
    v = parse_poly(v_expr) if v_expr is not None else u
    if args.require_vanishing and not vanishes_at_corners(v):
        return _fail(f"v must vanish at A, B, C; corner values {corner_values(v)}")
    rep = energy_mod.energy_total(seq, depth, u, v, quad)
    payload = {
        "depth": depth,
        "e1": rep.e1,
        "e2": rep.e2,
        "total": rep.total,
        "eps_spec": seq.describe(),
    }
    _emit(_json_text(payload), args.out)
    return 0


def cmd_harmonicity(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 4, int)
    ratio = _resolve(args, cfg, "ratio", "ratio", HARMONIC_RATIO, float)
    rep = harm_mod.harmonic_report(seq, depth, ratio)
    payload = {
        "depth": depth,
        "residual": rep.residual,
        "worst_vertex_word": f"{_word_str(rep.worst_word)}/{rep.worst_corner}",
        "nd_gamma": harm_mod.nd_gamma(seq.eps(1), ratio),
    }
    _emit(_json_text(payload), args.out)
    gate = HARMONIC_GATES["assertion"] * A
    if not rep.residual <= gate:
        return _assert_fail(
            f"harmonic residual {rep.residual:.3e} exceeds {gate:.1e} "
            f"at vertex {_word_str(rep.worst_word)}/{rep.worst_corner}"
        )
    return 0


def cmd_ruelle(args, cfg, seq) -> int:
    eps = _resolve(args, cfg, "eps", "eps", None, float)
    if eps is None:
        eps = seq.eps(1)
    payload = kus_mod.perron_report(eps)
    _emit(_json_text(payload), args.out)
    if not payload["residual"] <= 1e-12:
        return _assert_fail(f"eigen-residual {payload['residual']:.3e} exceeds 1e-12")
    return 0


#: Masses within this many ulps of the largest tie with it: kappa(1^l) = kappa(2^l) = kappa(3^l)
#: exactly, their doubles differ by rounding, and the next mass is 58% lower or more.
_KAPPA_TIE_ULPS = 4


def cmd_kusuoka(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 3, int)
    taus = kus_mod.tau_table(depth)
    kappas = kus_mod._trace(taus)
    min_eig = float(np.min(kus_mod._small_eigenvalues(taus, depth)))
    sum_kappa = math.fsum(kappas.tolist())
    columns = (kappas, taus[:, 0, 0], taus[:, 0, 1], taus[:, 1, 1])
    _write_csv(
        args.out,
        ["word", "kappa", "tau11", "tau12", "tau22"],
        len(kappas),
        lambda a, b: zip(_word_strs(np.arange(a, b), depth), *(_reprs(c[a:b]) for c in columns)),
    )
    if args.json is not None:
        top = kappas.max()
        summary = {
            "depth": depth,
            "sum_kappa": sum_kappa,
            "min_eig": min_eig,
            "max_kappa_word": _word_strs([np.argmax(kappas >= top - _KAPPA_TIE_ULPS * np.spacing(top))], depth)[0],
        }
        _emit(_json_text(summary), args.json)
    if not abs(sum_kappa - 1.0) <= 1e-12:
        return _assert_fail(f"level mass sum {sum_kappa!r} deviates from 1 beyond 1e-12")
    if not min_eig > 0:
        return _assert_fail(f"cylinder matrix min eigenvalue {min_eig:.3e} is not positive")
    return 0


def cmd_ibp(args, cfg, seq) -> int:
    depths = _resolve(args, cfg, "depths", "depths", (3, 4, 5, 6, 7, 8), _parse_ints)
    quad = _quadrature(args, cfg)
    phi = parse_poly(_resolve(args, cfg, "phi", "phi", "x^2", str))
    v_expr = _resolve(args, cfg, "v", "v", None, str)
    v = parse_poly(v_expr) if v_expr is not None else vanishing_cubic()
    rows_data = lap_mod.ibp_table(seq, phi, v, depths, quad)
    rows = [
        [str(r["depth"]), repr(r["energy_lhs"]), repr(r["integral_rhs"]), repr(r["residual"])]
        for r in rows_data
    ]
    _write_csv(args.out, ["depth", "energy_lhs", "integral_rhs", "residual"], len(rows), lambda a, b: rows[a:b])
    residuals = [r["residual"] for r in rows_data]
    if phi.degree <= 1:
        bad = [r for r in residuals if not r <= 1e-10]
        if bad:
            return _assert_fail(f"affine field residual {max(bad):.3e} exceeds 1e-10")
    elif len(residuals) >= 2 and not residuals[-1] <= residuals[0]:
        return _assert_fail(
            f"residuals do not decay over depths {depths[0]}..{depths[-1]}: "
            f"{residuals[0]:.3e} -> {residuals[-1]:.3e}"
        )
    return 0


def cmd_convergence(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 5, int)
    quad = _quadrature(args, cfg)
    u = parse_poly(_resolve(args, cfg, "u", "u", "x^2", str))
    v_expr = _resolve(args, cfg, "v", "v", None, str)
    v = parse_poly(v_expr) if v_expr is not None else u
    rows_data = energy_mod.convergence_rows(seq, u, v, depth, quad)
    rows = [
        [str(r["l"]), repr(r["total"]), "" if r["delta"] is None else repr(r["delta"])]
        for r in rows_data
    ]
    _write_csv(args.out, ["l", "energy", "delta"], len(rows), lambda a, b: rows[a:b])
    for i in range(1, len(rows_data)):
        delta = rows_data[i]["delta"]
        envelope = rows_data[i - 1]["envelope"]
        if not abs(delta) <= envelope:
            return _assert_fail(
                f"increment {delta:.3e} at l={rows_data[i]['l']} exceeds envelope {envelope:.3e}"
            )
    return 0


def cmd_selfsim(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 4, int)
    quad = _quadrature(args, cfg)
    u = parse_poly(_resolve(args, cfg, "u", "u", "x^2", str))
    v_expr = _resolve(args, cfg, "v", "v", None, str)
    v = parse_poly(v_expr) if v_expr is not None else parse_poly("x*y + y^2")
    residual, bound = energy_mod.selfsimilar_residual(seq, u, v, depth, quad)
    payload = {"depth": depth, "residual": residual, "bound": bound, "eps_spec": seq.describe()}
    _emit(_json_text(payload), args.out)
    if not residual <= bound + 1e-12:
        return _assert_fail(f"self-similarity residual {residual:.3e} exceeds bound {bound:.3e}")
    return 0


def cmd_laplacian(args, cfg, seq) -> int:
    depth = _resolve(args, cfg, "depth", "depth", 2, int)
    phi = parse_poly(_resolve(args, cfg, "phi", "phi", "x^2", str))
    table = lap_mod.laplacian_samples(seq, phi, depth)
    cap = 2.0 * sup_bounds(phi)[1] + 1e-9
    worst = float(np.max(np.abs(table.value)))
    cable = table.generation > 0
    # A cell's word has the full depth; a generation-s cable's prefix has s - 1 letters.
    lengths = np.where(cable, table.generation - 1, depth)
    columns = (table.x, table.y, table.value)

    def block(a, b):
        kinds = map(("cell", "cable").__getitem__, cable[a:b].tolist())
        slots = map(("", "1", "2", "3").__getitem__, table.slot[a:b].tolist())
        return zip(kinds, _word_strs(table.word[a:b], lengths[a:b]), slots, *(_reprs(c[a:b]) for c in columns))

    _write_csv(args.out, ["kind", "word", "slot", "x", "y", "value"], len(table), block)
    if not worst <= cap:
        return _assert_fail(f"Laplacian sample {worst:.3e} exceeds the Hessian bound {cap:.3e}")
    return 0


_COMMANDS = {
    "geometry": cmd_geometry,
    "energy": cmd_energy,
    "harmonicity": cmd_harmonicity,
    "ruelle": cmd_ruelle,
    "kusuoka": cmd_kusuoka,
    "ibp": cmd_ibp,
    "convergence": cmd_convergence,
    "selfsim": cmd_selfsim,
    "laplacian": cmd_laplacian,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="stretched-gasket", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--eps-prefix", help="comma separated leading stretch values")
    common.add_argument("--tail-c", type=float, help="exponential tail constant c")
    common.add_argument("--tail-r", type=float, help="exponential tail ratio r in (0,1)")
    common.add_argument("--eps-const", type=float, help="constant stretch value (no limit weights)")
    common.add_argument("--depth", type=int, help="construction depth")
    common.add_argument("--depths", type=_parse_ints, help="comma separated depth sweep")
    common.add_argument(
        "--quad-order", type=int, help="Gauss rule order (default: 8, or the lowest exact order for the field degrees)"
    )
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--json", help="write the JSON side report to this path")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("geometry", parents=[common], help="SVG and JSON edge export")
    p.add_argument("--shade", action="store_true", help="shade cells by their kappa mass")
    p = sub.add_parser("energy", parents=[common], help="assembled form at one depth")
    p.add_argument("--u", help="first field expression")
    p.add_argument("--v", help="second field expression")
    p.add_argument("--require-vanishing", action="store_true", help="reject v not vanishing at corners")
    p = sub.add_parser("harmonicity", parents=[common], help="vertex residual report")
    p.add_argument(
        "--ratio",
        type=float,
        help="vertical/horizontal scale ratio of the first map (default 1/3; other values break harmonicity)",
    )
    p = sub.add_parser("ruelle", parents=[common], help="transfer operator eigenpair")
    p.add_argument("--eps", type=float, help="stretch value (default: first level)")
    sub.add_parser("kusuoka", parents=[common], help="cylinder mass table")
    p = sub.add_parser("ibp", parents=[common], help="integration by parts sweep")
    p.add_argument("--phi", help="field expression")
    p.add_argument("--v", help="test function expression")
    p = sub.add_parser("convergence", parents=[common], help="energy depth sweep")
    p.add_argument("--u", help="first field expression")
    p.add_argument("--v", help="second field expression")
    p = sub.add_parser("selfsim", parents=[common], help="self-similarity residual")
    p.add_argument("--u", help="first field expression")
    p.add_argument("--v", help="second field expression")
    p = sub.add_parser("laplacian", parents=[common], help="pointwise Laplacian samples")
    p.add_argument("--phi", help="field expression")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        seq = _build_seq(args, cfg)
        return _COMMANDS[args.command](args, cfg, seq)
    except PolyParseError as exc:
        return _fail(f"bad expression at position {exc.position}: {exc}")
    except (GasketError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
