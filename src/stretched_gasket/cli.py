"""Command line surface: geometry export and numeric reports.

Each option is declared once, in ``_OPTIONS``; the parsers, the config
keys and the values all derive from it.  A subcommand takes only the
flags it reads, and a value is its flag's text, else the config file's,
else the subcommand's default, through the option's one converter.
Config lines use dotted keys, ``#`` comments and blank lines are ignored:

    eps.prefix = 0.9,0.8,0.7
    eps.tail.c = 0.05
    depth = 4

A key no option declares is refused with its line.  A tail flag
(``--eps-const``, or ``--tail-c``/``--tail-r``) replaces a file's tail of
the other kind, and flags of both kinds are refused.

Exit codes: 0 success, 1 usage or configuration error, 2 assertion
failure (a computed invariant out of tolerance; the message names the
failing quantity).  Each gate asks ``not value <= bound``, so a NaN
fails it.  All outputs are deterministic for a fixed config: fixed
enumeration orders, fixed float formatting, no wall clock, and no bare
``NaN`` or ``Infinity`` in JSON (a non-finite value is ``null``).  Every
computation that can fail runs before the first byte of an output;
tables are then written in row blocks, so their text never exists
whole.  ``kusuoka`` computes its cylinder matrices block by block as it
writes them, which cannot fail once the depth is checked, ``laplacian``
its samples, once every generation's cable weight is checked, and
``geometry`` its edge rows, once the triangle and every generation's
cable prefactor are; none of them holds a whole depth-l table.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import energy as energy_mod
from . import harmonicity as harm_mod
from . import kusuoka as kus_mod
from . import laplacian as lap_mod
from .errors import GasketError, PolyParseError
from .geometry import HARMONIC_RATIO, SIDE_NAMES, _carrier_count, _edge_rows, _images, _ranges, _require_depth
from .geometry import _require_edges, _word_rows, base_vertices
from .harmonicity import HARMONIC_GATES
from .params import SEQ_KEYS, A, ParamSeq, seq_from_mapping
from .scalarfield import corner_values, parse as parse_poly, sup_bounds, vanishes_at_corners, vanishing_cubic


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, and an argument no parser
    takes refused by the (sub)parser that met it, with that parser's usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _assert_fail(message: str) -> int:
    sys.stderr.write(f"assertion failed: {message}\n")
    return 2


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file with dotted keys; later lines win, a key no option declares is refused."""
    keys = {opt.key for opt in _OPTIONS}
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
            if key not in keys:
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


def _parse_bool(text: str) -> bool:
    """``true`` or ``false``; any other spelling is refused rather than read as false."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


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


def _strict(payload):
    """``payload`` with each non-finite float as None, which JSON writes as ``null``."""
    if isinstance(payload, float):
        return payload if math.isfinite(payload) else None
    if isinstance(payload, dict):
        return {key: _strict(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_strict(value) for value in payload]
    return payload


def _json_text(payload) -> str:
    return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_csv(out_path: str | None, header: list[str], n_rows: int, block_rows):
    """CRLF CSV of ``n_rows`` rows, written a range of ``geometry._ranges`` at a time:
    ``block_rows(start, stop)`` gives rows start..stop-1 as sequences of strings.  No field
    needs quoting: fields are float reprs, digit words and fixed labels."""
    with _output(out_path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start, stop in _ranges(n_rows):
            fh.write("\r\n".join(map(",".join, block_rows(start, stop))) + "\r\n")


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


def _json_reprs(col: np.ndarray) -> list[str]:
    """The floats of ``col`` as JSON writes them, a non-finite one as ``null``."""
    texts = list(_reprs(col))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        texts[i] = "null"
    return texts


# -- geometry --------------------------------------------------------------


def _write_svg(fh, seq, depth, kappas, side):
    """SVG of the edge table, over cells shaded by their ``kappas`` unless those are None, its
    rows built a range of ``geometry._ranges`` of cells or edges at a time; each range of edges
    also goes to ``_write_edges_json`` on ``side`` unless that is None."""
    # Hull of the base triangle with a 5% margin; y axis flipped for SVG.
    margin = 0.05
    width = math.sqrt(3.0) / 2.0
    view = f"{-margin:.6f} {-0.5 - margin:.6f} {width + 2 * margin:.6f} {1.0 + 2 * margin:.6f}"
    sw = max(0.0012, 0.012 * 0.72**depth)
    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">\n')
    if kappas is not None:
        top = float(np.max(kappas))
        for a, b in _ranges(len(kappas)):
            # Corners A, B, C of each cell, mapped as the edge rows map their ends.
            lin, off = _word_rows(seq, depth, a, b)
            corners = (_images(lin, np.stack(base_vertices())) + off[:, None]).reshape(-1, 6)
            ops = (0.75 * kappas[a:b] / top).tolist()
            fh.writelines(
                f'<polygon points="{ax:.6f},{-ay:.6f} {bx:.6f},{-by:.6f} {cx:.6f},{-cy:.6f}" '
                f'fill="#3a7bd5" fill-opacity="{op:.4f}"/>\n'
                for (ax, ay, bx, by, cx, cy), op in zip(corners.tolist(), ops)
            )
    styles = (
        f'stroke="#1a1a1a" stroke-width="{sw:.6f}"',
        f'stroke="#c0392b" stroke-width="{sw:.6f}" stroke-dasharray="{2 * sw:.6f},{2 * sw:.6f}"',
    )
    for a, b in _ranges(_carrier_count(depth, 3)):
        block = _edge_rows(seq, depth, a, b)
        columns = (block[c].tolist() for c in ("generation", "px", "py", "qx", "qy"))
        fh.writelines(
            f'<line x1="{px:.6f}" y1="{-py:.6f}" x2="{qx:.6f}" y2="{-qy:.6f}" {styles[cable > 0]}/>\n'
            for cable, px, py, qx, qy in zip(*columns)
        )
        if side is not None:
            _write_edges_json(side, depth, a, block)
    fh.write("</svg>\n")


#: One edge of the edge list as ``json.dump(..., indent=2, sort_keys=True)`` writes it, after the
#: separator that precedes it in the list: kind, p and q, then side (or slot), then word.
_EDGE_JSON = (
    '{}{{\n      "kind": "{}",\n      "p": [\n        {},\n        {}\n      ],\n'
    '      "q": [\n        {},\n        {}\n      ],\n      {},\n      "word": {}\n    }}'
)


def _write_edges_json(fh, depth, a, block):
    """The edge rows a, a + 1, ... of ``block`` as items of ``{"edges": [...]}`` written by
    ``json.dump(..., indent=2, sort_keys=True)``; a non-finite coordinate is ``null``.  A
    triangle edge carries its cell word and side, a cable its prefix and slot."""
    generation = block.generation
    words = _word_strs(block.word, np.where(generation > 0, generation - 1, depth))
    coords = (_json_reprs(block[c]) for c in ("px", "py", "qx", "qy"))
    fh.writelines(
        _EDGE_JSON.format(
            ",\n    " if i else "\n    ",
            "cable" if g else "tri",
            px, py, qx, qy,
            f'"slot": {slot}' if g else f'"side": "{SIDE_NAMES[slot]}"',
            "[\n        " + ",\n        ".join(word) + "\n      ]" if word else "[]",
        )
        for i, g, slot, word, px, py, qx, qy in zip(
            range(a, a + len(block)), generation.tolist(), block.slot.tolist(), words, *coords
        )
    )


def _one_file(out: str | None, json_out: str | None) -> bool:
    """Whether ``json_out`` names the main output's file, ``out`` or else stdout, by its path or by
    another name (a hard link, /dev/stdout); /dev/null may take both."""
    if json_out is None or os.path.exists(json_out) and os.path.samefile(json_out, os.devnull):
        return False
    if out is not None and os.path.realpath(out) == os.path.realpath(json_out):
        return True
    with contextlib.suppress(OSError, ValueError):  # a file not made yet, or a stdout with no descriptor
        return os.path.samestat(os.stat(json_out), os.fstat(sys.stdout.fileno()) if out is None else os.stat(out))
    return False


def cmd_geometry(seq, *, depth, shade, out, json_out) -> int:
    """SVG and JSON edge export, the edge rows built once every prefactor is checked and each
    range of them written to both files, which are open together."""
    kappas = kus_mod.kappa_table(depth) if shade else None
    _require_edges(seq, depth)
    with _output(out) as fh, contextlib.nullcontext() if json_out is None else _output(json_out) as side:
        if side is not None:
            side.write('{\n  "edges": [')
        _write_svg(fh, seq, depth, kappas, side)
        if side is not None:
            side.write("\n  ]\n}\n")
    return 0


# -- reports ---------------------------------------------------------------


def cmd_energy(seq, *, depth, u, v, out, require_vanishing) -> int:
    """Assembled form at one depth."""
    v = u if v is None else v
    if require_vanishing and not vanishes_at_corners(v):
        return _fail(f"v must vanish at A, B, C; corner values {corner_values(v)}")
    rep = energy_mod.energy_total(seq, depth, u, v)
    payload = {
        "depth": depth,
        "e1": rep.e1,
        "e2": rep.e2,
        "total": rep.total,
        "eps_spec": seq.describe(),
    }
    _emit(_json_text(payload), out)
    return 0


def cmd_harmonicity(seq, *, depth, ratio, out) -> int:
    """Vertex residual report."""
    rep = harm_mod.harmonic_report(seq, depth, ratio)
    payload = {
        "depth": depth,
        "residual": rep.residual,
        "worst_vertex_word": f"{_word_str(rep.worst_word)}/{rep.worst_corner}" if rep.worst_corner else None,
        "nd_gamma": harm_mod.nd_gamma(seq.eps(1), ratio),
    }
    _emit(_json_text(payload), out)
    gate = HARMONIC_GATES["assertion"] * A
    if not rep.residual <= gate:
        return _assert_fail(
            f"harmonic residual {rep.residual:.3e} exceeds {gate:.1e} "
            f"at vertex {_word_str(rep.worst_word)}/{rep.worst_corner}"
        )
    return 0


def cmd_ruelle(seq, *, eps, out) -> int:
    """Transfer operator eigenpair."""
    payload = kus_mod.perron_report(seq.eps(1) if eps is None else eps)
    _emit(_json_text(payload), out)
    if not payload["residual"] <= 1e-12:
        return _assert_fail(f"eigen-residual {payload['residual']:.3e} exceeds 1e-12")
    return 0


#: Masses within this many ulps of the largest tie with it: kappa(1^l) = kappa(2^l) = kappa(3^l)
#: exactly, their doubles differ by rounding, and the next mass is 58% lower or more.
_KAPPA_TIE_ULPS = 4


def cmd_kusuoka(seq, *, depth, out, json_out) -> int:
    """Cylinder mass table."""
    _require_depth(depth)
    # Each block's tau rows are computed, written and folded in one pass; kappa is kept for the summary.
    kappas = np.empty(3**depth)
    min_eig = np.inf

    def block(a, b):
        nonlocal min_eig
        taus = kus_mod.tau_table(depth, a, b)
        kappas[a:b] = kus_mod._trace(taus)
        # np.minimum, not min: a NaN eigenvalue stays NaN whichever block holds it.
        min_eig = np.minimum(min_eig, np.min(kus_mod._small_eigenvalues(taus, depth)))
        columns = (kappas[a:b], taus[:, 0, 0], taus[:, 0, 1], taus[:, 1, 1])
        return zip(_word_strs(np.arange(a, b), depth), *map(_reprs, columns))

    _write_csv(out, ["word", "kappa", "tau11", "tau12", "tau22"], len(kappas), block)
    min_eig = float(min_eig)
    # The floats of kappas.tolist(), in its order, without a list of 3^l of them.
    sum_kappa = math.fsum(itertools.chain.from_iterable(kappas[a:b].tolist() for a, b in _ranges(len(kappas))))
    if json_out is not None:
        top = kappas.max()
        summary = {
            "depth": depth,
            "sum_kappa": sum_kappa,
            "min_eig": min_eig,
            "max_kappa_word": _word_strs([np.argmax(kappas >= top - _KAPPA_TIE_ULPS * np.spacing(top))], depth)[0],
        }
        _emit(_json_text(summary), json_out)
    if not abs(sum_kappa - 1.0) <= 1e-12:
        return _assert_fail(f"level mass sum {sum_kappa!r} deviates from 1 beyond 1e-12")
    if not min_eig > 0:
        return _assert_fail(f"cylinder matrix min eigenvalue {min_eig:.3e} is not positive")
    return 0


def cmd_ibp(seq, *, depths, phi, v, out) -> int:
    """Integration by parts sweep."""
    rows_data = lap_mod.ibp_table(seq, phi, vanishing_cubic() if v is None else v, depths)
    rows = [
        [str(r["depth"]), repr(r["energy_lhs"]), repr(r["integral_rhs"]), repr(r["residual"])]
        for r in rows_data
    ]
    _write_csv(out, ["depth", "energy_lhs", "integral_rhs", "residual"], len(rows), lambda a, b: rows[a:b])
    residuals = [r["residual"] for r in rows_data]
    if phi.degree <= 1:
        bad = [r for r in residuals if not r <= 1e-10]
        if bad:
            return _assert_fail(f"affine field residual {max(bad):.3e} exceeds 1e-10")
    elif len(residuals) >= 2:
        # The rows keep the requested order, which need not be by depth.
        shallow, *_, deep = sorted(rows_data, key=lambda r: r["depth"])
        if not deep["residual"] <= shallow["residual"]:
            return _assert_fail(
                f"residuals do not decay over depths {shallow['depth']}..{deep['depth']}: "
                f"{shallow['residual']:.3e} -> {deep['residual']:.3e}"
            )
    return 0


def cmd_convergence(seq, *, depth, u, v, out) -> int:
    """Energy depth sweep."""
    rows_data = energy_mod.convergence_rows(seq, u, u if v is None else v, depth)
    rows = [
        [str(r["l"]), repr(r["total"]), "" if r["delta"] is None else repr(r["delta"])]
        for r in rows_data
    ]
    _write_csv(out, ["l", "energy", "delta"], len(rows), lambda a, b: rows[a:b])
    for i in range(1, len(rows_data)):
        delta = rows_data[i]["delta"]
        envelope = rows_data[i - 1]["envelope"]
        if not abs(delta) <= envelope:
            return _assert_fail(
                f"increment {delta:.3e} at l={rows_data[i]['l']} exceeds envelope {envelope:.3e}"
            )
    return 0


def cmd_selfsim(seq, *, depth, u, v, out) -> int:
    """Self-similarity residual."""
    residual, bound = energy_mod.selfsimilar_residual(seq, u, v, depth)
    payload = {"depth": depth, "residual": residual, "bound": bound, "eps_spec": seq.describe()}
    _emit(_json_text(payload), out)
    if not residual <= bound + 1e-12:
        return _assert_fail(f"self-similarity residual {residual:.3e} exceeds bound {bound:.3e}")
    return 0


def cmd_laplacian(seq, *, depth, phi, out) -> int:
    """Pointwise Laplacian samples."""
    _require_depth(depth)
    lap_mod._require_cables(seq, depth)
    cap = 2.0 * sup_bounds(phi)[1] + 1e-9
    # Each block's samples are computed, written and folded into the largest |value| in one pass.
    worst = -np.inf

    def block(a, b):
        nonlocal worst
        generation, word, slot, x, y, *_, value = lap_mod._sample_rows(seq, phi, depth, a, b)
        # np.maximum, not max: a NaN sample stays NaN whichever block holds it.
        worst = np.maximum(worst, np.max(np.abs(value)))
        cable = generation > 0
        kinds = map(("cell", "cable").__getitem__, cable.tolist())
        slots = map(("", "1", "2", "3").__getitem__, slot.tolist())
        # A cell's word has the full depth; a generation-s cable's prefix has s - 1 letters.
        words = _word_strs(word, np.where(cable, generation - 1, depth))
        return zip(kinds, words, slots, *(_reprs(c) for c in (x, y, value)))

    _write_csv(out, ["kind", "word", "slot", "x", "y", "value"], _carrier_count(depth), block)
    worst = float(worst)
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


@dataclass(frozen=True)
class _Option:
    """One option: its config key, its flag, the converter of its text (flag, file or default
    alike), its help line, and the subcommands that read it with their default text (None:
    unset).  ``dest`` names the value in the parsed flags and the handlers' keywords, by
    default after the flag; ``const`` is the text of a flag that takes no value."""

    key: str
    flag: str
    convert: Callable[[str], object]
    help: str
    readers: dict[str, str | None]
    dest: str = ""
    const: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dest", self.dest or self.flag[2:].replace("-", "_"))


_EVERY = dict.fromkeys(_COMMANDS)
_DEPTHS = dict(geometry="2", energy="3", harmonicity="4", kusuoka="3", convergence="5", selfsim="4", laplacian="2")
_OPTIONS = (
    _Option("eps.prefix", "--eps-prefix", _parse_floats, "comma separated leading stretch values", _EVERY),
    _Option("eps.tail.c", "--tail-c", float, "exponential tail constant c", _EVERY),
    _Option("eps.tail.r", "--tail-r", float, "exponential tail ratio r in (0,1)", _EVERY),
    _Option("eps.const", "--eps-const", float, "constant stretch value (no limit weights)", _EVERY),
    _Option("depth", "--depth", int, "construction depth", _DEPTHS),
    _Option("depths", "--depths", _parse_ints, "comma separated depth sweep", {"ibp": "3,4,5,6,7,8"}),
    _Option("u", "--u", parse_poly, "first field expression", {"energy": "x", "convergence": "x^2", "selfsim": "x^2"}),
    _Option(
        "v", "--v", parse_poly, "second field (default: the first); ibp's test function",
        dict(energy=None, ibp=None, convergence=None, selfsim="x*y + y^2"),
    ),
    _Option("phi", "--phi", parse_poly, "field expression", {"ibp": "x^2", "laplacian": "x^2"}),
    _Option(
        "ratio", "--ratio", float, "vertical/horizontal scale ratio of the first map (default 1/3; others break harmonicity)",
        dict(harmonicity=repr(HARMONIC_RATIO)),
    ),
    _Option("eps", "--eps", float, "stretch value (default: first level)", {"ruelle": None}),
    _Option("shade", "--shade", _parse_bool, "shade cells by their kappa mass", {"geometry": "false"}, const="true"),
)

#: The tail keys of the other kind: a tail flag drops the config file's tail of the other kind.
_OTHER_TAIL = {"eps.const": ("eps.tail.c", "eps.tail.r"), "eps.tail.c": ("eps.const",), "eps.tail.r": ("eps.const",)}


def _option_values(args, cfg: dict[str, str]) -> tuple[ParamSeq, dict]:
    """The sequence and the handler's keywords.  Each option the subcommand reads takes its
    flag's text, else the config file's, else the subcommand's default, converted once; the
    switches pass as parsed."""
    values = dict(vars(args))
    command = values.pop("command")
    del values["config"]
    options = [opt for opt in _OPTIONS if command in opt.readers]
    flags = {opt.key: values.pop(opt.dest) for opt in options}
    flags = {key: text for key, text in flags.items() if text is not None}
    # A tail flag drops the file's tail of the other kind; flags of both kinds stay, and seq_from_mapping refuses them.
    kept = {key: text for key, text in cfg.items() if flags.keys().isdisjoint(_OTHER_TAIL.get(key, ()))}
    texts = {**kept, **flags}
    mapping = {}
    for opt in options:
        text = texts.get(opt.key, opt.readers[command])
        try:
            value = None if text is None else opt.convert(text)
        except ValueError as exc:
            raise ValueError(f"{opt.key}: {exc}") from None
        if opt.key not in SEQ_KEYS:
            values[opt.dest] = value
        elif value is not None:
            mapping[opt.key] = value
    return seq_from_mapping(mapping), values


def build_parser() -> _Parser:
    parser = _Parser(prog="stretched-gasket", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _COMMANDS.items():
        # No abbreviations: ``ibp --depth`` must not pass as ``--depths``.
        p = sub.add_parser(command, help=handler.__doc__, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output file (default stdout)")
        for opt in _OPTIONS:
            if command in opt.readers:
                kind = {"action": "store_const", "const": opt.const} if opt.const else {}
                p.add_argument(opt.flag, dest=opt.dest, help=opt.help, **kind)
        if command in ("geometry", "kusuoka"):
            p.add_argument("--json", dest="json_out", metavar="PATH", help="write the JSON side report to this path")
        if command == "energy":
            p.add_argument("--require-vanishing", action="store_true", help="reject v not vanishing at corners")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seq, values = _option_values(args, read_config(args.config) if args.config else {})
        # geometry writes both files at once, kusuoka one after the other: each needs two files.
        if _one_file(values["out"], values.get("json_out")):
            return _fail(f"--out and --json name the same file: {values['json_out']}")
        return _COMMANDS[args.command](seq, **values)
    except PolyParseError as exc:
        return _fail(f"bad expression at position {exc.position}: {exc}")
    except (GasketError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
