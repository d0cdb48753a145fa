"""Affine geometry of the stretched Sierpinski gasket pre-fractals.

The depth-l pre-fractal is the union of 3^l image triangles and the cables
joining them.  Images are produced by words over the alphabet {1,2,3}: the
map at word position k is built from eps_k, so the composition for a word
w = (i_1, ..., i_l) is F_{i_1} of level 1 applied last:

    F_w = F^1_{i_1} o F^2_{i_2} o ... o F^l_{i_l}.

Each level's triple (F_1, F_2, F_3) fixes the corners A, B, C of the unit
equilateral base triangle and contracts by the diagonal pair
(alpha, beta) = eps * (3/5, 1/5); F_2 and F_3 are the conjugates of F_1 by
the rotations through -2*pi/3 and +2*pi/3 about the barycenter direction.
Cables of generation s join the images F^s_i of the corner points inside a
cell of depth s-1 and have length 1 - eps_s.

Every affine map is a (linear, offset) pair of arrays: ``triple`` gives
a level's three maps as (3, 2, 2) and (3, 2) arrays, and ``_word_levels``
is the one function that composes them.  It composes the maps of any
range of words level by level, and only the range's ancestors, with the
bits of the whole table.  ``_ancestors`` is the one range walk: it works
out a row range's ancestors at each level, for ``_word_levels`` and for
the cylinder products of the kusuoka module.  ``_word_rows`` is the one
range read, the last level of ``_word_levels`` over a range, holding
only the level being built beside its parent: the CLI's writers, the
carrier walk, the cable masses and ``word_table`` (the whole range, the
last table read kept, and read by no route here) read their map rows
from it.  Only ``compose``, the one row of a word of any length, which
``word_point`` maps as one ``_images`` row, and the two readers of every
level, the carrier walk and the harmonicity module's vertex blocks, walk
``_word_levels`` themselves.  The range reads stop at the depth cap; a
one-row read does not.

The carriers of the depth-l pre-fractal, its cells in word order and
then its cables by generation in (prefix, slot) order, have one walk
(``_carrier_walk``): a row range gives, span by span, the map rows of
its cells or of its cables' prefixes, the cells one ``_word_rows`` read
and the prefixes of every generation that fits in one range the levels
of one walk, so a range costs O(l) level steps.  The Laplacian samples
and the edge table (``prefractal_edges``, built a range at a time by
``_edge_rows``, which the SVG/JSON export reads by range) read their
rows from it.

The beta/alpha ratio (default 1/3, the harmonic family) is a parameter of
the level maps and of the walks (``triple``, ``_word_levels``,
``_cable_stack``) that the harmonicity module's vertex-residual probes
read, which show that perturbed families break the vertex balance.  The
energy forms, the cylinder measures and the Laplacian are defined for
the harmonic family only: their weights use lam_k = (3/5) eps_k^2, which
is the Perron eigenvalue of the level transfer operator only at ratio
1/3, so they take no ratio.  Harmonicity also forces the
cable constant b to equal the triangle-edge constant a, and the edge
weights (``triangle_edge_prefactor``, ``cable_prefactor``) use the one
value a = b = 1/3 (``params.A``), so they take no constant either.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import DepthCapExceeded, PrefactorUnderflow
from .params import A, ParamSeq

SQRT3 = math.sqrt(3.0)

# Corners of the unit equilateral base triangle.
_A = np.array([0.0, 0.0])
_B = np.array([SQRT3 / 2.0, 0.5])
_C = np.array([SQRT3 / 2.0, -0.5])
_BARYCENTER = np.array([SQRT3 / 3.0, 0.0])

for _v in (_A, _B, _C, _BARYCENTER):
    _v.flags.writeable = False

#: Ratio beta/alpha of the harmonic map family.
HARMONIC_RATIO = 1.0 / 3.0

#: The stretch-free level factors B_1, B_2, B_3 of the harmonic family, in longdouble and built
#: entrywise (B_2, B_3 exact mirror images): T_i / sqrt(lam_k) = sqrt(3/5) B_i at every level.
_ROOT, _THIRD, _FIVE_SIXTHS = np.sqrt(np.longdouble(3)) / 6, np.longdouble(1) / 3, np.longdouble(5) / 6
_LEVEL_FACTORS = np.array([[[1, 0], [0, _THIRD]], [[0.5, _ROOT], [_ROOT, _FIVE_SIXTHS]], [[0.5, -_ROOT], [-_ROOT, _FIVE_SIXTHS]]])
_LEVEL_FACTORS.flags.writeable = False

#: Default cap on enumeration depth (3^12 triangles).
DEFAULT_DEPTH_CAP = 12

#: Canonical side parametrizations of the base triangle, each run over t in [0,1].
SIDE_NAMES = ("AB", "BC", "AC")
#: Corner index (A, B, C as 0, 1, 2) where each side starts and where it ends.
_SIDE_FROM, _SIDE_TO = np.array([["ABC".index(c) for c in name] for name in SIDE_NAMES]).T


def base_vertices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _A, _B, _C


def barycenter() -> np.ndarray:
    return _BARYCENTER


def _alpha_beta(eps: float, beta_over_alpha: float) -> tuple[float, float]:
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    if not math.isfinite(beta_over_alpha):
        raise ValueError(f"beta/alpha must be finite, got {beta_over_alpha}")
    alpha = 0.6 * eps
    beta = alpha * beta_over_alpha
    # 3 |beta| bounds every level-map entry, offset and cable end (alpha <= 0.6).
    if not math.isfinite(3.0 * beta):
        raise ValueError(f"beta/alpha {beta_over_alpha!r} gives level maps past the double range at eps {eps!r}")
    return alpha, beta


@functools.lru_cache(maxsize=4096)
def _triple_cached(eps: float, beta_over_alpha: float):
    alpha, beta = _alpha_beta(eps, beta_over_alpha)
    t1 = np.array([[alpha, 0.0], [0.0, beta]])
    # Closed-form rotation conjugates; building them entrywise keeps the
    # matrices exactly symmetric in floating point.
    d = SQRT3 * (alpha - beta) / 4.0
    m11 = (alpha + 3.0 * beta) / 4.0
    m22 = (3.0 * alpha + beta) / 4.0
    t2 = np.array([[m11, d], [d, m22]])
    t3 = np.array([[m11, -d], [-d, m22]])
    lin, off = np.array([t1, t2, t3]), np.array([np.zeros(2), _B - t2 @ _B, _C - t3 @ _C])
    lin.flags.writeable = False
    off.flags.writeable = False
    return lin, off


def triple(eps: float, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """The level maps F_1, F_2, F_3 for one stretching value, as read-only arrays.

    Returns (lin, off) of shapes (3, 2, 2) and (3, 2): F_i x = lin[i - 1] @ x
    + off[i - 1].  eps = 1 is accepted: it gives the harmonic-gasket maps,
    where cables degenerate to points and neighbouring cells touch.
    """
    return _triple_cached(float(eps), float(beta_over_alpha))


def _triple_index(value: int, what: str = "word letter") -> int:
    """Position 0..2 of a word letter or cable slot; values outside 1..3 raise ValueError."""
    if value not in (1, 2, 3):
        raise ValueError(f"{what} must be 1, 2 or 3, got {value!r}")
    return value - 1


def word_index(word: tuple[int, ...]) -> int:
    """Position of a word in the lexicographic enumeration of its length."""
    idx = 0
    for ch in word:
        idx = idx * 3 + _triple_index(ch)
    return idx


def compose(seq: ParamSeq, word: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """F_w for a word w of any length, position k using the level-k triple.

    Returns (lin, off) of shapes (2, 2) and (2,): the one row of
    ``_word_levels`` over the word, so it has the bits of its ``word_table``
    row.  It enumerates nothing, so no depth cap applies.
    """
    i = word_index(word)
    *_, (_, lin, off) = _word_levels(seq, len(word), i, i + 1)
    return lin[0], off[0]


def word_point(seq: ParamSeq, word: tuple[int, ...]) -> np.ndarray:
    """Representative point of a cylinder cell: the barycenter's image, as one ``_images`` row."""
    lin, off = compose(seq, word)
    return _images(lin[None], _BARYCENTER[None])[0, 0] + off


def _images(lin: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """lin[n] @ vecs[k] for every n, k of lin (N, 2, 2) and vecs (K, 2): (N, K, 2).

    One 2-D BLAS product of the (2N, 2) row stack with the (2, K) vectors,
    rounded as the stacked 2x2 matvecs (``tests/oracles.py``) round every
    entry, fma(a_0, v_0, a_1 v_1).  The GEMM kernel rounds the entry of rows
    x, y as fma(x_1, y_1, x_0 y_0), so both operands enter with their
    columns reversed.  A single vector is duplicated to two and the first
    kept: one column takes numpy's GEMV path, which rounds otherwise.
    """
    cols = vecs[:, ::-1].T
    if len(vecs) == 1:
        cols = np.repeat(cols, 2, axis=1)
    out = (lin[..., ::-1].reshape(-1, 2) @ cols).reshape(len(lin), 2, cols.shape[1]).swapaxes(1, 2)
    return out[:, : len(vecs)]


def _level_products(lin: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """lin[n] @ T_i for every n of lin (N, 2, 2) and each map of a level, given as
    [T_1 T_2 T_3] (2, 6): (3N, 2, 2) in (n, i) order.

    One GEMM over the (2N, 2) row stack.  The stacked per-row product
    ``lin @ wide`` (``tests/oracles.py``) makes one GEMM call per row, so
    the two share a kernel and round every entry alike.
    """
    return (lin.reshape(-1, 2) @ wide).reshape(-1, 2, 3, 2).swapaxes(1, 2).reshape(-1, 2, 2)


def _require_depth(l: int) -> None:
    """Refuse a depth below 0 (ValueError) or past the cap (DepthCapExceeded)."""
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    if l > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(f"depth {l} exceeds cap {DEFAULT_DEPTH_CAP}")


#: Rows per range of the tables built or read in ranges: 3^7, the depth-l words below one depth-(l - 7) prefix.
_RANGE_ROWS = 3**7


def _ranges(n_rows: int) -> Iterator[tuple[int, int]]:
    """The row ranges (start, stop) of ``_RANGE_ROWS`` rows that cover ``n_rows`` rows, in order."""
    for start in range(0, n_rows, _RANGE_ROWS):
        yield start, min(start + _RANGE_ROWS, n_rows)


def _level_maps(seq: ParamSeq, l: int, beta_over_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (l, 3, 2, 2) and offsets (l, 3, 2) of the maps F_1, F_2, F_3 of levels 1..l."""
    maps = [triple(seq.eps(k), beta_over_alpha) for k in range(1, l + 1)]
    return np.array([lin for lin, _ in maps]).reshape(l, 3, 2, 2), np.array([off for _, off in maps]).reshape(l, 3, 2)


def _ancestors(l: int, start: int, stop: int) -> Iterator[tuple[int, slice]]:
    """The ancestors of the depth-l words start..stop-1 at each level k = 1..l, in order:
    (first, rows), the index of the first among the depth-k words and their rows among the
    children of the level-(k - 1) ancestors, three to a parent in word order.  The one place
    where a row range's ancestors are worked out; at level l they are the range itself."""
    first = 0
    for k in range(1, l + 1):
        lo, hi = start // 3 ** (l - k), -(-stop // 3 ** (l - k))
        yield lo, slice(lo - 3 * first, hi - 3 * first)
        first = lo


def _word_levels(seq: ParamSeq, l: int, start: int, stop: int, beta_over_alpha: float = HARMONIC_RATIO):
    """The ancestors of the depth-l words start..stop-1 at each level k = 0..l, in order:
    (first, lin, off), the affine parts of the depth-k words first, first + 1, ...

    Only these (``_ancestors``) are composed, level by level, with the
    arithmetic of the whole table, so every row has the bits of its
    ``word_table`` row and the transient memory is set by the range.  This
    is the one place where maps are composed: a level is one GEMM for the
    linear parts (``_level_products``) and one image table for the offsets
    (``_images``), each with the bits of the stacked per-row products.  A
    negative depth or a range outside [0, 3^l) raises ValueError; the depth
    cap is left to the callers that enumerate a level.
    """
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    n = 3**l
    if not 0 <= start <= stop <= n:
        raise ValueError(f"row range [{start}, {stop}) is not within the {n} depth-{l} words")
    tks, oks = _level_maps(seq, l, beta_over_alpha)
    # Level k's [T_1 T_2 T_3], (2, 6), as ``_level_products`` takes them.
    wide = tks.transpose(0, 2, 1, 3).reshape(l, 2, 6)
    lin, off = np.eye(2)[None, :, :], np.zeros((1, 2))
    yield 0, lin, off
    for k, (first, rows) in enumerate(_ancestors(l, start, stop)):
        # lin @ T and lin @ o + off for each parent row and each of the level's three maps.
        lin, off = _level_products(lin, wide[k])[rows], (_images(lin, oks[k]) + off[:, None, :]).reshape(-1, 2)[rows]
        yield first, lin, off


def _word_rows(seq: ParamSeq, l: int, start: int, stop: int):
    """Affine parts (lin, off) of the depth-l words start..stop-1 in word order: the last
    level of ``_word_levels``, so each row has the bits of its ``word_table`` row.  Each level
    is dropped once the next is built, so only the level being built is held beside its
    parent.  A depth past the cap raises DepthCapExceeded."""
    _require_depth(l)
    for first, lin, off in _word_levels(seq, l, start, stop):
        pass
    return lin[start - first : stop - first], off[start - first : stop - first]


@functools.lru_cache(maxsize=1)
def word_table(seq: ParamSeq, l: int):
    """Batched affine parts of all depth-l compositions, in word order.

    Returns (lin, off): arrays of shape (3^l, 2, 2) and (3^l, 2) such that
    row word_index(w) holds the linear part and offset of F_w, the
    ``_word_rows`` read of the whole range.  Arrays are read-only; callers
    must copy before mutating.  Only the last table read is kept (24.3 MiB
    at the depth cap): no route of the package reads it.  A depth past the
    cap raises DepthCapExceeded.
    """
    lin, off = _word_rows(seq, l, 0, 3**l)
    lin.flags.writeable = False
    off.flags.writeable = False
    return lin, off


def _cable_scale_seq(seq: ParamSeq, s: int, beta_over_alpha: float) -> float:
    """The common factor 2 - 3*alpha - beta; every cable has length half of it.

    For the harmonic family this collapses to 2*(1 - eps_s) exactly, and the
    expm1-based 1 - eps_s keeps cable tangents relatively accurate deep in
    the tail where eps_s is close to 1.
    """
    if beta_over_alpha == HARMONIC_RATIO:
        return 2.0 * seq.one_minus_eps(s)
    return 2.0 * seq.one_minus_eps(s) + seq.eps(s) * (0.2 - 0.6 * beta_over_alpha)


#: Unit-scale direction of each cable slot (scaled by the common factor).
_SLOT_DIRS = np.array([[SQRT3 / 4.0, 0.25], [SQRT3 / 4.0, -0.25], [0.0, -0.5]])
_SLOT_DIRS.flags.writeable = False


def _cable_stack(seq: ParamSeq, generations, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """Starts and velocities, each (G, 3, 2), of the cables of G generations.

    Row g holds the three cables of generation ``generations[g]`` in slot
    order, in local cell coordinates, as ``cable_segments`` gives them.
    """
    generations = list(generations)
    alpha, beta = np.array([_alpha_beta(seq.eps(s), beta_over_alpha) for s in generations]).reshape(-1, 2).T
    scale = np.array([_cable_scale_seq(seq, s, beta_over_alpha) for s in generations])
    # Slot starts: F_1(B), F_1(C), F_2(C); ends follow from the common direction.
    half = alpha * SQRT3 / 2.0
    starts = np.stack([half, beta / 2.0, half, -beta / 2.0, SQRT3 * (2.0 - alpha + beta) / 4.0, scale / 4.0], axis=-1)
    return starts.reshape(-1, 3, 2), scale[:, None, None] * _SLOT_DIRS


def _cable_ends(seq: ParamSeq, generations, beta_over_alpha: float = HARMONIC_RATIO) -> np.ndarray:
    """The cable ends, then the cable velocities, of G generations: (G, 9, 2).

    Column e = 2 (slot - 1) + t of row g is the end t of the slot's cable
    of generation ``generations[g]`` in local cell coordinates, its start
    (t = 0) or start + velocity (t = 1) as ``cable_segments`` has them;
    column 6 + slot - 1 is that cable's velocity.
    """
    starts, vels = _cable_stack(seq, generations, beta_over_alpha)
    return np.concatenate([np.stack([starts, starts + vels], axis=2).reshape(-1, 6, 2), vels], axis=1)


def cable_segments(seq: ParamSeq, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The three generation-s cables in local cell coordinates: one generation of ``_cable_stack``.

    Returns (starts, vels), each (3, 2) in slot order; the cable of slot
    k runs over starts[k - 1] + t vels[k - 1], t in [0, 1].  Slot 1 runs
    from F^s_1(B) to F^s_2(A), slot 2 from F^s_1(C) to F^s_3(A), slot 3
    from F^s_2(C) to F^s_3(B); each has length 1 - eps_s for the harmonic
    family.  The velocity is exact rather than an endpoint difference, which
    would lose low bits on short cables far from the origin.  A
    depth-(s-1) prefix map carries them into the pre-fractal.
    """
    (starts,), (vels,) = _cable_stack(seq, (s,))
    return starts, vels


def triangle_edge_prefactor(seq: ParamSeq, l: int) -> float:
    """Weight a / lam_tilde(l) carried by every depth-l triangle edge, a = ``params.A``."""
    return _quotient(A, seq.lam_tilde(l), f"triangle edge prefactor at depth {l}")


def _quotient(num, den, what: str):
    """num / den; a denominator that underflowed to 0.0 (products of tiny
    eps^2) or is not finite raises PrefactorUnderflow naming ``what``."""
    if den == 0.0 or not math.isfinite(den):
        raise PrefactorUnderflow(f"{what}: denominator {float(den)!r} underflows or is not finite")
    return num / den


def cable_prefactor(seq: ParamSeq, s: int, l: int) -> float:
    """Weight of a generation-s cable inside the depth-l energy form.

    b = a = ``params.A`` over the cell renormalization lam_tilde(s-1), the
    window product eps_tilde(s, l) and the cable length 1 - eps_s.
    """
    den = seq.lam_tilde(s - 1) * seq.eps_tilde(s, l) * seq.one_minus_eps(s)
    return _quotient(A, den, f"generation-{s} cable prefactor at depth {l}")


def cable_prefactor_limit(seq: ParamSeq, s: int) -> float:
    """Limit weight of a generation-s cable: window product taken to infinity."""
    den = seq.lam_tilde(s - 1) * seq.eps_tilde_inf(s) * seq.one_minus_eps(s)
    return _quotient(A, den, f"generation-{s} cable prefactor at depth infinity")


def _side_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Start corners and velocities of the base sides, in SIDE_NAMES order."""
    corners = np.stack(base_vertices())
    return corners[_SIDE_FROM], corners[_SIDE_TO] - corners[_SIDE_FROM]


def _carrier_count(l: int, cell_rows: int = 1) -> int:
    """Rows of a depth-l carrier table: ``cell_rows`` per cell, then 3 (3^l - 1) / 2 cables."""
    return cell_rows * 3**l + 3 * (3**l - 1) // 2


def _carrier_walk(seq: ParamSeq, l: int, start: int, stop: int, cell_rows: int = 1):
    """Rows start..stop-1 of a depth-l carrier table, ``cell_rows`` rows per cell (generation
    s = 0) then the 3^s cables of each generation s in (prefix, slot) order, as spans (s, a, b,
    lin, off): rows a..b-1 of generation s with the map rows of the cells
    a // cell_rows .. ceil(b / cell_rows) - 1, or of the depth-(s - 1) prefixes a // 3 ..
    ceil(b / 3) - 1, so each has the bits of its ``word_table`` row.

    The cells are one ``_word_rows`` read.  The prefixes of every generation whose prefix level
    fits in one range (3^(s - 1) <= ``_RANGE_ROWS``) are levels of one ``_word_levels`` walk over
    every word of the deepest such level, and a deeper generation's are one ``_word_rows`` read
    per span, so a range costs O(l) level steps, not one walk per generation."""
    spans, first = [], 0
    for s, size in enumerate([cell_rows * 3**l] + [3**s for s in range(1, l + 1)]):
        if max(start, first) < min(stop, first + size):
            spans.append((s, max(start - first, 0), min(stop - first, size)))
        first += size
    shallow = max([s - 1 for s, _, _ in spans if s and 3 ** (s - 1) <= _RANGE_ROWS], default=-1)
    levels = list(_word_levels(seq, shallow, 0, 3**shallow)) if shallow >= 0 else []
    for s, a, b in spans:
        depth, per = (l, cell_rows) if s == 0 else (s - 1, 3)
        lo, hi = a // per, -(-b // per)
        if depth <= shallow:
            _, lin, off = levels[depth]
            yield s, a, b, lin[lo:hi], off[lo:hi]
        else:
            yield (s, a, b, *_word_rows(seq, depth, lo, hi))


#: Columns of the edge table: the edge's (generation, word, slot), prefactor, start, end and velocity.
_EDGE_DTYPE = np.dtype(
    [("generation", np.int64), ("word", np.int64), ("slot", np.int64)]
    + [(name, np.float64) for name in ("prefactor", "px", "py", "qx", "qy", "vx", "vy")]
)


def _require_edges(seq: ParamSeq, l: int) -> None:
    """Raise what the depth-l edge table refuses before its first row: a depth outside [0, cap],
    then a triangle or generation-s cable prefactor that underflows, in generation order."""
    _require_depth(l)
    triangle_edge_prefactor(seq, l)
    for s in range(1, l + 1):
        cable_prefactor(seq, s, l)


def _edge_rows(seq: ParamSeq, l: int, start: int, stop: int) -> np.recarray:
    """Rows start..stop-1 (a nonempty range) of the depth-l edge table, unchecked
    (``_require_edges``): each cell of the carrier walk maps the ends and velocities of the
    base sides, each cable prefix those of its cables (``_cable_ends``), in one ``_images``
    table, so a row has the bits of its edge mapped by its word's ``word_table`` row."""
    # The base sides in the layout of ``_cable_ends``: each side's two ends, then the velocities.
    ends = np.take(np.stack(base_vertices()), np.stack([_SIDE_FROM, _SIDE_TO], axis=1).ravel(), axis=0)
    sides = np.concatenate([ends, _side_arrays()[1]])
    ids, prefactors, points, vels = [], [], [], []
    spans = list(_carrier_walk(seq, l, start, stop, cell_rows=3))
    cables = iter(_cable_ends(seq, [s for s, *_ in spans if s]))
    for s, a, b, lin, off in spans:
        images = _images(lin, sides if s == 0 else next(cables))
        # Row 3 i + k of a flattened (N, 3, ...) table is side or cable k of the span's word i.
        first, edges = a % 3, np.arange(a, b)
        ids.append(np.column_stack([np.full(b - a, s), edges // 3, edges % 3 + (s > 0)]))
        prefactors.append(np.full(b - a, triangle_edge_prefactor(seq, l) if s == 0 else cable_prefactor(seq, s, l)))
        points.append((images[:, :6] + off[:, None]).reshape(-1, 4)[first : first + b - a])
        vels.append(images[:, 6:].reshape(-1, 2)[first : first + b - a])
    points, vels = np.concatenate(points), np.concatenate(vels)
    columns = [*np.concatenate(ids).T, np.concatenate(prefactors), *points.T, *vels.T]
    return np.rec.fromarrays(columns, dtype=_EDGE_DTYPE)


def prefractal_edges(seq: ParamSeq, l: int) -> np.recarray:
    """All edges of the depth-l pre-fractal in world coordinates, a row per edge.

    3 * 3^l triangle edges, then the cables of generations 1..l
    (3 * (3^l - 1) / 2 of them), in canonical order: triangle edges
    lexicographic in (word, side), then generations in increasing order,
    lexicographic in (prefix, slot).  Columns: ``generation`` (0 for a
    triangle edge, s for a generation-s cable), ``word`` (lexicographic
    index of the cell word, or of the cable prefix among the depth-(s-1)
    words), ``slot`` (position 0..2 of the side in SIDE_NAMES, or the cable
    slot 1..3), the energy ``prefactor`` of the edge in the depth-l form,
    its world start ``px``, ``py``, end ``qx``, ``qy`` and velocity ``vx``,
    ``vy``, filled a range of ``_ranges`` at a time.  A depth outside [0, cap]
    or an underflowing prefactor raises first (``_require_edges``).
    """
    _require_edges(seq, l)
    n = _carrier_count(l, 3)
    table = np.recarray(n, dtype=_EDGE_DTYPE)
    for a, b in _ranges(n):
        table[a:b] = _edge_rows(seq, l, a, b)
    return table
