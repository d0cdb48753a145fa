"""Vertex boundary terms, harmonicity checks, and the (ND) constant.

Integrating the form by parts along every edge leaves, at each interior
vertex, the pairing of the test value with a fixed 2-vector: the sum of
prefactor times tangent over incident edges, signed by which end of the
parametrization sits at the vertex.  Harmonicity of affine coordinates
is equivalent to that vector vanishing at every interior vertex, so the
residual of a depth is one finite max over vertex stars.

Interior vertices carry exactly three incident edges: two triangle sides
of the single cell owning the vertex and one cable end.  The three base
corners carry two triangle sides and no cable; their sums are reported
separately since admissible test functions vanish there.  So every
interior vertex is one cable end, and every vertex, base corners
included, is a corner of one depth-l cell: the stars are index gathers on
rows of the map tables, O(3^l) array work without an edge walk, done 3^7
depth-l cells at a time (``_vertex_blocks``): ``harmonic_report`` reduces
each block as it comes, and ``vertex_stars`` joins and sorts them into
one record array.  Which cable end meets which cell corner depends on
the depth alone: the first block's index arrays are built once per depth
and process (``_first_block``, at most 2.05 MB for depths 0..12), and
every later block shifts them by its prefix digits.  Every gather of
rows by an index array goes through ``np.take`` (``np.compress`` for a
boolean selection): with numpy 2.4 it copies rows of an (N, 2) table
about 10 times faster than ``a[idx]`` (7 against 75 us for 6,558 rows,
on a 2-vCPU Xeon), with the same bits.
The weak pairing is the energy module's level chain on its ``pairing``
form, (u o z)'' (v o z) in place of (u o z)' (v o z)', O(l D'^2); the
per-edge densities of the weak Laplacian, which pair to the same value
edge by edge, are its test oracle (``tests/oracles.py``).

The residual probes (``vertex_stars``, ``harmonic_report``,
``harmonic_residual``) and ``nd_gamma`` take the map ratio beta/alpha, so
perturbed families can be shown to break the vertex balance; a ratio whose
stars could pass the double range is refused first, by an O(l) bound from
the level maps' norms (``_require_finite_stars``).  The weak
pairing is defined for the harmonic family only, like the forms it
contracts.  ``nd_gamma`` searches each distinct (eps, ratio) pair once
and keeps the value in a process-wide lru cache of at most 4096 scalars,
so the levels of a constant tail share one grid.

Their gate enumerates no vertex.  The boundary vector of the end e of a
generation-s cable with prefix p is DF_p r(s, e, l), one of 6 l local
vectors (``_local_defects``: suffix products of the level maps, one
backward loop), and DF_p is invertible, so the stars balance exactly when
every r does.  The gate refuses an r whose norm, relative to the sizes of
its three terms, exceeds gamma_n, n counting the roundings of those
products, prefactors and sums (``_defect_bound``, Higham ch. 3-4), and a
cable end off its cell corner.  ``harmonic_report`` keeps the
enumeration, in blocks, since its residual and worst vertex are output,
and is the local route's test oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .energy import _fsum, _moment_terms, _quad_slot
from .errors import NonHarmonicError, StarNotClosed, TermOverflow
from .geometry import (
    _RANGE_ROWS,
    DEFAULT_DEPTH_CAP,
    HARMONIC_RATIO,
    SIDE_NAMES,
    _cable_ends,
    _cable_stack,
    _images,
    _level_maps,
    _ranges,
    _require_depth,
    _side_arrays,
    _word_levels,
    base_vertices,
    cable_prefactor,
    triangle_edge_prefactor,
    triple,
)
from .params import ParamSeq
from .scalarfield import Poly2, corner_values, vanishes_at_corners

CORNER_NAMES = ("A", "B", "C")
_CORNER_INDEX = {"A": 0, "B": 1, "C": 2}
#: (corner, endpoint t) of each triangle side under its parametrization.
_SIDE_CORNERS = {"AB": (("A", 0), ("B", 1)), "BC": (("B", 0), ("C", 1)), "AC": (("A", 0), ("C", 1))}
#: (slot, endpoint t) -> (letter of the touching cell, corner of that cell).
_CABLE_ENDS = {
    (1, 0): (1, "B"),
    (1, 1): (2, "A"),
    (2, 0): (1, "C"),
    (2, 1): (3, "A"),
    (3, 0): (2, "C"),
    (3, 1): (3, "B"),
}
#: _CABLE_ENDS as arrays over the cable end e = 2 (slot - 1) + t.
_END_LETTER = np.array([j for j, _ in _CABLE_ENDS.values()])
_END_CORNER = np.array([_CORNER_INDEX[c] for _, c in _CABLE_ENDS.values()])
#: The inverse: the cable end e touching corner c of the cell with letter j, at [j - 1, c] (-1 for j = c + 1).
#: Row 3 is for the sentinel digit 3 above a base corner's run: no cable end, read as end 0 of
#: generation 0's zero cable (``_vertex_blocks``).
_END_INDEX = np.full((4, 3), -1)
_END_INDEX[_END_LETTER - 1, _END_CORNER] = np.arange(6)
_END_INDEX[3] = 0
#: The two sides meeting at corners A, B, C (indices into SIDE_NAMES, in
#: that order) and the endpoint t of each there.
_CORNER_ENDS = [[(i, t) for i, name in enumerate(SIDE_NAMES) for cc, t in _SIDE_CORNERS[name] if cc == c] for c in CORNER_NAMES]
_CORNER_SIDE, _CORNER_T = np.moveaxis(np.array(_CORNER_ENDS), 2, 0)

#: Harmonicity gates by role.  ``assertion``: the CLI's harmonicity check,
#: exit 2 when the largest interior boundary-vector norm exceeds it times
#: the form constant a = 1/3 (``params.A``).  ``weak_identity``: the
#: precondition of the weak Laplacian and the weak pairing, a count of
#: roundings: a local defect (``_local_defects``) above gamma_n relative to
#: its scale is refused,
#: n = weak_identity * (l + 2 + sum_{k <= l} |log eps_k|) (``_defect_bound``).
HARMONIC_GATES = MappingProxyType({"assertion": 1e-10, "weak_identity": 12.0})
#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53
#: Largest distance (max norm) between edge ends meeting at one vertex.
_CLOSURE_TOL = 1e-12


#: 3^k and 4^k for k = 0..13: the places of the base-3 word indices and of the base-4 vertex keys.
_POWERS_OF_3, _POWERS_OF_4 = 3 ** np.arange(14), 4 ** np.arange(14)


def _vertex_name(key: int, l: int) -> tuple[tuple[int, ...], str]:
    """(word, corner) of the depth-l vertex with sort key ``key``."""
    code, corner = divmod(int(key), 3)
    return tuple(d for d in (code // 4 ** (l - 1 - n) % 4 for n in range(l)) if d), CORNER_NAMES[corner]


def _corner_geometry(lin: np.ndarray, off: np.ndarray, cell: np.ndarray, corner: np.ndarray):
    """Point (V, 2) of corner ``corner[v]`` of the cell with affine parts (lin, off)[cell[v]],
    and the world tangents (V, 2, 2) of its two sides there, as the edge table rounds them."""
    # Row 3 i + k of a flattened (N, 3, 2) image table is its cell i's corner or side k.
    points = np.take((_images(lin, np.stack(base_vertices())) + off[:, None]).reshape(-1, 2), 3 * cell + corner, axis=0)
    side_rows = 3 * cell[:, None] + np.take(_CORNER_SIDE, corner, axis=0)
    return points, np.take(_images(lin, _side_arrays()[1]).reshape(-1, 2), side_rows, axis=0)


def _cell_corners(l: int, cells: np.ndarray):
    """The corners of the depth-l cells ``cells``, in (cell, corner) order, as (i, corner, key, s,
    e, p) for a corner of cells[i]: corner c of the cell u j (c+1)^(l-s) is the end e of the
    generation-s cable with prefix index p (``_CABLE_ENDS``); a base corner, c of (c+1)^l, has
    s = 0 and e = p = 0."""
    # Base-3 digits of the cell words, last letter first, then a 3 that is no letter's; the run
    # of trailing letters equal to the last.  Corner c of a cell u j (c+1)^(l-s) has run l - s.
    digits = np.full((len(cells), l + 1), 3)
    digits[:, :l] = cells[:, None] // _POWERS_OF_3[:l] % 3
    cell, corner = np.repeat(np.arange(len(cells)), 3), np.tile(np.arange(3), len(cells))
    run = np.where(corner == np.take(digits[:, 0], cell), np.take(np.argmin(digits == digits[:, :1], axis=1), cell), 0)
    codes = np.take((digits[:, :l] + 1) @ _POWERS_OF_4[:l], cell)
    keys = 3 * (codes - codes % np.take(_POWERS_OF_4, run)) + corner
    # The letter j above the run (the sentinel 3 above a base corner's), and the prefix below it.
    digit = np.take(digits, (l + 1) * cell + run)
    e, p = np.take(_END_INDEX, 3 * digit + corner), np.take(cells, cell) // np.take(_POWERS_OF_3, run + 1)
    return cell, corner, keys, l - run, e, p


@functools.lru_cache(maxsize=DEFAULT_DEPTH_CAP + 1)
def _first_block(l: int):
    """The corners of the first ``geometry._ranges`` block of depth-l cells, as ``_cell_corners``
    gives them, in read-only arrays.  They depend on the depth alone, so each depth's are built
    once per process: at most 13 entries, 2.05 MB in all (315 KB each from depth 7 on)."""
    arrays = _cell_corners(l, np.arange(min(3**l, _RANGE_ROWS)))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _block_vertices(l: int):
    """For each range (a, b) of ``geometry._ranges`` over the depth-l cells: a, b and the
    corners of the cells a..b-1 as ``_cell_corners`` gives them.

    The first block's are ``_first_block``'s, shared and read-only.  A later block starts at a
    multiple a of its size 3^n and differs from the first only in the digits above the low n:
    its keys are the first block's plus 3 times the base-4 code of a's digits, its p plus
    a // 3^(run + 1), and only the corners of its cells 0...0, 1...1 and 2...2
    (c (3^n - 1) / 2 for c = 0, 1, 2), whose runs may pass the low n digits, are taken from
    their own cells' digits.
    """
    blocks = _ranges(3**l)
    a, b = next(blocks)
    cell, corner, keys, s, e, p = _first_block(l)
    yield a, b, cell, corner, keys, s, e, p
    for a, b in blocks:
        deep = (b - a - 1) // 2 * np.arange(3)
        rows = (3 * deep[:, None] + np.arange(3)).ravel()
        code = (a // _POWERS_OF_3[:l] % 3) @ _POWERS_OF_4[:l]
        shifted = [keys + 3 * code, s.copy(), e.copy(), p + a // np.take(_POWERS_OF_3, l - s + 1)]
        for arr, own in zip(shifted, _cell_corners(l, a + deep)[2:]):
            np.put(arr, rows, own)
        yield a, b, cell, corner, *shifted


def _vertex_blocks(seq: ParamSeq, l: int, beta_over_alpha: float):
    """The depth-l vertices in blocks: (keys, weights, tangents, points) per block.

    Every vertex, base corners included, is the corner c of exactly one
    depth-l cell; each block holds the corners of the cells of a range of
    ``geometry._ranges``, in (cell, corner) order (``_block_vertices``).
    Members of a vertex: the two sides of its cell there (SIDE_NAMES
    order), then its cable end; weights (V, 3) are their prefactors,
    negated at endpoint t = 1, and tangents (V, 3, 2) their world tangents
    (a base corner, with no cable, has weight and tangent 0 in the cable
    place).  A key is the vertex word u j in base-4 digits padded to length
    l, times 3, plus the corner; the base corners' are 0, 1, 2.  The cells
    and cable prefixes are rows of ``_word_levels``, so each point and
    tangent has its edge row's bits (``geometry._edge_rows``).  Each prefix
    row maps its generation's six cable ends and three velocities once, one
    ``_images`` table per level, and the vertices gather their cable end
    from it.  Once every block is out, an open star (a cable end farther
    than ``_CLOSURE_TOL`` from its cell corner, NaN included) raises
    StarNotClosed naming the first in key order.
    """
    _require_depth(l)
    # By generation s = 0..l; generation 0 is the zero cable that the base corners read.
    local = np.concatenate([np.zeros((1, 9, 2)), _cable_ends(seq, range(1, l + 1), beta_over_alpha)])
    cable_pf = np.array([0.0] + [cable_prefactor(seq, s, l) for s in range(1, l + 1)])
    tri_pf = triangle_edge_prefactor(seq, l)
    _require_finite_stars(seq, l, beta_over_alpha, local, tri_pf, cable_pf)
    side_w = np.where(_CORNER_T == 0, tri_pf, -tri_pf)  # (3, 2): the side weights at corners A, B, C
    # Every key is below 3 4^l.
    first_open = past_keys = 3 * 4**l
    for a, b, cell, corner, keys, s, e, p in _block_vertices(l):
        weights = np.empty((len(cell), 3))
        pf = np.take(cable_pf, s)
        weights[:, :2], weights[:, 2] = np.take(side_w, corner, axis=0), np.where(e % 2 == 0, pf, -pf)
        levels = list(_word_levels(seq, l, a, b, beta_over_alpha))
        tangents = np.empty((len(cell), 3, 2))
        points, tangents[:, :2] = _corner_geometry(*levels[-1][1:], cell, corner)
        # Each generation s's cable ends and velocities mapped once per prefix row, the ancestors
        # at level s - 1, stacked over the generations: prefix p's row follows the rows of the
        # generations above at its place in its own level.  Row 9 r + k of the flattened (R, 9, 2)
        # table is the end k < 6 or velocity k - 6 of prefix row r; row 0, generation 0's, is zero.
        prefixes = [(0, np.zeros((1, 2, 2)), np.zeros((1, 2)))] + levels[:-1]
        images = np.concatenate([_images(plin, ends) for ends, (_, plin, _) in zip(local, prefixes)]).reshape(-1, 2)
        offs = np.concatenate([poff for _, _, poff in prefixes])
        above = np.cumsum([0] + [len(poff) for _, _, poff in prefixes])[:-1]
        row = np.take(above - [first for first, _, _ in prefixes], s) + p
        tangents[:, 2] = np.take(images, 9 * row + 6 + e // 2, axis=0)
        gap = np.abs(np.take(images, 9 * row + e, axis=0) + np.take(offs, row, axis=0) - points)
        closed = np.maximum(gap[:, 0], gap[:, 1]) <= _CLOSURE_TOL
        # A base corner (s = 0) has no cable end to meet.
        first_open = np.compress((s > 0) & ~closed, keys).min(initial=first_open)
        yield keys, weights, tangents, points
    if first_open < past_keys:
        word, corner = _vertex_name(first_open, l)
        raise StarNotClosed(f"edge ends at vertex {''.join(map(str, word))}/{corner} do not coincide")


def _require_finite_stars(seq: ParamSeq, l: int, beta_over_alpha: float, local, tri_pf: float, cable_pf) -> None:
    """Refuse, in O(l) and before any word map is composed, a (ratio, depth) whose vertex stars
    could pass the double range: TermOverflow naming both.  A depth-k word map has |DF_w| <= P_k
    = m_1 ... m_k and |F_w(0)| <= O_k = sum_{j <= k} P_(j-1) o_j (m_j, o_j: the largest Frobenius
    norms of the level-j linear parts and offsets), which bounds every point and tangent mapped
    from a unit base vector or a generation-s cable vector of ``local`` (norms <= v_s), every
    closure gap (a cable end's bound plus a corner's) and every boundary vector (2 tri_pf P_l +
    cable_pf(s) P_(s-1) v_s).  The bounds are Python floats, which overflow to inf silently."""
    lin, off = _level_maps(seq, l, beta_over_alpha)
    m, o = ([math.hypot(*row) for row in rows.tolist()] for rows in (lin.reshape(3 * l, 4), off.reshape(3 * l, 2)))
    norms = [math.hypot(*vec) for vec in local[1:].reshape(9 * l, 2).tolist()]
    p, offset, v = [1.0], [0.0], [0.0]
    for k in range(l):
        offset.append(offset[k] + p[k] * max(o[3 * k : 3 * k + 3]))
        p.append(p[k] * max(m[3 * k : 3 * k + 3]))
        v.append(max(norms[9 * k : 9 * k + 9]))
    pf = [float(tri_pf)] + cable_pf.tolist()[1:]
    corners = [pk + ok for pk, ok in zip(p, offset)]
    ends = [p[s - 1] * v[s] + offset[s - 1] for s in range(1, l + 1)]
    boundary = 2 * pf[0] * p[l] + max([pf[s] * p[s - 1] * v[s] for s in range(1, l + 1)], default=0.0)
    if not max(max(corners + ends) + corners[l], boundary) <= np.finfo(float).max * (1 - 2.0**-20):
        raise TermOverflow(
            f"map ratio {beta_over_alpha!r} at depth {l}: the vertex stars' coordinates could pass the double range"
        )


def _vertex_arrays(seq: ParamSeq, l: int, beta_over_alpha: float):
    """Every depth-l vertex in (word, corner) order: (keys, weights, tangents, points),
    the blocks of ``_vertex_blocks`` joined and sorted by key."""
    keys, weights, tangents, points = (np.concatenate(a) for a in zip(*_vertex_blocks(seq, l, beta_over_alpha)))
    order = np.argsort(keys)
    return tuple(np.take(a, order, axis=0) for a in (keys, weights, tangents, points))


def _boundary(weights: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Each vertex's boundary vector: the sum over its members of weight * tangent, in member
    order, formed member by member so that no (V, 3, 2) table of terms is held."""
    w, t = weights[:, :, None], tangents
    return w[:, 0] * t[:, 0] + w[:, 1] * t[:, 1] + w[:, 2] * t[:, 2]


def vertex_stars(
    seq: ParamSeq,
    l: int,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> np.recarray:
    """All depth-l vertex stars, a row per vertex, sorted by (word, corner).

    Columns: the sort ``key`` of ``_vertex_arrays`` (the vertex word in
    base-4 digits padded to length l, times 3, plus the corner index), the
    vertex ``x``, ``y``, the signed member ``weight`` (3,) and world
    ``tangent`` (3, 2) (two cell sides, then the cable end; a base corner
    has weight 0 in the cable place), and the ``boundary`` vector (2,), the
    vertex boundary term's pairing with gradients.  ``_vertex_blocks``
    checks every star for closure (its edge ends meet at one point).
    """
    keys, weights, tangents, points = _vertex_arrays(seq, l, beta_over_alpha)
    columns = [keys, *points.T, weights, tangents, _boundary(weights, tangents)]
    dtype = [
        ("key", np.int64),
        ("x", float),
        ("y", float),
        ("weight", float, 3),
        ("tangent", float, (3, 2)),
        ("boundary", float, 2),
    ]
    return np.rec.fromarrays(columns, dtype=dtype)


@dataclass(frozen=True, eq=False)
class HarmonicityReport:
    depth: int
    residual: float
    worst_word: tuple[int, ...]
    worst_corner: str
    n_interior: int
    corner_norms: dict[str, float]


def harmonic_report(
    seq: ParamSeq,
    l: int,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> HarmonicityReport:
    """Max interior boundary-vector norm with the worst vertex named.

    The worst vertex is the first strict maximum in (word, corner) order,
    unnamed when every norm is 0.  A NaN norm counts as the maximum: the
    residual is then NaN and the first NaN vertex is named.  Base-corner
    sums are reported separately (they do not vanish; test functions do,
    at those three points).  The vertices are gathered a block of
    ``_vertex_blocks`` at a time, and each block is reduced to its maximum
    and the smallest key that attains it, so no depth-l table is held whole.
    """
    corner_norms, tops, n_interior = {}, [], 0
    for keys, weights, tangents, _ in _vertex_blocks(seq, l, beta_over_alpha):
        norms = np.hypot(*_boundary(weights, tangents).T)
        base = keys < 3  # the base corners' keys are their corner indices
        for k, norm in zip(np.compress(base, keys).tolist(), np.compress(base, norms).tolist()):
            corner_norms[CORNER_NAMES[k]] = norm
        keys, norms = np.compress(~base, keys), np.compress(~base, norms)
        if norms.size:
            top = np.max(norms)  # NaN where a norm is NaN
            tops.append((float(top), int(np.min(keys[np.isnan(norms) if np.isnan(top) else norms == top]))))
        n_interior += len(norms)
    nan_keys = [key for top, key in tops if math.isnan(top)]
    worst = math.nan if nan_keys else max([top for top, _ in tops], default=0.0)
    at = min(nan_keys or [key for top, key in tops if top == worst], default=None)
    word, corner = _vertex_name(at, l) if not worst <= 0.0 else ((), "")
    return HarmonicityReport(l, worst, word, corner, n_interior, corner_norms)


def harmonic_residual(
    seq: ParamSeq,
    l: int,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> float:
    """Max over interior depth-l vertices of the boundary-vector norm."""
    return harmonic_report(seq, l, beta_over_alpha).residual


def _local_defects(
    seq: ParamSeq,
    l: int,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local boundary vectors r (l, 6, 2), their scales (l, 6) and closure gaps (l, 6).

    Row s - 1, column e = 2 (slot - 1) + t: the end e of the generation-s
    cables, in the cell coordinates of their prefix.  That vertex is
    corner c of the depth-l cell p j (c+1)^(l-s) (``_vertex_arrays``), whose
    sides there are Q = DF_j^(s) S_c(s) times the base sides, with the
    suffix product S_c(s) = DF_{c+1}^(s+1) ... DF_{c+1}^(l); so the boundary
    vector of every such vertex is DF_p r(s, e, l) for the linear part DF_p
    of its prefix map, and r = tri_pf (+-Q side_a +- Q side_b) +-
    cable_prefactor(s, l) v_slot, signed as the weights of ``_vertex_arrays``.
    The scale adds the norms of the three terms formed from the absolute
    values of every factor (|DF_j| |DF_{c+1}| ... |side|): the size the
    rounding error of r is bounded by.  The gap is the max-norm distance
    from F_j^(s)(corner c) to the cable end.  One backward loop over the
    levels, O(l).
    """
    if l == 0:
        return np.zeros((0, 6, 2)), np.zeros((0, 6)), np.zeros((0, 6))
    lin, off = _level_maps(seq, l, beta_over_alpha)
    # suffix[0, s - 1] = S(s) for the three corners, suffix[1] its |DF| product.
    suffix = np.empty((2, l, 3, 2, 2))
    suffix[:, -1] = np.eye(2)
    for s in range(l - 1, 0, -1):
        suffix[0, s - 1] = lin[s] @ suffix[0, s]
        suffix[1, s - 1] = np.abs(lin[s]) @ suffix[1, s]
    j, c = _END_LETTER - 1, _END_CORNER
    slot, t = np.arange(6) // 2, np.arange(6) % 2
    sides = _side_arrays()[1][_CORNER_SIDE[c]]
    tri_w = np.where(_CORNER_T[c] == 0, 1.0, -1.0) * triangle_edge_prefactor(seq, l)
    tri = tri_w[..., None] * (lin[:, j, None] @ suffix[0][:, c, None] @ sides[..., None])[..., 0]
    tri_size = abs(tri_w)[..., None] * (np.abs(lin[:, j, None]) @ suffix[1][:, c, None] @ np.abs(sides)[..., None])[..., 0]
    starts, vels = _cable_stack(seq, range(1, l + 1), beta_over_alpha)
    pf = np.array([cable_prefactor(seq, s, l) for s in range(1, l + 1)])
    cab = (np.where(t == 0, 1.0, -1.0) * pf[:, None])[..., None] * vels[:, slot]
    r = tri[:, :, 0] + tri[:, :, 1] + cab
    scale = np.hypot(*np.moveaxis(tri_size, -1, 0)).sum(axis=-1) + np.hypot(*np.moveaxis(cab, -1, 0))
    images = (lin[:, j] @ np.stack(base_vertices())[c, :, None])[..., 0] + off[:, j]
    ends = np.where((t == 1)[:, None], starts[:, slot] + vels[:, slot], starts[:, slot])
    return r, scale, np.max(np.abs(images - ends), axis=-1)


def _defect_bound(seq: ParamSeq, l: int) -> float:
    """gamma_n = n u / (1 - n u), n = weak_identity * (l + 2 + sum_{k <= l} |log eps_k|).

    A first-order count of the roundings in ``_local_defects``, in units of
    u relative to the scale, each library exp, log and expm1 allowed one
    ulp (2u).  A level's DF entries carry 6 from log eps_k, and each 2x2
    product of the chain DF_j S_c side adds 2 (Higham ch. 3), so a triangle
    term carries at most 8 l + 1 besides its prefactor.  The prefactors are
    exp(fsum(logs)): the exponent is off by about u per summand |log lam_k| =
    |log 0.6| + 2 |log eps_k| and once more for the sum, so a / lam_tilde(l)
    carries 3 + 2.04 l + 4 sum |log eps_k|, and a cable prefactor with its
    velocity at most 13 + 2.04 l + 4 sum |log eps_k|.  Adding the three
    terms (Higham ch. 4) and the float sqrt(3) and 1/3 cost 6 more.  Both
    totals stay below 12 (l + 2 + sum |log eps_k|).
    """
    n = HARMONIC_GATES["weak_identity"] * (l + 2 + math.fsum(abs(seq.log_eps(k)) for k in range(1, l + 1)))
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _cable_end_name(row: int, e: int) -> str:
    return f"the slot-{e // 2 + 1} cable end t={e % 2} of generation {row + 1}"


def _require_harmonic(seq, l):
    """Refuse a depth-l configuration with an open local star or a defect above ``_defect_bound``."""
    r, scale, gap = _local_defects(seq, l)
    open_ends = np.argwhere(~(gap <= _CLOSURE_TOL))
    if open_ends.size:
        raise StarNotClosed(f"edge ends at {_cable_end_name(*open_ends[0])} do not coincide")
    defect, bound = np.hypot(r[..., 0], r[..., 1]) / scale, _defect_bound(seq, l)
    bad = np.argwhere(~(defect <= bound))
    if bad.size:
        row, e = bad[0]
        raise NonHarmonicError(
            f"depth-{l} residual {defect[row, e]:.3e} exceeds {bound:.1e} relative to its terms at "
            f"{_cable_end_name(row, e)}; boundary terms would pollute the weak identity"
        )


def weak_pairing(seq: ParamSeq, l: int, u: Poly2, v: Poly2, quad=None) -> float:
    """-sum over edges of w_e * integral (u o z)'' (v o z) dt.

    Equals E(u, v) for admissible v (vanishing at the base corners) on a
    harmonic pre-fractal; the arclength factors of density and measure
    cancel, leaving the parameter-space integral.  Evaluated as the
    ``pairing`` form of the energy module's level chain on G = v D^2 u,
    O(l D'^2), and summed with its overflow-guarded ``_fsum``.  ``quad`` takes None only
    (``energy._quad_slot``).
    """
    _quad_slot(quad)
    if not vanishes_at_corners(v):
        raise ValueError(f"test function must vanish at A, B, C; corner values {corner_values(v)}")
    _require_harmonic(seq, l)
    (((sides, cables),),) = _moment_terms(seq, (l,), u, v, ("pairing",))
    return -_fsum(sides + cables)


# -- nondegeneracy constant ------------------------------------------------

#: Points per angle of the full grid of ``nd_gamma_of`` and its rounds of
#: local refinement.
ND_GRID = 720
ND_REFINE = 3
#: Bytes of one row block of an ``nd_gamma_of`` grid (91 rows at ND_GRID).
_ND_BLOCK_BYTES = 1 << 19
#: Margin of a row bound, relative to the grid's largest image entry, and
#: its absolute part for subnormal rounding (``nd_gamma_of``).
_ND_MARGIN = 2.0**-40
_ND_SUBNORMAL = 2.0**-1070
#: Candidate vectors shorter than this, relative to the grid's largest image
#: entry, are divided by it instead of by their length.
_ND_TINY = 2.0**-500


@functools.lru_cache(maxsize=4)
def _nd_candidates(n: int) -> np.ndarray:
    """Coefficients of the candidate vectors of ``_nd_window_min`` over n images:
    w_i + w_j and w_i - w_j for i < j, or w_0 alone if n is 1."""
    coef = np.zeros((max(n * n - n, 1), n))
    coef[0, 0] = 1.0
    row = 0
    for i in range(n):
        for j in range(i + 1, n):
            coef[row : row + 2, i] = 1.0
            coef[row : row + 2, j] = 1.0, -1.0
            row += 2
    coef.flags.writeable = False
    return coef


def _nd_window_min(w, ends=None, exp: int = 0) -> np.ndarray:
    """Per row, min over unit e of max_i |<w_i, e>| for images w (n, m, 2) scaled by 2^-exp.

    e runs over the whole circle, or over the arc from the unit vector
    ends[0] counterclockwise to ends[1], less than a half turn.  Each
    |<w_i, e>| is concave between its zeros, so the minimum lies at an end
    of the arc, where two terms cross (e perpendicular to a candidate
    v = w_i + w_j or w_i - w_j), or where the largest term vanishes; then
    every term vanishes, a crossing too unless there is one term (v = w_0).
    At e perpendicular to v, |<w_k, e>| is |v x w_k| / |v|; a zero v gives
    0, which the minimum is not below.  An end e is the candidate v = (e_y, -e_x), and
    the e perpendicular to v lies on the arc iff <v, ends[0]> and
    <v, ends[1]> do not have the same sign.
    """
    n, m = w.shape[:2]
    coef = _nd_candidates(n)
    c, k = len(coef), 0 if ends is None else 2
    terms = np.empty((n + k, 2, m))
    np.ldexp(np.moveaxis(w, -1, 1), -exp, out=terms[:n])
    v = np.empty((c + k, 2, m))
    np.matmul(coef, terms[:n].reshape(n, 2 * m), out=v[:c].reshape(c, 2 * m))
    if k:
        v[c:] = (ends[:, ::-1] * (1.0, -1.0))[..., None]
        terms[n:] = -v[c:]
    cross = v[:, None, 0] * terms[:, 1]
    cross -= v[:, None, 1] * terms[:, 0]
    outside = cross[:, n] * cross[:, n + 1] > 0.0 if k else None
    vals = np.abs(cross, out=cross)[:, :n].max(axis=1) / np.maximum(np.sqrt(np.square(v).sum(axis=1)), _ND_TINY)
    if k:
        vals[outside] = np.inf
    return vals.min(axis=0)


def _nd_grid(mats, tc, te, width, m):
    """(thetas, phis, es, images) of an m x m ``nd_gamma_of`` grid of the given width
    around (tc, te): es are the unit vectors e(phi), images[i, r] = M_i c(theta_r)."""
    steps = np.arange(m) / m - 0.5
    thetas, phis = tc + width * steps, te + width * steps
    cs, es, images = np.empty((m, 2)), np.empty((m, 2)), np.empty((len(mats), m, 2))
    cs[:, 0], cs[:, 1], es[:, 0], es[:, 1] = np.cos(thetas), np.sin(thetas), np.cos(phis), np.sin(phis)
    for image, mat in zip(images, mats):
        np.matmul(cs, mat.T, out=image)
    return thetas, phis, es, images


def _nd_row_bounds(images, es, whole: bool) -> np.ndarray:
    """A lower bound of every grid value in each row of an ``nd_gamma_of`` grid.

    ``_nd_window_min`` over the phi window, or over the circle if the grid is
    ``whole`` (both angles over the whole circle), of the images scaled by a
    power of two to a largest entry in [1/2, 1), less _ND_MARGIN, scaled
    back, less _ND_SUBNORMAL; -inf for every row if an image overflowed.  On
    a whole grid of even size row r + m/2 takes row r's bound: its c is -c
    up to rounding, which the margin covers, and -c has the values of c.
    """
    top, m = float(np.abs(images).max()), images.shape[1]
    if not math.isfinite(top):
        return np.full(m, -math.inf)
    exp = math.frexp(top)[1]
    if whole and m % 2 == 0:
        mins = np.tile(_nd_window_min(images[:, : m // 2], exp=exp), 2)
    else:
        mins = _nd_window_min(images, None if whole else es[[0, -1]], exp)
    return np.ldexp(mins - _ND_MARGIN, exp) - _ND_SUBNORMAL


def _nd_rows(images, idx, es, acc, buf) -> np.ndarray:
    """Grid values max_i |<images[i, r], e>| of the rows r in idx (at least two), in acc."""
    rows, acc, buf = images[:, idx], acc[: len(idx)], buf[: len(idx)]
    np.abs(np.matmul(rows[0], es.T, out=acc), out=acc)
    for image in rows[1:]:
        np.maximum(acc, np.abs(np.matmul(image, es.T, out=buf), out=buf), out=acc)
    return acc


def nd_gamma_of(mats) -> float:
    """Grid minimum over unit (c, e) of max_i |<M_i c, e>|, for finite M_i.

    ND_GRID x ND_GRID angular grid, then ND_REFINE rounds of 241 x 241 grids
    around the running minimizer, each reduced to its first strict minimum in
    C order.  The objective is Lipschitz in the two angles, so the value
    exceeds the true minimum by less than max_i ||M_i|| * 2 pi / ND_GRID;
    refinement keeps the coarse basin, so that gap stays (1.9e-5 relative for
    the harmonic triple).

    Each round is a branch and bound over the rows theta_r (Horst & Tuy,
    Global Optimization, 3rd ed., 1996).  With w_i = M_i c(theta_r), the
    row's grid values are max_i |<w_i, e(phi)>| at the round's phi, and
    ``_nd_row_bounds`` bounds them from below by the exact minimum of that
    function over the phi window (the whole circle in the first round):
    each |<w_i, e>| is concave between its zeros, so the minimum lies at an
    end of the window, at a zero (e perpendicular to w_i) or at a crossing
    (e perpendicular to w_i -/+ w_j).  The bound is less a margin for
    rounding: the bound and the grid values each err by a few tens of ulps
    of the grid's largest image entry, and the margin is at least 2^-40 of
    it, plus 2^-1070 for the absolute rounding of subnormal products.  The
    best-bounded row and its neighbour give a grid value u; a row bounded
    above u holds only values above u and is not evaluated, so the first
    strict minimum in C order, and the returned double, are those of the
    whole grid.  A NaN bound never exceeds u, and images that overflow
    bound no row.  The other rows are reduced in row blocks of
    _ND_BLOCK_BYTES, gathered at least two at a time: numpy sends a one-row
    product to GEMV, which rounds otherwise than the grid's GEMM.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("nondegeneracy matrices must be finite")

    def grid_min(tc, te, width, m):
        thetas, phis, es, images = _nd_grid(mats, tc, te, width, m)

        def scan(idx, acc, buf, val, at):
            acc = _nd_rows(images, idx, es, acc, buf)
            k = int(np.argmin(acc))
            here = int(idx[k // m]) * m + k % m
            return (float(acc.flat[k]), here) if acc.flat[k] < val or (acc.flat[k] == val and here < at) else (val, at)

        bounds = _nd_row_bounds(images, es, whole=width > math.pi)
        first = max(int(np.argmin(bounds)), 1) - 1
        val, at = scan(np.arange(first, first + 2), *np.empty((2, 2, m)), math.inf, 0)
        bounds[first : first + 2] = math.inf
        live, rows = np.flatnonzero(~(bounds > val)), _ND_BLOCK_BYTES // (8 * m)
        if len(live) % rows == 1:
            live = np.append(live, live[-1])
        acc, buf = np.empty((2, min(rows, len(live)), m))
        for r0 in range(0, len(live), rows):
            val, at = scan(live[r0 : r0 + rows], acc, buf, val, at)
        return val, float(thetas[at // m]), float(phis[at % m])

    two_pi = 2.0 * math.pi
    val, tc, te = grid_min(math.pi, math.pi, two_pi, ND_GRID)
    span = two_pi / ND_GRID
    for _ in range(ND_REFINE):
        val, tc, te = grid_min(tc, te, 2.0 * span, 241)
        span = 2.0 * span / 241
    return val


@functools.lru_cache(maxsize=4096)
def _nd_gamma_cached(eps: float, beta_over_alpha: float) -> float:
    return nd_gamma_of(triple(eps, beta_over_alpha)[0])


def nd_gamma(eps_i: float, beta_over_alpha: float = HARMONIC_RATIO) -> float:
    """Nondegeneracy constant of the stretch-eps_i contraction triple.

    Strictly positive iff no direction c has all three images DF_i c
    orthogonal to a common direction.  The exact minimum scales linearly in
    eps_i because every DF_i does; the grid's value does only while each
    round's argmin stays in the same basin.  At the harmonic ratio the
    objective has near-tied minima, and the rounding of a scaled triple can
    move the coarse or the first refined argmin to another one: over 60 eps_i
    in [0.01, 0.99], nd_gamma(eps_i) / (eps_i nd_gamma(1)) is off by 5.5e-7
    for 11 of them, against at most 1.1e-15 at ratios 0.25, 0.5, 2, -1,
    -0.6 and 1e3.  Each distinct (eps_i, ratio) pair is searched once:
    the value is kept in a process-wide cache bounded by entry count, so a
    constant-tail sequence's levels share one grid.  An invalid eps_i or
    ratio raises on every call, since no exception is cached.
    """
    return _nd_gamma_cached(float(eps_i), float(beta_over_alpha))
