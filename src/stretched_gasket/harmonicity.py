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
interior vertex is one cable end, and the stars are index gathers on the
geometry module's world arrays (``_vertex_arrays``), O(3^l) array work
without an edge walk; ``vertex_stars`` returns them as one record array.
The weak pairing is a contraction of the energy module's moment pass with
(u o z)'' (v o z) in place of (u o z)' (v o z)', O(l D^3); the weak
Laplacian composes u with every edge of the edge table at once.

The residual probes (``vertex_stars``, ``harmonic_report``,
``harmonic_residual``) and ``nd_gamma`` take the map ratio beta/alpha, so
perturbed families can be shown to break the vertex balance.  The weak
pairing and the weak Laplacian are defined for the harmonic family only,
like the forms they contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .energy import _contractions, _terms, _top_moment, resolve_quadrature
from .errors import NonHarmonicError, StarNotClosed
from .geometry import (
    HARMONIC_RATIO,
    SIDE_NAMES,
    _world,
    cable_prefactor,
    prefractal_edges,
    triangle_edge_prefactor,
    triple,
)
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq
from .scalarfield import Poly2, _compose_line, corner_values, poly1_derivative, vanishes_at_corners

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
#: The two sides meeting at corners A, B, C (indices into SIDE_NAMES, in
#: that order) and the endpoint t of each there.
_CORNER_ENDS = [[(i, t) for i, name in enumerate(SIDE_NAMES) for cc, t in _SIDE_CORNERS[name] if cc == c] for c in CORNER_NAMES]
_CORNER_SIDE, _CORNER_T = np.moveaxis(np.array(_CORNER_ENDS), 2, 0)

#: Harmonic-residual gates by role, relative to the energy constant a.
#: ``assertion``: the CLI's harmonicity check (exit 2 above it).
#: ``weak_identity``: the precondition of the weak Laplacian and the weak
#: pairing, whose vertex boundary terms it bounds.
HARMONIC_GATES = MappingProxyType({"assertion": 1e-10, "weak_identity": 1e-8})


def _word_codes(k: int) -> np.ndarray:
    """Every length-k word as base-4 digits, lexicographic: code order is tuple order."""
    codes = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        codes = (4 * codes[:, None] + np.arange(1, 4)).ravel()
    return codes


def _vertex_name(key: int, l: int) -> tuple[tuple[int, ...], str]:
    """(word, corner) of the depth-l vertex with sort key ``key``."""
    code, corner = divmod(int(key), 3)
    return tuple(d for d in (code // 4 ** (l - 1 - n) % 4 for n in range(l)) if d), CORNER_NAMES[corner]


def _vertex_arrays(seq: ParamSeq, l: int, constants: Constants, beta_over_alpha: float):
    """Every depth-l vertex in (word, corner) order: (keys, weights, tangents, points).

    Members of a vertex: the two sides of its depth-l cell there (SIDE_NAMES
    order), then its cable end; weights (V, 3) are their prefactors, negated
    at endpoint t = 1, tangents (V, 3, 2) their world tangents.  Base corners
    come first, without cable (weight 0).  The end of a generation-s cable
    with prefix index p touches corner c of the cell with letter j, owned by
    the depth-l cell (3p + j - 1) 3^(l-s) + c (3^(l-s) - 1)/2 (letter c + 1
    fixes corner c).  A key is the vertex word in base-4 digits padded to
    length l, times 3, plus the corner.  All gathered from ``_world``.
    """
    corner_img, side_tan, world_cables = _world(seq, l, beta_over_alpha)
    base = np.arange(3)
    keys, cells, corners = [base], [base * ((3**l - 1) // 2)], [base]
    cable_w, cable_tan, cable_pts = [np.zeros(3)], [np.zeros((3, 2))], [corner_img[cells[0], base]]
    for s, (starts, ends, vels) in enumerate(world_cables, start=1):
        n, below = len(starts), 3 ** (l - s)
        j, c = np.tile(_END_LETTER, n), np.tile(_END_CORNER, n)
        keys.append(3 * (4 * np.repeat(_word_codes(s - 1), 6) + j) * 4 ** (l - s) + c)
        cells.append((3 * np.repeat(np.arange(n), 6) + j - 1) * below + c * ((below - 1) // 2))
        corners.append(c)
        pf = cable_prefactor(seq, s, l, constants)
        cable_w.append(np.tile([pf, -pf], 3 * n))
        cable_tan.append(np.repeat(vels, 2, axis=1).reshape(-1, 2))
        cable_pts.append(np.stack([starts, ends], axis=2).reshape(-1, 2))
    order = np.argsort(np.concatenate(keys))
    keys, cells, corners, cable_w, cable_tan, cable_pts = (
        np.concatenate(a)[order] for a in (keys, cells, corners, cable_w, cable_tan, cable_pts)
    )
    points = corner_img[cells, corners]
    bad = np.flatnonzero(np.max(np.abs(cable_pts - points), axis=1) > 1e-12)
    if bad.size:
        word, corner = _vertex_name(keys[bad[0]], l)
        raise StarNotClosed(f"edge ends at vertex {word}/{corner} do not coincide")
    tri_pf = triangle_edge_prefactor(seq, l, constants)
    weights = np.column_stack([np.where(_CORNER_T[corners] == 0, tri_pf, -tri_pf), cable_w])
    tangents = np.concatenate([side_tan[cells[:, None], _CORNER_SIDE[corners]], cable_tan[:, None]], axis=1)
    return keys, weights, tangents, points


def _boundary(weights: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Each vertex's boundary vector: the sum over its members of weight * tangent."""
    terms = weights[..., None] * tangents
    return terms[:, 0] + terms[:, 1] + terms[:, 2]


def vertex_stars(
    seq: ParamSeq,
    l: int,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> np.recarray:
    """All depth-l vertex stars, a row per vertex, sorted by (word, corner).

    Columns: the sort ``key`` of ``_vertex_arrays`` (the vertex word in
    base-4 digits padded to length l, times 3, plus the corner index), the
    vertex ``x``, ``y``, the signed member ``weight`` (3,) and world
    ``tangent`` (3, 2) (two cell sides, then the cable end; a base corner
    has weight 0 in the cable place), and the ``boundary`` vector (2,), the
    vertex boundary term's pairing with gradients.  ``_vertex_arrays``
    checks every star for closure (its edge ends meet at one point).
    """
    keys, weights, tangents, points = _vertex_arrays(seq, l, constants, beta_over_alpha)
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
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> HarmonicityReport:
    """Max interior boundary-vector norm with the worst vertex named.

    The worst vertex is the first strict maximum in (word, corner) order,
    unnamed when every norm is 0.  Base-corner sums are reported
    separately (they do not vanish; test functions do, at those three
    points).
    """
    keys, weights, tangents, _ = _vertex_arrays(seq, l, constants, beta_over_alpha)
    norms = np.hypot(*_boundary(weights, tangents).T)
    interior = norms[3:]
    worst = float(np.max(interior, initial=0.0, where=~np.isnan(interior)))
    word, corner = _vertex_name(keys[3 + np.argmax(interior == worst)], l) if worst > 0.0 else ((), "")
    return HarmonicityReport(l, worst, word, corner, len(interior), dict(zip(CORNER_NAMES, norms[:3].tolist())))


def harmonic_residual(
    seq: ParamSeq,
    l: int,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> float:
    """Max over interior depth-l vertices of the boundary-vector norm."""
    return harmonic_report(seq, l, constants, beta_over_alpha).residual


def _require_harmonic(seq, l, constants):
    gate = HARMONIC_GATES["weak_identity"] * constants.a
    res = harmonic_residual(seq, l, constants)
    if res > gate:
        raise NonHarmonicError(
            f"depth-{l} residual {res:.3e} exceeds {gate:.1e}; "
            "boundary terms would pollute the weak identity"
        )


def weak_laplacian_h1(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[np.recarray, np.ndarray]:
    """Per-edge density of the weak Laplacian against arclength measure.

    On edge e with prefactor w_e, world parametrization z and length L_e,
    the density along the edge is g(z(t)) = w_e (u o z)''(t) / L_e.
    Returns (edges, densities): the ``prefractal_edges`` table and, in row
    e, the ascending t-coefficients of g on edge e.  Pairing any admissible
    v against g dH^1 over all edges reproduces -E(u, v); see weak_pairing.
    Requires the configuration to be harmonic.
    """
    _require_harmonic(seq, l, constants)
    edges = prefractal_edges(seq, l, constants)
    coeffs = _compose_line(u, edges.px, edges.py, edges.vx, edges.vy)
    c = np.column_stack([np.broadcast_to(a, len(edges)) for a in coeffs])
    scale = edges.prefactor / np.hypot(edges.vx, edges.vy)
    return edges, scale[:, None] * poly1_derivative(poly1_derivative(c))


def weak_pairing(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    constants: Constants = DEFAULT_CONSTANTS,
    quad=None,
) -> float:
    """-sum over edges of w_e * integral (u o z)'' (v o z) dt.

    Equals E(u, v) for admissible v (vanishing at the base corners) on a
    harmonic pre-fractal; the arclength factors of density and measure
    cancel, leaving the parameter-space integral.  Evaluated as the
    side form a (m_a o z)'' (m_b o z) and the cable forms of each
    generation contracted with the plain (not symmetrized) moment pass,
    O(l D^3).
    """
    if not vanishes_at_corners(v):
        raise ValueError(f"test function must vanish at A, B, C; corner values {corner_values(v)}")
    quad = resolve_quadrature(quad, u.degree, v.degree)
    _require_harmonic(seq, l, constants)
    d = max(u.degree, v.degree, 0)
    tops = _top_moment(u, v, d, symmetric=False)[None]
    ((parts,),) = _contractions(seq, (l,), d, quad, constants, tops, [(None, (2, 0))])
    sides, cables = _terms(parts)
    return -math.fsum(sides + cables)


# -- nondegeneracy constant ------------------------------------------------

#: Points per angle of the full grid of ``nd_gamma_of`` and its rounds of
#: local refinement.
ND_GRID = 720
ND_REFINE = 3
#: Bytes of one row block of an ``nd_gamma_of`` grid (91 rows at ND_GRID).
_ND_BLOCK_BYTES = 1 << 19


def nd_gamma_of(mats) -> float:
    """Grid minimum over unit (c, e) of max_i |<M_i c, e>|, for finite M_i.

    ND_GRID x ND_GRID angular grid, then ND_REFINE rounds of 241 x 241 grids
    around the running minimizer, each reduced in row blocks of _ND_BLOCK_BYTES
    to its first strict minimum in C order (bit-identical to the whole grid).
    The objective is Lipschitz in the two angles, so the value exceeds the true
    minimum by less than max_i ||M_i|| * 2 pi / ND_GRID; refinement keeps the
    coarse basin, so that gap stays (1.9e-5 relative for the harmonic triple).
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("nondegeneracy matrices must be finite")

    def grid_min(tc, sc, te, se, m):
        thetas = tc + sc * (np.arange(m) / m - 0.5)
        phis = te + se * (np.arange(m) / m - 0.5)
        cs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        es = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        images, rows = [cs @ mat.T for mat in mats], _ND_BLOCK_BYTES // (8 * m)
        acc_rows, buf_rows = np.empty((2, rows, m))
        val, at = math.inf, 0
        for r0 in range(0, m, rows):
            acc, buf = acc_rows[: m - r0], buf_rows[: m - r0]
            np.abs(np.matmul(images[0][r0 : r0 + rows], es.T, out=acc), out=acc)
            for image in images[1:]:
                np.maximum(acc, np.abs(np.matmul(image[r0 : r0 + rows], es.T, out=buf), out=buf), out=acc)
            k = int(np.argmin(acc))
            if acc.flat[k] < val:
                val, at = float(acc.flat[k]), r0 * m + k
        return val, float(thetas[at // m]), float(phis[at % m])

    two_pi = 2.0 * math.pi
    val, tc, te = grid_min(math.pi, two_pi, math.pi, two_pi, ND_GRID)
    span = two_pi / ND_GRID
    for _ in range(ND_REFINE):
        val, tc, te = grid_min(tc, 2.0 * span, te, 2.0 * span, 241)
        span = 2.0 * span / 241
    return val


def nd_gamma(eps_i: float, beta_over_alpha: float = HARMONIC_RATIO) -> float:
    """Nondegeneracy constant of the stretch-eps_i contraction triple.

    Strictly positive iff no direction c has all three images DF_i c
    orthogonal to a common direction; scales linearly in eps_i because
    every DF_i does.
    """
    return nd_gamma_of([f.linear for f in triple(eps_i, beta_over_alpha)])
