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
separately since admissible test functions vanish there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHarmonicError, StarNotClosed
from .geometry import (
    HARMONIC_RATIO,
    EdgeId,
    prefractal_edges,
    triple,
)
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq
from .scalarfield import (
    Poly2,
    compose_with_segment,
    corner_values,
    poly1_derivative,
    poly1_eval,
    vanishes_at_corners,
)

CORNER_NAMES = ("A", "B", "C")
_CORNER_INDEX = {"A": 0, "B": 1, "C": 2}
#: Letter of the map fixing each corner.
_CORNER_LETTER = {"A": 1, "B": 2, "C": 3}
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


def canonical_vertex(word: tuple[int, ...], corner: str) -> tuple[tuple[int, ...], str]:
    """Minimal (word, corner) naming a pre-fractal vertex.

    F_w(P) is unchanged by appending the letter whose map fixes P, so the
    canonical name strips those trailing letters; an empty word names a
    base corner of the whole gasket.
    """
    fix = _CORNER_LETTER[corner]
    k = len(word)
    while k > 0 and word[k - 1] == fix:
        k -= 1
    return word[:k], corner


@dataclass(frozen=True, eq=False)
class VertexStar:
    """One vertex with its incident edges at a fixed depth.

    ``edges`` holds (edge id, endpoint t in {0,1}, prefactor, tangent of
    the parametrized edge at the vertex, in world coordinates).
    ``generation`` is the length of the minimal word; 0 means a base
    corner of the gasket.
    """

    word: tuple[int, ...]
    corner: str
    generation: int
    depth: int
    vertex: np.ndarray
    edges: tuple[tuple[EdgeId, int, float, np.ndarray], ...]

    @property
    def is_interior(self) -> bool:
        return self.generation >= 1


def vertex_stars(
    seq: ParamSeq,
    l: int,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> list[VertexStar]:
    """All depth-l vertex stars, sorted by (word, corner).

    Assembled by walking the depth-l edge list and grouping endpoints
    under canonical vertex names; every group is validated for closure
    (interior: two triangle sides plus one cable meeting at one point).
    """
    groups: dict[tuple[tuple[int, ...], str], list] = {}
    for eid, seg, amap in prefractal_edges(seq, l, constants, beta_over_alpha):
        tangent = amap.linear @ seg.velocity
        if eid.kind == "tri":
            for corner, t_end in _SIDE_CORNERS[eid.side]:
                key = canonical_vertex(eid.word, corner)
                point = amap(seg.p if t_end == 0 else seg.q)
                groups.setdefault(key, []).append((eid, t_end, eid.prefactor, tangent, point))
        else:
            for t_end in (0, 1):
                j, corner = _CABLE_ENDS[(eid.slot, t_end)]
                key = (eid.word + (j,), corner)
                point = amap(seg.p if t_end == 0 else seg.q)
                groups.setdefault(key, []).append((eid, t_end, eid.prefactor, tangent, point))
    stars = []
    for key in sorted(groups, key=lambda k: (k[0], _CORNER_INDEX[k[1]])):
        word, corner = key
        members = groups[key]
        n_tri = sum(1 for m in members if m[0].kind == "tri")
        n_cab = len(members) - n_tri
        want_cab = 1 if word else 0
        if n_tri != 2 or n_cab != want_cab:
            raise StarNotClosed(
                f"vertex {word}/{corner} at depth {l} has {n_tri} sides and {n_cab} cables"
            )
        pts = np.stack([m[4] for m in members])
        if float(np.max(np.abs(pts - pts[0]))) > 1e-12:
            raise StarNotClosed(f"edge ends at vertex {word}/{corner} do not coincide")
        stars.append(
            VertexStar(
                word,
                corner,
                len(word),
                l,
                pts[0],
                tuple((m[0], m[1], m[2], m[3]) for m in members),
            )
        )
    return stars


def boundary_vector(seq: ParamSeq, l: int, star: VertexStar) -> np.ndarray:
    """The vector pairing against gradients in the vertex boundary term.

    Sum over incident edges of prefactor * (-1)^endpoint * tangent; the
    boundary term of the form at this vertex is <grad u(vertex), vector>
    for any C^1 u, so the vertex is harmonic iff the vector vanishes.
    """
    if star.depth != l:
        raise ValueError(f"star was assembled at depth {star.depth}, not {l}")
    acc = np.zeros(2)
    for _, t_end, prefactor, tangent in star.edges:
        acc += (prefactor if t_end == 0 else -prefactor) * tangent
    return acc


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

    Base-corner sums are reported separately (they do not vanish; test
    functions do, at those three points).
    """
    stars = vertex_stars(seq, l, constants, beta_over_alpha)
    worst = 0.0
    worst_word: tuple[int, ...] = ()
    worst_corner = ""
    n_int = 0
    corner_norms: dict[str, float] = {}
    for star in stars:
        vec = boundary_vector(seq, l, star)
        nrm = float(np.hypot(*vec))
        if star.is_interior:
            n_int += 1
            if nrm > worst:
                worst, worst_word, worst_corner = nrm, star.word, star.corner
        else:
            corner_norms[star.corner] = nrm
    return HarmonicityReport(l, worst, worst_word, worst_corner, n_int, corner_norms)


def harmonic_residual(
    seq: ParamSeq,
    l: int,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> float:
    """Max over interior depth-l vertices of the boundary-vector norm."""
    return harmonic_report(seq, l, constants, beta_over_alpha).residual


#: Residual gate for operations that assume a harmonic pre-fractal.
_HARMONIC_GATE = 1e-8


def _require_harmonic(seq, l, constants, beta_over_alpha):
    res = harmonic_residual(seq, l, constants, beta_over_alpha)
    if res > _HARMONIC_GATE * constants.a:
        raise NonHarmonicError(
            f"depth-{l} residual {res:.3e} exceeds {_HARMONIC_GATE * constants.a:.1e}; "
            "boundary terms would pollute the weak identity"
        )


def weak_laplacian_h1(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
) -> list[tuple[EdgeId, np.ndarray]]:
    """Per-edge density of the weak Laplacian against arclength measure.

    On edge e with prefactor w_e, world parametrization z and length L_e,
    the density along the edge is g(z(t)) = w_e (u o z)''(t) / L_e;
    returned as ascending t-coefficients per edge.  Pairing any
    admissible v against g dH^1 over all edges reproduces -E(u, v); see
    weak_pairing.  Requires the configuration to be harmonic.
    """
    _require_harmonic(seq, l, constants, beta_over_alpha)
    out = []
    for eid, seg, amap in prefractal_edges(seq, l, constants, beta_over_alpha):
        c = compose_with_segment(u, amap, seg)
        c2 = poly1_derivative(poly1_derivative(c))
        length = float(np.hypot(*(amap.linear @ seg.velocity)))
        out.append((eid, eid.prefactor / length * c2))
    return out


def weak_pairing(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    constants: Constants = DEFAULT_CONSTANTS,
    beta_over_alpha: float = HARMONIC_RATIO,
    quad=None,
) -> float:
    """-sum over edges of w_e * integral (u o z)'' (v o z) dt.

    Equals E(u, v) for admissible v (vanishing at the base corners) on a
    harmonic pre-fractal; the arclength factors of density and measure
    cancel, leaving the parameter-space integral.
    """
    from .energy import resolve_quadrature

    if not vanishes_at_corners(v):
        raise ValueError(f"test function must vanish at A, B, C; corner values {corner_values(v)}")
    quad = resolve_quadrature(quad, u.degree, v.degree)
    _require_harmonic(seq, l, constants, beta_over_alpha)
    parts = []
    for eid, seg, amap in prefractal_edges(seq, l, constants, beta_over_alpha):
        cu = poly1_derivative(poly1_derivative(compose_with_segment(u, amap, seg)))
        cv = compose_with_segment(v, amap, seg)
        parts.append(
            eid.prefactor * float((poly1_eval(cu, quad.nodes) * poly1_eval(cv, quad.nodes)) @ quad.weights)
        )
    return -math.fsum(parts)


# -- nondegeneracy constant ------------------------------------------------


def nd_gamma_of(mats, n: int = 720, refine: int = 3) -> float:
    """Grid minimum over unit (c, e) of max_i |<M_i c, e>|.

    Full n x n angular grid, then ``refine`` rounds of local grids shrunk
    around the running minimizer.  The objective is Lipschitz in the two
    angles, so the coarse-grid slack is below max_i ||M_i|| * (2 pi / n);
    refinement narrows the reported minimum itself.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]

    def grid_min(tc, sc, te, se, m):
        thetas = tc + sc * (np.arange(m) / m - 0.5)
        phis = te + se * (np.arange(m) / m - 0.5)
        cs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        es = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        vals = np.max(np.stack([np.abs(cs @ mat.T @ es.T) for mat in mats]), axis=0)
        j, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        return float(vals[j, k]), float(thetas[j]), float(phis[k])

    two_pi = 2.0 * math.pi
    val, tc, te = grid_min(math.pi, two_pi, math.pi, two_pi, n)
    span = two_pi / n
    for _ in range(refine):
        val, tc, te = grid_min(tc, 2.0 * span, te, 2.0 * span, 241)
        span = 2.0 * span / 241
    return val


def nd_gamma(eps_i: float, beta_over_alpha: float = HARMONIC_RATIO, n: int = 720, refine: int = 3) -> float:
    """Nondegeneracy constant of the stretch-eps_i contraction triple.

    Strictly positive iff no direction c has all three images DF_i c
    orthogonal to a common direction; scales linearly in eps_i because
    every DF_i does.
    """
    return nd_gamma_of([f.linear for f in triple(eps_i, beta_over_alpha)], n, refine)
