"""Edge-by-edge reference routes for the depth-l forms and the vertex arrays.

The package reads every depth-l form from one level chain of symmetric
matrix polynomials (``energy._readouts``), and the vertex diagnostics, the edge table and
the geometry export from row ranges of one carrier walk
(``geometry._carrier_walk``).  The routes here enumerate the 3^l cells and
their edges instead: the whole world arrays (``_world``), which every edge
row and vertex star must reproduce bit for bit, the batched edge tableau
(the edge table's columns, used only against the forms), the weak
Laplacian's per-edge densities (``weak_laplacian_h1``, the edge-by-edge
form of ``weak_pairing``), an edge walk that composes each word's map on
its own and carries each edge's ``EdgeId``, one segment's composed
polynomial, or word tables plus cylinder matrices.  The package holds every map as a
(linear, offset) pair of arrays and composes maps in one place
(``geometry._word_levels``); the object oracle here (``AffineMap2``,
``Segment`` and ``compose_objects``, one ``AffineMap2.compose`` per
letter) composes them on its own, and the edge walk, the per-edge
energies and the per-word routes' references are built on it.  The
package's two products, a level's GEMM and the image table, are one BLAS
call each; their stacked per-row forms (``level_products_stacked``,
``images_stacked``) are the bit oracle they must reproduce.  They
share no code with the chain or the gathers beyond the map
triples and the cable segments, so agreement is a real cross-check; the
edge-by-edge routes build their Gauss rules from numpy's ``leggauss``
(``gauss_rule``), at the moment pass's order unless a test names one.
The moment pass (``moment_terms``), which the chain replaced in the
package, is the chain's oracle: it pushes D x D field moments through the
package's level pullbacks and contracts them with Gauss Grams, sharing
nothing else with the chain.  ``fold_backward`` is its adjoint: the same
level pullbacks and Grams, aggregated from the bottom cell up.  The
``*_by_passes`` residuals run one chain per pulled-back field pair, where
the package stacks the three into one.
The nondegeneracy constant has two references: the
whole-grid reduction that the blocked grid must reproduce bit for bit,
and a closed-form inner minimum that bounds its accuracy.  The cylinder
tables have three: einsum contractions of the same fixed level factors
(bit for bit), each sequence's own scaled map products (to rounding), and
the exact cylinder matrices in Q(sqrt3), rounded to 50 digits only when
compared.  The level operator's Perron eigenpair, which the package
takes in closed form, is found here by power iteration from the identity.
The enumerating paths that the package walks in 3^7-row blocks keep
their whole-table forms here, which the blocks must reproduce bit for bit:
the measure energy's gasket sum over the whole word and cylinder tables,
and the vertex stars gathered from the whole world arrays, sorted once,
with the harmonicity report reduced from them.
The IBP measure side's cell sum has two references: the enumerated one
(``gasket_hessian_sum``) and the measure's level operators run on
G = v D^2 phi (``ibp_gasket_half``), in O(l) to the depth cap.
The quantities and helpers that only the tests read live here too: the
word enumeration, the cable part of a form, Horner evaluation of a
univariate polynomial, the plane rotation, the edge counts, one IBP row,
the level operator's 3x3 matrix in a symmetric basis and the total cable
mass.
"""

import csv
import decimal
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stretched_gasket.energy import (
    _CONJUGATIONS,
    _EXT,
    EnergyReport,
    _centering,
    _degrees,
    _fields,
    _gradient_top,
    _moment_terms,
    _plain_coeffs,
    _pullback,
    _readouts,
    _report,
    _split,
    _tableau,
    cable_tail_bound,
    energy_total,
)
from stretched_gasket.errors import DegenerateCable, PrefactorUnderflow
from stretched_gasket.geometry import (
    _LEVEL_FACTORS,
    HARMONIC_RATIO,
    SIDE_NAMES,
    _cable_stack,
    _images,
    _side_arrays,
    _triple_index,
    _word_levels,
    barycenter,
    base_vertices,
    cable_prefactor,
    cable_prefactor_limit,
    cable_segments,
    prefractal_edges,
    triangle_edge_prefactor,
    triple,
    word_table,
)
from stretched_gasket.harmonicity import (
    _CABLE_ENDS,
    _CORNER_INDEX,
    _CORNER_SIDE,
    _CORNER_T,
    _END_CORNER,
    _END_LETTER,
    _SIDE_CORNERS,
    CORNER_NAMES,
    ND_GRID,
    ND_REFINE,
    _vertex_name,
)
from stretched_gasket.kusuoka import (
    _cable_weight,
    _level_scale,
    cable_mass,
    cable_masses,
    gibbs_tau,
    kappa_table,
    ruelle_apply,
    tau_table,
)
from stretched_gasket.laplacian import KAPPA_FLOOR, _laplacian_values, ibp_table, laplacian_samples, teplyaev
from stretched_gasket.scalarfield import Poly2, _compose_affine, _dense, hess_batch, sup_bounds

#: The form constant a = b of the triangle edges and the cables, 1/3 as in the package.
_A = 1.0 / 3.0


def grad_batch(p, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of p evaluated on arrays of matching shape, one ``eval_batch`` per partial."""
    gx, gy = p.grad()
    return gx.eval_batch(xs, ys), gy.eval_batch(xs, ys)


def poly1_derivative(coeffs: np.ndarray) -> np.ndarray:
    """d/dt of ascending univariate coefficients (along the last axis)."""
    if coeffs.shape[-1] <= 1:
        return np.zeros(coeffs.shape[:-1] + (1,))
    return coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])


def level_rows(seq, l, start, stop, beta_over_alpha=HARMONIC_RATIO):
    """Affine parts (lin, off) of the depth-l words start..stop-1 at any ratio: the last level
    of ``_word_levels``, as ``_word_rows`` reads it at the harmonic ratio."""
    *_, (first, lin, off) = _word_levels(seq, l, start, stop, beta_over_alpha)
    return lin[start - first : stop - first], off[start - first : stop - first]


def _world(seq, l, beta_over_alpha=HARMONIC_RATIO):
    """The depth-l pre-fractal in world coordinates: (corners, sides, cables).

    ``corners`` (3^l, 3, 2) holds F_w(A), F_w(B), F_w(C) in word order,
    ``sides`` (3^l, 3, 2) the world velocities of the sides in SIDE_NAMES
    order, and ``cables`` for each generation s = 1..l the (starts, ends,
    velocities) of its cables, each (3^(s-1), 3, 2) in (prefix, slot)
    order.  Every point and tangent is one ``_images`` matvec of its
    word's row of the whole level (``level_rows``).
    """
    lin, off = level_rows(seq, l, 0, 3**l, beta_over_alpha)
    corners = _images(lin, np.stack(base_vertices())) + off[:, None]
    cables = []
    for s, p, v in zip(range(1, l + 1), *_cable_stack(seq, range(1, l + 1), beta_over_alpha)):
        plin, poff = level_rows(seq, s - 1, 0, 3 ** (s - 1), beta_over_alpha)
        # Starts, ends p + v (as cable_segments has them) and velocities in one matvec.
        images = _images(plin, np.concatenate([p, p + v, v]))
        cables.append((images[:, :3] + poff[:, None], images[:, 3:6] + poff[:, None], images[:, 6:]))
    return corners, _images(lin, _side_arrays()[1]), cables


def world_edge_table(seq, l):
    """The depth-l edge table gathered from the whole world arrays, with the columns of
    ``prefractal_edges``: triangle edges in (word, side) order, then each generation's cables
    in (prefix, slot) order."""
    corners, sides, cables = _world(seq, l)
    sizes = [3 * 3**l] + [3**s for s in range(1, l + 1)]
    word = np.concatenate([np.arange(n // 3).repeat(3) for n in sizes])
    slot = np.concatenate([np.tile(np.arange(3) + (s > 0), n // 3) for s, n in enumerate(sizes)])
    pf = np.repeat([triangle_edge_prefactor(seq, l)] + [cable_prefactor(seq, s, l) for s in range(1, l + 1)], sizes)
    # Sides AB, BC, AC run from corners A, B, A to corners B, C, C.
    tri = (corners[:, [0, 1, 0]], corners[:, [1, 2, 2]], sides)
    p, q, v = (np.concatenate([a.reshape(-1, 2) for a in arrs]) for arrs in zip(tri, *cables))
    columns = [np.repeat(np.arange(l + 1), sizes), word, slot, pf, *p.T, *q.T, *v.T]
    return np.rec.fromarrays(columns, names="generation,word,slot,prefactor,px,py,qx,qy,vx,vy")


def _conv(a: list, b: list) -> list:
    """Product of ascending coefficient lists; entries may be floats or equal-shape arrays."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _compose_line(p, x0, y0, dx, dy) -> list:
    """Coefficients (ascending in t) of p(x0 + t dx, y0 + t dy) by binomial expansion of the
    two affine coordinates; given arrays of coordinates, each coefficient is the array over
    those lines."""
    if not p.coeffs:
        return [0.0]
    xpows, ypows = [[1.0]], [[1.0]]
    for _ in range(max(m for m, _ in p.coeffs)):
        xpows.append(_conv(xpows[-1], [x0, dx]))
    for _ in range(max(n for _, n in p.coeffs)):
        ypows.append(_conv(ypows[-1], [y0, dy]))
    acc = [0.0] * (p.degree + 1)
    for (m, n), c in p.coeffs.items():
        for i, v in enumerate(_conv(xpows[m], ypows[n])):
            acc[i] += c * v
    return acc


def weak_laplacian_h1(seq, l, u):
    """Per-edge density of the weak Laplacian against arclength measure, the per-edge
    oracle of ``weak_pairing``.

    On edge e with prefactor w_e, world parametrization z and length L_e,
    the density along the edge is g(z(t)) = w_e (u o z)''(t) / L_e.
    Returns (edges, densities): the ``prefractal_edges`` table and, in row
    e, the ascending t-coefficients of g on edge e.  Pairing any admissible
    v against g dH^1 over all edges reproduces -E(u, v).
    """
    edges = prefractal_edges(seq, l)
    coeffs = _compose_line(u, edges.px, edges.py, edges.vx, edges.vy)
    c = np.column_stack([np.broadcast_to(a, len(edges)) for a in coeffs])
    scale = edges.prefactor / np.hypot(edges.vx, edges.vy)
    return edges, scale[:, None] * poly1_derivative(poly1_derivative(c))


def iter_words(l: int):
    """All words of length l in lexicographic order."""
    return itertools.product((1, 2, 3), repeat=l)


def energy2(seq, l, u, v) -> float:
    """Cable part of the depth-l form: ``energy_total(...).e2``."""
    return energy_total(seq, l, u, v).e2


@functools.lru_cache(maxsize=None)
def gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on [0, 1], from numpy's
    ``leggauss``: the one rule builder of the edge-by-edge routes."""
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


def _order(u, v, points):
    """``points``, or the moment pass's Gauss order for (u, v) when None."""
    return _gauss_order(u.degree, v.degree) if points is None else points


def poly1_eval(coeffs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Ascending univariate coefficients evaluated at ``ts`` by Horner's rule."""
    out = np.zeros_like(ts)
    for c in coeffs[::-1]:
        out = out * ts + c
    return out


def rotation(theta: float) -> np.ndarray:
    """The plane rotation through ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# -- the stacked products of the map primitives -------------------------------


def images_stacked(lin, vecs) -> np.ndarray:
    """lin[n] @ vecs[k] for every n, k, one stacked 2x2 matvec each: the rounding of
    ``geometry._images``, fma(a_0, v_0, a_1 v_1) per entry."""
    return (lin[:, None] @ vecs[..., None])[..., 0]


def level_products_stacked(lin, wide) -> np.ndarray:
    """``geometry._level_products`` as one stacked 2x2-by-2x6 product per row."""
    return (lin @ wide).reshape(-1, 2, 3, 2).swapaxes(1, 2).reshape(-1, 2, 2)


# -- the object oracle of the map arrays ------------------------------------


@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Affine map x -> linear @ x + offset on the plane."""

    linear: np.ndarray
    offset: np.ndarray

    def __call__(self, pt: np.ndarray) -> np.ndarray:
        return self.linear @ pt + self.offset

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        """self o inner."""
        return AffineMap2(self.linear @ inner.linear, self.linear @ inner.offset + self.offset)

    @staticmethod
    def identity() -> "AffineMap2":
        return AffineMap2(np.eye(2), np.zeros(2))


@dataclass(frozen=True, eq=False)
class Segment:
    """Straight segment parametrized affinely over t in [0,1], with its exact velocity ``vel``."""

    p: np.ndarray
    q: np.ndarray
    vel: np.ndarray

    @property
    def velocity(self) -> np.ndarray:
        return self.vel

    def point(self, t: float) -> np.ndarray:
        return self.p + t * (self.q - self.p)

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.q - self.p)))


def object_triple(eps, beta_over_alpha=HARMONIC_RATIO) -> tuple[AffineMap2, AffineMap2, AffineMap2]:
    """The level maps F_1, F_2, F_3 as objects, from the rows of ``triple``."""
    return tuple(AffineMap2(lin, off) for lin, off in zip(*triple(eps, beta_over_alpha)))


def compose_objects(seq, word, beta_over_alpha=HARMONIC_RATIO) -> AffineMap2:
    """F_w by the per-letter object fold: one ``AffineMap2.compose`` per letter, level 1 outermost."""
    out = AffineMap2.identity()
    for k, letter in enumerate(word, start=1):
        out = out.compose(object_triple(seq.eps(k), beta_over_alpha)[_triple_index(letter)])
    return out


def cable_objects(seq, s, beta_over_alpha=HARMONIC_RATIO) -> tuple[Segment, Segment, Segment]:
    """The three generation-s cables as ``Segment`` objects, from ``_cable_stack``."""
    (starts,), (vels,) = _cable_stack(seq, (s,), beta_over_alpha)
    return tuple(Segment(p, p + v, v) for p, v in zip(starts, vels))


def restrict(p, amap: AffineMap2, seg: Segment) -> np.ndarray:
    """Coefficients (ascending in t) of p(amap(seg(t))): ``_compose_line`` of the mapped segment."""
    p0, dv = amap.linear @ seg.p + amap.offset, amap.linear @ seg.velocity
    return np.array(_compose_line(p, float(p0[0]), float(p0[1]), float(dv[0]), float(dv[1])))


def cable_mass_by_objects(seq, prefix, s, slot) -> tuple[float, np.ndarray]:
    """(mass, direction) of ``cable_mass`` from the object fold: the prefix map's linear part
    times the cable's velocity, under the cable weight, which raises what ``cable_mass`` raises,
    as does a mapped velocity whose |v|^2 underflowed to 0.0 or whose direction is not finite."""
    weight = _cable_weight(seq, s)
    vel = compose_objects(seq, prefix).linear @ cable_objects(seq, s)[slot - 1].velocity
    nrm2 = float(vel @ vel)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = vel / math.sqrt(nrm2)
    if not (nrm2 > 0.0 and np.isfinite(direction).all()):
        raise PrefactorUnderflow(f"generation-{s} cable: mapped |v|^2 {nrm2!r} underflows or its direction is not finite")
    return weight * nrm2, direction


def teplyaev_by_objects(phi, carrier, seq) -> tuple[np.ndarray, float]:
    """(location, value) of ``teplyaev`` with the location from the object fold: the
    barycenter's image for a word, the image of its cable's ``Segment.point(0.5)`` for a
    ``CableMass``.  The density and the Hessian kernel are the package's."""
    if isinstance(carrier, tuple):
        cm = gibbs_tau(carrier)
        if cm.kappa < KAPPA_FLOOR:
            raise ArithmeticError(f"cylinder mass underflow at word {carrier}")
        t_tilde, location = cm.tau / cm.kappa, compose_objects(seq, carrier)(barycenter())
    else:
        seg = cable_objects(seq, carrier.generation)[carrier.slot - 1]
        t_tilde, location = carrier.projection, compose_objects(seq, carrier.prefix)(seg.point(0.5))
    return location, float(_laplacian_values(phi, t_tilde[None], location[None])[0])


# -- edge-by-edge routes ------------------------------------------------------


@dataclass(frozen=True)
class EdgeId:
    """Identity and energy prefactor of one pre-fractal edge.

    Triangle edges carry the full word and a side name; cables carry the
    prefix word (length s-1), the slot index 1..3 and the generation s.
    ``prefactor`` is the coefficient the edge carries inside the depth-l
    energy form.
    """

    kind: str  # "tri" | "cable"
    word: tuple[int, ...]
    side: str | None = None
    slot: int | None = None
    generation: int | None = None
    prefactor: float = 0.0


def segment_pairing(u, v, amap, seg, points=None) -> float:
    """Line energy of one edge: integral over [0,1] of (u o z)' (v o z)'.

    z is the mapped segment t -> amap(seg(t)), composed into one-variable
    polynomials.
    """
    nodes, weights = gauss_rule(_order(u, v, points))
    du = poly1_derivative(restrict(u, amap, seg))
    dv = poly1_derivative(restrict(v, amap, seg))
    return float((poly1_eval(du, nodes) * poly1_eval(dv, nodes)) @ weights)


def cable_energy(seq, s, u, v, points=None, prefix_map=None) -> float:
    """Unrenormalized cable sum of one generation: b/(1-eps_s) times the
    line energies of the three generation-s cables under an explicit
    prefix map (default: identity, the cables of the top-level cell).
    """
    if seq.one_minus_eps(s) == 0.0:
        raise DegenerateCable(f"eps_{s} = 1: cables have length zero")
    amap = prefix_map or AffineMap2.identity()
    vals = [segment_pairing(u, v, amap, sg, points) for sg in cable_objects(seq, s)]
    return _A / seq.one_minus_eps(s) * math.fsum(vals)


def _transform(p0, dv, outer):
    if outer is None:
        return p0, dv
    lin, off = outer
    return p0 @ lin.T + off, dv @ lin.T


def _pairings(u, v, p0, dv, points) -> np.ndarray:
    """Per-edge line energies for a block of edges, in block order."""
    ts, weights = gauss_rule(_order(u, v, points))
    xs = p0[:, 0][:, None] + dv[:, 0][:, None] * ts[None, :]
    ys = p0[:, 1][:, None] + dv[:, 1][:, None] * ts[None, :]
    gux, guy = grad_batch(u, xs, ys)
    du = gux * dv[:, 0][:, None] + guy * dv[:, 1][:, None]
    if v is u:
        dvv = du
    else:
        gvx, gvy = grad_batch(v, xs, ys)
        dvv = gvx * dv[:, 0][:, None] + gvy * dv[:, 1][:, None]
    return (du * dvv) @ weights


def energy_by_edges(seq, l, u, v, points=None, outer=None):
    """The depth-l form edge by edge from the batched edge tableau, at Gauss order ``points``.

    Returns (report, edges): the EnergyReport of the compensated sums and
    every (EdgeId, weighted line energy) in canonical edge order (triangle
    edges first, then cables by generation).
    """
    tab = _tableau(seq, l)
    p0, dv = _transform(tab.tri_p0, tab.tri_dv, outer)
    tri_list = (triangle_edge_prefactor(seq, l) * _pairings(u, v, p0, dv, points)).tolist()
    cab_list = []
    for s in range(1, l + 1):
        p0, dv = _transform(tab.cab_p0[s - 1], tab.cab_dv[s - 1], outer)
        cab_list += (cable_prefactor(seq, s, l) * _pairings(u, v, p0, dv, points)).tolist()
    ids = edge_ids(seq, l)
    report = EnergyReport(l, math.fsum(tri_list), math.fsum(cab_list), math.fsum(tri_list + cab_list))
    return report, tuple(zip(ids, tri_list + cab_list))


def energy2_limit_by_edges(seq, s_max, u, v, points=None, outer=None):
    """Limit cable form truncated at s_max, summed cable by cable."""
    tab = _tableau(seq, s_max)
    vals = []
    for s in range(1, s_max + 1):
        p0, dv = _transform(tab.cab_p0[s - 1], tab.cab_dv[s - 1], outer)
        vals += (cable_prefactor_limit(seq, s) * _pairings(u, v, p0, dv, points)).tolist()
    return math.fsum(vals)


# -- the moment pass, the level chain's oracle --------------------------------
#
# Every form by pushing the D x D field moment M_0 = c_u c_v^T (symmetrized for the energy
# forms) down one level at a time, M_k = (1/lam_k) sum_i P_i M_(k-1) P_i^T, and contracting
# it with the Gauss Grams of the cell sides and the cables: O(l D^3) where the chain pays
# O(l D'^2), and no table is kept between calls.


def _gauss_order(deg_u: int, deg_v: int) -> int:
    """The moment pass's Gauss order for fields of these degrees: the lowest exact one, at least 8.

    Along a straight segment z, (u o z)'(v o z)' and (u o z)''(v o z) are
    polynomials of degree deg_u + deg_v - 2 in the curve parameter, and an
    n-point rule is exact up to degree 2n - 1.
    """
    return max(8, math.ceil((deg_u + deg_v - 1) / 2))


def _falling(k: np.ndarray, i: int) -> np.ndarray:
    out = np.ones(k.shape, dtype=_EXT)
    for j in range(i):
        out = out * (k - j)
    return out


def _partials(xs: np.ndarray, ys: np.ndarray, d: int, *orders: tuple[int, int]) -> list[np.ndarray]:
    """d^(i+j)/dx^i dy^j of every centered basis monomial at centered points, (D, npts) for each (i, j)."""
    m = np.array([k - n for k in range(d + 1) for n in range(k + 1)])
    n = np.array([n for k in range(d + 1) for n in range(k + 1)])
    top = np.arange(d + 1)[:, None]
    xp = xs[None, :] ** top
    yp = ys[None, :] ** top
    return [
        (_falling(m, i) * _falling(n, j))[:, None] * xp[np.maximum(m - i, 0)] * yp[np.maximum(n - j, 0)]
        for i, j in orders
    ]


def _segment_jets(p0: np.ndarray, dv: np.ndarray, d: int, nodes: np.ndarray, order: int) -> np.ndarray:
    """order-th t-derivative of every basis monomial along each segment p0 + t dv.

    Shape (D, S * nodes), segment-major, at the quadrature ``nodes`` on [0, 1].
    """
    ts = nodes.astype(_EXT)
    p0 = p0.astype(_EXT) - barycenter().astype(_EXT)
    dv = dv.astype(_EXT)
    xs = (p0[:, 0:1] + dv[:, 0:1] * ts).ravel()
    ys = (p0[:, 1:2] + dv[:, 1:2] * ts).ravel()
    dx = np.repeat(dv[:, 0], len(ts))
    dy = np.repeat(dv[:, 1], len(ts))
    if order == 0:
        return _partials(xs, ys, d, (0, 0))[0]
    if order == 1:
        px, py = _partials(xs, ys, d, (1, 0), (0, 1))
        return dx * px + dy * py
    pxx, pxy, pyy = _partials(xs, ys, d, (2, 0), (1, 1), (0, 2))
    return dx * dx * pxx + 2.0 * dx * dy * pxy + dy * dy * pyy


def segment_form(p0, dv, d, points, left: int, right: int) -> np.ndarray:
    """Gram of one group of segments: the sum over them of the ``points``-point Gauss
    quadrature of (m_a o z)^(left) (m_b o z)^(right), one 2-D product per group."""
    nodes, weights = gauss_rule(points)
    w = np.tile(weights.astype(_EXT), len(p0))
    return (_segment_jets(p0, dv, d, nodes, left) * w) @ _segment_jets(p0, dv, d, nodes, right).T


def map_pullback(lin, off, d, *, from_plain=False) -> np.ndarray:
    """Pullback by one map (lin (2, 2), off (2,)): the package's ``_pullback`` of a stack of one."""
    return _pullback(lin[None], off[None], d, from_plain=from_plain)[0]


def _top_moments(u, v, d, outer=None, *, symmetric=True) -> np.ndarray:
    """(S, D, D): M_0 = c_u c_v^T for each map of ``outer`` (a stack of S maps, or None for the
    identity), symmetrized for the energy forms, so it has the same bits for (u, v) and (v, u)."""
    pullbacks = _centering(d)[None] if outer is None else _pullback(*outer, d, from_plain=True)
    cu, cv = (pullbacks @ _plain_coeffs(p, d) for p in (u, v))
    top = cu[:, :, None] * cv[:, None, :]
    return 0.5 * (top + top.transpose(0, 2, 1)) if symmetric else top


def _barycentric_form(d: int, orders) -> np.ndarray:
    """The sum over (left, right) of ``orders`` of outer(left partial, right partial) of the
    basis monomials at the barycenter b, the origin of the centered basis."""
    at = np.zeros(2, dtype=_EXT)
    return sum(np.outer(*(_partials(at[:1], at[1:], d, order)[0][:, 0] for order in pair)) for pair in orders)


#: The moment pass's forms: symmetrized top or not, the derivative orders (left, right) of the
#: side and cable Grams, and the cell form at the barycenter (None: the sides' a S).
MOMENT_FORMS = {
    "energy": (True, (1, 1), None),
    "pairing": (False, (2, 0), None),
    "ibp": (False, (2, 0), lambda d: 1.5 * _A * (_barycentric_form(d, [((2, 0), (0, 0)), ((0, 2), (0, 0))]))),
    "gasket": (True, (1, 1), lambda d: 0.5 * _barycentric_form(d, [((1, 0), (1, 0)), ((0, 1), (0, 1))])),
}


def _contractions(seq, depths, d, points, tops, forms, *, limit=False):
    """Elementwise contractions of stacked forms at every depth, from one moment pass.

    ``tops`` (F, D, D) are top moments and ``forms`` F pairs (cell form,
    (left, right)); a cell form of None stands for the sides' form a S of
    derivative orders (left, right).  Yields, for each depth l of ``depths``
    in order, the list over f of [cell part, generation-1 part, ...,
    generation-l part], at Gauss order ``points``.
    """
    depths = list(depths)
    l_max = max(depths, default=0)
    cell_forms = [_A * segment_form(*_side_arrays(), d, points, *order) if cell is None else cell for cell, order in forms]
    cells, cables, moments = {}, [], list(tops)
    for k in range(l_max + 1):
        if k:
            pulls = [map_pullback(lin, off, d) for lin, off in zip(*triple(seq.eps(k)))]
            moments = [sum(np.dot(p, np.dot(m, p.T)) for p in pulls) / _EXT(seq.lam(k)) for m in moments]
        if k in depths:
            cells[k] = [cell * m for cell, m in zip(cell_forms, moments)]
        if k < l_max:
            grams = {order: segment_form(*cable_segments(seq, k + 1), d, points, *order) for order in {o for _, o in forms}}
            cables.append([grams[order] * m for (_, order), m in zip(forms, moments)])
    for l in depths:
        weights = [_A / ((seq.eps_tilde_inf(k) if limit else seq.eps_tilde(k, l)) * seq.one_minus_eps(k)) for k in range(1, l + 1)]
        yield [[cells[l][f]] + [w * gm[f] for w, gm in zip(weights, cables)] for f in range(len(forms))]


def _terms(parts: list[np.ndarray]) -> tuple[list[float], list[float]]:
    """fsum terms of the cell part and of the generations' cable parts, summed first in extended precision."""
    return _split(parts[0]), _split(sum(parts[1:], np.zeros_like(parts[0])))


def moment_terms(seq, depths, u, v, forms=("energy",), *, limit=False, points=None):
    """The moment pass's (cell terms, cable terms) per named form of ``MOMENT_FORMS`` at every
    depth, as the chain's ``_moment_terms`` gives them, at Gauss order ``points`` (default the
    pass's own)."""
    d = max(u.degree, v.degree, 0)
    rows = [MOMENT_FORMS[name] for name in forms]
    tops = np.concatenate([_top_moments(u, v, d, symmetric=symmetric) for symmetric, _, _ in rows])
    cells = [(None if cell is None else cell(d), order) for _, order, cell in rows]
    for parts in _contractions(seq, depths, d, _order(u, v, points), tops, cells, limit=limit):
        yield [_terms(p) for p in parts]


def fold_backward(seq, l, u, v, points=None) -> EnergyReport:
    """The depth-l form by folding cell forms from depth l up to the top cell.

    The adjoint of the package's forward moment pass: starting from the
    triangle form a S of one depth-l cell (and zero for the cables), each
    level applies H <- (1/lam_k) sum_i P_i^T H P_i + w(k, l) C_k, so the
    fields meet the folded forms only at the top.  Each depth pays its own
    O(l D^3) fold and rebuilds every cable Gram.
    """
    d, points = max(u.degree, v.degree, 0), _order(u, v, points)
    sides = _A * segment_form(*_side_arrays(), d, points, 1, 1)
    forms = np.stack([sides, np.zeros_like(sides)])
    for k in range(l, 0, -1):
        pulls = [map_pullback(lin, off, d) for lin, off in zip(*triple(seq.eps(k)))]
        forms = np.stack([sum(np.dot(p.T, np.dot(h, p)) for p in pulls) for h in forms]) / _EXT(seq.lam(k))
        weight = _A / (seq.eps_tilde(k, l) * seq.one_minus_eps(k))
        forms[1] += weight * segment_form(*cable_segments(seq, k), d, points, 1, 1)
    pullback = map_pullback(np.eye(2), np.zeros(2), d, from_plain=True)
    cu, cv = [pullback @ _plain_coeffs(p, d) for p in (u, v)]
    tri, cab = [_split(0.5 * (h + h.T) * np.outer(cu, cv)) for h in forms]
    return EnergyReport(l, math.fsum(tri), math.fsum(cab), math.fsum(tri + cab))


def _energy_rows(seq, depths, u, v, points=None, *, limit=False):
    """[triangle part, generation-1 cable part, ...] of the energy form at every depth, one
    moment pass per call at Gauss order ``points`` (``limit``: infinite windows)."""
    d = max(u.degree, v.degree, 0)
    for (parts,) in _contractions(seq, depths, d, _order(u, v, points), _top_moments(u, v, d), [(None, (1, 1))], limit=limit):
        yield parts


def energy_at_order(seq, l, u, v, points) -> EnergyReport:
    """The depth-l form from one moment pass whose Grams take the ``points``-point Gauss rule."""
    (parts,) = _energy_rows(seq, (l,), u, v, points)
    return _report(l, *_terms(parts))


def _chain_parts(seq, depth, u, v, outer=None, *, limit=False):
    """(cell part, cable part, generation-1 part) of the energy form at ``depth`` from the package's
    level chain, run on one pulled-back pair (u o outer, v o outer) alone."""
    d, n = _degrees(u, v)
    fields = _fields(u, v, d, None if outer is None else (outer[0][None], outer[1][None]))
    ((parts,),) = _readouts(seq, (depth,), n, _gradient_top(*fields, d, n), [("sides", _A)], limit=limit)
    return parts


def recurrence_residual_by_passes(seq, l, u, v) -> float:
    """The one-step recurrence defect from four separate level chains.

    One chain for the depth-(l+1) form and one on the shifted sequence for
    each pulled-back pair (u o F^1_i, v o F^1_i), where the package stacks
    the three into one.
    """
    cell, cables, first = _chain_parts(seq, l + 1, u, v)
    parts = [
        _report(l, _split(half[0]), _split(half[1])).total
        for f in zip(*triple(seq.eps(1)))
        for half in [_chain_parts(seq.shift(), l, u, v, f)]
    ]
    rhs = math.fsum(parts) / seq.lam(1) + math.fsum(_split(first))
    return abs(_report(l + 1, _split(cell), _split(cables)).total - rhs)


def selfsimilar_residual_by_passes(seq, u, v, depth) -> tuple[float, float]:
    """The self-similar defect and its bound from four separate limit level chains."""
    gu, gv = sup_bounds(u)[0], sup_bounds(v)[0]
    cell, cables, first = _chain_parts(seq, depth, u, v, limit=True)
    lhs = _report(depth, _split(cell), _split(cables))
    parts, tails = [], [cable_tail_bound(seq, depth, gu, gv)]
    for f in zip(*triple(seq.eps(1))):
        opn = float(np.linalg.norm(f[0], 2))
        half = _chain_parts(seq.shift(), depth - 1, u, v, f, limit=True)
        rep = _report(depth - 1, _split(half[0]), _split(half[1]))
        parts.append(rep.e1 + rep.e2)
        tails.append(cable_tail_bound(seq.shift(), depth - 1, gu * opn, gv * opn) / seq.lam(1))
    rhs = math.fsum(parts) / seq.lam(1) + math.fsum(_split(first))
    return abs(lhs.e1 + lhs.e2 - rhs), math.fsum(tails)


def gasket_hessian_sum(seq, depth, phi, v, *, absolute=False) -> list[float]:
    """Per-word <Hessian phi(x_w), tau_w> v(x_w), scaled to the form constant.

    The triangle-edge measure of one cell totals 3a tau_w (three unit
    side-projections sum to (3/2) Id), so pairing Hessians directly with
    3a tau avoids dividing by small kappa.  With ``absolute``, each term's
    rounding scale instead: every coefficient, tau entry and coordinate
    replaced by its absolute value.
    """
    lin, off = word_table(seq, depth)
    centers = np.einsum("wab,b->wa", lin, barycenter()) + off
    taus = tau_table(depth)
    if absolute:
        phi, v = (Poly2({k: abs(c) for k, c in p.coeffs.items()}) for p in (phi, v))
        centers, taus = np.abs(centers), np.abs(taus)
    xs, ys = centers[:, 0], centers[:, 1]
    hxx, hxy, hyy = hess_batch(phi, xs, ys)
    pair = taus[:, 0, 0] * hxx + 2.0 * taus[:, 0, 1] * hxy + taus[:, 1, 1] * hyy
    vals = 3.0 * _A * pair * v.eval_batch(xs, ys)
    return vals.tolist()


def ibp_gasket_half(seq, phi, v, depth) -> float:
    """The sum of ``gasket_hessian_sum`` in O(depth), by the measure's level operators.

    The cell term 3a tr(tau_w G(F_w b)) with G = v D^2 phi is the gasket term of the
    measure energy with G in place of sym(grad u grad v^t), so the level operators
    (L_k H)(x) = sum_i B_i H(F^k_i x) B_i, applied by ``scalarfield._compose_affine`` (the
    loop the measure energy's gasket half ran before the package's chain), give the sum
    over the depth-level cells as 3a (1/2) (3/5)^l tr((L_l ... L_1 G)(b)), in longdouble on
    the monomials centred at b.  It shares no code with the package's chain beyond the
    polynomial type, the conjugation table and the map triples.
    """
    d, centre = max(phi.degree - 2, 0) + max(v.degree, 0), barycenter().astype(np.longdouble)
    hess = np.array([_dense(h, d, np.longdouble) for h in phi.hess()])
    weights = _dense(v, d, np.longdouble)
    g = np.zeros_like(hess)
    for m, n in zip(*np.nonzero(weights)):
        g[:, m:, n:] += weights[m, n] * hess[:, : d + 1 - m, : d + 1 - n]
    held = _compose_affine(g, np.eye(2, dtype=np.longdouble)[None], centre[None])[0]
    for k in range(1, depth + 1):
        lin, off = (t.astype(np.longdouble) for t in triple(seq.eps(k)))
        held = np.einsum("ief,if...->e...", _CONJUGATIONS, _compose_affine(held, lin, lin @ centre + off - centre))
    return float(3 * _A * (held[0, 0, 0] + held[2, 0, 0]) * np.longdouble(3) ** depth / (2 * np.longdouble(5) ** depth))


def cable_second_derivative_sum(seq, depth, phi, v, points=None) -> list[float]:
    """Per-cable integrals of (phi o z)'' (v o z) with depth-window weights."""
    tab = _tableau(seq, depth)
    out: list[float] = []
    ts, weights = gauss_rule(_order(phi, v, points))
    for s in range(1, depth + 1):
        p0, dv = tab.cab_p0[s - 1], tab.cab_dv[s - 1]
        xs = p0[:, 0][:, None] + dv[:, 0][:, None] * ts[None, :]
        ys = p0[:, 1][:, None] + dv[:, 1][:, None] * ts[None, :]
        hxx, hxy, hyy = hess_batch(phi, xs, ys)
        dx = dv[:, 0][:, None]
        dy = dv[:, 1][:, None]
        dd = hxx * dx * dx + 2.0 * hxy * dx * dy + hyy * dy * dy
        vals = (dd * v.eval_batch(xs, ys)) @ weights
        pf = cable_prefactor(seq, s, depth)
        out.extend((pf * vals).tolist())
    return out


def ibp_rhs_by_cells(seq, depth, phi, v, points=None) -> float:
    """Measure side of the IBP identity, cell by cell and cable by cable."""
    return math.fsum(
        gasket_hessian_sum(seq, depth, phi, v)
        + cable_second_derivative_sum(seq, depth, phi, v, points)
    )


def edge_ids(seq, l):
    """The EdgeId of every depth-l edge, in the canonical edge order: triangle
    edges by (word, side), then cables by generation and (prefix, slot)."""
    tri_pf = triangle_edge_prefactor(seq, l)
    ids = [EdgeId("tri", word, side=name, prefactor=tri_pf) for word in iter_words(l) for name in SIDE_NAMES]
    for s in range(1, l + 1):
        pf = cable_prefactor(seq, s, l)
        ids += [EdgeId("cable", p, slot=k, generation=s, prefactor=pf) for p in iter_words(s - 1) for k in (1, 2, 3)]
    return ids


def edge_walk(seq, l, beta_over_alpha=HARMONIC_RATIO):
    """(edge id, local segment, map) of every depth-l edge, in the canonical edge order.

    Each word's map comes from the object fold ``compose_objects``, one
    letter at a time, not from the package's ``_word_levels``.
    """
    corner = dict(zip("ABC", base_vertices()))
    sides = [Segment(corner[name[0]], corner[name[1]], corner[name[1]] - corner[name[0]]) for name in SIDE_NAMES]
    cells = [(sides, compose_objects(seq, word, beta_over_alpha)) for word in iter_words(l)]
    cells += [
        (cable_objects(seq, s, beta_over_alpha), compose_objects(seq, prefix, beta_over_alpha))
        for s in range(1, l + 1)
        for prefix in iter_words(s - 1)
    ]
    pieces = ((seg, amap) for segs, amap in cells for seg in segs)
    for eid, (seg, amap) in zip(edge_ids(seq, l), pieces):
        yield eid, seg, amap


#: Letter of the map fixing each corner.
_CORNER_LETTER = {"A": 1, "B": 2, "C": 3}


def canonical_vertex(word, corner):
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


def star_groups_by_edges(seq, l, beta_over_alpha=HARMONIC_RATIO):
    """Depth-l vertex stars by walking the edge list, sorted by (word, corner).

    Every edge end is grouped under its canonical vertex name.  Returns
    {(word, corner): [(edge id, endpoint t, prefactor, tangent, point), ...]}
    with members in edge-walk order (triangle sides word-major, then cables).
    """
    groups = {}
    for eid, seg, amap in edge_walk(seq, l, beta_over_alpha):
        tangent = amap.linear @ seg.velocity
        if eid.kind == "tri":
            ends = [(canonical_vertex(eid.word, corner), t_end) for corner, t_end in _SIDE_CORNERS[eid.side]]
        else:
            ends = []
            for t_end in (0, 1):
                j, corner = _CABLE_ENDS[(eid.slot, t_end)]
                ends.append(((eid.word + (j,), corner), t_end))
        for key, t_end in ends:
            point = amap(seg.p if t_end == 0 else seg.q)
            groups.setdefault(key, []).append((eid, t_end, eid.prefactor, tangent, point))
    return {key: groups[key] for key in sorted(groups, key=lambda k: (k[0], _CORNER_INDEX[k[1]]))}


def boundary_vector_of(members) -> np.ndarray:
    """Sum of prefactor * (-1)^endpoint * tangent over a star's members, in order."""
    acc = np.zeros(2)
    for _, t_end, prefactor, tangent, _ in members:
        acc += (prefactor if t_end == 0 else -prefactor) * tangent
    return acc


def weak_pairing_by_edges(seq, l, u, v, points=None) -> list[float]:
    """Per-edge terms w_e * integral (u o z)'' (v o z) dt of the weak pairing, in edge order."""
    nodes, weights = gauss_rule(_order(u, v, points))
    parts = []
    for eid, seg, amap in edge_walk(seq, l):
        cu = poly1_derivative(poly1_derivative(restrict(u, amap, seg)))
        cv = restrict(v, amap, seg)
        parts.append(
            eid.prefactor * float((poly1_eval(cu, nodes) * poly1_eval(cv, nodes)) @ weights)
        )
    return parts


def laplacian_samples_by_carrier(seq, phi, depth):
    """Laplacian samples one carrier at a time: every depth-level cell, then all cables.

    ``teplyaev`` shares the table's Hessian kernel; what this checks
    independently is the gathering of carriers, locations and densities.
    """
    out = [teplyaev(phi, w, seq) for w in iter_words(depth)]
    for s in range(1, depth + 1):
        for prefix in iter_words(s - 1):
            for slot in (1, 2, 3):
                cm = cable_mass(seq, prefix, s, slot)
                out.append(teplyaev(phi, cm, seq))
    return out


def _csv_by_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def kusuoka_text_by_rows(depth):
    """The ``kusuoka`` table and its --json summary, rendered row by row.

    Word tuples from ``iter_words`` joined, repr(float(...)) per cell and
    ``csv.writer`` with CRLF line ends, from the library's tau table: each
    row's kappa is its own tau11 + tau22, and its small eigenvalue the
    exact determinant over the large one.  The largest-mass word is the
    first whose exact kappa (``exact_kappa_table``) equals the largest.
    Returns (csv text, json text).
    """
    # det tau_w = ((1/2) (3/5)^l)^2 (det B_i)^l with det B_i = 1/3, rounded once.
    det = float((Fraction(3, 5) ** depth / 2) ** 2 / Fraction(3) ** (2 * depth))
    rows, kappas, min_eig = [], [], math.inf
    for w, t in zip(iter_words(depth), tau_table(depth).tolist()):
        (t11, t12), (_, t22) = t
        kappas.append(t11 + t22)
        half = 0.5 * (t11 - t22)
        min_eig = min(min_eig, det / (0.5 * (t11 + t22) + math.sqrt(half * half + t12 * t12)))
        word = "".join(str(letter) for letter in w)
        rows.append([word, repr(kappas[-1]), repr(t11), repr(t12), repr(t22)])
    # Equal masses in Q(sqrt3) may differ in their 50-digit roundings.
    exact = exact_kappa_table(depth)
    top = max(exact)
    summary = {
        "depth": depth,
        "sum_kappa": math.fsum(kappas),
        "min_eig": min_eig,
        "max_kappa_word": rows[next(i for i, k in enumerate(exact) if top - k < top.scaleb(-40))][0],
    }
    text = _csv_by_rows(["word", "kappa", "tau11", "tau12", "tau22"], rows)
    return text, json.dumps(summary, indent=2, sort_keys=True) + "\n"


def laplacian_text_by_rows(seq, phi, depth) -> str:
    """The ``laplacian`` table rendered row by row from the sample table.

    Carriers come from ``iter_words`` (cells, then cables by generation in
    (prefix, slot) order), fields as in ``kusuoka_text_by_rows``.
    """
    carriers = [("cell", w, "") for w in iter_words(depth)]
    carriers += [("cable", p, str(k)) for s in range(1, depth + 1) for p in iter_words(s - 1) for k in (1, 2, 3)]
    rows = []
    for (kind, w, slot), r in zip(carriers, laplacian_samples(seq, phi, depth)):
        word = "".join(str(letter) for letter in w)
        rows.append([kind, word, slot, repr(float(r.x)), repr(float(r.y)), repr(float(r.value))])
    return _csv_by_rows(["kind", "word", "slot", "x", "y", "value"], rows)


def geometry_text_by_rows(seq, depth):
    """The ``geometry --shade`` SVG and its --json edge list, rendered edge by edge.

    Every shading polygon maps the base corners through its word's
    ``compose_objects`` map, every edge maps its endpoints through the ``edge_walk``
    map, and each is formatted as its own line.  Returns (svg text, json text).
    """
    margin = 0.05
    width = math.sqrt(3.0) / 2.0
    view = f"{-margin:.6f} {-0.5 - margin:.6f} {width + 2 * margin:.6f} {1.0 + 2 * margin:.6f}"
    sw = max(0.0012, 0.012 * 0.72**depth)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    table = kappa_table(depth)
    top = float(np.max(table))
    for i, word in enumerate(iter_words(depth)):
        amap = compose_objects(seq, word)
        pts = " ".join(f"{p[0]:.6f},{-p[1]:.6f}" for p in map(amap, base_vertices()))
        op = 0.75 * float(table[i]) / top
        lines.append(f'<polygon points="{pts}" fill="#3a7bd5" fill-opacity="{op:.4f}"/>')
    edges = []
    for eid, seg, amap in edge_walk(seq, depth):
        p = amap(seg.p)
        q = amap(seg.q)
        coords = f'x1="{p[0]:.6f}" y1="{-p[1]:.6f}" x2="{q[0]:.6f}" y2="{-q[1]:.6f}"'
        entry = {"kind": eid.kind, "word": list(eid.word)}
        entry["p"] = [float(p[0]), float(p[1])]
        entry["q"] = [float(q[0]), float(q[1])]
        if eid.kind == "tri":
            lines.append(f'<line {coords} stroke="#1a1a1a" stroke-width="{sw:.6f}"/>')
            entry["side"] = eid.side
        else:
            lines.append(
                f'<line {coords} stroke="#c0392b" stroke-width="{sw:.6f}" '
                f'stroke-dasharray="{2 * sw:.6f},{2 * sw:.6f}"/>'
            )
            entry["slot"] = eid.slot
        edges.append(entry)
    lines.append("</svg>")
    return "\n".join(lines) + "\n", json.dumps({"edges": edges}, indent=2, sort_keys=True) + "\n"


def _side_projection_sum() -> np.ndarray:
    """Projections onto the three base side directions, summed.

    The mutual 120 degree angles make the sum (3/2) Id.
    """
    a, b, c = base_vertices()
    dirs = (b - a, c - b, c - a)
    acc = np.zeros((2, 2))
    for d in dirs:
        acc += np.outer(d, d) / float(d @ d)
    return acc


def scaled_linears_by_einsum(l) -> np.ndarray:
    """``kusuoka._scaled_linears`` as one longdouble einsum contraction per
    level over the fixed factors, rounded to double at the end."""
    out = np.eye(2, dtype=np.longdouble)[None, :, :]
    for _ in range(l):
        out = np.einsum("wab,jbc->wjac", out, _LEVEL_FACTORS).reshape(-1, 2, 2)
    return out.astype(np.float64)


def tau_table_by_einsum(l) -> np.ndarray:
    """``kusuoka.tau_table`` as the einsum (1/2)(3/5)^l P P^t over the einsum products."""
    mats = scaled_linears_by_einsum(l)
    return _level_scale(l) * np.einsum("wab,wcb->wac", mats, mats)


def gibbs_tau_by_einsum(word) -> np.ndarray:
    """``kusuoka.gibbs_tau(word).tau`` by the same einsums on one word."""
    m = np.eye(2, dtype=np.longdouble)
    for letter in word:
        m = np.einsum("ab,bc->ac", m, _LEVEL_FACTORS[letter - 1])
    m = m.astype(np.float64)
    return _level_scale(len(word)) * np.einsum("ab,cb->ac", m, m)


# -- per-sequence cylinder tables and the exact oracle ------------------------


def scaled_level(seq, k) -> np.ndarray:
    """(3, 2, 2): the level-k linear parts T_i * (1 / sqrt(lam_k)) of one sequence.

    These per-sequence factors are what the cylinder tables were built from
    before they became stretch-free; the ``per_sequence_*`` routes below
    give those tables bit for bit.
    """
    scale = 1.0 / math.sqrt(seq.lam(k))
    return triple(seq.eps(k))[0] * scale


def per_sequence_scaled_linears(seq, l) -> np.ndarray:
    """Products of the per-sequence scaled level factors for all length-l words.

    Every factor is sqrt(3/5) B_i up to the rounding of its own eps_k, so the
    products agree with ``kusuoka``'s stretch-free ones to a few ulps per
    level; each sequence rounds them its own way.
    """
    out = np.eye(2)[None, :, :]
    for k in range(1, l + 1):
        out = np.einsum("wab,jbc->wjac", out, scaled_level(seq, k)).reshape(-1, 2, 2)
    return out


def per_sequence_tau_table(seq, l) -> np.ndarray:
    """Cylinder matrices (1/2) M M^t from one sequence's scaled level factors."""
    mats = per_sequence_scaled_linears(seq, l)
    return 0.5 * np.einsum("wab,wcb->wac", mats, mats)


def per_sequence_kappa_table(seq, l) -> np.ndarray:
    """Cylinder masses (1/2) |M|_F^2 from one sequence's scaled level factors."""
    mats = per_sequence_scaled_linears(seq, l)
    return 0.5 * np.einsum("wab,wab->w", mats, mats)


#: 6 B_i with entries a + b sqrt3 as integer pairs (a, b): B_1 = diag(1, 1/3),
#: B_2, B_3 = [[1/2, +-sqrt3/6], [+-sqrt3/6, 5/6]].
_SIX_B = (
    (((6, 0), (0, 0)), ((0, 0), (2, 0))),
    (((3, 0), (0, 1)), ((0, 1), (5, 0))),
    (((3, 0), (0, -1)), ((0, -1), (5, 0))),
)
_DIGITS = decimal.Context(prec=50)
_SQRT3_50 = _DIGITS.sqrt(decimal.Decimal(3))


def _q3_mul(x, y):
    """(a + b sqrt3)(c + d sqrt3) in Q(sqrt3), elements as coefficient pairs."""
    (a, b), (c, d) = x, y
    return (a * c + 3 * b * d, a * d + b * c)


def _q3_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _q3_matmul(m, n):
    return tuple(tuple(_q3_add(_q3_mul(m[i][0], n[0][j]), _q3_mul(m[i][1], n[1][j])) for j in range(2)) for i in range(2))


@functools.lru_cache(maxsize=None)
def _exact_products(l):
    """6^l P_w for every length-l word, lexicographic, entries in Z[sqrt3]."""
    if l == 0:
        return ((((1, 0), (0, 0)), ((0, 0), (1, 0))),)
    return tuple(_q3_matmul(m, b) for m in _exact_products(l - 1) for b in _SIX_B)


def _q3_decimal(x) -> decimal.Decimal:
    a, b = (_DIGITS.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)) for q in x)
    return _DIGITS.add(a, _DIGITS.multiply(b, _SQRT3_50))


@functools.lru_cache(maxsize=None)
def exact_tau_table(l) -> tuple:
    """(tau11, tau12, tau22) of every length-l word in Q(sqrt3), as 50-digit Decimals.

    tau_w = (1/2) (3/5)^l P_w P_w^t with P_w the product of the level factors
    B_i, each entry held exactly as a + b sqrt3 with rational a, b (integer
    products of 6 B_i, then one Fraction scale), and rounded only when
    converted.  Shares nothing with ``kusuoka`` but the closed form.
    """
    scale = Fraction(3**l, 2 * 5**l * 36**l)
    rows = []
    for (p11, p12), (p21, p22) in _exact_products(l):
        entries = (
            _q3_add(_q3_mul(p11, p11), _q3_mul(p12, p12)),
            _q3_add(_q3_mul(p11, p21), _q3_mul(p12, p22)),
            _q3_add(_q3_mul(p21, p21), _q3_mul(p22, p22)),
        )
        rows.append(tuple(_q3_decimal((scale * a, scale * b)) for a, b in entries))
    return tuple(rows)


def exact_kappa_table(l) -> list[decimal.Decimal]:
    """kappa_w = tau11 + tau22 of every length-l word, to 50 digits."""
    return [_DIGITS.add(t11, t22) for t11, _, t22 in exact_tau_table(l)]


def ulp_errors(values, exact) -> list[float]:
    """|value - exact| in units of the last place of the exact value, per entry."""
    return [float(abs(decimal.Decimal(v) - e) / decimal.Decimal(math.ulp(float(e)))) for v, e in zip(values, exact)]


def adjoint_aggregate(seq, l) -> dict[tuple[int, ...], np.ndarray]:
    """Per-word cylinder matrices through the iterated adjoint route.

    Seeds with a = 1/3 times the side-projection sum, which is Id/2, applies the level adjoints branch by branch from the
    innermost level outward, and renormalizes by lam_tilde(l).  Agrees
    with the gibbs_tau closed form; the two routes share no code path
    beyond the raw map triples.
    """
    seed = _A * _side_projection_sum()
    arr = seed[None, :, :]
    for s in range(l, 0, -1):
        mats = triple(seq.eps(s))[0]
        arr = np.einsum("jab,wbc,jdc->jwad", mats, arr, mats).reshape(-1, 2, 2)
    arr = arr / seq.lam_tilde(l)
    return {w: arr[i] for i, w in enumerate(iter_words(l))}


def nd_gamma_full_grid(mats) -> float:
    """``nd_gamma_of`` with every grid held whole: max over a stacked
    (3, m, m) array and ``np.argmin`` over the result."""
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
    val, tc, te = grid_min(math.pi, two_pi, math.pi, two_pi, ND_GRID)
    span = two_pi / ND_GRID
    for _ in range(ND_REFINE):
        val, tc, te = grid_min(tc, 2.0 * span, te, 2.0 * span, 241)
        span = 2.0 * span / 241
    return val


def _nd_inner_min(mats, thetas) -> np.ndarray:
    """min over unit e of max_i |<M_i c, e>| for c = (cos theta, sin theta).

    As a function of the angle of e each |<v_i, e>| (v_i = M_i c) is
    concave between its zeros, so their max is least where a term
    vanishes (e perpendicular to v_i) or two terms cross (e perpendicular
    to v_i + v_j or v_i - v_j): nine candidates.  A zero candidate
    direction leaves e arbitrary; (1, 0) then still gives an upper bound.
    """
    cs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vs = np.stack([cs @ np.asarray(m, dtype=float).T for m in mats])
    pairs = [(0, 1), (0, 2), (1, 2)]
    ws = np.concatenate([vs, [vs[i] + vs[j] for i, j in pairs], [vs[i] - vs[j] for i, j in pairs]])
    es = np.stack([-ws[..., 1], ws[..., 0]], axis=-1)
    norms = np.hypot(es[..., 0], es[..., 1])[..., None]
    es = np.where(norms > 0.0, es / np.where(norms > 0.0, norms, 1.0), [1.0, 0.0])
    vals = np.max(np.abs(np.einsum("inx,knx->kin", vs, es)), axis=1)
    return np.min(vals, axis=0)


def nd_gamma_closed_form(mats, scan: int = 20000, iters: int = 80) -> float:
    """min over unit (c, e) of max_i |<M_i c, e>| with the inner minimum exact.

    c and -c give the same value, so theta runs over [0, pi): a dense scan,
    then golden-section search on the bracket of the best scan point.
    """
    thetas = np.pi * np.arange(scan) / scan
    g = _nd_inner_min(mats, thetas)
    k = int(np.argmin(g))
    lo, hi = thetas[k] - np.pi / scan, thetas[k] + np.pi / scan
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        ga, gb = _nd_inner_min(mats, np.array([a, b]))
        if ga <= gb:
            hi = b
        else:
            lo = a
    return float(min(g[k], *_nd_inner_min(mats, np.array([lo, hi, (lo + hi) / 2]))))


# -- derived quantities read only by the tests -----------------------------


def count_edges(l: int) -> tuple[int, int]:
    """(triangle edges, cables) of the depth-l pre-fractal."""
    return 3 * 3**l, 3 * (3**l - 1) // 2


def ibp_residual(seq, phi, v, depth) -> float:
    """| E_depth(phi, v) + integral of (Laplacian phi) v d(mu_depth) |: one row of ``ibp_table``.

    v must vanish at the three base corners.
    """
    return ibp_table(seq, phi, v, (depth,))[0]["residual"]


#: Orthonormal basis of symmetric 2x2 matrices under the Frobenius inner product.
SYM_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
)


def sym3(mat: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in SYM_BASIS."""
    return np.array([mat[0, 0], math.sqrt(2.0) * mat[0, 1], mat[1, 1]])


def unsym3(vec: np.ndarray) -> np.ndarray:
    off = vec[1] / math.sqrt(2.0)
    return np.array([[vec[0], off], [off, vec[2]]])


def sym_operator3(eps: float) -> np.ndarray:
    """3x3 matrix of the level operator in SYM_BASIS."""
    cols = [sym3(ruelle_apply(eps, b)) for b in SYM_BASIS]
    return np.stack(cols, axis=1)


#: Convergence tolerance and iteration cap of the Perron power iteration.
PERRON_RTOL = 1e-14
PERRON_MAX_ITER = 10_000


def perron_iteration(eps) -> tuple[float, np.ndarray, int]:
    """(lam, Q, iterations) by power iteration on symmetric matrices from the identity,
    tr Q = 2, converged when the relative change of the normalized iterate drops below
    PERRON_RTOL; raises past PERRON_MAX_ITER iterations."""
    q = np.eye(2)  # trace 2 is maintained by the renormalization below
    for it in range(1, PERRON_MAX_ITER + 1):
        nxt = ruelle_apply(eps, q)
        tr = float(np.trace(nxt))
        nxt = nxt * (2.0 / tr)
        if float(np.max(np.abs(nxt - q))) <= PERRON_RTOL * float(np.max(np.abs(nxt))):
            return tr / 2.0, nxt, it
        q = nxt
    raise ArithmeticError(f"no eigenpair convergence within {PERRON_MAX_ITER} iterations")


def total_cable_mass(seq, s_max: int) -> float:
    """Mass of all cables of generations 1..s_max."""
    return math.fsum(m for s in range(1, s_max + 1) for m in cable_masses(seq, s)[0].tolist())


# -- whole-table forms of the blocked paths -----------------------------------


def measure_gasket_terms(seq, u, v, depth, *, absolute=False) -> np.ndarray:
    """The gasket terms tr(tau_w G(F_w b)), G = sym(grad u grad v^t), of every depth-level
    cell in word order, enumerated from the whole ``word_table`` and ``tau_table``.  With
    ``absolute``, each term's rounding scale instead: every coefficient, tau entry and
    coordinate replaced by its absolute value."""
    lin, off = word_table(seq, depth)
    centers = lin @ barycenter() + off
    taus = tau_table(depth)
    if absolute:
        u, v = (Poly2({k: abs(c) for k, c in p.coeffs.items()}) for p in (u, v))
        centers, taus = np.abs(centers), np.abs(taus)
    gux, guy = grad_batch(u, centers[:, 0], centers[:, 1])
    gvx, gvy = grad_batch(v, centers[:, 0], centers[:, 1])
    return taus[:, 0, 0] * gux * gvx + taus[:, 0, 1] * (gux * gvy + guy * gvx) + taus[:, 1, 1] * guy * gvy


def energy_via_measure_whole(seq, u, v, depth) -> float:
    """``energy_via_measure`` by enumeration: every gasket term of ``measure_gasket_terms``,
    then the level chain's limit cable terms, in one fsum."""
    gasket = measure_gasket_terms(seq, u, v, depth)
    (((_, cables),),) = _moment_terms(seq, (depth,), u, v, limit=True)
    return math.fsum(gasket.tolist() + cables)


def vertex_arrays_from_world(seq, l, beta_over_alpha=HARMONIC_RATIO):
    """Every depth-l vertex star, (keys, weights, tangents, points) sorted by key, gathered
    from the whole world arrays: the base corners, then each generation's cable ends, each
    end's cell corner and sides picked from the depth-l corner and side tables."""
    corner_img, side_tan, world_cables = _world(seq, l, beta_over_alpha)
    base = np.arange(3)
    keys, cells, corners = [base], [base * ((3**l - 1) // 2)], [base]
    cable_w, cable_tan = [np.zeros(3)], [np.zeros((3, 2))]
    for s, (starts, ends, vels) in enumerate(world_cables, start=1):
        n, below = len(starts), 3 ** (l - s)
        j, c = np.tile(_END_LETTER, n), np.tile(_END_CORNER, n)
        codes = np.zeros(1, dtype=np.int64)
        for _ in range(s - 1):
            codes = (4 * codes[:, None] + np.arange(1, 4)).ravel()
        keys.append(3 * (4 * np.repeat(codes, 6) + j) * 4 ** (l - s) + c)
        cells.append((3 * np.repeat(np.arange(n), 6) + j - 1) * below + c * ((below - 1) // 2))
        corners.append(c)
        pf = cable_prefactor(seq, s, l)
        cable_w.append(np.tile([pf, -pf], 3 * n))
        cable_tan.append(np.repeat(vels, 2, axis=1).reshape(-1, 2))
    order = np.argsort(np.concatenate(keys))
    keys, cells, corners, cable_w, cable_tan = (np.concatenate(a)[order] for a in (keys, cells, corners, cable_w, cable_tan))
    tri_pf = triangle_edge_prefactor(seq, l)
    weights = np.column_stack([np.where(_CORNER_T[corners] == 0, tri_pf, -tri_pf), cable_w])
    tangents = np.concatenate([side_tan[cells[:, None], _CORNER_SIDE[corners]], cable_tan[:, None]], axis=1)
    return keys, weights, tangents, corner_img[cells, corners]


def harmonic_report_from_world(seq, l, beta_over_alpha=HARMONIC_RATIO):
    """(residual, worst word, worst corner, n_interior, corner norms) of the whole sorted star
    table: ``np.max`` and the first ``np.argmax`` over the interior norms (the first NaN, if any)."""
    keys, weights, tangents, _ = vertex_arrays_from_world(seq, l, beta_over_alpha)
    terms = weights[..., None] * tangents
    norms = np.hypot(*(terms[:, 0] + terms[:, 1] + terms[:, 2]).T)
    interior = norms[3:]
    worst = float(np.max(interior, initial=0.0))
    word, corner = _vertex_name(keys[3 + np.argmax(interior)], l) if not worst <= 0.0 else ((), "")
    return worst, word, corner, len(interior), dict(zip(CORNER_NAMES, norms[:3].tolist()))
