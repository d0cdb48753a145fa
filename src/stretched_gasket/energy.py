"""Dirichlet energy forms on the pre-fractals and their limits.

The depth-l form is a weighted sum of line energies over all edges of the
depth-l pre-fractal:

  * every triangle edge of the 3^l cells carries a / lam_tilde(l);
  * every generation-s cable carries b / (lam_tilde(s-1) * eps_tilde(s,l)
    * (1 - eps_s)).

The forms are evaluated without enumerating edges.  Polynomials of degree
<= d form a space of dimension D = (d+1)(d+2)/2 that affine pullback maps
to itself, so a field is its coefficient vector on the monomial basis and
each level map F^k_i acts by a D x D pullback matrix P_i.  A form on one
depth-l cell (the Gram matrix of the three sides) is folded up to the top
cell, one level at a time:

    H <- (1/lam_k) sum_i P_i^T H P_i + w_k C_k,

where C_k is the Gram matrix of the three generation-k cables and w_k
their weight without the lam_tilde(k-1) factor the later steps supply.
This is the one-step energy recurrence read as an algorithm (decimation-
style renormalization); it costs O(l D^3) where the edge sum costs
O(3^l).  The Gram entries are integrals of derivatives along straight
segments, evaluated with the caller's Gauss rule, so every rule gives the
numbers the edge sum gives; the rule must be exact for the field degrees
(``min_quad_order``).  The folded form is symmetrized and contracted with
exact compensated summation (math.fsum), so E(u, v) == E(v, u) exactly.

The one-step recurrence and self-similarity residuals price their
generation-1 cables with one level of the same fold.  The batched edge
tableau (``_tableau``) remains only for the tests' edge-by-edge routes in
``tests/oracles.py``.

The limit cable form replaces the finite window product eps_tilde(s, l)
with the infinite one and is reported together with a rigorous tail bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthCapExceeded
from .geometry import (
    DEFAULT_DEPTH_CAP,
    AffineMap2,
    barycenter,
    cable_segments,
    triple,
    word_table,
    SIDE_NAMES,
    _SIDE_ENDPOINTS,
    _quotient,
)
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq
from .scalarfield import Poly2, sup_bounds

DEFAULT_QUAD_ORDER = 8


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre rule on [0,1], exact for degree <= 2n-1."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int = DEFAULT_QUAD_ORDER) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        x, w = np.polynomial.legendre.leggauss(order)
        nodes = 0.5 * (x + 1.0)
        weights = 0.5 * w
        rule = cls(order, nodes, weights)
        rule._verify()
        nodes.flags.writeable = False
        weights.flags.writeable = False
        return rule

    def _verify(self):
        # Monomial exactness check on every degree the rule claims.
        for k in range(2 * self.order):
            got = float(self.weights @ self.nodes**k)
            want = 1.0 / (k + 1)
            if abs(got - want) > 5e-14:
                raise ValueError(
                    f"quadrature self-check failed at degree {k}: {got} vs {want}"
                )


@functools.lru_cache(maxsize=16)
def get_quadrature(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    return QuadratureRule.gauss(order)


def min_quad_order(deg_u: int, deg_v: int) -> int:
    """Lowest Gauss order exact for the line integrands of fields of these degrees.

    Along a straight segment z, (u o z)'(v o z)' and (u o z)''(v o z) are
    polynomials of degree deg_u + deg_v - 2 in the curve parameter, and an
    n-point rule is exact up to degree 2n - 1.
    """
    return max(1, math.ceil((deg_u + deg_v - 1) / 2))


def resolve_quadrature(quad: QuadratureRule | None, deg_u: int, deg_v: int) -> QuadratureRule:
    """The rule to use for a field pair: ``quad`` if exact, else refuse.

    ``None`` selects order max(8, min_quad_order); an explicit rule below
    the minimum raises ValueError instead of returning a wrong integral.
    """
    need = min_quad_order(deg_u, deg_v)
    if quad is None:
        return get_quadrature(max(DEFAULT_QUAD_ORDER, need))
    if quad.order < need:
        raise ValueError(
            f"quadrature order {quad.order} is below {need}, the lowest order "
            f"exact for fields of degrees {deg_u} and {deg_v}"
        )
    return quad


@dataclass(frozen=True)
class EnergyReport:
    """Assembled depth-l energy: triangle part, cable part, their sum."""

    depth: int
    e1: float
    e2: float
    total: float


# -- monomial pullback fold ------------------------------------------------

#: Working precision of the fold.  Where numpy's longdouble is the 80-bit
#: x87 format it carries 11 bits beyond double, which absorbs the
#: cancellation of a contraction c_u^T H c_v (short cables, fields that
#: vanish along a side) and keeps the folded forms at least as accurate as
#: the edge sum; where longdouble is double the fold runs in double.
_EXT = np.longdouble

#: Origin of the monomial basis: the barycenter of the base triangle, so
#: every cell-local coordinate stays within 0.58 of it.
_CENTER = barycenter().astype(_EXT)


def _dim(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def _slot(m: int, n: int) -> int:
    """Position of the monomial with exponents (m, n) in ``_exponents`` order."""
    return (m + n) * (m + n + 1) // 2 + n


@functools.lru_cache(maxsize=32)
def _exponents(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (m, n) of the basis monomials, m + n <= d.

    Graded by total degree k, then by n, so (x-c_x)^m (y-c_y)^n sits at
    position k(k+1)/2 + n.
    """
    m = np.array([k - n for k in range(d + 1) for n in range(k + 1)])
    n = np.array([n for k in range(d + 1) for n in range(k + 1)])
    m.flags.writeable = False
    n.flags.writeable = False
    return m, n


def _pullback(linear: np.ndarray, offset: np.ndarray, d: int) -> np.ndarray:
    """Matrix P with P @ coeffs(p) = coeffs(p o F), F(z) = linear @ z + offset.

    Coefficients are on the plain monomials x^m y^n, in ``_exponents`` order.
    """
    m_idx, n_idx = _exponents(d)
    out = np.zeros((_dim(d), _dim(d)), dtype=_EXT)

    def times(poly: np.ndarray, row: int) -> np.ndarray:
        # Dense poly[m, n] (coefficient of x^m y^n) times coordinate ``row`` of F.
        res = offset[row] * poly
        res[1:, :] += linear[row, 0] * poly[:-1, :]
        res[:, 1:] += linear[row, 1] * poly[:, :-1]
        return res

    xpow = np.zeros((d + 1, d + 1), dtype=_EXT)
    xpow[0, 0] = 1.0
    for m in range(d + 1):
        mono = xpow
        for n in range(d + 1 - m):
            out[:, _slot(m, n)] = mono[m_idx, n_idx]
            mono = times(mono, 1)
        xpow = times(xpow, 0)
    return out


def _plain_coeffs(p: Poly2, d: int) -> np.ndarray:
    """Coefficients of p on the plain monomials x^m y^n, m + n <= d."""
    out = np.zeros(_dim(d), dtype=_EXT)
    for (m, n), c in p.coeffs.items():
        out[_slot(m, n)] = c
    return out


def _map_pullback(amap: AffineMap2, d: int, *, to_world: bool = False) -> np.ndarray:
    """Pullback by amap on the centered basis: coefficients of p to those of p o amap.

    With ``to_world`` the input side is the plain basis instead (p is a
    field in world coordinates); the output is still centered.
    """
    linear = amap.linear.astype(_EXT)
    offset = linear @ _CENTER + amap.offset.astype(_EXT)
    return _pullback(linear, offset if to_world else offset - _CENTER, d)


@functools.lru_cache(maxsize=64)
def _level_pullbacks(eps: float, d: int) -> np.ndarray:
    """(3, D, D): pullback matrices of the three level maps at stretch eps."""
    out = np.stack([_map_pullback(f, d) for f in triple(eps)])
    out.flags.writeable = False
    return out


def _falling(k: np.ndarray, i: int) -> np.ndarray:
    out = np.ones(k.shape, dtype=_EXT)
    for j in range(i):
        out = out * (k - j)
    return out


def _partials(xs: np.ndarray, ys: np.ndarray, d: int, i: int, j: int) -> np.ndarray:
    """d^(i+j)/dx^i dy^j of every basis monomial at centered points: (D, npts)."""
    m, n = _exponents(d)
    top = np.arange(d + 1)[:, None]
    xp = xs[None, :] ** top
    yp = ys[None, :] ** top
    coef = _falling(m, i) * _falling(n, j)
    return coef[:, None] * xp[np.maximum(m - i, 0)] * yp[np.maximum(n - j, 0)]


def _point_partials(point: np.ndarray, d: int, i: int, j: int) -> np.ndarray:
    """d^(i+j)/dx^i dy^j of every basis monomial at one world point: (D,)."""
    at = point.astype(_EXT) - _CENTER
    return _partials(at[:1], at[1:], d, i, j)[:, 0]


def _segment_jets(p0: np.ndarray, dv: np.ndarray, d: int, quad: QuadratureRule, order: int) -> np.ndarray:
    """order-th t-derivative of every basis monomial along each segment p0 + t dv.

    Shape (D, S * nodes), segment-major, at the Gauss nodes.
    """
    ts = quad.nodes.astype(_EXT)
    p0 = p0.astype(_EXT) - _CENTER
    dv = dv.astype(_EXT)
    xs = (p0[:, 0:1] + dv[:, 0:1] * ts).ravel()
    ys = (p0[:, 1:2] + dv[:, 1:2] * ts).ravel()
    dx = np.repeat(dv[:, 0], len(ts))
    dy = np.repeat(dv[:, 1], len(ts))
    if order == 0:
        return _partials(xs, ys, d, 0, 0)
    if order == 1:
        return dx * _partials(xs, ys, d, 1, 0) + dy * _partials(xs, ys, d, 0, 1)
    return (
        dx * dx * _partials(xs, ys, d, 2, 0)
        + 2.0 * dx * dy * _partials(xs, ys, d, 1, 1)
        + dy * dy * _partials(xs, ys, d, 0, 2)
    )


def _segment_form(p0, dv, d, quad, left: int, right: int) -> np.ndarray:
    """Sum over segments of the quadrature of (m_a o z)^(left) (m_b o z)^(right)."""
    w = np.tile(quad.weights.astype(_EXT), len(p0))
    return (_segment_jets(p0, dv, d, quad, left) * w) @ _segment_jets(p0, dv, d, quad, right).T


def _side_arrays() -> tuple[np.ndarray, np.ndarray]:
    p = np.stack([_SIDE_ENDPOINTS[name][0] for name in SIDE_NAMES])
    q = np.stack([_SIDE_ENDPOINTS[name][1] for name in SIDE_NAMES])
    return p, q - p


def _cable_arrays(seq: ParamSeq, s: int) -> tuple[np.ndarray, np.ndarray]:
    segs = cable_segments(seq, s)
    return np.stack([sg.p for sg in segs]), np.stack([sg.velocity for sg in segs])


def _cable_form(seq, s, l, d, quad, constants, *, limit=False, left=1, right=1) -> np.ndarray:
    """Weighted form of the three generation-s cables of one cell.

    The weight is b / (eps_tilde(s, l) (1 - eps_s)), or the infinite
    window product for ``limit``; the fold supplies 1 / lam_tilde(s-1).
    """
    window = seq.eps_tilde_inf(s) if limit else seq.eps_tilde(s, l)
    gram = _segment_form(*_cable_arrays(seq, s), d, quad, left, right)
    depth = "infinity" if limit else l
    return _quotient(constants.b, window * seq.one_minus_eps(s), f"generation-{s} cable form at depth {depth}") * gram


def _fold(seq: ParamSeq, l: int, d: int, seed: np.ndarray, level) -> np.ndarray:
    """Fold stacked cell forms from depth l up to the top cell.

    ``seed`` (F, D, D) holds forms on one depth-l cell; ``level(k)`` returns
    the (F, D, D) forms a depth-(k-1) cell gains from its generation-k
    cables.  Each step applies H <- (1/lam_k) sum_i P_i^T H P_i + level(k).
    """
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    if l > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(f"depth {l} exceeds cap {DEFAULT_DEPTH_CAP}")
    h = seed
    for k in range(l, 0, -1):
        pulls = _level_pullbacks(seq.eps(k), d)
        # np.dot, not matmul: it is the faster longdouble product.
        pulled = [sum(np.dot(p.T, np.dot(form, p)) for p in pulls) for form in h]
        h = _quotient(np.stack(pulled), _EXT(seq.lam(k)), f"lam_{k} of the level-{k} fold step") + level(k)
    return h


def _contract(forms: np.ndarray, u: Poly2, v: Poly2, d: int, outer: AffineMap2 | None = None) -> list[list[float]]:
    """Terms H[a, b] * (cu[a] * cv[b]) of each stacked form, for math.fsum.

    cu, cv are the centered-basis coefficients of u o outer and v o outer.
    Each extended-precision term is split into its double head and the
    exact double remainder, so the compensated sum sees all of its bits.
    """
    pullback = _map_pullback(outer or AffineMap2.identity(), d, to_world=True)
    cu, cv = [pullback @ _plain_coeffs(p, d) for p in (u, v)]
    terms = (forms * np.outer(cu, cv)).reshape(len(forms), -1)
    head = terms.astype(np.float64)
    tail = (terms - head).astype(np.float64)
    return [h.tolist() + t.tolist() for h, t in zip(head, tail)]


def _energy_terms(seq, l, u, v, quad, constants, outer, *, triangles: bool, cables: str | None) -> list[list[float]]:
    """Contraction terms of the requested parts of the depth-l form.

    ``cables`` is "window", "limit" or None; parts come out in the order
    triangles, cables.
    """
    d = max(u.degree, v.degree, 0)
    zero = np.zeros((_dim(d), _dim(d)), dtype=_EXT)
    seed = []
    if triangles:
        seed.append(constants.a * _segment_form(*_side_arrays(), d, quad, 1, 1))
    if cables:
        seed.append(zero)

    def level(k: int) -> np.ndarray:
        out = [zero] if triangles else []
        if cables:
            out.append(_cable_form(seq, k, l, d, quad, constants, limit=cables == "limit"))
        return np.stack(out)

    forms = _fold(seq, l, d, np.stack(seed), level)
    return _contract(0.5 * (forms + forms.transpose(0, 2, 1)), u, v, d, outer)


def _generation1_cables(seq, l, u, v, quad, constants, *, limit=False) -> float:
    """The top cell's generation-1 cable form at depth-l window (or limit) weight.

    This is the cable term of one fold level, without the fold.
    """
    d = max(u.degree, v.degree, 0)
    form = _cable_form(seq, 1, l, d, quad, constants, limit=limit)
    (terms,) = _contract(0.5 * (form + form.T)[None], u, v, d)
    return math.fsum(terms)


# -- edge tableau (the tests' edge-by-edge routes) ------------------------


@dataclass(frozen=True, eq=False)
class _Tableau:
    """Start points and velocities of all edges of a depth-l pre-fractal."""

    depth: int
    tri_p0: np.ndarray  # (3*3^l, 2) word-major, sides AB, BC, AC
    tri_dv: np.ndarray
    cab_p0: tuple[np.ndarray, ...]  # per generation s=1..l: (3*3^(s-1), 2)
    cab_dv: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=64)
def _tableau(seq: ParamSeq, l: int) -> _Tableau:
    lin, off = word_table(seq, l)
    side_p, side_dv = _side_arrays()
    tri_p0 = (np.einsum("wab,sb->wsa", lin, side_p) + off[:, None, :]).reshape(-1, 2)
    tri_dv = np.einsum("wab,sb->wsa", lin, side_dv).reshape(-1, 2)
    cab_p0, cab_dv = [], []
    for s in range(1, l + 1):
        plin, poff = word_table(seq, s - 1)
        sp, sv = _cable_arrays(seq, s)
        cab_p0.append((np.einsum("wab,sb->wsa", plin, sp) + poff[:, None, :]).reshape(-1, 2))
        cab_dv.append(np.einsum("wab,sb->wsa", plin, sv).reshape(-1, 2))
    for arr in (tri_p0, tri_dv, *cab_p0, *cab_dv):
        arr.flags.writeable = False
    return _Tableau(l, tri_p0, tri_dv, tuple(cab_p0), tuple(cab_dv))


# -- the forms -------------------------------------------------------------


def energy1(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
    outer: AffineMap2 | None = None,
) -> float:
    """Triangle-edge part of the depth-l form.

    ``outer`` precomposes the fields with an affine map (the integrand
    becomes the derivative of u o outer o F_w o side), which is how pulled
    back fields enter the recurrence without materializing compositions.
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    (terms,) = _energy_terms(seq, l, u, v, quad, constants, outer, triangles=True, cables=None)
    return math.fsum(terms)


def energy2(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
    outer: AffineMap2 | None = None,
) -> float:
    """Cable part of the depth-l form: generations 1..l, finite window weights."""
    quad = resolve_quadrature(quad, u.degree, v.degree)
    (terms,) = _energy_terms(seq, l, u, v, quad, constants, outer, triangles=False, cables="window")
    return math.fsum(terms)


def energy_total(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
    outer: AffineMap2 | None = None,
) -> EnergyReport:
    """Full depth-l form, triangle and cable parts folded separately.

    The grand total is one compensated sum over the contraction terms of
    both parts.
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    tri, cab = _energy_terms(seq, l, u, v, quad, constants, outer, triangles=True, cables="window")
    return EnergyReport(l, math.fsum(tri), math.fsum(cab), math.fsum(tri + cab))


def cable_tail_bound(seq: ParamSeq, s_max: int, gu: float, gv: float, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Bound for the dropped generations s > s_max of the limit cable form.

    Each generation is bounded by 6 b Gu Gv (1-eps_s) / eps_tilde_inf(s)
    using the Frobenius-norm identity (the squared norms of the depth
    products sum to 2 lam_tilde); eps_tilde_inf(s) >= delta gives a
    summable envelope.  gu, gv are sup bounds of the gradients on the hull.
    """
    delta = seq.delta()
    return 6.0 * constants.b * gu * gv / delta * seq.sum_one_minus_eps_from(s_max + 1)


def energy2_limit(
    seq: ParamSeq,
    u: Poly2,
    v: Poly2,
    s_max: int,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
    outer: AffineMap2 | None = None,
    grad_bounds: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Limit cable form truncated at generation s_max, with a tail bound.

    Returns (value, tail).  ``grad_bounds`` optionally overrides the
    sup-gradient bounds of (u, v) used in the tail (callers pass shrunken
    bounds for pulled-back fields).
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    (terms,) = _energy_terms(seq, s_max, u, v, quad, constants, outer, triangles=False, cables="limit")
    value = math.fsum(terms)
    if grad_bounds is None:
        gu, gv = sup_bounds(u)[0], sup_bounds(v)[0]
    else:
        gu, gv = grad_bounds
    return value, cable_tail_bound(seq, s_max, gu, gv, constants)


def recurrence_residual(
    seq: ParamSeq,
    l: int,
    u: Poly2,
    v: Poly2,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """Defect of the one-step decomposition of the depth-(l+1) form.

    The depth-(l+1) form equals 1/lam_1 times the sum over i of the
    depth-l form of the shifted sequence applied to the pullbacks through
    F^1_i, plus the generation-1 cable sum weighted by the depth-(l+1)
    window.  Returns the absolute defect.
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    lhs = energy_total(seq, l + 1, u, v, quad, constants).total
    shifted = seq.shift()
    parts = [energy_total(shifted, l, u, v, quad, constants, outer=f).total for f in triple(seq.eps(1))]
    rhs = math.fsum(parts) / seq.lam(1) + _generation1_cables(seq, l + 1, u, v, quad, constants)
    return abs(lhs - rhs)


def selfsimilar_residual(
    seq: ParamSeq,
    u: Poly2,
    v: Poly2,
    depth: int,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[float, float]:
    """Defect of the self-similar identity for the limit form, plus bound.

    Both sides are approximated at matched geometric resolution: the left
    side is the depth-``depth`` approximant (triangle form at depth plus
    limit cable form truncated at depth), the right side composes the
    depth-(depth-1) approximants of the shifted sequence with the level-1
    maps, so both resolve words of length ``depth``.  Returns
    (residual, truncation bound), the bound being the sum of the tail
    bounds of every limit truncation involved.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    quad = resolve_quadrature(quad, u.degree, v.degree)
    e2l, tail_l = energy2_limit(seq, u, v, depth, quad, constants)
    lhs = energy1(seq, depth, u, v, quad, constants) + e2l
    shifted = seq.shift()
    gu, gv = sup_bounds(u)[0], sup_bounds(v)[0]
    parts = []
    tails = [tail_l]
    for f in triple(seq.eps(1)):
        opn = float(np.linalg.norm(f.linear, 2))
        e2i, tail_i = energy2_limit(
            shifted, u, v, depth - 1, quad, constants, outer=f,
            grad_bounds=(gu * opn, gv * opn),
        )
        parts.append(energy1(shifted, depth - 1, u, v, quad, constants, outer=f) + e2i)
        tails.append(tail_i / seq.lam(1))
    rhs = math.fsum(parts) / seq.lam(1) + _generation1_cables(seq, depth, u, v, quad, constants, limit=True)
    return abs(lhs - rhs), math.fsum(tails)


def convergence_rows(
    seq: ParamSeq,
    u: Poly2,
    v: Poly2,
    l_max: int,
    quad: QuadratureRule | None = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[dict]:
    """Depth sweep of the full form with increment envelopes.

    Row l reports E_l and delta = E_l - E_{l-1}; the envelope column
    bounds |E_{l+1} - E_l| by the cell-oscillation term (Hessian and
    gradient sup bounds times the largest cell diameter) plus the exact
    cable reweighting and one new cable generation.
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    gu, hu = sup_bounds(u)
    gv, hv = sup_bounds(v)
    rows = []
    prev = None
    for l in range(l_max + 1):
        rep = energy_total(seq, l, u, v, quad, constants)
        diam = 0.6**l * (seq.eps_tilde(1, l) if l >= 1 else 1.0)
        om = seq.one_minus_eps(l + 1)
        eps_next = seq.eps(l + 1)
        envelope = (
            6.0 * constants.a * (hu * gv + gu * hv) * diam
            + abs(rep.e2) * om / eps_next
            + 6.0 * constants.b * gu * gv * om / eps_next
        )
        rows.append(
            {
                "l": l,
                "e1": rep.e1,
                "e2": rep.e2,
                "total": rep.total,
                "delta": None if prev is None else rep.total - prev,
                "envelope": envelope,
            }
        )
        prev = rep.total
    return rows
