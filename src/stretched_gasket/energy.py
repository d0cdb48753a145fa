"""Dirichlet energy forms on the pre-fractals and their limits.

The depth-l form is a weighted sum of line energies over all edges of the
depth-l pre-fractal:

  * every triangle edge of the 3^l cells carries a / lam_tilde(l);
  * every generation-s cable carries b / (lam_tilde(s-1) * eps_tilde(s,l)
    * (1 - eps_s)),

with a = b = 1/3 (``params.A``).

The forms are read from one chain of symmetric matrix polynomials, without
enumerating edges.  Each integrand is dv^T G(z) dv along a segment z = p0 +
t dv, with G = sym(grad u grad v^T) for the energy form and G = v D^2 u
for the weak pairing's (u o z)'' (v o z) and the IBP measure side.  The
level maps' linear parts are sqrt(lam_k (3/5)) B_i for fixed factors B_i
(``geometry._LEVEL_FACTORS``), so the chain H_0 = G, H_k(x) = sum_i B_i
H_(k-1)(F^k_i x) B_i, which sums P_w^T G(F_w x) P_w over the depth-k words
(P_w = B_(w_1) ... B_(w_k)), gives every form as a readout:

    E_l = a (3/5)^l r_side . H_l + sum_{k<=l} w(k, l) r_k . H_(k-1),

with r_side and r_k the integrals of the monomials along the cell sides and
the generation-k cables, weighted by (dx^2, 2 dx dy, dy^2), and w(k, l) =
b (3/5)^(k-1) / (eps_tilde(k, l) (1 - eps_k)).  The IBP cell term and the
measure energy's gasket half are the barycenter readout c (3/5)^l (h11 +
h22)(b).  A state is (h11, h12, h22) on the D' = (n+1)(n+2)/2 monomials of
degree <= n = deg u + deg v - 2 centred at b; a level step, three D' x D'
pullbacks (``scalarfield._pullback``) and the conjugations
``_CONJUGATIONS``, costs O(D'^2), and one chain to depth L gives every
depth l <= L.  The readouts are exact: a Gauss rule of n // 2 + 1
longdouble points (``_gauss``) integrates the restricted monomials exactly.
The moment pass this chain replaced is the oracle of ``tests/oracles.py``.

Level k's pullbacks and cable readout depend on eps_k alone, so every form
and field pair of a degree reads them from one table cache (``_TABLES``),
keyed on (log eps_k, n) and bounded by ``_TABLE_BUDGET`` (64 MiB, least
recently used entries leaving first); the missing ones are built in one
stacked call each, with the bits of the per-map and per-generation builds.
A chain stores no states: every call steps its tops from H_0, checking
lam_k on each level.  Before allocating, a chain refuses a dense working
set above ``_PASS_BUDGET`` (512 MiB) with ``WorkingSetTooLarge``: at depth
12 it admits n <= 42 (fields of degree 22 for u = v), at depth 1 n <= 78
(degree 40).  The readouts are summed exactly (math.fsum of every term's
double head and remainder), and G = sym(grad u grad v^T) has the same bits
for (u, v) and (v, u), so E(u, v) == E(v, u) exactly.

The chain has two entries, both reading ``_readouts``.  ``_moment_terms``
takes fields, depths and forms (``_FORMS``) in and gives fsum-ready terms
out, summed with ``_fsum``, which refuses an overflowing total; forms of
one G read one chain of it.  ``_one_step`` serves the one-step recurrence
and self-similarity residuals: they read their generation-1 cable term
from the left side's chain and run the three pulled-back fields (u o
F^1_i, v o F^1_i) as one stacked chain on the shifted sequence.  Other
modules build no states.  The batched edge tableau (``_tableau``, the
geometry module's edge table cut by generation, the last one kept: 76.5 MB
at the depth cap) serves only the tests' edge-by-edge routes in
``tests/oracles.py``.

The limit cable form replaces the finite window product eps_tilde(s, l)
with the infinite one and is reported together with a rigorous tail bound.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import PrefactorUnderflow, TermOverflow, WorkingSetTooLarge
from .geometry import (
    _LEVEL_FACTORS,
    _cable_stack,
    _quotient,
    _require_depth,
    _side_arrays,
    barycenter,
    prefractal_edges,
    triple,
)
from .params import A, ParamSeq
from .scalarfield import _EXT, Poly2, _dim, _exponents, _plain_coeffs, _pullback, _slot, sup_bounds


@dataclass(frozen=True)
class EnergyReport:
    """Assembled depth-l energy: triangle part, cable part, their sum."""

    depth: int
    e1: float
    e2: float
    total: float


# -- the level chain -------------------------------------------------------

#: Origin of the monomial basis: the barycenter of the base triangle, so
#: every cell-local coordinate stays within 0.58 of it.
_CENTER = barycenter().astype(_EXT)

#: B_i H B_i on the entries (h11, h12, h22) of a symmetric H, (map i, entry out, entry in),
#: for the level factors B_i = [[p, q], [q, r]] (``geometry._LEVEL_FACTORS``), and as the
#: (entry out, (map i, entry in)) matrix that the level step applies.
_CONJUGATIONS = np.array([[[p * p, 2 * p * q, q * q], [p * q, p * r + q * q, q * r], [q * q, 2 * q * r, r * r]] for (p, q), (_, r) in _LEVEL_FACTORS.tolist()])
_CONJUGATION_ROWS = np.ascontiguousarray(_CONJUGATIONS.transpose(1, 0, 2).reshape(3, 9))


def _translation(lin: np.ndarray, off: np.ndarray) -> np.ndarray:
    """T c + o in ``_EXT`` for each map F x = T x + o of a stack (lin (S, 2, 2), off (S, 2)), c the
    basis centre: the ``_pullback`` shift from the plain basis onto the centred one."""
    return lin.astype(_EXT) @ _CENTER + off.astype(_EXT)


@functools.lru_cache(maxsize=16)
def _centering(d: int) -> np.ndarray:
    """Pullback by the identity from the plain to the centered basis."""
    return _read_only(_pullback(np.eye(2)[None], _CENTER[None], d)[0])


def _degrees(u: Poly2, v: Poly2) -> tuple[int, int]:
    """(d, n): the larger field degree, at least 0, and the chain's degree n = deg u + deg v - 2
    with each degree at least 1, which bounds every form's G (G = 0 for a constant field)."""
    return max(u.degree, v.degree, 0), max(u.degree, 1) + max(v.degree, 1) - 2


@functools.lru_cache(maxsize=32)
def _derivatives(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, factor), each (2, D_(d-1)): the partials d/dx, d/dy of a degree-d vector c are
    c[source] * factor."""
    m, n = _exponents(d - 1)
    return _read_only(np.stack([_slot(m + 1, n), _slot(m, n + 1)])), _read_only(np.stack([m + 1, n + 1]).astype(_EXT))


def _gradient(c: np.ndarray, d: int) -> np.ndarray:
    """(..., 2, D_(d-1)): the partials d/dx and d/dy of degree-d coefficient vectors c (..., D_d)."""
    source, factor = _derivatives(d)
    return c[..., source] * factor


@functools.lru_cache(maxsize=32)
def _product_pairs(g: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The slot pairs (a, b), a <= b, of two degree-g vectors with a product of degree <= n (<= 2g),
    grouped by the product's slot: (a, b, the diagonal pairs, where each of the D_n groups starts)."""
    m, k = _exponents(g)
    a, b = np.triu_indices(_dim(g))
    a, b = a[m[a] + k[a] + m[b] + k[b] <= n], b[m[a] + k[a] + m[b] + k[b] <= n]
    slots = _slot(m[a] + m[b], k[a] + k[b])
    order = np.argsort(slots, kind="stable")
    a, b = a[order], b[order]
    return tuple(_read_only(arr) for arr in (a, b, np.flatnonzero(a == b), np.searchsorted(slots[order], np.arange(_dim(n)))))


def _product(p: np.ndarray, q: np.ndarray, g: int, n: int) -> np.ndarray:
    """(..., D_n): the degree-<=n part of the products of degree-g stacks p, q (..., D_g), with the
    same bits for (q, p): a slot pair adds its cross products p_a q_b + p_b q_a, which commute."""
    a, b, diagonal, starts = _product_pairs(g, n)
    terms = p[..., a] * q[..., b] + p[..., b] * q[..., a]
    terms[..., diagonal] *= 0.5
    return np.add.reduceat(terms, starts, axis=-1)


def _fields(u: Poly2, v: Poly2, d: int, outer: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Centered coefficients (S, D_d) of u o F_s and v o F_s for the S maps of ``outer`` (lin (S, 2, 2),
    off (S, 2)), pulled back in one ``_pullback``, or None for the identity (S = 1)."""
    pullbacks = _centering(d)[None] if outer is None else _pullback(outer[0], _translation(*outer), d)
    return pullbacks @ _plain_coeffs(u, d), pullbacks @ _plain_coeffs(v, d)


def _gradient_top(cu: np.ndarray, cv: np.ndarray, d: int, n: int) -> np.ndarray:
    """(S, 3, D_n): G = sym(grad u grad v^T), entries (h11, h12, h22), of centered fields (S, D_d),
    with the same bits for (v, u): h12 = (u_x v_y + u_y v_x) / 2 adds two commuting products."""
    out = np.zeros((len(cu), 3, _dim(n)), _EXT)
    if d >= 1:
        products = _product(_gradient(cu, d)[:, [0, 0, 1, 1]], _gradient(cv, d)[:, [0, 1, 0, 1]], d - 1, n)
        out[:, 0], out[:, 1], out[:, 2] = products[:, 0], 0.5 * (products[:, 1] + products[:, 2]), products[:, 3]
    return out


def _hessian_top(cu: np.ndarray, cv: np.ndarray, d: int, n: int) -> np.ndarray:
    """(S, 3, D_n): G = v D^2 u, entries (v u_xx, v u_xy, v u_yy), of centered fields (S, D_d)."""
    out = np.zeros((len(cu), 3, _dim(n)), _EXT)
    if d >= 2:  # u_xx, u_xy and u_yy, padded to degree d
        hessian = np.zeros((len(cu), 3, _dim(d)), _EXT)
        hessian[..., : _dim(d - 2)] = _gradient(_gradient(cu, d), d - 1).reshape(len(cu), 4, -1)[:, [0, 1, 3]]
        out[:] = _product(hessian, cv[:, None], d, n)
    return out


@functools.lru_cache(maxsize=16)
def _gauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, in ``_EXT``, of the ``points``-point Gauss-Legendre rule on [0, 1]: numpy's
    double nodes refined by Newton steps, checked on every degree it integrates exactly (< 2 points)."""
    x = np.polynomial.legendre.leggauss(points)[0].astype(_EXT)
    for _ in range(3):
        p, dp = _legendre(points, x)
        x = x - p / dp
    _, dp = _legendre(points, x)
    nodes, weights = (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)
    for k in range(2 * points):
        got, want = weights @ nodes**k, _EXT(1) / (k + 1)
        if abs(got - want) > 4 * points * np.finfo(_EXT).eps:
            raise ValueError(f"quadrature self-check failed at degree {k}: {got} vs {want}")
    return _read_only(nodes), _read_only(weights)


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Legendre polynomial P_q and its derivative at x, by the three-term recurrence."""
    p0, p1, d0, d1 = np.ones_like(x), x, np.zeros_like(x), np.ones_like(x)
    for k in range(2, q + 1):
        p0, p1, d0, d1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, d1, d0 + (2 * k - 1) * p1
    return p1, d1


def _segment_integrals(p0: np.ndarray, dv: np.ndarray, n: int) -> np.ndarray:
    """(G, 3, D_n): the readout of each group of three segments p0 + t dv (G, 3, 2), t in [0, 1]:
    entry (e, m) sums the integrals of monomial m along them weighted by dx^2, 2 dx dy or dy^2
    (e = h11, h12, h22), so H . readout = sum_z int_0^1 dv^T H(z(t)) dv dt.  Exact up to rounding:
    the ``n // 2 + 1``-point rule integrates the degree-n restricted monomials exactly."""
    nodes, weights = _gauss(n // 2 + 1)
    dv = dv.astype(_EXT)
    xs, ys = ((p0[..., i, None] - _CENTER[i]) + dv[..., i, None] * nodes for i in (0, 1))
    m, k = _exponents(n)
    powers = np.arange(n + 1)[:, None]
    xp, yp = xs[..., None, :] ** powers, ys[..., None, :] ** powers
    integrals = (xp[..., m, :] * yp[..., k, :]) @ weights
    entries = np.stack([dv[..., 0] * dv[..., 0], 2 * dv[..., 0] * dv[..., 1], dv[..., 1] * dv[..., 1]], axis=-1)
    return entries.swapaxes(-1, -2) @ integrals


# -- level tables and the chain --------------------------------------------

#: Byte budget of the level-table cache ``_TABLES`` (64 MiB).
_TABLE_BUDGET = 64 << 20

#: Byte budget of one chain's dense working set (512 MiB), checked before
#: anything is allocated.
_PASS_BUDGET = 512 << 20


class _TableCache:
    """Entries of read-only tables (name -> array) by key, bounded in bytes.

    Least recently used entries leave once the arrays held pass ``budget``
    bytes; an entry larger than the budget is not kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key) -> dict:
        entry = self._entries.get(key, {})
        if entry:
            self._entries.move_to_end(key)
        return entry

    def add(self, key, entry: dict) -> dict:
        """Store ``entry`` at a key not held; returns it."""
        size = _nbytes(entry)
        if size <= self.budget:
            while self.nbytes + size > self.budget:
                self.nbytes -= _nbytes(self._entries.popitem(last=False)[1])
            self._entries[key] = entry
            self.nbytes += size
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


def _nbytes(entry: dict) -> int:
    return sum(arr.nbytes for arr in entry.values())


_TABLES = _TableCache(_TABLE_BUDGET)


def _require_budget(d: int, n: int, levels: int, tops: int) -> None:
    """Refuse, before allocating, a chain to depth ``levels`` on ``tops`` tops whose dense working
    set passes ``_PASS_BUDGET``: three D_n x D_n pullbacks a level, the D_d x D_d pullbacks that
    form each top's G, and per top and level its state, cable terms and sums (3 D_n each)."""
    big, small = _dim(n), _dim(d)
    need = (3 * levels * big**2 + 3 * tops * small**2 + 9 * (tops + 1) * (levels + 1) * big) * np.dtype(_EXT).itemsize
    if need > _PASS_BUDGET:
        raise WorkingSetTooLarge(
            f"fields of degree {d} (D = {big} monomials of degree {n}) need about {need / 2**20:.0f} MiB "
            f"in the level chain, above its {_PASS_BUDGET >> 20} MiB budget"
        )


def _level_tables(seq: ParamSeq, logs: list[float], n: int) -> tuple[np.ndarray, list[dict]]:
    """The sides' readout (3, D_n) and, for each level k = 1..len(logs) (``logs[k - 1]`` = log eps_k),
    its "pullbacks" (3, D_n, D_n) and its cable "cables" readout (3, D_n), from ``_TABLES``; the
    missing ones are built in one ``_pullback`` and one ``_segment_integrals`` call, once per key.
    A level is keyed on log eps_k, not eps_k, because its cable length 1 - eps_k is expm1 of it."""
    keys = [("sides", n)] + [(log, n) for log in logs]
    found = {key: _TABLES.get(key) for key in keys}
    # Group 0 is the sides, group k level k; the first level of a key stands for it.
    missing = {}
    for g, key in enumerate(keys):
        if not found[key]:
            missing.setdefault(key, g)
    levels = [g for g in missing.values() if g]
    if missing:
        p0, dv = _cable_stack(seq, levels)
        if 0 in missing.values():
            side_p0, side_dv = _side_arrays()
            p0, dv = np.concatenate([side_p0[None], p0]), np.concatenate([side_dv[None], dv])
        readouts = iter(_segment_integrals(p0, dv, n))
        if 0 in missing.values():
            found[keys[0]] = _TABLES.add(keys[0], {"sides": _read_only(next(readouts))})
    if levels:
        lins, offs = (np.concatenate(maps) for maps in zip(*(triple(seq.eps(g)) for g in levels)))
        stack = _pullback(lins, _translation(lins, offs) - _CENTER, n).reshape(len(levels), 3, _dim(n), _dim(n))
        for g, pulls, cables in zip(levels, stack, readouts):
            found[keys[g]] = _TABLES.add(keys[g], {"pullbacks": _read_only(pulls), "cables": _read_only(cables)})
    return found[keys[0]]["sides"], [found[key] for key in keys[1:]]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _step(seq: ParamSeq, k: int, held: np.ndarray, pullbacks: np.ndarray) -> np.ndarray:
    """H_k = sum_i C_i (x) P_{k,i} H_{k-1} on stacked states ``held`` (S, 3, D_n), each state's bits
    those it has alone.  lam_k must be positive: (3/5)^k stands for the weights a / lam_tilde(k)."""
    lam = seq.lam(k)
    if lam == 0.0 or not math.isfinite(lam):
        raise PrefactorUnderflow(f"lam_{k} of the level-{k} chain step: denominator {lam!r} underflows or is not finite")
    rows = held.shape[-1]
    pulled = np.matmul(held.reshape(-1, rows), pullbacks.transpose(0, 2, 1))
    return _CONJUGATION_ROWS @ pulled.reshape(3, -1, 3, rows).transpose(1, 0, 2, 3).reshape(-1, 9, rows)


def _chain(seq: ParamSeq, levels: list[dict], tops: np.ndarray) -> np.ndarray:
    """(F, L + 1, 3, D_n): the states H_0..H_L of each top (F, 3, D_n), L = len(levels), every top
    stepped as one stack through every level."""
    states = np.empty((len(tops), len(levels) + 1, *tops.shape[1:]), _EXT)
    states[:, 0] = tops
    for k, level in enumerate(levels, 1):
        states[:, k] = _step(seq, k, states[:, k - 1], level["pullbacks"])
    return states


@functools.lru_cache(maxsize=None)
def _scales(count: int) -> np.ndarray:
    """(3/5)^0, ..., (3/5)^(count - 1) in ``_EXT``, each rounded once."""
    return _read_only(np.array([_EXT(3**k) / _EXT(5**k) for k in range(count)], _EXT))


def _readouts(seq, depths, n, tops, cells, *, limit=False):
    """For each depth l of ``depths`` in order, the list over ``cells`` of (cell part, cable part,
    generation-1 cable part), elementwise products for ``_split``, from one chain of the tops
    (F, 3, D_n): each top is stepped once, however many cells read it.

    A cell (f, readout, c) reads top f's chain: "sides", c (3/5)^l r_side * H_l, or
    "barycenter", c (3/5)^l (h11 + h22)(b).  Generation k's cable part is w(k, l) r_k * H_(k-1)
    at w(k, l) = b (3/5)^(k-1) / (eps_tilde(k, l) (1 - eps_k)), or the infinite window for
    ``limit``, summed over the generations in extended precision.
    """
    depths = list(depths)
    for l in depths:
        _require_depth(l)
    l_max = max(depths, default=0)
    logs = [seq.log_eps(k) for k in range(1, l_max + 1)]
    sides, levels = _level_tables(seq, logs, n)
    states = _chain(seq, levels, tops)
    readouts = np.array([level["cables"] for level in levels], _EXT).reshape(l_max, 3, _dim(n))
    terms = (readouts * states[:, :-1]).reshape(len(tops), l_max, 3 * _dim(n))
    # Read once per level, after the chain, so that an underflowing lam_k is
    # reported first.  The finite windows are exp(fsum) of the logs, as
    # ParamSeq.eps_tilde forms them; fsum rounds exactly, so the bits agree.
    lengths = [-math.expm1(log) for log in logs]
    windows = [seq.eps_tilde_inf(k) for k in range(1, l_max + 1)] if limit else None
    weights = np.zeros((len(depths), l_max))
    for row, l in enumerate(depths):
        for k in range(1, l + 1):
            den = (windows[k - 1] if limit else math.exp(math.fsum(logs[k - 1 : l]))) * lengths[k - 1]
            if den == 0.0 or not math.isfinite(den):
                _quotient(A, den, f"generation-{k} cable weight at depth {'infinity' if limit else l}")
            weights[row, k - 1] = A / den
    weights = weights.astype(_EXT) * _scales(l_max)
    # Summed generation by generation, elementwise: no BLAS product, whose summation order
    # would depend on the number of generations, so a sweep's rows keep their bits.
    cables = np.zeros((len(tops), len(depths), terms.shape[-1]), _EXT)
    for k in range(l_max):
        cables += weights[:, k, None] * terms[:, None, k]
    for row, l in enumerate(depths):
        parts = []
        for f, readout, constant in cells:
            held = states[f, l]
            cell = sides * held if readout == "sides" else (held[0, :1] + held[2, :1])
            first = weights[row, 0] * terms[f, 0] if l else cables[f, row]
            parts.append((constant * _scales(l + 1)[l] * cell, cables[f, row], first))
        yield parts


def _split(terms: np.ndarray, what: str = "a form term") -> list[float]:
    """Double head and exact double remainder of every term, for math.fsum; a non-finite head
    raises TermOverflow naming ``what``."""
    with np.errstate(over="ignore"):
        head = terms.astype(np.float64)
    if not np.isfinite(head).all():
        largest = np.format_float_scientific(np.max(np.abs(terms)), precision=3)
        raise TermOverflow(f"{what} overflows the double range (largest |term| {largest})")
    return head.ravel().tolist() + (terms - head).astype(np.float64).ravel().tolist()


def _fsum(terms) -> float:
    """math.fsum of finite double terms; a total past the double range raises TermOverflow."""
    try:
        return math.fsum(terms)
    except OverflowError:  # every term is finite (_split): only the running sum can overflow
        raise TermOverflow("a sum of form terms overflows the double range") from None


def _report(l: int, tri: list[float], cab: list[float]) -> EnergyReport:
    return EnergyReport(l, _fsum(tri), _fsum(cab), _fsum(tri + cab))


#: The forms of the chain by name: the top state G, the cell readout and its constant, and
#: what an overflowing cell term is called.
_FORMS = {
    "energy": (_gradient_top, "sides", A, "a form term"),  # E(u, v): G = sym(grad u grad v^T)
    "pairing": (_hessian_top, "sides", A, "a form term"),  # the weak pairing's (u o z)'' (v o z): G = v D^2 u
    "ibp": (_hessian_top, "barycenter", 1.5 * A, "a form term"),  # the IBP measure side: (3a/2) Lap f(b) g(b)
    "gasket": (_gradient_top, "barycenter", 0.5, "the gasket half of the measure"),  # tr(tau_w G(F_w b))
}


def _moment_terms(seq, depths, u, v, forms=("energy",), *, limit=False):
    """The one entry to the level chain: fields in, fsum-ready terms out.

    Yields, for each depth of ``depths`` in order, one (cell terms, cable terms)
    pair per named form of ``_FORMS`` (``limit``: cables at infinite windows).
    Forms with the same top G read one chain of it."""
    d, n = _degrees(u, v)
    depths = list(depths)
    rows = [_FORMS[name] for name in forms]
    builders = list(dict.fromkeys(top for top, *_ in rows))  # forms of one G share its chain
    _require_budget(d, n, max(depths, default=0), len(builders))
    cu, cv = _fields(u, v, d)
    tops = np.concatenate([top(cu, cv, d, n) for top in builders])
    cells = [(builders.index(top), readout, constant) for top, readout, constant, _ in rows]
    for parts in _readouts(seq, depths, n, tops, cells, limit=limit):
        yield [(_split(cell, what), _split(cables)) for (cell, cables, _), (*_, what) in zip(parts, rows)]


# -- edge tableau (the tests' edge-by-edge routes) ------------------------


@dataclass(frozen=True, eq=False)
class _Tableau:
    """Start points and velocities of all edges of a depth-l pre-fractal."""

    depth: int
    tri_p0: np.ndarray  # (3*3^l, 2) word-major, sides AB, BC, AC
    tri_dv: np.ndarray
    cab_p0: tuple[np.ndarray, ...]  # per generation s=1..l: (3*3^(s-1), 2)
    cab_dv: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=1)
def _tableau(seq: ParamSeq, l: int) -> _Tableau:
    edges = prefractal_edges(seq, l)
    # The edge table's start and velocity columns, cut where each generation ends.
    cuts = np.cumsum([3 * 3**l] + [3**s for s in range(1, l + 1)])[:-1]
    p0, dv = (np.split(np.column_stack(cols), cuts) for cols in ((edges.px, edges.py), (edges.vx, edges.vy)))
    for arr in (*p0, *dv):
        arr.flags.writeable = False
    return _Tableau(l, p0[0], dv[0], tuple(p0[1:]), tuple(dv[1:]))


# -- the forms -------------------------------------------------------------


def _quad_slot(quad) -> None:
    """Refuse anything but None in a form's trailing ``quad`` slot.

    The forms choose their own Gauss rule (``_gauss_order``).  The slot
    stays on the seven functions that perfbench's library jobs call with
    ``quad=None``, and only for those calls; it leaves with them (ROADMAP
    item 7).
    """
    if quad is not None:
        raise ValueError(f"quad takes None only, the forms choose their own Gauss rule; got {quad!r}")


def energy1(seq: ParamSeq, l: int, u: Poly2, v: Poly2) -> float:
    """Triangle-edge part of the depth-l form: ``energy_total(...).e1``."""
    return energy_total(seq, l, u, v).e1


def energy_total(seq: ParamSeq, l: int, u: Poly2, v: Poly2, quad=None) -> EnergyReport:
    """Full depth-l form: triangle part, cable part and their sum (one compensated sum of all terms).

    ``quad`` takes None only (``_quad_slot``)."""
    _quad_slot(quad)
    ((terms,),) = _moment_terms(seq, (l,), u, v)
    return _report(l, *terms)


def cable_tail_bound(seq: ParamSeq, s_max: int, gu: float, gv: float) -> float:
    """Bound for the dropped generations s > s_max of the limit cable form.

    Each generation is bounded by 6 b Gu Gv (1-eps_s) / eps_tilde_inf(s)
    using the Frobenius-norm identity (the squared norms of the depth
    products sum to 2 lam_tilde); eps_tilde_inf(s) >= delta gives a
    summable envelope.  gu, gv are sup bounds of the gradients on the hull.
    """
    delta = seq.delta()
    return 6.0 * A * gu * gv / delta * seq.sum_one_minus_eps_from(s_max + 1)


def energy2_limit(seq: ParamSeq, u: Poly2, v: Poly2, s_max: int) -> tuple[float, float]:
    """Limit cable form truncated at generation s_max, with a tail bound.

    Returns (value, tail); the tail takes the sup-gradient bounds of (u, v).
    """
    (((_, cab),),) = _moment_terms(seq, (s_max,), u, v, limit=True)
    return _fsum(cab), cable_tail_bound(seq, s_max, sup_bounds(u)[0], sup_bounds(v)[0])


def _one_step(seq, l, u, v, *, limit=False) -> tuple[EnergyReport, float, list[EnergyReport]]:
    """The one-step identity's pieces: the depth-(l+1) report of (u, v), its
    generation-1 cable sum, and the depth-l reports of the shifted sequence's
    form on u o F^1_i, v o F^1_i, i = 1, 2, 3, whose top states, G of the
    pulled-back fields, are stacked into one chain on ``seq.shift()``."""
    d, n = _degrees(u, v)
    _require_budget(d, n, l + 1, 3)
    ((whole,),) = _readouts(seq, (l + 1,), n, _gradient_top(*_fields(u, v, d), d, n), [(0, "sides", A)], limit=limit)
    tops = _gradient_top(*_fields(u, v, d, triple(seq.eps(1))), d, n)
    (halves,) = _readouts(seq.shift(), (l,), n, tops, [(f, "sides", A) for f in range(3)], limit=limit)
    return (
        _report(l + 1, _split(whole[0]), _split(whole[1])),
        _fsum(_split(whole[2])),
        [_report(l, _split(cell), _split(cables)) for cell, cables, _ in halves],
    )


def recurrence_residual(seq: ParamSeq, l: int, u: Poly2, v: Poly2, quad=None) -> float:
    """Defect of the one-step decomposition of the depth-(l+1) form.

    The depth-(l+1) form equals 1/lam_1 times the sum over i of the
    depth-l form of the shifted sequence applied to the pullbacks through
    F^1_i, plus the generation-1 cable sum weighted by the depth-(l+1)
    window.  Returns the absolute defect.  ``quad`` takes None only
    (``_quad_slot``).
    """
    _quad_slot(quad)
    whole, cable1, halves = _one_step(seq, l, u, v)
    return abs(whole.total - (_fsum([half.total for half in halves]) / seq.lam(1) + cable1))


def selfsimilar_residual(seq: ParamSeq, u: Poly2, v: Poly2, depth: int, quad=None) -> tuple[float, float]:
    """Defect of the self-similar identity for the limit form, plus bound.

    Both sides are approximated at matched geometric resolution: the left
    side is the depth-``depth`` approximant (triangle form at depth plus
    limit cable form truncated at depth), the right side composes the
    depth-(depth-1) approximants of the shifted sequence with the level-1
    maps, so both resolve words of length ``depth``.  Returns
    (residual, truncation bound), the bound being the sum of the tail
    bounds of every limit truncation involved.  ``quad`` takes None only
    (``_quad_slot``).
    """
    _quad_slot(quad)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    shifted = seq.shift()
    gu, gv = sup_bounds(u)[0], sup_bounds(v)[0]
    lhs, cable1, halves = _one_step(seq, depth - 1, u, v, limit=True)
    tails = [cable_tail_bound(seq, depth, gu, gv)]
    for lin in triple(seq.eps(1))[0]:
        opn = float(np.linalg.norm(lin, 2))
        tails.append(cable_tail_bound(shifted, depth - 1, gu * opn, gv * opn) / seq.lam(1))
    rhs = _fsum([half.e1 + half.e2 for half in halves]) / seq.lam(1) + cable1
    return abs(lhs.e1 + lhs.e2 - rhs), _fsum(tails)


def convergence_rows(seq: ParamSeq, u: Poly2, v: Poly2, l_max: int, quad=None) -> list[dict]:
    """Depth sweep of the full form with increment envelopes.

    Row l reports E_l and delta = E_l - E_{l-1}; the envelope column
    bounds |E_{l+1} - E_l| by the cell-oscillation term (Hessian and
    gradient sup bounds times the largest cell diameter) plus the exact
    cable reweighting and one new cable generation.  Every row comes from
    one level chain to l_max.  ``quad`` takes None only (``_quad_slot``).
    """
    _quad_slot(quad)
    _require_depth(l_max)
    gu, hu = sup_bounds(u)
    gv, hv = sup_bounds(v)
    rows = []
    prev = None
    for l, (terms,) in enumerate(_moment_terms(seq, range(l_max + 1), u, v)):
        rep = _report(l, *terms)
        diam = 0.6**l * (seq.eps_tilde(1, l) if l >= 1 else 1.0)
        om = seq.one_minus_eps(l + 1)
        eps_next = seq.eps(l + 1)
        envelope = (
            6.0 * A * (hu * gv + gu * hv) * diam
            + abs(rep.e2) * om / eps_next
            + 6.0 * A * gu * gv * om / eps_next
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
