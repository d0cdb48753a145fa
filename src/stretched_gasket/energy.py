"""Dirichlet energy forms on the pre-fractals and their limits.

The depth-l form is a weighted sum of line energies over all edges of the
depth-l pre-fractal:

  * every triangle edge of the 3^l cells carries a / lam_tilde(l);
  * every generation-s cable carries b / (lam_tilde(s-1) * eps_tilde(s,l)
    * (1 - eps_s)),

with a = b = 1/3 (``params.A``).

The forms are evaluated without enumerating edges.  Polynomials of degree
<= d form a space of dimension D = (d+1)(d+2)/2 that affine pullback maps
to itself, so a field is its coefficient vector c on the monomial basis
and each level map F^k_i acts by a D x D pullback matrix P_i.  The field
moment M_0 = c_u c_v^T (symmetrized for the energy forms) is pushed down
one level at a time,

    M_k = (1/lam_k) sum_i P_i M_{k-1} P_i^T,

so M_k sums the pulled-back coefficient products of the 3^k depth-k cells
divided by lam_tilde(k).  Every form is then a contraction:

    E_l = <a S, M_l> + sum_{k<=l} w(k, l) <G_k, M_{k-1}>,

with S the Gram matrix of the three sides of a cell, G_k that of the
three generation-k cables and w(k, l) = b / (eps_tilde(k, l) (1 - eps_k)).
One pass to depth L gives every E_l, l <= L, in O(L D^3); the edge sum
costs O(3^l) and a backward fold of the forms (the pass's adjoint, kept as
a test oracle) O(l D^3) per depth.

Level k's three pullbacks and its cable Grams depend on eps_k alone, the
side Grams on nothing but the degree and the Gauss order, so every pass
reads them from one table cache (``_TABLES``): a level's entry is keyed
on (log eps_k, d, order), the side's on (d, order), and least recently
used entries leave once the tables held pass ``_TABLE_BUDGET`` (64 MiB).
The same cache keeps each top moment's chain: the entry of a top M_0 is
keyed on the value bytes of its entries (``_chain_key``, the padding of
an x87 longdouble left out) and d, and holds the moments M_0..M_k with
the log eps_1..eps_k they were pushed through.  A pass resumes from the
longest stored prefix whose logs equal its own, pushes only the levels
beyond it (lam_k is checked on each of them) and stores the extended
chain once the pass has finished; a chain larger than the budget is
neither copied nor kept.  A stored moment is the value the pass computes
from the same top and levels, so the bits do not move.  A pass builds
whatever it misses in stacked evaluations, not one level at a time: the
pullbacks of every missing level in one pass over the monomials, and
their cable Grams (and the side Grams) from one evaluation of the
monomial jets per derivative order and one batched product; the bits are
those of the per-map and per-generation products, so a result does not
depend on what the cache holds.  Before allocating, a pass estimates its
dense working set (D x D tables and moments) and refuses one above
``_PASS_BUDGET`` (512 MiB) with ``WorkingSetTooLarge``.  The Gram entries
are integrals of polynomial derivatives along straight segments, so any
Gauss rule exact for the field degrees gives them up to rounding.  The
pass picks the order itself (``_gauss_order``: the lowest exact one, at
least 8) and builds the nodes and weights (``_gauss``) only when it
builds a Gram, after the working-set guard has passed.  The contraction
uses exact compensated summation (math.fsum), and the symmetrized moment
has the same bits for (u, v) and (v, u), so E(u, v) == E(v, u) exactly.

The pass has one entry, ``_moment_terms``: fields, depths and forms in
(``_FORMS``: the energy form E, the weak pairing's (u o z)'' (v o z), the
IBP measure side with its cell form (3a/2) Lap f(b) g(b) at the
barycenter b), fsum-ready terms out, summed with ``_fsum``, which refuses
an overflowing total.  Other modules use that entry and build no moments.

The one-step recurrence and self-similarity residuals read their
generation-1 cable term from the left side's pass, and run the right
side's three pulled-back fields (u o F^1_i, v o F^1_i), built by one
stacked pullback, as one stacked pass on the shifted sequence.  The
batched edge tableau (``_tableau``, the start and velocity columns of the
geometry module's edge table, cut by generation) remains only for the
tests' edge-by-edge routes in ``tests/oracles.py``; it keeps the last
tableau built (76.5 MB at the depth cap).

The limit cable form replaces the finite window product eps_tilde(s, l)
with the infinite one and is reported together with a rigorous tail bound.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import TermOverflow, WorkingSetTooLarge
from .geometry import (
    _cable_stack,
    _quotient,
    _require_depth,
    _side_arrays,
    barycenter,
    prefractal_edges,
    triple,
)
from .params import A, ParamSeq
from .scalarfield import Poly2, sup_bounds


@dataclass(frozen=True)
class EnergyReport:
    """Assembled depth-l energy: triangle part, cable part, their sum."""

    depth: int
    e1: float
    e2: float
    total: float


# -- monomial moment pass -------------------------------------------------

#: Working precision of the moment pass.  Where numpy's longdouble is the
#: 80-bit x87 format it carries 11 bits beyond double, which absorbs the
#: cancellation of a contraction <G, M> (short cables, fields that vanish
#: along a side) and keeps the forms at least as accurate as the edge sum;
#: where longdouble is double the pass runs in double.
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


def _pullback(lin: np.ndarray, off: np.ndarray, d: int, *, from_plain: bool = False) -> np.ndarray:
    """(S, D, D): the pullback matrix of each of S affine maps (lin (S, 2, 2), off (S, 2))
    on the centered basis.

    P[s] @ coeffs(p) = coeffs(p o F_s), F_s x = lin[s] @ x + off[s], with
    the input on the plain basis instead when ``from_plain`` (p is a field in
    world coordinates); the output is always centered.  One pass over the
    monomials serves the whole stack.
    """
    linear = lin.astype(_EXT)
    offset = linear @ _CENTER + off.astype(_EXT)
    if not from_plain:
        offset = offset - _CENTER
    m_idx, n_idx = _exponents(d)
    out = np.zeros((len(linear), _dim(d), _dim(d)), dtype=_EXT)

    def times(poly: np.ndarray, row: int) -> np.ndarray:
        # Dense poly[..., s, m, n] (coefficient of x^m y^n) times coordinate ``row`` of map s.
        res = offset[:, row, None, None] * poly
        res[..., 1:, :] += linear[:, row, 0, None, None] * poly[..., :-1, :]
        res[..., :, 1:] += linear[:, row, 1, None, None] * poly[..., :, :-1]
        return res

    # Row m of ``mono`` is x'^m (x' the first coordinate of the map), then
    # each step multiplies every row by y' once: row m holds x'^m y'^n.
    mono = [np.zeros((len(linear), d + 1, d + 1), dtype=_EXT)]
    mono[0][:, 0, 0] = 1.0
    for _ in range(d):
        mono.append(times(mono[-1], 0))
    mono = np.stack(mono)
    for n in range(d + 1):
        out[:, :, _slot(np.arange(d + 1 - n), n)] = mono[:, :, m_idx, n_idx].transpose(1, 2, 0)
        mono = times(mono[: d - n], 1)
    return out


def _plain_coeffs(p: Poly2, d: int) -> np.ndarray:
    """Coefficients of p on the plain monomials x^m y^n, m + n <= d."""
    out = np.zeros(_dim(d), dtype=_EXT)
    for (m, n), c in p.coeffs.items():
        out[_slot(m, n)] = c
    return out


def _map_pullback(lin: np.ndarray, off: np.ndarray, d: int, *, from_plain: bool = False) -> np.ndarray:
    """Pullback by one map (lin (2, 2), off (2,)): ``_pullback`` of a stack of one."""
    return _pullback(lin[None], off[None], d, from_plain=from_plain)[0]


@functools.lru_cache(maxsize=16)
def _centering(d: int) -> np.ndarray:
    """Pullback by the identity from the plain to the centered basis."""
    out = _map_pullback(np.eye(2), np.zeros(2), d, from_plain=True)
    out.flags.writeable = False
    return out


def _falling(k: np.ndarray, i: int) -> np.ndarray:
    out = np.ones(k.shape, dtype=_EXT)
    for j in range(i):
        out = out * (k - j)
    return out


def _partials(xs: np.ndarray, ys: np.ndarray, d: int, *orders: tuple[int, int]) -> list[np.ndarray]:
    """d^(i+j)/dx^i dy^j of every basis monomial at centered points, (D, npts)
    for each (i, j) of ``orders``; the powers of the points are taken once."""
    m, n = _exponents(d)
    top = np.arange(d + 1)[:, None]
    xp = xs[None, :] ** top
    yp = ys[None, :] ** top
    return [
        (_falling(m, i) * _falling(n, j))[:, None] * xp[np.maximum(m - i, 0)] * yp[np.maximum(n - j, 0)]
        for i, j in orders
    ]


def _gauss_order(deg_u: int, deg_v: int) -> int:
    """The moment pass's Gauss order for fields of these degrees: the lowest exact one, at least 8.

    Along a straight segment z, (u o z)'(v o z)' and (u o z)''(v o z) are
    polynomials of degree deg_u + deg_v - 2 in the curve parameter, and an
    n-point rule is exact up to degree 2n - 1.
    """
    return max(8, math.ceil((deg_u + deg_v - 1) / 2))


@functools.lru_cache(maxsize=16)
def _gauss(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on [0, 1], checked on
    every monomial degree the rule claims to integrate exactly (<= 2 points - 1)."""
    x, w = np.polynomial.legendre.leggauss(points)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    for k in range(2 * points):
        got, want = float(weights @ nodes**k), 1.0 / (k + 1)
        if abs(got - want) > 5e-14:
            raise ValueError(f"quadrature self-check failed at degree {k}: {got} vs {want}")
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _segment_jets(p0: np.ndarray, dv: np.ndarray, d: int, nodes: np.ndarray, order: int) -> np.ndarray:
    """order-th t-derivative of every basis monomial along each segment p0 + t dv.

    Shape (D, S * nodes), segment-major, at the quadrature ``nodes`` on [0, 1].
    """
    ts = nodes.astype(_EXT)
    p0 = p0.astype(_EXT) - _CENTER
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


def _grams(seq: ParamSeq, groups: list[int], d: int, points: int, pairs) -> dict:
    """Gram stacks of segment groups for each derivative-order pair, from stacked evaluations.

    Group 0 is the three sides of a cell (listed first when present),
    group k >= 1 the three generation-k cables.  Returns, for each (left,
    right) of ``pairs``, a (len(groups), D, D) stack, each Gram summing
    over its segments the ``points``-point Gauss quadrature of
    (m_a o z)^(left) (m_b o z)^(right).
    One ``_segment_jets`` evaluation per derivative order serves every
    group and pair, and one batched product gives every group's Gram.
    """
    p0, dv = _cable_stack(seq, [g for g in groups if g])
    if groups and groups[0] == 0:
        side_p0, side_dv = _side_arrays()
        p0, dv = np.concatenate([side_p0[None], p0]), np.concatenate([side_dv[None], dv])
    p0, dv = p0.reshape(-1, 2), dv.reshape(-1, 2)
    nodes, weights = _gauss(points)
    jets = {
        order: _segment_jets(p0, dv, d, nodes, order).reshape(_dim(d), len(groups), -1).transpose(1, 0, 2)
        for order in {o for pair in pairs for o in pair}
    }
    w = np.tile(weights.astype(_EXT), 3)
    return {(left, right): (jets[left] * w) @ jets[right].transpose(0, 2, 1) for left, right in pairs}


# -- level tables ----------------------------------------------------------

#: Byte budget of the table cache ``_TABLES``, level tables and moment chains (64 MiB).
_TABLE_BUDGET = 64 << 20

#: Byte budget of one moment pass's dense working set (512 MiB), checked
#: before anything is allocated: every table and moment is a D x D matrix.
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

    def add(self, key, tables: dict) -> dict:
        """Merge ``tables`` into the entry at ``key``; returns the merged entry."""
        entry = self._entries.pop(key, {})
        self.nbytes -= _nbytes(entry)
        entry = {**entry, **tables}
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


def _require_budget(d: int, matrices: int) -> None:
    """Refuse, before allocating, a pass that holds ``matrices`` D x D matrices beyond ``_PASS_BUDGET``."""
    need = matrices * _dim(d) ** 2 * np.dtype(_EXT).itemsize
    if need > _PASS_BUDGET:
        raise WorkingSetTooLarge(
            f"fields of degree {d} (D = {_dim(d)} monomials) need about {need / 2**20:.0f} MiB "
            f"in the moment pass, above its {_PASS_BUDGET >> 20} MiB budget"
        )


#: Bytes of a longdouble's value: the x87 80-bit format (64-bit significand,
#: little-endian) fills 10 of its 12 or 16 bytes and leaves the rest as
#: padding, which no operation defines.
_VALUE_BYTES = 10 if np.finfo(_EXT).nmant == 63 else np.dtype(_EXT).itemsize


def _chain_key(top: np.ndarray, d: int) -> tuple:
    """A top moment's key in ``_TABLES``: the value bytes of its entries, without padding, and d."""
    raw = np.ascontiguousarray(top).view(np.uint8).reshape(*top.shape, -1)
    return raw[..., :_VALUE_BYTES].tobytes(), d


def _shared_levels(stored, logs: list[float]) -> int:
    """How many levels, from the first, a stored chain's logs share with ``logs``."""
    return next((k for k, (a, b) in enumerate(zip(stored, logs)) if a != b), min(len(stored), len(logs)))


def _level_tables(seq: ParamSeq, logs: list[float], d: int, points: int, pairs) -> tuple[dict, list[dict]]:
    """The side Grams and, for each level k = 1..len(logs), its pullbacks and cable Grams.

    ``logs[k - 1]`` is log eps_k.  Returns (side, levels): ``side`` maps
    each pair of ``pairs`` to the side Gram and ``levels[k - 1]`` maps
    "pullbacks" and each pair to level k's tables.  They come from
    ``_TABLES``; the missing ones are built together, in one ``_pullback``
    call and one ``_grams`` evaluation, once per distinct key, and stored.
    A level is keyed on log eps_k, not eps_k, because its cable length
    1 - eps_k is expm1 of it, and on the Gauss order ``points`` of its Grams.
    """
    keys = [(d, points)] + [(log, d, points) for log in logs]
    found = dict(zip(keys, (_TABLES.get(key) for key in keys)))
    # Group 0 is the side, group k level k; the first level of a key stands for it.
    pull_groups, gram_groups = {}, {}
    for g, key in enumerate(keys):
        if g and "pullbacks" not in found[key]:
            pull_groups.setdefault(key, g)
        if any(pair not in found[key] for pair in pairs):
            gram_groups.setdefault(key, g)
    new = {key: {} for key in [*pull_groups, *gram_groups]}
    if pull_groups:
        lins, offs = zip(*(triple(seq.eps(g)) for g in pull_groups.values()))
        stack = _pullback(np.concatenate(lins), np.concatenate(offs), d).reshape(len(pull_groups), 3, _dim(d), _dim(d))
        for key, pulls in zip(pull_groups, stack):
            new[key]["pullbacks"] = pulls.copy()
    if gram_groups:
        missing = [pair for pair in pairs if any(pair not in found[key] for key in gram_groups)]
        grams = _grams(seq, list(gram_groups.values()), d, points, missing)
        for i, key in enumerate(gram_groups):
            new[key].update({pair: grams[pair][i].copy() for pair in missing})
    for key, tables in new.items():
        for arr in tables.values():
            arr.flags.writeable = False
        found[key] = _TABLES.add(key, tables)
    return found[keys[0]], [found[key] for key in keys[1:]]


def _top_moments(u: Poly2, v: Poly2, d: int, outer: tuple | None = None, *, symmetric: bool = True) -> np.ndarray:
    """(S, D, D): M_0 = c_u c_v^T for each map of ``outer``, symmetrized for the energy forms.

    c_u, c_v are the centered-basis coefficients of u o F_s and v o F_s,
    ``outer`` a stack of S maps (lin (S, 2, 2), off (S, 2)), pulled back
    in one ``_pullback``, or None for the identity alone (S = 1).
    The symmetrized moment has the same bits for (u, v) and (v, u).  The
    degree guard runs here too, as callers build the moments before the pass.
    """
    count = 1 if outer is None else len(outer[0])
    _require_budget(d, 3 * count)
    pullbacks = _centering(d)[None] if outer is None else _pullback(*outer, d, from_plain=True)
    cu, cv = (pullbacks @ _plain_coeffs(p, d) for p in (u, v))
    top = cu[:, :, None] * cv[:, None, :]
    return 0.5 * (top + top.transpose(0, 2, 1)) if symmetric else top


def _split(terms: np.ndarray) -> list[float]:
    """Double head and exact double remainder of every term, for math.fsum; a non-finite head raises."""
    with np.errstate(over="ignore"):
        head = terms.astype(np.float64)
    if not np.isfinite(head).all():
        largest = np.format_float_scientific(np.max(np.abs(terms)), precision=3)
        raise TermOverflow(f"a form term overflows the double range (largest |term| {largest})")
    return head.ravel().tolist() + (terms - head).astype(np.float64).ravel().tolist()


def _fsum(terms) -> float:
    """math.fsum of finite double terms; a total past the double range raises TermOverflow."""
    try:
        return math.fsum(terms)
    except OverflowError:  # every term is finite (_split): only the running sum can overflow
        raise TermOverflow("a sum of form terms overflows the double range") from None


def _contractions(seq, depths, d, points, tops, forms, *, limit=False):
    """Elementwise contractions of stacked forms at every depth, from one moment pass.

    ``tops`` (F, D, D) are top moments and ``forms`` F pairs (cell form,
    (left, right)); a cell form of None stands for the sides' form a S of
    derivative orders (left, right).  Form f contracts its cell form with
    the depth-l moment of tops[f] and the generation-k cable Gram of orders
    (left, right), at weight w(k, l) = b / (eps_tilde(k, l) (1 - eps_k)),
    or the infinite window for ``limit``, with its depth-(k-1) moment; the
    tables come from ``_level_tables``, the Grams at Gauss order
    ``points``.  Yields, for each depth l of ``depths`` in order, the list
    over f of the elementwise products [cell part, generation-1 part, ...,
    generation-l part] (``_terms`` splits them for math.fsum).

    Each top's moments M_0..M_{l_max} come from its stored chain as far as
    its logs agree, are pushed beyond it, and are stored as its new chain.
    """
    depths = list(depths)
    for l in depths:
        _require_depth(l)
    l_max = max(depths, default=0)
    pairs = list(dict.fromkeys(order for _, order in forms))
    keep = (l_max + 1) * _dim(d) ** 2 * np.dtype(_EXT).itemsize <= _TABLES.budget
    # Tables: three pullbacks and a cable Gram per pair for every level, the
    # side Grams; per form: top, push temporary, its chain (the current
    # moment alone when no chain is kept), cell part per depth and a cable
    # part per level.
    held = l_max + 1 if keep else 1
    _require_budget(d, l_max * (3 + len(pairs)) + len(pairs) + len(forms) * (2 + held + len(set(depths)) + l_max))
    logs = [seq.log_eps(k) for k in range(1, l_max + 1)]
    side, levels = _level_tables(seq, logs, d, points, pairs)
    cell_forms = [A * side[order] if cell is None else cell for cell, order in forms]
    keys = [_chain_key(top, d) for top in tops]
    stored = [_TABLES.get(key) for key in keys]
    starts = [_shared_levels(entry.get("logs", ()), logs) for entry in stored]
    chains = [np.empty((l_max + 1, *top.shape), _EXT) if keep and start < l_max else None for top, start in zip(tops, starts)]
    cells, cables, moments = {}, [], list(tops)
    for k in range(l_max + 1):
        if k:
            pulls = levels[k - 1]["pullbacks"]
            # Only the moments past their stored chain's shared levels are pushed.
            todo, pushed = [m for m, start in zip(moments, starts) if start < k], iter(())
            if todo:
                # np.dot, not matmul: it is the faster longdouble product.
                sums = np.stack([sum(np.dot(p, np.dot(m, p.T)) for p in pulls) for m in todo])
                pushed = iter(_quotient(sums, _EXT(seq.lam(k)), f"lam_{k} of the level-{k} moment step"))
            moments = [next(pushed) if start < k else entry["moments"][k] for entry, start in zip(stored, starts)]
        for chain, m in zip(chains, moments):
            if chain is not None:
                chain[k] = m
        if k in depths:
            cells[k] = [cell * m for cell, m in zip(cell_forms, moments)]
        if k < l_max:
            cables.append([levels[k][order] * m for (_, order), m in zip(forms, moments)])
    for key, chain in zip(keys, chains):
        if chain is not None:
            chain_logs = np.array(logs)
            chain.flags.writeable = chain_logs.flags.writeable = False
            _TABLES.add(key, {"moments": chain, "logs": chain_logs})
    # Read once per level, after the pass, so that an underflowing lam_k is
    # reported first.  The finite windows are exp(fsum) of the logs, as
    # ParamSeq.eps_tilde forms them; fsum rounds exactly, so the bits agree.
    lengths = [-math.expm1(log) for log in logs]
    windows = [seq.eps_tilde_inf(k) for k in range(1, l_max + 1)] if limit else None
    for l in depths:
        weights, where = [], "infinity" if limit else l
        for k in range(1, l + 1):
            window = windows[k - 1] if limit else math.exp(math.fsum(logs[k - 1 : l]))
            weights.append(_quotient(A, window * lengths[k - 1], f"generation-{k} cable weight at depth {where}"))
        yield [[cells[l][f]] + [w * gm[f] for w, gm in zip(weights, cables)] for f in range(len(forms))]


def _terms(parts: list[np.ndarray]) -> tuple[list[float], list[float]]:
    """fsum terms of the cell part and of the generations' cable parts, summed
    first in extended precision (as a fold accumulates them): 2 D^2 terms at any depth."""
    return _split(parts[0]), _split(sum(parts[1:], np.zeros_like(parts[0])))


def _report(l: int, tri: list[float], cab: list[float]) -> EnergyReport:
    return EnergyReport(l, _fsum(tri), _fsum(cab), _fsum(tri + cab))


def _barycentric_form(d: int) -> np.ndarray:
    """The IBP measure side's cell form (3a/2) Lap f(b) g(b) at the barycenter b of the base cell."""
    at = barycenter().astype(_EXT) - _CENTER
    fxx, fyy, g = (col[:, 0] for col in _partials(at[:1], at[1:], d, (2, 0), (0, 2), (0, 0)))
    return 1.5 * A * np.outer(fxx + fyy, g)


#: The forms of the moment pass by name: symmetrized top moment or not, the derivative
#: orders (left, right) of the side and cable Grams, and the cell form (None: the sides' a S).
_FORMS = {
    "energy": (True, (1, 1), None),  # E(u, v)
    "pairing": (False, (2, 0), None),  # the weak pairing's (u o z)'' (v o z)
    "ibp": (False, (2, 0), _barycentric_form),  # the IBP measure side
}


def _moment_terms(seq, depths, u, v, forms=("energy",), *, limit=False):
    """The one entry to the moment pass: fields in, fsum-ready terms out.

    Yields, for each depth of ``depths`` in order, one (cell terms, cable terms)
    pair per named form of ``_FORMS`` (``limit``: cables at infinite windows),
    the Grams at the Gauss order ``_gauss_order`` picks for the fields."""
    d = max(u.degree, v.degree, 0)
    rows = [_FORMS[name] for name in forms]
    tops = np.concatenate([_top_moments(u, v, d, symmetric=symmetric) for symmetric, _, _ in rows])
    cells = [(None if cell is None else cell(d), order) for _, order, cell in rows]
    for parts in _contractions(seq, depths, d, _gauss_order(u.degree, v.degree), tops, cells, limit=limit):
        yield [_terms(p) for p in parts]


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
    form on u o F^1_i, v o F^1_i, i = 1, 2, 3, whose pulled-back top moments
    are stacked into one pass on ``seq.shift()``; the Grams at ``_gauss_order``."""
    d, points = max(u.degree, v.degree, 0), _gauss_order(u.degree, v.degree)
    ((whole,),) = _contractions(seq, (l + 1,), d, points, _top_moments(u, v, d), [(None, (1, 1))], limit=limit)
    tops = _top_moments(u, v, d, triple(seq.eps(1)))
    (halves,) = _contractions(seq.shift(), (l,), d, points, tops, [(None, (1, 1))] * 3, limit=limit)
    return _report(l + 1, *_terms(whole)), _fsum(_split(whole[1])), [_report(l, *_terms(half)) for half in halves]


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
    one moment pass to l_max.  ``quad`` takes None only (``_quad_slot``).
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
