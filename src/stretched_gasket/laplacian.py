"""Pointwise Laplacian via the matrix field and the IBP defect.

On the gasket part the Laplacian of a C^2 field is the trace of its
Hessian against the normalized cylinder density tau/kappa; on a cable it
is the second derivative along the cable direction, the trace against
the rank-one projection.  Both densities have unit trace, so the
Laplacian is bounded by twice the Hessian sup.  The cell density is
P_w P_w^t / |P_w|_F^2 for P_w = B_{w_1} ... B_{w_l}, B_1 = diag(1, 1/3),
B_2, B_3 = [[1/2, +-sqrt3/6], [+-sqrt3/6, 5/6]], and kappa_w >= 15^-l, so
only ``teplyaev`` (one word, no depth cap) can meet an underflowed mass.
kappa_w is tau11 + tau22 of the rounded tau_w, its one route, and as
accurate as ``kusuoka`` states: where longdouble is x87 80-bit.
``laplacian_samples`` returns one record array, a row per carrier, or any
row range of it; it reads the carriers 3^7 rows at a time, each block from
its own rows of the cylinder and map tables and of the cable masses, so
no depth-l table but the returned one is held whole, and the CLI writes
the blocks as it computes them.  ``teplyaev`` samples one carrier as a
``LaplacianSample`` through the same Hessian kernel, with the bits of
that carrier's row.

The integration-by-parts defect pairs the depth form with the
discretized integral of (Laplacian of phi) times v against the depth
measure.  Both sides carry the same depth-window weights: the cable
integrals then cancel edge by edge and every interior vertex boundary
term vanishes by harmonicity, leaving only the within-cell variation of
the gasket integrand.  That defect decays geometrically with depth and
vanishes to rounding for affine phi.

Both sides of every row come from one moment pass of the energy module
to the deepest depth, O(depth D^3) for the whole sweep instead of one term
per cell: its ``energy`` form on the energy side, its ``ibp`` form on the
measure side.  Since the cylinder matrices are
tau_w = DF_w (Id/2) DF_w^t / lam_tilde(l), the gasket term
3a tr(tau_w Hess phi(x_w)) v(x_w) is the cell form
(3a/2) Lap f(b) g(b) at the barycenter b, pulled back through F_w; the
cable term contracts the Grams of (f o z)'' (g o z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _fsum, _moment_terms, resolve_quadrature
from .geometry import (
    _cable_stack,
    _images,
    _ranges,
    _require_depth,
    _triple_index,
    _word_levels,
    _word_rows,
    barycenter,
    cable_segments,
    compose,
    word_point,
)
from .kusuoka import CableMass, _cable_directions, _cable_weight, _trace, gibbs_tau, tau_table
from .params import ParamSeq
from .scalarfield import Poly2, corner_values, hess_batch, vanishes_at_corners

#: Cylinder masses below this count as underflowed: ``teplyaev`` refuses tau / kappa.
KAPPA_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class LaplacianSample:
    """Laplacian value at one carrier with its unit-trace density matrix."""

    location: np.ndarray
    carrier: object
    t_tilde: np.ndarray
    value: float


def _laplacian_values(phi: Poly2, t_tilde: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """tr(T~ . Hessian phi) for stacked densities (N, 2, 2) at points (N, 2)."""
    hxx, hxy, hyy = hess_batch(phi, locations[:, 0], locations[:, 1])
    return t_tilde[:, 0, 0] * hxx + 2.0 * t_tilde[:, 0, 1] * hxy + t_tilde[:, 1, 1] * hyy


def teplyaev(phi: Poly2, carrier, seq: ParamSeq) -> LaplacianSample:
    """Laplacian sample tr(T~ . Hessian phi) at a carrier's representative.

    A word tuple names a gasket cylinder (density tau/kappa at the cell
    barycenter image); a CableMass names a cable (density: projection
    onto the cable direction, at the midpoint).  The one-carrier call of
    the ``laplacian_samples`` kernel: location, density and value are the
    bits of that carrier's row.
    """
    if isinstance(carrier, tuple) and all(isinstance(i, int) for i in carrier):
        cm = gibbs_tau(carrier)
        if cm.kappa < KAPPA_FLOOR:
            raise ArithmeticError(f"cylinder mass underflow at word {carrier}")
        t_tilde = cm.tau / cm.kappa
        location = word_point(seq, carrier)
    else:
        if not isinstance(carrier, CableMass):
            raise TypeError(f"carrier must be a word tuple or CableMass, got {carrier!r}")
        t_tilde = carrier.projection
        starts, vels = cable_segments(seq, carrier.generation)
        k = _triple_index(carrier.slot, "cable slot")
        p, v = starts[k], vels[k]
        lin, off = compose(seq, carrier.prefix)
        # The midpoint p + 0.5 ((p + v) - p) of the cable's ends, as _sample_rows forms it.
        location = lin @ (p + 0.5 * ((p + v) - p)) + off
    value = _laplacian_values(phi, t_tilde[None], location[None])[0]
    return LaplacianSample(location, carrier, t_tilde, float(value))


def ibp_table(
    seq: ParamSeq,
    phi: Poly2,
    v: Poly2,
    depths=range(3, 9),
    quad=None,
) -> list[dict]:
    """Rows (depth, energy_lhs, integral_rhs, residual) over a depth sweep.

    The measure side pairs the Hessian-cylinder densities at cell
    barycenters and the exact cable line integrals, both under the
    depth-window weights of the form on the energy side, so the two sides
    share one resolution.  Every row comes from one moment pass to the
    deepest depth, O(max depth) for the sweep; ``depths`` may be empty,
    unsorted or repeated, and rows follow its order.
    """
    if not vanishes_at_corners(v):
        raise ValueError(f"test function must vanish at A, B, C; corner values {corner_values(v)}")
    quad = resolve_quadrature(quad, phi.degree, v.degree)
    depths = list(depths)
    rows = []
    for depth, (energy, measure) in zip(depths, _moment_terms(seq, depths, phi, v, quad, ("energy", "ibp"))):
        lhs, rhs = _fsum(energy[0] + energy[1]), _fsum(measure[0] + measure[1])
        rows.append(
            {"depth": depth, "energy_lhs": lhs, "integral_rhs": rhs, "residual": abs(lhs + rhs)}
        )
    return rows


def _require_cables(seq: ParamSeq, depth: int) -> None:
    """Raise what the cables of generations 1..depth refuse, in generation order: a
    degenerate cable, a weight that underflows or needs a tail product the sequence lacks."""
    for s in range(1, depth + 1):
        _cable_weight(seq, s)


def _sample_count(depth: int) -> int:
    """Rows of the depth-l sample table: 3^l cells and 3 (3^l - 1) / 2 cables."""
    return 3**depth + 3 * (3**depth - 1) // 2


#: Columns of the sample table: the carrier's (generation, word, slot), location, density and value.
_SAMPLE_DTYPE = np.dtype(
    [("generation", np.int64), ("word", np.int64), ("slot", np.int64)]
    + [(name, np.float64) for name in ("x", "y", "t11", "t12", "t22", "value")]
)


def _prefix_rows(seq: ParamSeq, spans) -> list[tuple[np.ndarray, np.ndarray]]:
    """The prefix maps (lin, off) of the cable spans (s, a, b), generation s's cables a..b-1:
    the depth-(s - 1) words a // 3 .. ceil(b / 3) - 1, from ``_word_levels`` walks to the
    deepest prefix level.  Spans whose prefixes' descendants there overlap share one walk over
    their union, so whole generations and the head of the next are one walk, while the tail of
    one generation and the head of the next, apart at that level, get one each."""
    prefixes = [(s - 1, a // 3, -(-b // 3)) for s, a, b in spans]
    deepest = max([k for k, _, _ in prefixes], default=0)
    # Each span's descendants [lo, hi) at the deepest level, in order of lo.
    reach = sorted((lo * 3 ** (deepest - k), hi * 3 ** (deepest - k), i) for i, (k, lo, hi) in enumerate(prefixes))
    out = [None] * len(spans)
    while reach:
        lo, hi, _ = reach[0]
        served = []
        while reach and reach[0][0] <= hi:
            _, top, i = reach.pop(0)
            hi, served = max(hi, top), served + [i]
        levels = list(_word_levels(seq, deepest, lo, hi))
        for i in served:
            k, first_word, stop_word = prefixes[i]
            first, lin, off = levels[k]
            out[i] = lin[first_word - first : stop_word - first], off[first_word - first : stop_word - first]
    return out


def _sample_rows(seq: ParamSeq, phi: Poly2, depth: int, start: int, stop: int) -> np.recarray:
    """Rows start..stop-1 of the sample table, from their own word, tau and cable rows, the
    cables unchecked (``_require_cables``): the cells of the range, then each generation's cables."""
    # Generation 0 is the 3^l cells, generation s the 3^s cables, in table order; spans (s, a, b)
    # hold the carriers a..b-1 of generation s in the range.
    spans, first = [], 0
    for s, size in enumerate([3**depth] + [3**s for s in range(1, depth + 1)]):
        if max(start, first) < min(stop, first + size):
            spans.append((s, max(start - first, 0), min(stop - first, size)))
        first += size
    ids, t_tilde, locations = [], [], []  # ids: (generation, word, slot)
    if spans[0][0] == 0:
        _, a, b = spans.pop(0)
        cells, taus = np.arange(a, b), tau_table(depth, a, b)
        lin, off = _word_rows(seq, depth, a, b)
        ids.append(np.column_stack([np.zeros_like(cells), cells, np.zeros_like(cells)]))
        t_tilde.append(taus / _trace(taus)[:, None, None])
        locations.append(_images(lin, barycenter()[None])[:, 0] + off)
    for (s, a, b), (plin, poff), p, v in zip(spans, _prefix_rows(seq, spans), *_cable_stack(seq, [s for s, _, _ in spans])):
        # The cables' rows among the three of each prefix.
        rows, cables = slice(a % 3, a % 3 + b - a), np.arange(a, b)
        _, dirs = _cable_directions(plin, v, s, a // 3)
        # Midpoints of the cables' ends p and p + v.
        mids = p + 0.5 * ((p + v) - p)
        ids.append(np.column_stack([np.full(b - a, s), cables // 3, cables % 3 + 1]))
        t_tilde.append((dirs[:, :, None] * dirs[:, None, :])[rows])
        locations.append((_images(plin, mids) + poff[:, None]).reshape(-1, 2)[rows])
    t_tilde, locations = np.concatenate(t_tilde), np.concatenate(locations)
    values = _laplacian_values(phi, t_tilde, locations)
    columns = [*np.concatenate(ids).T, *locations.T, t_tilde[:, 0, 0], t_tilde[:, 0, 1], t_tilde[:, 1, 1], values]
    return np.rec.fromarrays(columns, dtype=_SAMPLE_DTYPE)


def laplacian_samples(seq: ParamSeq, phi: Poly2, depth: int, start: int = 0, stop: int | None = None) -> np.recarray:
    """Samples on every depth-level cylinder and all cables up to depth.

    One row per carrier, the ``teplyaev`` sample of each: cells in word
    order, then cables by generation in (prefix, slot) order, read from
    the cell tables (tau_table, word_table) and the cable masses.
    Columns: ``generation`` (0 for a cell, s for a generation-s cable),
    ``word`` (lexicographic index of the cell word, or of the cable prefix
    among the depth-(s-1) words), ``slot`` (0 for a cell, 1..3 for a
    cable), the location ``x``, ``y``, the unit-trace density ``t11``,
    ``t12``, ``t22`` and the Laplacian ``value``.

    ``start``/``stop`` select the rows start..stop-1 of the
    3^l + 3 (3^l - 1) / 2 (all by default); a range outside them raises
    ValueError.  The table is filled a range of ``geometry._ranges`` at a
    time, each from its own word, tau and cable rows, so every row has the
    same bits whatever the range, and only the returned table is held
    whole.  The cables of every generation are checked first, so a range
    raises what the whole table raises; only a cable whose mapped |v|^2
    underflows (``kusuoka._unit_directions``) is refused by the range that
    holds it.
    """
    _require_depth(depth)
    n = _sample_count(depth)
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"row range [{start}, {stop}) is not within the {n} depth-{depth} carriers")
    _require_cables(seq, depth)
    table = np.recarray(stop - start, dtype=_SAMPLE_DTYPE)
    for a, b in _ranges(stop - start):
        table[a:b] = _sample_rows(seq, phi, depth, start + a, start + b)
    return table
