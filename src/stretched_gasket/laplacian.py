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
row range of it; it reads the carriers 3^7 rows at a time from the
geometry module's carrier walk (``_carrier_walk``), each block from its
own rows of the cylinder and map tables and of the cable masses, as
columns (``_sample_rows``) that it writes into the fields of the one
returned table, so no depth-l table but that one is held whole and no
block is copied twice; the CLI formats each block's columns as it
computes them.  ``teplyaev`` samples one carrier as a
``LaplacianSample`` through the same Hessian kernel, with the bits of
that carrier's row.

The integration-by-parts defect pairs the depth form with the
discretized integral of (Laplacian of phi) times v against the depth
measure.  Both sides carry the same depth-window weights: the cable
integrals then cancel edge by edge and every interior vertex boundary
term vanishes by harmonicity, leaving only the within-cell variation of
the gasket integrand.  That defect decays geometrically with depth and
vanishes to rounding for affine phi.

Both sides of every row come from the energy module's level chains to
the deepest depth, O(depth D'^2) for the whole sweep instead of one term
per cell: its ``energy`` form on the energy side, its ``ibp`` form, the
chain of G = v Hess phi, on the measure side, both reading the same level
tables.  Since the cylinder matrices are
tau_w = DF_w (Id/2) DF_w^t / lam_tilde(l), the gasket term
3a tr(tau_w Hess phi(x_w)) v(x_w) summed over w is the chain's barycenter
readout (3a/2) (3/5)^l tr H_l(b); the cable term reads the chain on the
cables, the integrals of (f o z)'' (g o z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _fsum, _moment_terms, _quad_slot
from .geometry import (
    _cable_stack,
    _carrier_count,
    _carrier_walk,
    _images,
    _ranges,
    _require_depth,
    _triple_index,
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
    the ``laplacian_samples`` kernels (a ``gibbs_tau`` row, a one-row
    ``_images`` location): location, density and value are the bits of
    that carrier's row.
    """
    if isinstance(carrier, tuple) and all(isinstance(i, int) for i in carrier):
        cm = gibbs_tau(carrier)
        if cm.kappa < KAPPA_FLOOR:
            raise ArithmeticError(f"cylinder mass underflow at word {carrier}")
        t_tilde, location = cm.tau / cm.kappa, word_point(seq, carrier)
    else:
        if not isinstance(carrier, CableMass):
            raise TypeError(f"carrier must be a word tuple or CableMass, got {carrier!r}")
        t_tilde = carrier.projection
        p, v = (a[_triple_index(carrier.slot, "cable slot")] for a in cable_segments(seq, carrier.generation))
        lin, off = compose(seq, carrier.prefix)
        # The midpoint p + 0.5 ((p + v) - p) of the cable's ends, as _sample_rows forms it.
        location = _images(lin[None], (p + 0.5 * ((p + v) - p))[None])[0, 0] + off
    value = _laplacian_values(phi, t_tilde[None], location[None])[0]
    return LaplacianSample(location, carrier, t_tilde, float(value))


def ibp_table(seq: ParamSeq, phi: Poly2, v: Poly2, depths=range(3, 9), quad=None) -> list[dict]:
    """Rows (depth, energy_lhs, integral_rhs, residual) over a depth sweep.

    The measure side pairs the Hessian-cylinder densities at cell
    barycenters and the exact cable line integrals, both under the
    depth-window weights of the form on the energy side, so the two sides
    share one resolution.  Every row comes from one level chain to the
    deepest depth per side, O(max depth) for the sweep, the two sides
    reading the same level tables; ``depths`` may be empty,
    unsorted or repeated, and rows follow its order.  ``quad`` takes None
    only (``energy._quad_slot``).
    """
    _quad_slot(quad)
    if not vanishes_at_corners(v):
        raise ValueError(f"test function must vanish at A, B, C; corner values {corner_values(v)}")
    depths = list(depths)
    rows = []
    for depth, (energy, measure) in zip(depths, _moment_terms(seq, depths, phi, v, ("energy", "ibp"))):
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


#: Columns of the sample table: the carrier's (generation, word, slot), location, density and value.
_SAMPLE_DTYPE = np.dtype(
    [("generation", np.int64), ("word", np.int64), ("slot", np.int64)]
    + [(name, np.float64) for name in ("x", "y", "t11", "t12", "t22", "value")]
)


def _sample_rows(seq: ParamSeq, phi: Poly2, depth: int, start: int, stop: int) -> list[np.ndarray]:
    """Rows start..stop-1 of the sample table as its columns, in ``_SAMPLE_DTYPE`` order, each
    span of the carrier walk from its own word, tau and cable rows, the cables unchecked
    (``_require_cables``).  The callers write or format the columns as they are: no record
    array is built for a range."""
    ids, t_tilde, locations = [], [], []  # ids: (generation, word, slot)
    spans = list(_carrier_walk(seq, depth, start, stop))
    segments = zip(*_cable_stack(seq, [s for s, *_ in spans if s]))
    for s, a, b, lin, off in spans:
        if s == 0:
            cells, taus = np.arange(a, b), tau_table(depth, a, b)
            ids.append(np.stack([np.zeros_like(cells), cells, np.zeros_like(cells)]))
            t_tilde.append(taus / _trace(taus)[:, None, None])
            locations.append(_images(lin, barycenter()[None])[:, 0] + off)
            continue
        p, v = next(segments)
        # The cables' rows among the three of each prefix.
        rows, cables = slice(a % 3, a % 3 + b - a), np.arange(a, b)
        _, dirs = _cable_directions(lin, v, s, a - a % 3)
        # Midpoints of the cables' ends p and p + v.
        mids = p + 0.5 * ((p + v) - p)
        ids.append(np.stack([np.full(b - a, s), cables // 3, cables % 3 + 1]))
        t_tilde.append((dirs[:, :, None] * dirs[:, None, :])[rows])
        locations.append((_images(lin, mids) + off[:, None]).reshape(-1, 2)[rows])
    t_tilde, locations = np.concatenate(t_tilde), np.concatenate(locations)
    values = _laplacian_values(phi, t_tilde, locations)
    return [*np.concatenate(ids, axis=1), *locations.T, t_tilde[:, 0, 0], t_tilde[:, 0, 1], t_tilde[:, 1, 1], values]


def laplacian_samples(seq: ParamSeq, phi: Poly2, depth: int, start: int = 0, stop: int | None = None) -> np.recarray:
    """Samples on every depth-level cylinder and all cables up to depth.

    One row per carrier, the ``teplyaev`` sample of each: cells in word
    order, then cables by generation in (prefix, slot) order, read from
    the cell rows (tau_table, the map rows) and the cable masses.
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
    n = _carrier_count(depth)
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"row range [{start}, {stop}) is not within the {n} depth-{depth} carriers")
    _require_cables(seq, depth)
    table = np.empty(stop - start, dtype=_SAMPLE_DTYPE)
    for a, b in _ranges(stop - start):
        for name, column in zip(_SAMPLE_DTYPE.names, _sample_rows(seq, phi, depth, start + a, start + b)):
            table[name][a:b] = column
    return table.view(np.recarray)
