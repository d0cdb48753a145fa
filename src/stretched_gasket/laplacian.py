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
``laplacian_samples`` reads all carriers at once from the cylinder and map
tables and the cable mass arrays and returns them as one record array, a
row per carrier; ``teplyaev`` samples one carrier as a ``LaplacianSample``
through the same Hessian kernel, with the bits of that carrier's row.

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
from .geometry import _cable_stack, _images, _triple_index, barycenter, cable_segments, compose, word_point, word_table
from .kusuoka import CableMass, _trace, cable_masses, gibbs_tau, tau_table
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq
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
        seg = cable_segments(seq, carrier.generation)[_triple_index(carrier.slot, "cable slot")]
        location = compose(seq, carrier.prefix)(seg.point(0.5))
    value = _laplacian_values(phi, t_tilde[None], location[None])[0]
    return LaplacianSample(location, carrier, t_tilde, float(value))


def ibp_residual(
    seq: ParamSeq,
    phi: Poly2,
    v: Poly2,
    depth: int,
    quad=None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """| E_depth(phi, v) + integral of (Laplacian phi) v d(mu_depth) |.

    v must vanish at the three base corners.  One row of ``ibp_table``.
    """
    return ibp_table(seq, phi, v, (depth,), quad, constants)[0]["residual"]


def ibp_table(
    seq: ParamSeq,
    phi: Poly2,
    v: Poly2,
    depths=range(3, 9),
    quad=None,
    constants: Constants = DEFAULT_CONSTANTS,
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
    for depth, (energy, measure) in zip(depths, _moment_terms(seq, depths, phi, v, quad, constants, ("energy", "ibp"))):
        lhs, rhs = _fsum(energy[0] + energy[1]), _fsum(measure[0] + measure[1])
        rows.append(
            {"depth": depth, "energy_lhs": lhs, "integral_rhs": rhs, "residual": abs(lhs + rhs)}
        )
    return rows


def laplacian_samples(
    seq: ParamSeq,
    phi: Poly2,
    depth: int,
    constants: Constants = DEFAULT_CONSTANTS,
) -> np.recarray:
    """Samples on every depth-level cylinder and all cables up to depth.

    One row per carrier, the ``teplyaev`` sample of each: cells in word
    order, then cables by generation in (prefix, slot) order, read from
    the cell tables (tau_table, word_table) and the cable masses at once.
    Columns: ``generation`` (0 for a cell, s for a generation-s cable),
    ``word`` (lexicographic index of the cell word, or of the cable prefix
    among the depth-(s-1) words), ``slot`` (0 for a cell, 1..3 for a
    cable), the location ``x``, ``y``, the unit-trace density ``t11``,
    ``t12``, ``t22`` and the Laplacian ``value``.
    """
    taus = tau_table(depth)
    kappas = _trace(taus)
    lin, off = word_table(seq, depth)
    cells = np.arange(len(kappas))
    ids = [np.column_stack([np.zeros_like(cells), cells, np.zeros_like(cells)])]  # (generation, word, slot)
    t_tilde, locations = [taus / kappas[:, None, None]], [lin @ barycenter() + off]
    for s, p, v in zip(range(1, depth + 1), *_cable_stack(seq, range(1, depth + 1))):
        _, dirs = cable_masses(seq, s, constants)
        plin, poff = word_table(seq, s - 1)
        # Midpoints with the arithmetic of Segment.point(0.5) on cable_segments.
        mids = p + 0.5 * ((p + v) - p)
        ids.append(np.column_stack([np.full(len(dirs), s), np.repeat(np.arange(len(plin)), 3), np.tile([1, 2, 3], len(plin))]))
        t_tilde.append(dirs[:, :, None] * dirs[:, None, :])
        locations.append((_images(plin, mids) + poff[:, None]).reshape(-1, 2))
    t_tilde, locations = np.concatenate(t_tilde), np.concatenate(locations)
    values = _laplacian_values(phi, t_tilde, locations)
    columns = [*np.concatenate(ids).T, *locations.T, t_tilde[:, 0, 0], t_tilde[:, 0, 1], t_tilde[:, 1, 1], values]
    return np.rec.fromarrays(columns, names="generation,word,slot,x,y,t11,t12,t22,value")
