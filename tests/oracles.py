"""Edge-by-edge reference routes for the folded forms.

The package evaluates every depth-l form by folding cell forms through the
level pullbacks.  The routes here enumerate the 3^l cells and their edges
instead (the batched edge tableau, or word tables plus cylinder matrices)
and share no code with the fold beyond the map triples, the cable
segments and the quadrature rule, so agreement is a real cross-check.
"""

import math

import numpy as np

from stretched_gasket.energy import _pairings, _tableau, _transform
from stretched_gasket.geometry import (
    HARMONIC_RATIO,
    barycenter,
    cable_prefactor,
    cable_prefactor_limit,
    word_table,
)
from stretched_gasket.kusuoka import tau_table
from stretched_gasket.params import DEFAULT_CONSTANTS
from stretched_gasket.scalarfield import hess_batch


def energy2_limit_by_edges(seq, s_max, u, v, quad, constants=DEFAULT_CONSTANTS, outer=None, beta_over_alpha=HARMONIC_RATIO):
    """Limit cable form truncated at s_max, summed cable by cable."""
    tab = _tableau(seq, s_max, beta_over_alpha)
    vals = []
    for s in range(1, s_max + 1):
        p0, dv = _transform(tab.cab_p0[s - 1], tab.cab_dv[s - 1], outer)
        vals += (cable_prefactor_limit(seq, s, constants) * _pairings(u, v, p0, dv, quad)).tolist()
    return math.fsum(vals)


def gasket_hessian_sum(seq, depth, phi, v, constants=DEFAULT_CONSTANTS, beta_over_alpha=HARMONIC_RATIO) -> list[float]:
    """Per-word <Hessian phi(x_w), tau_w> v(x_w), scaled to the form constant.

    The triangle-edge measure of one cell totals 3a tau_w (three unit
    side-projections sum to (3/2) Id), so pairing Hessians directly with
    3a tau avoids dividing by small kappa.
    """
    lin, off = word_table(seq, depth, beta_over_alpha)
    centers = np.einsum("wab,b->wa", lin, barycenter()) + off
    xs, ys = centers[:, 0], centers[:, 1]
    hxx, hxy, hyy = hess_batch(phi, xs, ys)
    taus = tau_table(seq, depth, beta_over_alpha)
    pair = taus[:, 0, 0] * hxx + 2.0 * taus[:, 0, 1] * hxy + taus[:, 1, 1] * hyy
    vals = 3.0 * constants.a * pair * v.eval_batch(xs, ys)
    return vals.tolist()


def cable_second_derivative_sum(seq, depth, phi, v, quad, constants=DEFAULT_CONSTANTS, beta_over_alpha=HARMONIC_RATIO) -> list[float]:
    """Per-cable integrals of (phi o z)'' (v o z) with depth-window weights."""
    tab = _tableau(seq, depth, beta_over_alpha)
    out: list[float] = []
    ts = quad.nodes
    for s in range(1, depth + 1):
        p0, dv = tab.cab_p0[s - 1], tab.cab_dv[s - 1]
        xs = p0[:, 0][:, None] + dv[:, 0][:, None] * ts[None, :]
        ys = p0[:, 1][:, None] + dv[:, 1][:, None] * ts[None, :]
        hxx, hxy, hyy = hess_batch(phi, xs, ys)
        dx = dv[:, 0][:, None]
        dy = dv[:, 1][:, None]
        dd = hxx * dx * dx + 2.0 * hxy * dx * dy + hyy * dy * dy
        vals = (dd * v.eval_batch(xs, ys)) @ quad.weights
        pf = cable_prefactor(seq, s, depth, constants)
        out.extend((pf * vals).tolist())
    return out


def ibp_rhs_by_cells(seq, depth, phi, v, quad, constants=DEFAULT_CONSTANTS, beta_over_alpha=HARMONIC_RATIO) -> float:
    """Measure side of the IBP identity, cell by cell and cable by cable."""
    return math.fsum(
        gasket_hessian_sum(seq, depth, phi, v, constants, beta_over_alpha)
        + cable_second_derivative_sum(seq, depth, phi, v, quad, constants, beta_over_alpha)
    )
