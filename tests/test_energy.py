import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import stretched_gasket
from stretched_gasket import (
    ExpTail,
    ParamSeq,
    TailProductZero,
    TermOverflow,
    cable_tail_bound,
    convergence_rows,
    energy1,
    energy2_limit,
    energy_total,
    energy_via_measure,
    ibp_table,
    parse,
    recurrence_residual,
    selfsimilar_residual,
    sup_bounds,
    vanishing_cubic,
    weak_pairing,
)

from stretched_gasket import energy

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, random_poly
from oracles import cable_energy, compose_objects, energy2, energy_at_order, energy_by_edges, iter_words

X = parse("x")
Y = parse("y")


def test_quadrature_integrates_monomials_exactly(monkeypatch):
    # The moment pass's rule builder, and its self-check against a rule that is not exact.
    for order in (4, 8, 12):
        nodes, weights = energy._gauss(order)
        for k in range(2 * order):
            integral = float(np.dot(weights, nodes**k))
            assert integral == pytest.approx(1.0 / (k + 1), abs=5e-14)
    trapezoid = (np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda order: trapezoid)
    with pytest.raises(ValueError, match="self-check failed at degree 2"):
        energy._gauss.__wrapped__(2)


def test_quadrature_cache_returns_same_rule():
    assert energy._gauss(8) is energy._gauss(8)


def test_coordinate_triangle_energy_is_depth_independent(regime):
    # Harmonic coordinates: the triangle part of the form on the coordinate
    # fields is exactly the depth-0 value at every depth (the transfer
    # identity sum_i T_i^T T_i = lam * Id telescopes), and the coordinates
    # are orthogonal.
    for l in (0, 1, 3):
        assert energy1(regime, l, X, X) == pytest.approx(0.5, abs=5e-15)
        assert energy1(regime, l, Y, Y) == pytest.approx(0.5, abs=5e-15)
        assert abs(energy1(regime, l, X, Y)) <= 5e-15
        # Cables only add energy: the full form dominates the triangle part.
        assert energy_total(regime, l, X, X).total >= 0.5 - 5e-15


def test_symmetry_is_exact(rng):
    u = random_poly(rng, 3)
    v = random_poly(rng, 3)
    a = energy_total(TAIL_ONLY, 3, u, v).total
    b = energy_total(TAIL_ONLY, 3, v, u).total
    assert a == b


def test_bilinearity(rng):
    u1 = random_poly(rng, 3)
    u2 = random_poly(rng, 3)
    v = random_poly(rng, 3)
    c = 0.7310529
    lhs = energy_total(PREFIX_EXP, 2, u1 + c * u2, v).total
    rhs = energy_total(PREFIX_EXP, 2, u1, v).total + c * energy_total(PREFIX_EXP, 2, u2, v).total
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_nonnegativity_on_random_fields(rng):
    for _ in range(100):
        u = random_poly(rng, 3)
        assert energy_total(TAIL_ONLY, 2, u, u).total >= -1e-13


def test_per_edge_sums_match_batched_total(rng):
    u = random_poly(rng, 3)
    v = random_poly(rng, 3)
    rep = energy_total(PREFIX_EXP, 3, u, v)
    _, edges = energy_by_edges(PREFIX_EXP, 3, u, v)
    assert math.fsum(x for _, x in edges) == pytest.approx(rep.total, rel=1e-13, abs=1e-16)
    tri_sum = math.fsum(x for eid, x in edges if eid.kind == "tri")
    assert tri_sum == pytest.approx(rep.e1, rel=1e-13, abs=1e-16)


def test_quadrature_order_doubling(rng):
    # Gauss orders 8 (the pass's own for these degrees) and 16, set through the pass's private order.
    u = random_poly(rng, 4)
    v = random_poly(rng, 4)
    e8, e16 = (energy_at_order(TAIL_ONLY, 3, u, v, order).total for order in (8, 16))
    assert e8 == energy_total(TAIL_ONLY, 3, u, v).total
    assert abs(e16 - e8) <= 1e-13 * max(1.0, abs(e8))


def test_energy_splits_into_parts(rng):
    u = random_poly(rng, 2)
    v = random_poly(rng, 2)
    rep = energy_total(PREFIX_EXP, 3, u, v)
    assert rep.e1 == energy1(PREFIX_EXP, 3, u, v)
    assert rep.e2 == energy2(PREFIX_EXP, 3, u, v)
    assert rep.total == pytest.approx(rep.e1 + rep.e2, rel=1e-12, abs=1e-15)


def test_overflowing_terms_raise_term_overflow():
    # A term beyond the double range is refused where it is rounded to a
    # double, without a cast warning and before fsum could meet inf - inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = parse("1e155*x^2")
        with pytest.raises(TermOverflow, match="overflows the double range"):
            energy_total(TAIL_ONLY, 3, u, u)
        u = parse("1e200*x")
        with pytest.raises(TermOverflow, match="overflows the double range"):
            convergence_rows(TAIL_ONLY, u, u, 3)
        # Every term of 2e154 x^2 fits in a double; fsum's overflow of their
        # sum is refused the same way.
        u = parse("2e154*x^2")
        with pytest.raises(TermOverflow, match="sum of form terms overflows the double range"):
            energy_total(TAIL_ONLY, 3, u, u)
        for form in (
            lambda: recurrence_residual(TAIL_ONLY, 3, u, u),
            lambda: selfsimilar_residual(TAIL_ONLY, u, u, 3),
        ):
            with pytest.raises(TermOverflow, match="sum of form terms overflows the double range"):
                form()
        # The measure route's gasket half is one value, past the double range here.
        with pytest.raises(TermOverflow, match="gasket half of the measure overflows the double range"):
            energy_via_measure(TAIL_ONLY, u, u, 3)
        u = parse("1e150*x^2")
        assert energy_total(ParamSeq(prefix=(0.9,), tail=ExpTail(0.05, 0.5)), 3, u, u).total == 5.6607049169557e299
        # The weak pairing and both IBP sides sum the same terms.  The measure
        # route runs its moment pass before its gasket half, and a cable term
        # of this pair is already past the double range.
        u, v = parse("7.5e154*x^2"), 7.5e154 * vanishing_cubic()
        for form in (lambda: weak_pairing(PREFIX_EXP, 3, u, v), lambda: ibp_table(PREFIX_EXP, u, v, (3,))):
            with pytest.raises(TermOverflow, match="sum of form terms overflows the double range"):
                form()
        with pytest.raises(TermOverflow, match="a form term overflows the double range"):
            energy_via_measure(PREFIX_EXP, u, parse("7.5e154*y^2"), 3)
        assert math.isfinite(weak_pairing(PREFIX_EXP, 3, parse("7e154*x^2"), 7e154 * vanishing_cubic()))


def test_other_modules_reach_the_moment_pass_through_its_entry():
    # Of the energy module's private names, the modules that read its forms
    # import only the pass entry, the guarded sum and the check of their
    # None-only ``quad`` slots: they build no moments and no Gauss rule.
    package = Path(stretched_gasket.__file__).parent
    for name in ("harmonicity", "kusuoka", "laplacian"):
        tree = ast.parse((package / f"{name}.py").read_text())
        imported = {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        assert (None, "energy") not in imported, name
        private = {alias for module, alias in imported if module == "energy" and alias.startswith("_")}
        assert private <= {"_moment_terms", "_fsum", "_quad_slot"}, (name, private)


def test_cable_energy_generations_sum_to_energy2(rng):
    u = random_poly(rng, 2)
    v = random_poly(rng, 2)
    l = 3
    seq = PREFIX_EXP
    # Finite-depth weights: generation s carries 1/(lam_tilde(s-1) *
    # eps_tilde(s, l)), summed over the 3^(s-1) prefix cells.
    total = math.fsum(
        cable_energy(seq, s, u, v, prefix_map=compose_objects(seq, w))
        / (seq.lam_tilde(s - 1) * seq.eps_tilde(s, l))
        for s in range(1, l + 1)
        for w in iter_words(s - 1)
    )
    assert total == pytest.approx(energy2(seq, l, u, v), rel=1e-12, abs=1e-16)


def test_energy2_limit_and_tail(rng):
    u = random_poly(rng, 2)
    v = random_poly(rng, 2)
    v5, t5 = energy2_limit(TAIL_ONLY, u, v, 5)
    v9, t9 = energy2_limit(TAIL_ONLY, u, v, 9)
    assert t9 < t5
    assert abs(v9 - v5) <= t5
    gu = sup_bounds(u)[0]
    gv = sup_bounds(v)[0]
    assert t5 == pytest.approx(cable_tail_bound(TAIL_ONLY, 5, gu, gv), rel=1e-12)
    with pytest.raises(TailProductZero):
        energy2_limit(CONSTANT_HALF, u, v, 5)


def test_clamped_eps_keeps_positive_cable_length():
    # Values clamped to just below 1 still give a strictly positive length,
    # so the division in the cable prefactor stays finite.
    seq = ParamSeq(prefix=(math.nextafter(1.0, 0.0),), tail=TAIL_ONLY.tail)
    assert seq.one_minus_eps(1) > 0.0
    assert math.isfinite(cable_energy(seq, 1, X, X))


def test_recurrence_identity(regime, rng):
    for _ in range(3):
        u = random_poly(rng, 4)
        v = random_poly(rng, 4)
        for l in range(1, 5):
            res = recurrence_residual(regime, l, u, v)
            scale = max(1.0, abs(energy_total(regime, l + 1, u, v).total))
            assert res <= 1e-11 * scale, (l, res)


def test_selfsimilar_identity(limit_regime, rng):
    u = random_poly(rng, 3)
    v = random_poly(rng, 3)
    for depth in (2, 3, 4):
        residual, bound = selfsimilar_residual(limit_regime, u, v, depth)
        assert residual <= bound
        assert residual <= 1e-12 * max(1.0, bound)


def test_convergence_rows_structure_and_envelope(rng):
    u = random_poly(rng, 3)
    rows = convergence_rows(TAIL_ONLY, u, u, 5)
    assert [r["l"] for r in rows] == list(range(6))
    assert rows[0]["delta"] is None
    for i in range(1, len(rows)):
        assert abs(rows[i]["delta"]) <= rows[i - 1]["envelope"], i
        assert rows[i]["total"] == pytest.approx(
            energy_total(TAIL_ONLY, i, u, u).total, rel=1e-13
        )


def test_convergence_rows_refuse_a_negative_depth():
    # Unchecked, depth -2 gives no rows at all.
    u = parse("x^2")
    with pytest.raises(ValueError, match="depth must be >= 0, got -2"):
        convergence_rows(TAIL_ONLY, u, u, -2)
