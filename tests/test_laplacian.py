import dataclasses
import math

import numpy as np
import pytest

from stretched_gasket import (
    Poly2,
    cable_mass,
    ibp_residual,
    ibp_table,
    laplacian_samples,
    parse,
    sup_bounds,
    teplyaev,
    vanishing_at_ABC,
    vanishing_cubic,
)

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, random_poly


def test_affine_fields_are_harmonic_pointwise(regime):
    phi = parse("1 + 2*x - 0.5*y")
    for word in ((1,), (2, 3), (1, 1, 2)):
        assert teplyaev(phi, word, regime).value == 0.0


def test_pure_second_derivatives_on_cells():
    # tr(T~ D^2) for x^2 is twice the normalized tau_11 entry.
    phi = parse("x^2")
    s = teplyaev(phi, (1,), CONSTANT_HALF)
    assert s.value == pytest.approx(2.0 * 0.9, rel=1e-13)
    # The trace pair x^2 + y^2 always gives 2 (T~ has unit trace).
    both = teplyaev(parse("x^2 + y^2"), (1, 2), PREFIX_EXP)
    assert both.value == pytest.approx(2.0, rel=1e-13)


def test_teplyaev_refuses_an_underflowed_cell_mass():
    # kappa((1,) * l) = (1/2) (3/5)^l (1 + 9^-l) drops below KAPPA_FLOOR
    # after about 1350 letters; a single word has no depth cap.
    assert teplyaev(parse("x^2"), (1,) * 1300, TAIL_ONLY).value == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ArithmeticError, match="cylinder mass underflow"):
        teplyaev(parse("x^2"), (1,) * 1400, TAIL_ONLY)


def test_cable_value_is_directional_second_derivative():
    cm = cable_mass(TAIL_ONLY, (), 1, 1)
    s = teplyaev(parse("x^2"), cm, TAIL_ONLY)
    d = cm.direction
    assert s.value == pytest.approx(2.0 * d[0] * d[0], rel=1e-13)
    assert np.allclose(s.t_tilde, cm.projection, atol=1e-15)


def test_teplyaev_is_linear_in_phi(rng):
    p1 = random_poly(rng, 3)
    p2 = random_poly(rng, 3)
    c = -1.37
    for carrier in ((1, 2), cable_mass(TAIL_ONLY, (1,), 2, 3)):
        a = teplyaev(p1, carrier, TAIL_ONLY).value
        b = teplyaev(p2, carrier, TAIL_ONLY).value
        combo = teplyaev(p1 + c * p2, carrier, TAIL_ONLY).value
        assert combo == pytest.approx(a + c * b, rel=1e-12, abs=1e-13)


def test_sample_values_bounded_by_hessian(rng):
    phi = random_poly(rng, 4)
    cap = 2.0 * sup_bounds(phi)[1] + 1e-9
    for s in laplacian_samples(TAIL_ONLY, phi, 2):
        assert abs(s.value) <= cap


def test_sample_enumeration_counts():
    samples = laplacian_samples(TAIL_ONLY, parse("x^2"), 2)
    assert samples.generation.tolist() == [0] * 9 + [1] * 3 + [2] * 9
    assert samples.word.tolist() == list(range(9)) + [0] * 3 + [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert samples.slot.tolist() == [0] * 9 + [1, 2, 3] * 4


def test_ibp_affine_is_exact(limit_regime):
    phi = parse("1 - x + 2*y")
    v = vanishing_cubic()
    for depth in (1, 2, 3, 4, 5, 6):
        assert ibp_residual(limit_regime, phi, v, depth) <= 1e-10, depth


def test_ibp_residual_decays_for_curved_fields():
    rows = ibp_table(TAIL_ONLY, parse("x^2"), vanishing_cubic(), range(3, 9))
    res = [r["residual"] for r in rows]
    for i in range(1, len(res)):
        assert res[i] <= 0.9 * res[i - 1], res
    assert [r["depth"] for r in rows] == list(range(3, 9))
    for r in rows:
        assert r["residual"] == pytest.approx(abs(r["energy_lhs"] + r["integral_rhs"]), abs=1e-18)


@pytest.mark.parametrize("slot", [0, 4])
def test_teplyaev_rejects_hand_built_slots_outside_one_to_three(slot):
    # Unchecked, slot 0 would sample slot 3's cable midpoint.
    carrier = dataclasses.replace(cable_mass(PREFIX_EXP, (), 1, 3), slot=slot)
    with pytest.raises(ValueError, match=f"cable slot must be 1, 2 or 3, got {slot}"):
        teplyaev(parse("x^2"), carrier, PREFIX_EXP)


def test_ibp_zero_test_function_is_exactly_zero():
    assert ibp_residual(TAIL_ONLY, parse("x^2"), Poly2.zero(), 3) == 0.0


def test_ibp_rejects_non_vanishing_test_function():
    with pytest.raises(ValueError):
        ibp_residual(TAIL_ONLY, parse("x^2"), parse("x*y"), 3)
    with pytest.raises(ValueError):
        ibp_table(TAIL_ONLY, parse("x^2"), parse("1"), (3,))


def test_ibp_with_random_admissible_test_functions(rng):
    # The depth-consistent pairing is near-exact for quadratic fields at
    # moderate depth regardless of the test function.
    phi = parse("x^2 - x*y")
    for _ in range(3):
        v = vanishing_at_ABC(random_poly(rng, 1))
        r5 = ibp_residual(TAIL_ONLY, phi, v, 5)
        r3 = ibp_residual(TAIL_ONLY, phi, v, 3)
        assert r5 <= r3 + 1e-15
