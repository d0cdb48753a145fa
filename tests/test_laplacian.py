import dataclasses
import math

import numpy as np
import pytest

from stretched_gasket import (
    Poly2,
    cable_mass,
    cable_masses,
    ibp_table,
    laplacian_samples,
    parse,
    sup_bounds,
    teplyaev,
    vanishing_at_ABC,
    vanishing_cubic,
    word_point,
)
from stretched_gasket import laplacian
from stretched_gasket.energy import _moment_terms
from stretched_gasket.errors import TailProductZero

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, admissible, random_poly
from oracles import gasket_hessian_sum, ibp_gasket_half, ibp_residual, iter_words


def test_one_carrier_reads_are_their_table_rows(regime):
    # word_point and a cell's teplyaev sample are one-row reads of the sample table's cell
    # rows, and cable_mass the one-row call of cable_masses' kernel: each has its table
    # row's bits.  A constant tail has no limit cable weight: both cable routes refuse it,
    # and the cell rows are read past the samples' cable check.
    phi = parse("x^3 - 0.7*x*y + y^4")
    for l in range(7):
        words = list(iter_words(l))
        *_, x, y, _, _, _, value = laplacian._sample_rows(regime, phi, l, 0, 3**l)
        points = np.array([word_point(regime, word) for word in words]).reshape(-1, 2)
        assert points.tobytes() == np.column_stack([x, y]).tobytes(), l
        assert np.array([teplyaev(phi, word, regime).value for word in words]).tobytes() == value.tobytes(), l
        try:
            masses, directions = cable_masses(regime, l + 1)
        except TailProductZero:
            with pytest.raises(TailProductZero):
                cable_mass(regime, words[-1], l + 1, 3)
            continue
        cables = [cable_mass(regime, prefix, l + 1, slot) for prefix in iter_words(l) for slot in (1, 2, 3)]
        assert np.array([cm.mass for cm in cables]).tobytes() == masses.tobytes(), l
        assert np.array([cm.direction for cm in cables]).tobytes() == directions.tobytes(), l


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


#: The level operator's distance from the ``ibp`` form's cell terms, relative to the sum of
#: the enumerated cell terms' rounding scales (``gasket_hessian_sum(..., absolute=True)``),
#: as for the measure energy's gasket half: each enumerated term rounds its Hessian and
#: test function in double, and v vanishes at the corners, so the sum cancels below its
#: terms.  The largest measured over the fields and depths below is 0.42 u against the
#: moment pass and 0.45 u against the enumerated sum, 19 times within the bound.
IBP_OPERATOR_RTOL = 8 * 2.0**-53


def test_ibp_gasket_half_by_the_level_operator(regime, rng):
    # The IBP measure side's cell terms from the moment pass against the measure's level
    # operators run on G = v D^2 phi (``oracles.ibp_gasket_half``), at every depth to the
    # cap, for phi of degree 2 to 6 and v vanishing at A, B, C; the operator against the
    # enumerated cell sum where enumerating is cheap.
    fields = [(random_poly(rng, deg), admissible(random_poly(rng, 3))) for deg in range(2, 7)]
    depths = range(13)
    for phi, v in fields:
        for depth, ((cells, _),) in zip(depths, _moment_terms(regime, depths, phi, v, ("ibp",))):
            got = ibp_gasket_half(regime, phi, v, depth)
            bound = IBP_OPERATOR_RTOL * math.fsum(gasket_hessian_sum(regime, depth, phi, v, absolute=True))
            assert abs(got - math.fsum(cells)) <= bound, (phi, depth)
            if depth <= 8:
                assert abs(got - math.fsum(gasket_hessian_sum(regime, depth, phi, v))) <= bound, (phi, depth)
