import math
import tracemalloc

import numpy as np
import pytest

from stretched_gasket import (
    DEFAULT_CONSTANTS,
    HARMONIC_RATIO,
    NonHarmonicError,
    energy_total,
    harmonic_report,
    harmonic_residual,
    harmonicity,
    nd_gamma,
    nd_gamma_of,
    parse,
    triple,
    vanishing_at_ABC,
    vertex_stars,
    weak_laplacian_h1,
    weak_pairing,
)
from stretched_gasket.harmonicity import ND_GRID
from stretched_gasket.scalarfield import compose_with_segment, poly1_derivative

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, admissible, random_poly
from oracles import canonical_vertex, edge_walk, nd_gamma_closed_form, nd_gamma_full_grid


def test_canonical_vertex_strips_fixing_letter():
    # F_w(corner c) = F_{w'}(c) whenever w ends in the letter fixing c.
    assert canonical_vertex((1, 2, 2), "B") == ((1,), "B")
    assert canonical_vertex((1, 2, 2), "A") == ((1, 2, 2), "A")
    assert canonical_vertex((1, 1, 1), "A") == ((), "A")
    assert canonical_vertex((), "C") == ((), "C")


def test_star_structure(regime):
    for l in (1, 2, 3):
        stars = vertex_stars(regime, l)
        interior = stars[stars.key >= 3]
        base = stars[stars.key < 3]
        # Two endpoints per cable, all distinct; cables never reach A, B, C.
        assert len(interior) == 3 * (3**l - 1)
        assert len(base) == 3
        assert len(np.unique(stars.key)) == len(stars)
        # Two cell sides and a cable end at every interior vertex, two
        # sides and no cable at a base corner.
        assert np.all(interior.weight != 0.0)
        assert np.all(base.weight[:, :2] != 0.0)
        assert np.all(base.weight[:, 2] == 0.0) and np.all(base.tangent[:, 2] == 0.0)


def test_stars_are_sorted_deterministically():
    stars = vertex_stars(TAIL_ONLY, 2)
    keys = [harmonicity._vertex_name(key, 2) for key in stars.key.tolist()]
    assert keys == sorted(keys)
    assert np.all(np.diff(stars.key) > 0)


def test_boundary_vector_vanishes_on_harmonic_family(regime):
    gate = 1e-10 * DEFAULT_CONSTANTS.a
    for l in (1, 2):
        stars = vertex_stars(regime, l)
        for star in stars[stars.key >= 3]:
            assert np.linalg.norm(star.boundary) <= gate, harmonicity._vertex_name(star.key, l)
        assert harmonic_residual(regime, l) <= gate


def test_residual_zero_only_at_the_harmonic_ratio():
    # Scanning the vertical/horizontal ratio of the first map shows the
    # vertex sums cancel only at ratio 1/3.
    gate = 1e-10 * DEFAULT_CONSTANTS.a
    for ratio in (0.2, 0.25, 1.0 / 3.0, 0.4, 0.5):
        res = harmonic_residual(CONSTANT_HALF, 2, beta_over_alpha=ratio)
        if ratio == 1.0 / 3.0:
            assert res <= gate
        else:
            assert res > 1e-3 * DEFAULT_CONSTANTS.a, ratio


def test_harmonic_report_names_worst_vertex():
    rep = harmonic_report(PREFIX_EXP, 3)
    assert rep.depth == 3
    assert len(rep.worst_word) <= 3
    assert rep.worst_corner in ("A", "B", "C")
    assert rep.n_interior == 3 * (3**3 - 1)
    # Base corners carry the non-vanishing sums (one per corner).
    assert set(rep.corner_norms) == {"A", "B", "C"}
    assert all(v > 0.0 for v in rep.corner_norms.values())


def test_eigen_direction_product_identity(regime):
    # Down the all-2s spine the slanted direction w = -(1/2, sqrt(3)/2) is
    # an eigenvector of every level's second map, so the weight-compensated
    # product acts as 1/((3/5) eps_1).
    w = np.array([-0.5, -math.sqrt(3.0) / 2.0])
    for l in range(0, 9):
        m = w.copy()
        for i in range(2, l + 2):
            m = triple(regime.eps(i))[1].linear @ m
        lhs = regime.eps_tilde(1, l + 1) / regime.lam_tilde(l + 1) * m
        rhs = w / (0.6 * regime.eps(1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs)), l


def test_weak_laplacian_affine_fields_have_zero_density():
    edges, densities = weak_laplacian_h1(TAIL_ONLY, 2, parse("1 + 2*x - y"))
    assert densities.shape == (len(edges), 1)
    assert np.max(np.abs(densities)) == 0.0


def test_weak_laplacian_densities_match_the_edge_walk(regime, rng):
    # Bit for bit the per-edge composition through each word's map; paired
    # with an admissible v against arclength, the densities give -E(u, v).
    for l in range(4):
        u, v = random_poly(rng, 4), admissible(random_poly(rng, 3))
        edges, densities = weak_laplacian_h1(regime, l, u)
        walk = list(edge_walk(regime, l))
        assert densities.shape == (len(walk), 3)
        pairing = []
        for g, (eid, seg, amap) in zip(densities, walk):
            c2 = poly1_derivative(poly1_derivative(compose_with_segment(u, amap, seg)))
            length = float(np.hypot(*(amap.linear @ seg.velocity)))
            assert g.tolist() == (eid.prefactor / length * c2).tolist(), eid
            prod = np.convolve(g, compose_with_segment(v, amap, seg))
            pairing.append(length * math.fsum(c / (k + 1) for k, c in enumerate(prod.tolist())))
        want = -weak_pairing(regime, l, u, v)
        assert abs(math.fsum(pairing) - want) <= 1e-12 * abs(want), (l, math.fsum(pairing), want)


def test_weak_pairing_matches_energy(rng):
    for _ in range(3):
        v = vanishing_at_ABC(random_poly(rng, 2))
        u = random_poly(rng, 3)
        lhs = weak_pairing(TAIL_ONLY, 3, u, v)
        rhs = energy_total(TAIL_ONLY, 3, u, v).total
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_weak_pairing_rejects_non_vanishing_test_function():
    with pytest.raises(ValueError):
        weak_pairing(TAIL_ONLY, 2, parse("x"), parse("y"))


def test_weak_pairing_requires_harmonic_family(monkeypatch):
    # The forms take no map ratio, so force the gate: one local defect at
    # twice the float bound must be refused by both weak-identity routes.
    local = harmonicity._local_defects

    def too_large(seq, l, constants):
        r, scale, gap = local(seq, l, constants)
        r = r.copy()
        r[-1, 3] = [2.0 * harmonicity._defect_bound(seq, l) * scale[-1, 3], 0.0]
        return r, scale, gap

    monkeypatch.setattr(harmonicity, "_local_defects", too_large)
    message = r"^depth-2 residual \S+ exceeds \S+ relative to its terms at the slot-2 cable end t=1 of generation 2; "
    with pytest.raises(NonHarmonicError, match=message):
        weak_pairing(TAIL_ONLY, 2, parse("x"), vanishing_at_ABC(parse("1")))
    with pytest.raises(NonHarmonicError, match=message):
        weak_laplacian_h1(TAIL_ONLY, 2, parse("x"))


def test_nd_gamma_positive_and_linear_in_stretch():
    g1 = nd_gamma(1.0)
    assert g1 > 0.05
    ratios = [nd_gamma(e) / e for e in (0.25, 0.5, 0.75)]
    assert max(ratios) - min(ratios) <= 1e-3
    assert all(abs(r - g1) <= 1e-3 for r in ratios)


def test_nd_gamma_rank_one_mock_is_zero():
    # All three differentials equal and rank one: a common kernel direction
    # exists, so the nondegeneracy constant collapses.
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert nd_gamma_of((m, m, m)) <= 1e-12
    assert nd_gamma_of((m, m, m)) == nd_gamma_full_grid((m, m, m))


def test_nd_gamma_blocked_grid_is_bit_identical_to_full_grid(rng):
    # The row blocks must pick the same grid point as one argmin over the
    # whole grid, so equality is exact, not approximate.
    cases = [(e, HARMONIC_RATIO) for e in rng.uniform(1e-4, 1.0, 100)]
    cases += [(e, r) for r in (0.25, 0.5) for e in (1e-4, 0.3, 0.77, 1.0)]
    for eps, ratio in cases:
        mats = [f.linear for f in triple(float(eps), ratio)]
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats), (eps, ratio)
    for _ in range(5):
        mats = list(rng.normal(size=(3, 2, 2)))
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats)


@pytest.mark.parametrize("ratio", [HARMONIC_RATIO, 0.25])
def test_nd_gamma_within_grid_slack_of_closed_form_oracle(ratio):
    for eps in (1.5e-4, 0.01, 0.3, 0.5, 0.99):
        mats = [f.linear for f in triple(eps, ratio)]
        slack = max(np.linalg.norm(m, 2) for m in mats) * 2.0 * math.pi / ND_GRID
        gap = nd_gamma(eps, ratio) - nd_gamma_closed_form(mats)
        assert 0.0 <= gap <= slack, (eps, ratio, gap, slack)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nd_gamma_rejects_non_finite_matrices(bad):
    m = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="must be finite"):
        nd_gamma_of((m, np.eye(2), np.eye(2)))


def test_nd_gamma_peak_memory_is_bounded():
    # The whole 720 x 720 grid, stacked for three maps, would hold 24 MiB.
    nd_gamma(0.3)
    tracemalloc.start()
    try:
        nd_gamma(0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
