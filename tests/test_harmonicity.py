import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    HARMONIC_RATIO,
    NonHarmonicError,
    compose,
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
from stretched_gasket.harmonicity import ND_GRID, _base_corner_maps, _nd_gamma_cached, _nd_grid, _nd_row_bounds, _nd_window_min
from stretched_gasket.params import A
from stretched_gasket.scalarfield import poly1_derivative

from conftest import BENCH_REFS, CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, admissible, benchmark_seq, random_poly
from oracles import _nd_inner_min, canonical_vertex, edge_walk, nd_gamma_closed_form, nd_gamma_full_grid, restrict


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
    gate = 1e-10 * A
    for l in (1, 2):
        stars = vertex_stars(regime, l)
        for star in stars[stars.key >= 3]:
            assert np.linalg.norm(star.boundary) <= gate, harmonicity._vertex_name(star.key, l)
        assert harmonic_residual(regime, l) <= gate


def test_residual_zero_only_at_the_harmonic_ratio():
    # Scanning the vertical/horizontal ratio of the first map shows the
    # vertex sums cancel only at ratio 1/3.
    gate = 1e-10 * A
    for ratio in (0.2, 0.25, 1.0 / 3.0, 0.4, 0.5):
        res = harmonic_residual(CONSTANT_HALF, 2, beta_over_alpha=ratio)
        if ratio == 1.0 / 3.0:
            assert res <= gate
        else:
            assert res > 1e-3 * A, ratio


def test_harmonic_report_names_worst_vertex():
    rep = harmonic_report(PREFIX_EXP, 3)
    assert rep.depth == 3
    assert len(rep.worst_word) <= 3
    assert rep.worst_corner in ("A", "B", "C")
    assert rep.n_interior == 3 * (3**3 - 1)
    # Base corners carry the non-vanishing sums (one per corner).
    assert set(rep.corner_norms) == {"A", "B", "C"}
    assert all(v > 0.0 for v in rep.corner_norms.values())


@pytest.mark.parametrize("ratio", [HARMONIC_RATIO, 0.25])
def test_base_corner_walk_is_bit_identical_to_compose(regime, ratio):
    # Rows 0, 4 and 8 of each level's 3-row products: the GEMM row contract of
    # geometry._level_products and _images, so each row has compose's bits.
    for l in range(13):
        lin, off = _base_corner_maps(regime, l, ratio)
        for c in range(3):
            want_lin, want_off = compose(regime, (c + 1,) * l, ratio)
            assert lin[c].tobytes() == want_lin.tobytes() and off[c].tobytes() == want_off.tobytes(), (l, c)


def test_eigen_direction_product_identity(regime):
    # Down the all-2s spine the slanted direction w = -(1/2, sqrt(3)/2) is
    # an eigenvector of every level's second map, so the weight-compensated
    # product acts as 1/((3/5) eps_1).
    w = np.array([-0.5, -math.sqrt(3.0) / 2.0])
    for l in range(0, 9):
        m = w.copy()
        for i in range(2, l + 2):
            m = triple(regime.eps(i))[0][1] @ m
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
            c2 = poly1_derivative(poly1_derivative(restrict(u, amap, seg)))
            length = float(np.hypot(*(amap.linear @ seg.velocity)))
            assert g.tolist() == (eid.prefactor / length * c2).tolist(), eid
            prod = np.convolve(g, restrict(v, amap, seg))
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

    def too_large(seq, l):
        r, scale, gap = local(seq, l)
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


def _nd_edge_cases(rng):
    """Matrix triples that stress the row bounds of ``nd_gamma_of``."""
    rank_one = np.array([[1.0, 0.0], [0.0, 0.0]])
    a, b = rng.normal(size=(2, 2, 2))
    return {
        # Every bound is 0 and no row is pruned.
        "rank-one mock": (rank_one, rank_one, rank_one),
        # w_i = +/- w_j: a zero crossing vector in every row.
        "equal images": (a, a, b),
        "opposite images": (a, -a, b),
        "zero matrices": (np.zeros((2, 2)),) * 3,
        "two zero matrices": (np.zeros((2, 2)), np.zeros((2, 2)), b),
        "one matrix": (b,),
        "scaled 1e300": tuple(1e300 * m for m in (a, b, a @ b)),
        "scaled 1e-300": tuple(1e-300 * m for m in (a, b, a @ b)),
        # Exactly one row survives the last round's bounds; as a one-row
        # product (GEMV) it would move the minimum.
        "one survivor": triple(1.0, 2.0)[0],
    }


def _nd_pool_stretches():
    """eps_k of the vertex-diagnostics pool at the levels the benchmark calls nd_gamma for."""
    return [benchmark_seq(cfg["seq"]).eps(k) for cfg in BENCH_REFS["vertex-diagnostics"] for k in (1, 2, 3, 4)]


def test_nd_gamma_blocked_grid_is_bit_identical_to_full_grid(rng):
    # The row bounds and row blocks must pick the same grid point as one
    # argmin over the whole grid, so equality is exact, not approximate.
    cases = [(e, HARMONIC_RATIO) for e in rng.uniform(1e-4, 1.0, 100)]
    cases += [(e, r) for r in (0.25, 0.5, -0.5, 2.0, 1e3) for e in (1e-4, 0.3, 0.77, 1.0)]
    cases += [(e, HARMONIC_RATIO) for e in (1e-300, 1e-310, 1e-320, 5e-324)]
    pool = _nd_pool_stretches()
    assert len(pool) == 108
    cases += [(e, HARMONIC_RATIO) for e in pool]
    for eps, ratio in cases:
        mats = list(triple(float(eps), ratio)[0])
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats), (eps, ratio)
    for name, mats in _nd_edge_cases(rng).items():
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats), name
    # Images that overflow bound no row.
    with np.errstate(over="ignore"):
        mats = (np.array([[1.7e308, 1.7e308], [1.0, -1.0]]), np.eye(2), np.eye(2))
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats)
    for _ in range(5):
        mats = list(rng.normal(size=(3, 2, 2)))
        assert nd_gamma_of(mats) == nd_gamma_full_grid(mats)


@pytest.mark.parametrize("eps", [1e-4, 0.3, 1.0])
def test_nd_gamma_evaluates_few_rows_of_the_harmonic_triple(eps, monkeypatch):
    # The bounds leave about a dozen of the 720 coarse rows and a pair or
    # two of the 241 rows of each refinement round to evaluate.
    evaluated = {}
    rows = harmonicity._nd_rows

    def counting(images, idx, es, acc, buf):
        evaluated[images.shape[1]] = evaluated.get(images.shape[1], 0) + len(idx)
        return rows(images, idx, es, acc, buf)

    monkeypatch.setattr(harmonicity, "_nd_rows", counting)
    nd_gamma_of(triple(eps)[0])
    assert evaluated[ND_GRID] <= 16 and evaluated[241] <= 4 * 3, evaluated


#: Triples of the map family and random matrices for the row-bound property.
ND_MATRICES = st.one_of(
    st.builds(
        lambda eps, ratio: triple(eps, ratio)[0],
        st.floats(1e-6, 1.0),
        st.sampled_from([HARMONIC_RATIO, 0.25, -0.5, 2.0, 1e3]),
    ),
    # Seeded normal matrices: no two images are equal, so every crossing is one.
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).normal(size=(3, 2, 2))),
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(mats=ND_MATRICES)
def test_nd_row_bounds_hold_every_grid_value(mats):
    # On the whole coarse grid and on a refinement window around its
    # minimizer, no computed grid value of a row lies below the row's bound.
    thetas, phis, es, images = _nd_grid(mats, math.pi, math.pi, 2.0 * math.pi, ND_GRID)
    vals = np.abs(images @ es.T).max(axis=0)
    assert np.all(vals.min(axis=1) >= _nd_row_bounds(images, es, whole=True))
    j, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
    _, _, es, window = _nd_grid(mats, thetas[j], phis[k], 4.0 * math.pi / ND_GRID, 241)
    vals = np.abs(window @ es.T).max(axis=0)
    assert np.all(vals.min(axis=1) >= _nd_row_bounds(window, es, whole=False))
    # Before its margin, the whole-circle bound is the exact inner minimum.
    gap = np.abs(_nd_window_min(images) - _nd_inner_min(mats, thetas))
    assert np.all(gap <= 4.0 * np.finfo(float).eps * np.abs(images).max())


@pytest.mark.parametrize("ratio", [HARMONIC_RATIO, 0.25])
def test_nd_gamma_within_grid_slack_of_closed_form_oracle(ratio):
    for eps in (1.5e-4, 0.01, 0.3, 0.5, 0.99):
        mats = list(triple(eps, ratio)[0])
        slack = max(np.linalg.norm(m, 2) for m in mats) * 2.0 * math.pi / ND_GRID
        gap = nd_gamma(eps, ratio) - nd_gamma_closed_form(mats)
        assert 0.0 <= gap <= slack, (eps, ratio, gap, slack)


def test_nd_gamma_searches_each_eps_and_ratio_once():
    _nd_gamma_cached.cache_clear()
    cases = [(eps, ratio) for eps in (0.3, 0.77) for ratio in (HARMONIC_RATIO, 0.25)]
    for _ in range(2):
        for eps, ratio in cases:
            assert nd_gamma(eps, ratio) == nd_gamma_of(triple(eps, ratio)[0]), (eps, ratio)
    # The ratio is part of the key: the same eps at another ratio is another value.
    assert nd_gamma(0.3, 0.25) != nd_gamma(0.3, HARMONIC_RATIO)
    # An int or numpy eps reads the entry of its float.
    assert nd_gamma(np.float64(0.3)) == nd_gamma(0.3) and nd_gamma(1) == nd_gamma(1.0)
    info = _nd_gamma_cached.cache_info()
    assert (info.misses, info.currsize) == (5, 5), info
    # No exception is cached: an invalid eps or ratio raises on every call.
    for _ in range(2):
        for eps, ratio in ((0.0, HARMONIC_RATIO), (1.5, HARMONIC_RATIO), (math.nan, HARMONIC_RATIO), (0.3, math.inf)):
            with pytest.raises(ValueError):
                nd_gamma(eps, ratio)
    assert _nd_gamma_cached.cache_info().currsize == 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nd_gamma_rejects_non_finite_matrices(bad):
    m = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="must be finite"):
        nd_gamma_of((m, np.eye(2), np.eye(2)))


def test_nd_gamma_peak_memory_is_bounded():
    # The whole 720 x 720 grid, stacked for three maps, would hold 24 MiB.
    # The rank-one mock prunes no row, so its rows are reduced in blocks.
    rank_one = np.array([[1.0, 0.0], [0.0, 0.0]])
    for call in (lambda: nd_gamma_of(triple(0.3)[0]), lambda: nd_gamma_of((rank_one,) * 3)):
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
