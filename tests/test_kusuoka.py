import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    ExpTail,
    ParamSeq,
    affine,
    cable_mass,
    cable_masses,
    cable_segments,
    cable_tail_bound,
    compose,
    energy1,
    energy2_limit,
    energy_via_measure,
    gibbs_tau,
    kappa,
    kappa_table,
    parse,
    perron,
    perron_report,
    ruelle_apply,
    tau_table,
    teplyaev,
    triple,
    vanishing_cubic,
    word_index,
    word_table,
)
from stretched_gasket import kusuoka
from stretched_gasket.errors import DepthCapExceeded, GasketError, PrefactorUnderflow
from stretched_gasket.kusuoka import _cable_directions, _gasket_half, _linears, _product2, _require_symmetric, _scaled_linears, _trace

from conftest import ALL_REGIMES, CONSTANT_HALF, PREFIX_EXP, SEQUENCES, TAIL_ONLY, cold_peak, random_poly
from oracles import (
    adjoint_aggregate,
    energy_via_measure_whole,
    exact_kappa_table,
    gibbs_tau_by_einsum,
    iter_words,
    measure_gasket_terms,
    per_sequence_kappa_table,
    per_sequence_tau_table,
    perron_iteration,
    scaled_linears_by_einsum,
    sym3,
    sym_operator3,
    tau_table_by_einsum,
    total_cable_mass,
    ulp_errors,
    unsym3,
)


def brute_force_kappa(seq, word):
    """Independent route: explicit matrix products of one sequence's maps
    and a trace, no shared helpers with the implementation under test."""
    m = np.eye(2)
    lam = 1.0
    for pos, letter in enumerate(word, start=1):
        t = triple(seq.eps(pos))[0][letter - 1]
        m = m @ t
        lam *= 0.6 * seq.eps(pos) ** 2
    return float(np.trace(m @ (0.5 * np.eye(2)) @ m.T)) / lam


def test_transfer_operator_identity_action():
    # Identity is the eigen-matrix: sum_i T_i^T T_i = lam(eps) * Id.
    for eps in (0.3, 0.5, 0.9, 1.0):
        out = ruelle_apply(eps, np.eye(2))
        assert np.max(np.abs(out - 0.6 * eps**2 * np.eye(2))) <= 1e-14


def test_transfer_operator_preserves_psd_cone(rng):
    for _ in range(20):
        g = rng.normal(size=(2, 2))
        m = g @ g.T
        out = ruelle_apply(0.8, m)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-14
        assert np.max(np.abs(out - out.T)) == 0.0


def adjoint_apply(eps: float, mat: np.ndarray) -> np.ndarray:
    """One application of the adjoint: sum of T_i mat T_i^t.

    Conjugation runs the opposite way from ruelle_apply.  The two happen
    to coincide for the harmonic family, whose linear parts are
    symmetric; the test keeps them distinct because composed products
    DF_w are not symmetric.
    """
    _require_symmetric(mat)
    out = np.zeros((2, 2))
    for t in triple(eps)[0]:
        out += t @ mat @ t.T
    return 0.5 * (out + out.T)


def test_adjoint_is_the_true_adjoint(rng):
    # (L A, B)_HS = (A, L* B)_HS for random symmetric A, B.
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        a = a + a.T
        b = rng.normal(size=(2, 2))
        b = b + b.T
        lhs = np.trace(ruelle_apply(0.7, a) @ b.T)
        rhs = np.trace(a @ adjoint_apply(0.7, b).T)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_sym_operator_matches_apply(rng):
    op = sym_operator3(0.8)
    for _ in range(5):
        g = rng.normal(size=(2, 2))
        m = g + g.T
        assert np.max(np.abs(unsym3(op @ sym3(m)) - ruelle_apply(0.8, m))) <= 1e-13


def test_perron_eigenpair():
    # The closed form against a power iteration from the identity.
    for eps in (1.0, 0.3, 0.5, 0.9):
        lam, q = perron(eps)
        lam_it, q_it, _ = perron_iteration(eps)
        assert abs(lam - lam_it) <= 1e-12
        assert np.max(np.abs(q - q_it)) <= 1e-10


def test_perron_report_fields():
    rep = perron_report(0.5)
    assert set(rep) == {"eps", "lambda", "q", "residual"}
    assert rep["residual"] <= 1e-12


def test_perron_trace_underflow_is_a_prefactor_underflow():
    # lam = (3/5) eps^2 rounds to 0.0; at eps = 1e-155 it is a subnormal double and passes.
    with pytest.raises(PrefactorUnderflow, match="denominator 0.0 underflows"):
        perron_report(1e-200)
    assert perron_report(1e-155)["residual"] <= 1e-12


def test_gibbs_cylinder_masses_against_brute_force(regime):
    # The closed form takes no sequence; each regime's own map products
    # give the same masses.
    for word in ((), (1,), (2,), (1, 1), (1, 2), (3, 1), (1, 2, 3), (2, 2, 2)):
        cm = gibbs_tau(word)
        assert cm.kappa == pytest.approx(float(np.trace(cm.tau)), rel=1e-14, abs=1e-15)
        assert cm.kappa == pytest.approx(brute_force_kappa(regime, word), rel=1e-12)
        assert np.min(np.linalg.eigvalsh(cm.tau)) >= -1e-13


def test_gibbs_tau_matches_the_tau_table(regime):
    # gibbs_tau multiplies one word's level factors; tau_table multiplies
    # them for every word at once, with the same arithmetic.  The regime's
    # own table, from its scaled map products, agrees to rounding.
    for l in range(7):
        taus = tau_table(l)
        kappas = kappa_table(l)
        own = per_sequence_tau_table(regime, l)
        assert np.max(np.abs(own - taus)) <= 1e-14 * np.max(np.abs(taus)), l
        for i, word in enumerate(iter_words(l)):
            cm = gibbs_tau(word)
            assert cm.tau.tobytes() == taus[i].tobytes(), (l, word)
            assert cm.kappa == kappas[i], (l, word)
    # One word at the depth cap reads l factors, not the 3^l-row table.
    before = _scaled_linears.cache_info()
    assert 0.0 < kappa((1, 2, 3) * 4) < 1.0
    assert _scaled_linears.cache_info() == before


def test_kappa_is_the_trace_of_tau():
    # One route: every table row's kappa is its own tau11 + tau22, and the
    # one-word kappa is that row's, for every word to depth 8.  kappa_table
    # takes its traces range by range, the whole tau table in one.
    for l in range(13):
        taus = tau_table(l)
        assert kappa_table(l).tobytes() == _trace(taus).tobytes() == (taus[:, 0, 0] + taus[:, 1, 1]).tobytes(), l
    for l in range(9):
        table = kappa_table(l)
        for word in iter_words(l):
            assert kappa(word) == table[word_index(word)], word


def test_tau_table_row_ranges_are_the_whole_table_rows(rng):
    # A range multiplies only its own ancestors, with the whole table's
    # arithmetic, so every row keeps its bits wherever the range falls.
    for l in range(9):
        n = 3**l
        whole = tau_table(l)
        ranges = [(0, 0), (n, n), (0, n), (0, 1), (n - 1, n), (n // 2, n // 2 + 1)]
        # Across the ends of the depth-k prefix blocks, 3^(l - k) rows each.
        for k in range(1, l):
            ranges += [(max(end - 2, 0), min(end + 3, n)) for end in (3 ** (l - k), n - 3 ** (l - k), 2 * 3 ** (l - k))]
        ranges += [tuple(sorted(rng.integers(0, n + 1, 2).tolist())) for _ in range(20)]
        for start, stop in ranges:
            part = tau_table(l, start, stop)
            assert part.shape == (stop - start, 2, 2), (l, start, stop)
            assert part.tobytes() == whole[start:stop].tobytes(), (l, start, stop)


@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 28), (28, 28)])
def test_tau_table_refuses_a_range_outside_the_level(start, stop):
    with pytest.raises(ValueError, match=rf"row range \[{start}, {stop}\) is not within the 27 level-3 words"):
        tau_table(3, start, stop)


@pytest.mark.parametrize(
    "seq",
    [PREFIX_EXP, ParamSeq.constant(0.028086), ParamSeq.constant(0.3), ParamSeq(tail=ExpTail(3.744, 0.8712))],
    ids=["prefix-exp", "const-0.028", "const-0.3", "tail-3.744"],
)
def test_cylinder_tables_equal_the_einsum_contractions_bit_for_bit(seq):
    # The explicit two-term sums start from 0.0 as einsum does, so every
    # word, signed zeros included, equals the einsum route's; gibbs_tau
    # equals its tau_table row.
    for l in (0, 3, 6, 9):
        assert _scaled_linears(l).tobytes() == scaled_linears_by_einsum(l).tobytes(), l
        assert tau_table(l).tobytes() == tau_table_by_einsum(l).tobytes(), l
    taus = tau_table(4)
    for i, word in enumerate(iter_words(4)):
        tau = gibbs_tau(word).tau
        assert tau.tobytes() == taus[i].tobytes() == gibbs_tau_by_einsum(word).tobytes(), word
    # The sequence's own einsum products round each level's eps_k their own
    # way; they stay within a few ulps per level of the stretch-free table.
    for l in (3, 6, 9):
        own, ref = per_sequence_kappa_table(seq, l), kappa_table(l)
        assert np.max(np.abs(own - ref) / ref) <= 8 * l * np.finfo(float).eps, l


def test_scaled_linears_are_filled_range_by_range_with_the_whole_products():
    # The cache is filled 3^7 rows at a time; each range multiplies its own
    # ancestors, so the table is the one-range product table bit for bit.
    for l in range(13):
        assert _scaled_linears(l).tobytes() == _linears(l, 0, 3**l).tobytes(), l


def test_explicit_products_keep_einsums_signed_zeros(rng):
    # Zero factors against negative ones make -0.0 products, whose einsum
    # sum from 0.0 is +0.0.
    a, b = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(2, 400, 2, 2))
    assert _product2(a, b).tobytes() == np.einsum("wab,wbc->wac", a, b).tobytes()


def test_cylinder_masses_against_the_exact_oracle():
    # Every word to depth 8 against tau in Q(sqrt3), to 50 digits.  The
    # stretch-free table has one rounding of each product; each regime's own
    # table (its scaled map products, the tables before they became
    # stretch-free) has one per level and per eps_k.
    names = ("CONSTANT_HALF", "PREFIX_EXP", "TAIL_ONLY")
    print(f"\nerror in ulps of kappa_w, max / mean\n{'l':>2} {'stretch-free':>14}" + "".join(f" {n:>14}" for n in names))
    for l in range(1, 9):
        exact = exact_kappa_table(l)
        new = ulp_errors(kappa_table(l).tolist(), exact)
        old = [ulp_errors(per_sequence_kappa_table(seq, l).tolist(), exact) for seq in ALL_REGIMES]
        cells = [f"{max(e):6.2f} / {sum(e) / len(e):4.2f}" for e in [new, *old]]
        print(f"{l:>2} " + " ".join(f"{c:>14}" for c in cells))
        for name, e in zip(names, old):
            assert max(new) < max(e) and sum(new) < sum(e), (l, name)


def test_known_cylinder_fractions(regime):
    # Level-1 and level-2 masses are stretch-independent rationals, for the
    # closed form and for the regime's own map products.
    closed = {(1,): 1 / 3, (2,): 1 / 3, (3,): 1 / 3, (1, 1): 41 / 225, (1, 2): 17 / 225, (1, 3): 17 / 225}
    for word, value in closed.items():
        assert abs(kappa(word) - value) <= 1e-13, word
        assert abs(brute_force_kappa(regime, word) - value) <= 1e-13, word


def test_level_masses_sum_to_one(regime):
    for l in range(0, 13):
        assert abs(math.fsum(kappa_table(l).tolist()) - 1.0) <= 1e-12, l
    for l in range(0, 9):
        assert abs(math.fsum(per_sequence_kappa_table(regime, l).tolist()) - 1.0) <= 1e-12, l


def test_refinement_additivity(regime):
    for l in range(0, 4):
        for table in (tau_table, lambda l: per_sequence_tau_table(regime, l)):
            coarse = table(l)
            fine = table(l + 1).reshape(3**l, 3, 2, 2).sum(axis=1)
            assert np.max(np.abs(coarse - fine)) <= 1e-13, l


def test_adjoint_aggregate_equals_gibbs(regime):
    for l in (1, 2, 3, 4):
        agg = adjoint_aggregate(regime, l)
        for word in iter_words(l):
            diff = np.max(np.abs(agg[word] - gibbs_tau(word).tau))
            assert diff <= 1e-13, (l, word)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seq=SEQUENCES, l=st.integers(0, 5))
def test_sequence_routes_match_the_stretch_free_tables(seq, l):
    # Near-degenerate prefixes (eps = 1e-3, 1 - 1e-12) and slow tails too:
    # the adjoint aggregation and the brute-force products of any sequence
    # give the stretch-free cylinder matrices.  Both divide by lam_tilde(l),
    # so they need it well inside the normal range (the tables do not).
    assume(seq.lam_tilde(l) > 1e-250)
    taus = tau_table(l)
    agg = adjoint_aggregate(seq, l)
    for i, word in enumerate(iter_words(l)):
        assert np.max(np.abs(agg[word] - taus[i])) <= 1e-13, word
        assert brute_force_kappa(seq, word) == pytest.approx(float(np.trace(taus[i])), rel=1e-12), word


def test_hs_norm_identity(regime):
    # sum_w |DF_w|_F^2 = 2 lam_tilde(l): Id is the eigenmatrix of every level
    # operator, with eigenvalue lam_k; the cable tail bounds rest on it.
    for l in (1, 3, 5):
        lin, _ = word_table(regime, l)
        assert float(np.einsum("wab,wab->", lin, lin)) == pytest.approx(2.0 * regime.lam_tilde(l), rel=1e-13)


def test_cable_masses_structure():
    for seq, s in ((TAIL_ONLY, 1), (TAIL_ONLY, 2), (PREFIX_EXP, 3)):
        masses, dirs = cable_masses(seq, s)
        assert masses.shape == (3**s,) and dirs.shape == (3**s, 2)
        cables = [(prefix, slot) for prefix in iter_words(s - 1) for slot in (1, 2, 3)]
        for m, d, (prefix, slot) in zip(masses, dirs, cables):
            assert m > 0.0
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-14)
            p = d[:, None] * d
            assert np.max(np.abs(p @ p - p)) <= 1e-14
            assert float(np.trace(p)) == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(p @ d - d)) <= 1e-14
            cm = cable_mass(seq, prefix, s, slot)
            # One cable is its row of the stacked masses, bit for bit.
            assert cm.mass == m, (s, prefix, slot)
            assert cm.direction.tolist() == d.tolist(), (s, prefix, slot)
            assert cm.projection.tolist() == p.tolist(), (s, prefix, slot)


def test_cable_mass_prefix_validation():
    with pytest.raises(ValueError):
        cable_mass(TAIL_ONLY, (1, 2), 2, 1)


def test_underflowed_cables_are_refused():
    # The exp-tail sequence of the benchmark's energy-deep tail_only-8: 300 prefix letters
    # shrink every generation-301 cable so far that its |v|^2 rounds to 0.0.
    seq = ParamSeq(prefix=(), tail=ExpTail(0.038383, 0.5273))
    prefix, digits = (2, 3) * 150, "23" * 150
    for slot in (1, 2, 3):
        with pytest.raises(PrefactorUnderflow, match=f"generation-301 cable at prefix {digits}, slot {slot}: mapped"):
            cable_mass(seq, prefix, 301, slot)
    # Its Laplacian sample was NaN: the carrier is now refused before a sample is taken.
    with pytest.raises(PrefactorUnderflow, match="generation-301 cable"):
        teplyaev(parse("x^2"), cable_mass(seq, prefix, 301, 1), seq)
    # The table route names the same cable by its flat index among the cables, whatever
    # slot its rows start at.
    lin, _ = compose(seq, prefix)
    with pytest.raises(PrefactorUnderflow, match=f"generation-301 cable at prefix {digits}, slot 1: mapped"):
        _cable_directions(lin[None], cable_segments(seq, 301)[1], 301, 3 * word_index(prefix))
    with pytest.raises(PrefactorUnderflow, match=f"generation-301 cable at prefix {digits}, slot 2: mapped"):
        _cable_directions(lin[None], cable_segments(seq, 301)[1][1:], 301, 3 * word_index(prefix) + 1)


@pytest.mark.parametrize("letter", [0, 4])
def test_letters_outside_one_to_three_are_rejected(letter):
    # Unchecked, letter 0 would index from the end: the mass of letter 3.
    with pytest.raises(ValueError, match=f"word letter must be 1, 2 or 3, got {letter}"):
        gibbs_tau((2, letter))
    with pytest.raises(ValueError, match=f"got {letter}"):
        kappa((letter,))


@pytest.mark.parametrize("slot", [0, 4])
def test_slots_outside_one_to_three_are_rejected(slot):
    # Unchecked, slot 0 would index from the end: the mass of slot 3.
    for prefix, s in (((), 1), ((1,), 2)):
        with pytest.raises(ValueError, match=f"cable slot must be 1, 2 or 3, got {slot}"):
            cable_mass(PREFIX_EXP, prefix, s, slot)


def test_negative_depths_are_refused():
    # Unchecked, depth -1 would return the empty-word table: kappa 1, tau Id/2.
    for table in (kappa_table, tau_table, _scaled_linears):
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            table(-1)


def test_depths_past_the_cap_are_refused_before_building():
    # Unchecked, depth 13 would build a (1594323, 2, 2) table.
    for table in (kappa_table, tau_table, _scaled_linears):
        with pytest.raises(DepthCapExceeded, match="depth 13 exceeds cap 12"):
            table(13)


def test_cylinder_caches_hold_one_table_per_depth():
    # The tables take no sequence, so three sequences share one entry per
    # depth, and the caches never hold more than the 13 depths 0..12.
    _scaled_linears.cache_clear()
    kappa_table.cache_clear()
    for _ in ALL_REGIMES:
        for l in range(13):
            tau_table(l)
            kappa_table(l)
    for seq in (PREFIX_EXP, TAIL_ONLY):
        energy_via_measure(seq, parse("x"), parse("y"), 3)
    for cache in (_scaled_linears, kappa_table):
        info = cache.cache_info()
        assert info.maxsize == 13 and info.currsize == 13 and info.misses == 13, info


@pytest.mark.parametrize("l", [8, 12])
@pytest.mark.parametrize("first, second", [(tau_table, kappa_table), (kappa_table, tau_table)], ids=["tau-kappa", "kappa-tau"])
def test_a_level_is_multiplied_once_for_both_tables(monkeypatch, first, second, l):
    # kappa_table traces the products that a whole tau_table reads, so the second table
    # multiplies nothing, in either order: 3 and 243 range products at depths 8 and 12
    # when kappa_table took its rows through tau_table's ranges.
    _scaled_linears.cache_clear()
    kappa_table.cache_clear()
    first(l)
    calls = []

    def counted(*args):
        calls.append(args)
        return _linears(*args)

    monkeypatch.setattr(kusuoka, "_linears", counted)
    second(l)
    assert calls == []


def test_total_cable_mass_grows_and_stays_bounded():
    t2 = total_cable_mass(TAIL_ONLY, 2)
    t5 = total_cable_mass(TAIL_ONLY, 5)
    assert 0.0 < t2 < t5
    # The same geometric envelope that bounds the dropped cable energy of
    # constant fields bounds the total mass (gradient bounds 1).
    assert t5 <= total_cable_mass(TAIL_ONLY, 9) + cable_tail_bound(TAIL_ONLY, 5, 1.0, 1.0)


def _outcome(route, *args):
    """The value of route(*args), or the type and message of the package error it raises."""
    try:
        return route(*args)
    except GasketError as exc:
        return type(exc), str(exc)


#: The operator's distance from the enumerated gasket sum, relative to the sum of the
#: gasket terms' rounding scales (``measure_gasket_terms(..., absolute=True)``): each
#: enumerated term rounds its gradients in double, and a term can cancel to below its own
#: rounding, as the vanishing cubic's gradient does at the barycenter.  The largest
#: measured over the fields and depths below is 1.6 u.
MEASURE_OPERATOR_RTOL = 8 * 2.0**-53


def test_measure_energy_operator_matches_the_enumerated_sum(regime, rng):
    # The gasket half by the level operators against the sum over the 3^l cells, for
    # fields of degree 1 to 6 at l <= 10; the cables are the same terms on both sides.
    # On the constant sequence, whose cables have no limit weight, the same error.
    fields = [(random_poly(rng, deg), random_poly(rng, deg)) for deg in range(1, 7)]
    for u, v in [(parse("x^2 - 0.5*x*y + y^3"), vanishing_cubic()), *fields]:
        for depth in range(11):
            got = _outcome(energy_via_measure, regime, u, v, depth)
            want = _outcome(energy_via_measure_whole, regime, u, v, depth)
            assert isinstance(got, float) == (regime is not CONSTANT_HALF or depth == 0), got
            if not isinstance(got, float):
                assert got == want, depth
                continue
            terms = measure_gasket_terms(regime, u, v, depth)
            bound = MEASURE_OPERATOR_RTOL * math.fsum(measure_gasket_terms(regime, u, v, depth, absolute=True).tolist())
            assert abs(_gasket_half(regime, u, v, depth) - math.fsum(terms.tolist())) <= bound, (u, depth)
            # One rounding of the total on each side.
            assert abs(got - want) <= bound + math.ulp(want), (u, depth, got, want)


def test_measure_energy_gasket_half_of_a_constant_field_is_zero(regime):
    for v in (parse("x^2 - 0.5*x*y + y^3"), parse("0"), parse("2.5")):
        for depth in (0, 1, 7, 12):
            assert _gasket_half(regime, parse("2.5"), v, depth) == 0.0
            assert _gasket_half(regime, v, parse("-1"), depth) == 0.0


def test_measure_energy_gasket_half_of_affine_fields_is_half_their_gradient_product(regime, rng):
    # (grad u, (Id/2) grad v) at every depth, within 1 ulp of the exact rational value:
    # the operator runs in longdouble and rounds once (0.505 ulp the largest measured).
    for _ in range(10):
        a = rng.uniform(-1, 1, 6).tolist()
        exact = (Fraction(a[1]) * Fraction(a[4]) + Fraction(a[2]) * Fraction(a[5])) / 2
        for depth in range(13):
            got = _gasket_half(regime, affine(*a[:3]), affine(*a[3:]), depth)
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact))), (a, depth)


def test_measure_energy_builds_no_depth_level_table(monkeypatch):
    # O(depth): at the depth cap the route composes no word, multiplies no cylinder
    # product and reads no table, in any module that imported those names.
    u, v = parse("x^2 - 0.5*x*y + y^3"), vanishing_cubic()
    want = energy_via_measure(PREFIX_EXP, u, v, 12)

    def refuse(*args, **kwargs):
        raise AssertionError("a depth-level table was built")

    for name in ("_word_levels", "word_table", "_linears", "_scaled_linears"):
        for module in [m for key, m in sys.modules.items() if key.startswith("stretched_gasket") and hasattr(m, name)]:
            monkeypatch.setattr(module, name, refuse)
    assert energy_via_measure(PREFIX_EXP, u, v, 12) == want
    # Past the cap the depth is refused before any work.
    for name in ("_gasket_half", "_moment_terms"):
        monkeypatch.setattr(kusuoka, name, refuse)
    with pytest.raises(DepthCapExceeded, match="depth 13 exceeds cap 12"):
        energy_via_measure(PREFIX_EXP, u, v, 13)


def test_measure_energy_memory_at_depth_ten():
    # Twice the peak measured with the gasket half by the level operators, most of it
    # the cables' moment pass (1.0 MiB); the gasket terms taken 3^7 cells at a time
    # peaked at 2.4 MiB, the whole word, tau and term tables at 11.7 MiB.
    u, v = parse("x^2 - 0.5*x*y + y^3"), vanishing_cubic()
    assert cold_peak(lambda: energy_via_measure(PREFIX_EXP, u, v, 10)) < 2 * 2**20


def test_energy_via_measure_matches_quadrature_route_for_affine(rng):
    for _ in range(3):
        u = parse("1") * float(rng.uniform(-1, 1)) + parse("x") * float(
            rng.uniform(-1, 1)
        ) + parse("y") * float(rng.uniform(-1, 1))
        v = parse("x") * float(rng.uniform(-1, 1)) + parse("y") * float(rng.uniform(-1, 1))
        for d in (1, 3):
            via_measure = energy_via_measure(TAIL_ONLY, u, v, d)
            e2, tail = energy2_limit(TAIL_ONLY, u, v, d)
            direct = energy1(TAIL_ONLY, d, u, v) + e2
            assert abs(via_measure - direct) <= 1e-12 + tail
