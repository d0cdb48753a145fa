"""The moment-pass forms against edge-by-edge routes, quadrature checks, memory.

Every form is compared with a route in ``tests/oracles.py`` that
enumerates cells and edges, at depths <= 7, to 1e-12 relative, and with
the backward fold (the pass's adjoint) to 1e-14; the generation-1 cable
term of the recurrence residuals is compared with the per-edge
``cable_energy``.  The one-step recurrence is not used as the check: it is
the pass's own identity.  The depth sweeps must equal their single-depth
rows bit for bit and make one pass; from a cleared table cache a pass
builds its pullbacks in one stacked call and its Grams from one
evaluation per derivative order, and a repeat builds nothing.  The
batched Grams and stacked pullbacks equal the per-generation and per-map
products bit for bit, and no form depends on what the cache holds: warm
or cold, past its byte budget, for sequences with equal eps_k but
different log eps_k, and for a custom rule of a Gauss rule's order.  A
top moment's stored chain makes a later pass push only the levels past
the stored ones whose logs it shares, keyed on the top's exact value, and
an underflowing lam_k is refused the same cold and warm.  The
recurrence residuals' stacked pass equals one pass per pulled-back pair,
and fields beyond the pass's memory budget are refused before any
allocation.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    DepthCapExceeded,
    ExpTail,
    GasketError,
    ParamSeq,
    QuadratureRule,
    cable_segments,
    convergence_rows,
    energy1,
    energy2_limit,
    energy_total,
    get_quadrature,
    ibp_table,
    parse,
    recurrence_residual,
    selfsimilar_residual,
    triple,
    vanishing_at_ABC,
    vanishing_cubic,
    weak_pairing,
)
from stretched_gasket import energy
from stretched_gasket.energy import _one_step, _report, _terms, min_quad_order
from stretched_gasket.errors import PrefactorUnderflow
from stretched_gasket.geometry import _side_arrays

from conftest import ALL_REGIMES, EDGE_SEQ, PREFIX_EXP, SEQUENCES, TAIL_ONLY, random_poly
from oracles import (
    _energy_rows,
    cable_energy,
    energy2,
    energy2_limit_by_edges,
    energy_by_edges,
    fold_backward,
    ibp_rhs_by_cells,
    recurrence_residual_by_passes,
    segment_form,
    selfsimilar_residual_by_passes,
)

RTOL = 1e-12
DEPTHS = (1, 3, 7)

#: The three fixture regimes plus a first level near 0 and near 1.
LOW_PREFIX = ParamSeq(prefix=(0.01,), tail=ExpTail(0.1, 0.5))
HIGH_PREFIX = ParamSeq(prefix=(0.99,), tail=ExpTail(0.1, 0.5))
SEQS = ALL_REGIMES + (LOW_PREFIX, HIGH_PREFIX)
SEQ_IDS = ["const-half", "prefix-exp", "tail-only", "prefix-0.01", "prefix-0.99"]
LIMIT_SEQS = (PREFIX_EXP, TAIL_ONLY, LOW_PREFIX, HIGH_PREFIX)
LIMIT_IDS = SEQ_IDS[1:]


def _field_cases():
    """(u, v, quadrature order) with the order at or above the minimum."""
    rng = np.random.default_rng(4412)
    return [
        (random_poly(rng, 2), random_poly(rng, 3), 2),
        (random_poly(rng, 4), random_poly(rng, 3), 8),
        (parse("x^9 - 0.3*y^4"), random_poly(rng, 8), 8),
        (parse("x^12"), parse("x^12"), 12),
        (parse("x^12 + y^7"), random_poly(rng, 5), 12),
    ]


FIELDS = _field_cases()
FIELD_IDS = ["deg2-3@2", "deg4-3@8", "deg9-8@8", "x12-x12@12", "deg12-5@12"]


def _close(got: float, want: float):
    assert abs(got - want) <= RTOL * abs(want), (got, want, abs(got - want) / abs(want))


def _depths(u, v):
    # Degree-12 pairs fold 91 x 91 forms; two depths keep them quick.
    return DEPTHS if max(u.degree, v.degree) < 12 else DEPTHS[:2]


@pytest.mark.parametrize("case", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_folded_energy_matches_edge_sum(seq, case):
    u, v, order = case
    quad = get_quadrature(order)
    for l in _depths(u, v):
        ref, _ = energy_by_edges(seq, l, u, v, quad)
        rep = energy_total(seq, l, u, v, quad)
        _close(rep.e1, ref.e1)
        _close(rep.e2, ref.e2)
        _close(rep.total, ref.total)
    _close(energy1(seq, l, u, v, quad), ref.e1)
    _close(energy2(seq, l, u, v, quad), ref.e2)


@pytest.mark.parametrize("case", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_moment_pass_matches_backward_fold(seq, case):
    u, v, order = case
    quad = get_quadrature(order)
    for l in DEPTHS:
        ref = fold_backward(seq, l, u, v, quad)
        rep = energy_total(seq, l, u, v, quad)
        for got, want in ((rep.e1, ref.e1), (rep.e2, ref.e2), (rep.total, ref.total)):
            assert abs(got - want) <= 1e-14 * abs(want), (l, got, want)


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_folded_energy_with_outer_maps(seq, rng):
    # The recurrence's pulled-back fields u o F^1_i, v o F^1_i, the one use
    # of outer maps, against the edge sum of the shifted sequence.
    u = random_poly(rng, 4)
    v = random_poly(rng, 3)
    quad = get_quadrature(8)
    for l in (0, 3, 6):
        _, _, halves = _one_step(seq, l, u, v, quad)
        for f, rep in zip(zip(*triple(seq.eps(1))), halves):
            ref, _ = energy_by_edges(seq.shift(), l, u, v, quad, outer=f)
            _close(rep.total, ref.total)
            _close(rep.e1, ref.e1)
            _close(rep.e2, ref.e2)


@pytest.mark.parametrize("case", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seq", LIMIT_SEQS, ids=LIMIT_IDS)
def test_folded_limit_cables_match_edge_sum(seq, case):
    u, v, order = case
    quad = get_quadrature(order)
    for s_max in _depths(u, v):
        got, _ = energy2_limit(seq, u, v, s_max, quad)
        _close(got, energy2_limit_by_edges(seq, s_max, u, v, quad))
    f2 = tuple(arr[1] for arr in triple(seq.eps(1)))
    _, _, halves = _one_step(seq, 3, u, v, quad, limit=True)
    _close(halves[1].e2, energy2_limit_by_edges(seq.shift(), 3, u, v, quad, outer=f2))


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_generation1_cables_match_cable_energy(seq, rng):
    # The recurrence residuals' cable term is the first generation of the
    # left side's moment pass; the per-edge
    # cable_energy composes each cable into one-variable polynomials.  The
    # pair (affine, vanishing cubic) is zero analytically, so the tolerance
    # is relative to the Cauchy-Schwarz scale sqrt(C(u, u) C(v, v)).
    from stretched_gasket.energy import _split, resolve_quadrature

    pairs = [(random_poly(rng, d), random_poly(rng, max(1, d - 1))) for d in range(1, 13)]
    pairs.append((parse("0.3 - 1.2*x + 0.7*y"), vanishing_cubic()))
    weights = [(l, seq.eps_tilde(1, l)) for l in (1, 5, 9)]
    if seq in LIMIT_SEQS:
        weights.append((None, seq.eps_tilde_inf(1)))
    for u, v in pairs:
        # deg u >= deg v: one rule exact for all three pairs.
        quad = resolve_quadrature(None, u.degree, u.degree)
        cross = cable_energy(seq, 1, u, v, quad)
        norms = cable_energy(seq, 1, u, u, quad) * cable_energy(seq, 1, v, v, quad)
        for l, window in weights:
            (parts,) = _energy_rows(seq, (l or 1,), u, v, quad, limit=l is None)
            got = math.fsum(_split(parts[1]))
            want = cross / window
            scale = math.sqrt(norms) / window
            assert abs(got - want) <= 1e-12 * scale, (u.degree, v.degree, l, got, want)


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_folded_ibp_measure_side_matches_cell_sum(seq, rng):
    cases = [
        (parse("x^2 - x*y"), vanishing_cubic(), 8),
        (random_poly(rng, 4), vanishing_at_ABC(random_poly(rng, 1)), 8),
        (random_poly(rng, 3), vanishing_cubic(), 3),
        (parse("x^12"), vanishing_at_ABC(random_poly(rng, 2)), 12),
    ]
    for phi, v, order in cases:
        quad = get_quadrature(order)
        for row in ibp_table(seq, phi, v, _depths(phi, v), quad):
            _close(row["integral_rhs"], ibp_rhs_by_cells(seq, row["depth"], phi, v, quad))
            _close(row["energy_lhs"], energy_by_edges(seq, row["depth"], phi, v, quad)[0].total)


def test_fold_reproduces_edge_sum_for_inexact_rules():
    # The Grams use the caller's rule, so even a rule too low for the
    # fields gives the edge sum's numbers; the public entry points refuse
    # such rules, so this goes through the internal assembly.

    x12 = parse("x^12")
    for order in (2, 8, 12):
        quad = get_quadrature(order)
        for l in (0, 2, 5):
            (parts,) = _energy_rows(PREFIX_EXP, (l,), x12, x12, quad)
            got = _report(l, *_terms(parts))
            ref, _ = energy_by_edges(PREFIX_EXP, l, x12, x12, quad)
            _close(got.e1, ref.e1)
            _close(got.e2, ref.e2)


def test_symmetry_is_exact_for_folded_forms(rng):
    u = random_poly(rng, 5)
    v = random_poly(rng, 4)
    for seq in SEQS:
        for l in (2, 7, 12):
            a = energy_total(seq, l, u, v)
            b = energy_total(seq, l, v, u)
            assert (a.e1, a.e2, a.total) == (b.e1, b.e2, b.total)


# -- depth sweeps ----------------------------------------------------------

SWEEP_U = parse("x^2 - 0.5*x*y + y^3")


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_convergence_rows_equal_single_depth_forms(seq):
    v = vanishing_cubic()
    rows = convergence_rows(seq, SWEEP_U, v, 10)
    assert [row["l"] for row in rows] == list(range(11))
    for row in rows:
        rep = energy_total(seq, row["l"], SWEEP_U, v)
        assert (row["e1"], row["e2"], row["total"]) == (rep.e1, rep.e2, rep.total)


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_ibp_sweep_rows_equal_single_depth_rows(seq):
    v = vanishing_cubic()
    rows = ibp_table(seq, SWEEP_U, v, range(3, 11))
    assert rows == [ibp_table(seq, SWEEP_U, v, (l,))[0] for l in range(3, 11)]
    # The energy side is the form itself.
    assert [row["energy_lhs"] for row in rows] == [energy_total(seq, l, SWEEP_U, v).total for l in range(3, 11)]


def test_ibp_table_keeps_the_order_of_its_depths():
    v = vanishing_cubic()
    single = {l: ibp_table(PREFIX_EXP, SWEEP_U, v, (l,))[0] for l in (0, 2, 5, 9)}
    assert ibp_table(PREFIX_EXP, SWEEP_U, v, ()) == []
    for depths in ((9, 2, 5), (5, 5, 0, 5), (2, 9, 2)):
        assert ibp_table(PREFIX_EXP, SWEEP_U, v, depths) == [single[l] for l in depths]
    # A generator of depths is read once.
    assert ibp_table(PREFIX_EXP, SWEEP_U, v, (l for l in (9, 2))) == [single[9], single[2]]


def test_moment_pass_keeps_the_depth_cap():
    v = vanishing_cubic()
    calls = [
        lambda: energy_total(TAIL_ONLY, 13, SWEEP_U, v),
        lambda: energy2_limit(TAIL_ONLY, SWEEP_U, v, 13),
        lambda: convergence_rows(TAIL_ONLY, SWEEP_U, v, 13),
        lambda: ibp_table(TAIL_ONLY, SWEEP_U, v, (3, 13)),
    ]
    for call in calls:
        with pytest.raises(DepthCapExceeded):
            call()
    with pytest.raises(ValueError, match="depth must be >= 0"):
        ibp_table(TAIL_ONLY, SWEEP_U, v, (3, -1))


def test_sweeps_push_the_moments_once(monkeypatch):
    # A sweep is one pass to its deepest depth.  From a cleared cache it
    # builds the pullbacks of all ten levels in one stacked call; a repeat
    # reads them all from the cache and builds none.
    passes, stacks = [], []
    tables, pullback = energy._level_tables, energy._pullback

    def counting_tables(seq, logs, *args):
        passes.append(len(logs))
        return tables(seq, logs, *args)

    def counting_pullback(lin, off, d, *, from_plain=False):
        if not from_plain:
            stacks.append(len(lin))
        return pullback(lin, off, d, from_plain=from_plain)

    monkeypatch.setattr(energy, "_level_tables", counting_tables)
    monkeypatch.setattr(energy, "_pullback", counting_pullback)
    v = vanishing_cubic()
    for sweep in (lambda: convergence_rows(PREFIX_EXP, SWEEP_U, v, 10), lambda: ibp_table(PREFIX_EXP, SWEEP_U, v, range(3, 11))):
        energy._TABLES.clear()
        sweep()
        assert (passes, stacks) == ([10], [30])
        passes.clear()
        stacks.clear()
        sweep()
        assert (passes, stacks) == ([10], [])
        passes.clear()


def test_sweeps_build_the_grams_once(monkeypatch):
    orders = []
    jets = energy._segment_jets

    def counting(p0, dv, d, quad, order):
        orders.append(order)
        return jets(p0, dv, d, quad, order)

    monkeypatch.setattr(energy, "_segment_jets", counting)
    v = vanishing_cubic()
    # One evaluation per derivative order for the sides and all ten cable
    # generations: order 1 serves both sides of the energy Grams (1, 1).
    # A repeat evaluates no jets.
    energy._TABLES.clear()
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 10)
    assert orders == [1]
    orders.clear()
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 10)
    assert orders == []
    # The energy side's (1, 1) and the measure side's (2, 0) Grams.
    energy._TABLES.clear()
    ibp_table(PREFIX_EXP, SWEEP_U, v, range(3, 11))
    assert sorted(orders) == [0, 1, 2]
    orders.clear()
    ibp_table(PREFIX_EXP, SWEEP_U, v, range(3, 11))
    assert orders == []


# -- batched matrices against the per-generation products ------------------

@settings(derandomize=True, max_examples=40, deadline=None)
@given(seq=SEQUENCES, d=st.integers(0, 12), l_max=st.integers(0, 12), order=st.integers(1, 12))
@example(seq=EDGE_SEQ, d=12, l_max=12, order=12)
@example(seq=ParamSeq(prefix=(1e-3,), tail=ExpTail(5.0, 0.05)), d=3, l_max=4, order=8)
def test_batched_grams_equal_the_per_generation_grams(seq, d, l_max, order):
    # D = (d + 1)(d + 2) / 2 runs up to 91.  The cleared cache makes every
    # Gram come from one stacked build.
    quad = get_quadrature(order)
    energy._TABLES.clear()
    side, levels = energy._level_tables(seq, _logs(seq, l_max), d, quad, [(1, 1), (2, 0)])
    for orders in ((1, 1), (2, 0)):
        assert side[orders].shape == (energy._dim(d), energy._dim(d))
        assert np.array_equal(side[orders], segment_form(*_side_arrays(), d, quad, *orders))
        for k in range(1, l_max + 1):
            assert np.array_equal(levels[k - 1][orders], segment_form(*cable_segments(seq, k), d, quad, *orders)), (orders, k)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seq=SEQUENCES, d=st.integers(0, 12))
@example(seq=EDGE_SEQ, d=12)
def test_stacked_level_pullbacks_equal_the_single_map_pullbacks(seq, d):
    energy._TABLES.clear()
    _, levels = energy._level_tables(seq, _logs(seq, 3), d, get_quadrature(), [])
    for k in range(1, 4):
        want = np.stack([energy._map_pullback(lin, off, d) for lin, off in zip(*triple(seq.eps(k)))])
        assert np.array_equal(levels[k - 1]["pullbacks"], want), k
    assert np.array_equal(energy._centering(d), energy._map_pullback(np.eye(2), np.zeros(2), d, from_plain=True))


def _logs(seq, l_max):
    return [seq.log_eps(k) for k in range(1, l_max + 1)]


# -- the level-table cache -------------------------------------------------

#: Equal eps_1, different log eps_1: a tail value and the prefix value exp(log eps_1).
TAIL_LEVEL = ParamSeq(prefix=(), tail=ExpTail(1e-3, 0.5))
PREFIX_LEVEL = ParamSeq(prefix=(math.exp(TAIL_LEVEL.log_eps(1)),), tail=ExpTail(1e-3, 0.5))


def _outputs(seq, quad=None):
    """Forms that read every kind of table: (1, 1) and (2, 0) Grams, finite and limit windows."""
    v = vanishing_cubic()
    out = [energy_total(seq, 6, SWEEP_U, v, quad), ibp_table(seq, SWEEP_U, v, (2, 5), quad), weak_pairing(seq, 4, SWEEP_U, v, quad=quad)]
    return out + [energy2_limit(seq, SWEEP_U, v, 5, quad)] if seq.has_tail_product else out


def _cold(seq, quad=None):
    energy._TABLES.clear()
    return _outputs(seq, quad)


def test_forms_keep_their_bits_on_a_warm_cache():
    cases = [(seq, quad) for seq in SEQS for quad in (None, get_quadrature(5))]
    cold = [_cold(seq, quad) for seq, quad in cases]
    energy._TABLES.clear()
    # Other degrees and rules warm the cache first, then every case runs twice.
    for seq in SEQS:
        energy_total(seq, 9, parse("x^7 - y^5"), parse("x*y^6"))
        weak_pairing(seq, 3, SWEEP_U, vanishing_cubic(), quad=get_quadrature(11))
    for _ in range(2):
        assert [_outputs(seq, quad) for seq, quad in reversed(cases)] == cold[::-1]


def test_equal_eps_with_different_logs_share_no_tables():
    a, b = TAIL_LEVEL, PREFIX_LEVEL
    assert a.eps(1) == b.eps(1) and a.log_eps(1) != b.log_eps(1)
    # Their generation-1 cables differ, so a shared entry would be wrong.
    quad = get_quadrature()
    energy._TABLES.clear()
    grams = [energy._level_tables(seq, _logs(seq, 1), 3, quad, [(1, 1)])[1][0][(1, 1)] for seq in (a, b)]
    assert not np.array_equal(*grams)
    cold = [_cold(a), _cold(b)]
    energy._TABLES.clear()
    assert [_outputs(seq) for seq in (a, b, a, b)] == cold * 2


def test_a_custom_rule_of_a_gauss_order_shares_no_tables():
    gauss = get_quadrature(8)
    nine = QuadratureRule.gauss(9)
    custom = QuadratureRule(8, nine.nodes, nine.weights)
    # Equal nodes and weights share a key, whatever the object and
    # whatever bytes freed memory held before the key was taken.
    assert _key_after(QuadratureRule.gauss(8), 0x00) == _key_after(gauss, 0xAB) != _key_after(custom, 0xAB)
    energy._TABLES.clear()
    sides = [energy._level_tables(PREFIX_EXP, [], 3, quad, [(1, 1)])[0][(1, 1)] for quad in (gauss, custom)]
    assert not np.array_equal(*sides)
    cold = [_cold(PREFIX_EXP, gauss), _cold(PREFIX_EXP, custom)]
    energy._TABLES.clear()
    assert [_outputs(PREFIX_EXP, quad) for quad in (gauss, custom, gauss, custom)] == cold * 2


def _key_after(quad, byte):
    np.frombuffer(bytes([byte]) * 128, dtype=np.uint8).copy()
    return energy._rule_key(quad)


def test_the_cache_stays_within_its_budget(monkeypatch):
    cases = [(seq, quad) for seq in SEQS for quad in (None, get_quadrature(5))]
    cold = [_cold(seq, quad) for seq, quad in cases]
    # Degree 12 (D = 91): one level's pullbacks alone pass the budget.
    high = parse("x^12 + y^7")

    def fill(cache):
        monkeypatch.setattr(energy, "_TABLES", cache)
        for (seq, quad), want in zip(cases, cold):
            assert _outputs(seq, quad) == want
            energy_total(seq, 3, high, high)
            # The held bytes count the moment chains beside the level tables.
            held = sum(arr.nbytes for entry in cache._entries.values() for arr in entry.values())
            assert held == cache.nbytes <= cache.budget
            assert any("moments" in entry for entry in cache._entries.values())

    unbounded = energy._TableCache(1 << 40)
    fill(unbounded)
    small = energy._TableCache(256 << 10)
    assert unbounded.nbytes > 4 * small.budget
    fill(small)
    assert small._entries



# -- the moment chains ------------------------------------------------------


def _pushes(monkeypatch) -> list:
    """Records (level, moments pushed) for every level step of every pass from now on."""
    steps, quotient = [], energy._quotient

    def counting(num, den, what):
        if "moment step" in what:
            steps.append((int(what.split("_")[1].split()[0]), len(num)))
        return quotient(num, den, what)

    monkeypatch.setattr(energy, "_quotient", counting)
    return steps


def _chains():
    return {key: entry for key, entry in energy._TABLES._entries.items() if "moments" in entry}


def test_warm_chains_give_the_cold_bits():
    from stretched_gasket import energy_via_measure

    v = vanishing_cubic()
    for seq in (PREFIX_EXP, TAIL_ONLY):
        cold = {}
        for l in range(13):
            energy._TABLES.clear()
            cold[l] = energy_total(seq, l, SWEEP_U, v)
        for depths in (range(13), range(12, -1, -1)):
            energy._TABLES.clear()
            assert [energy_total(seq, l, SWEEP_U, v) for l in depths] == [cold[l] for l in depths]
        sweeps = (
            lambda: convergence_rows(seq, SWEEP_U, v, 10),
            lambda: ibp_table(seq, SWEEP_U, v, range(3, 11)),
            lambda: weak_pairing(seq, 7, SWEEP_U, v),
            lambda: energy2_limit(seq, SWEEP_U, v, 9),
            lambda: (recurrence_residual(seq, 8, SWEEP_U, v), selfsimilar_residual(seq, SWEEP_U, v, 9)),
            lambda: energy_via_measure(seq, SWEEP_U, v, 9),
        )
        cold = [_cold_call(sweep) for sweep in sweeps]
        # Warm: after the ladder, then again after every sweep has stored its chains.
        energy._TABLES.clear()
        for l in range(8, 12):
            energy_total(seq, l, SWEEP_U, v)
        for _ in range(2):
            assert [sweep() for sweep in sweeps] == cold


def _cold_call(fn):
    energy._TABLES.clear()
    return fn()


def test_a_deeper_form_pushes_only_the_new_levels(monkeypatch):
    steps = _pushes(monkeypatch)
    v = vanishing_cubic()
    energy._TABLES.clear()
    energy_total(PREFIX_EXP, 10, SWEEP_U, v)
    assert steps == [(k, 1) for k in range(1, 11)]
    steps.clear()
    energy_total(PREFIX_EXP, 11, SWEEP_U, v)
    assert steps == [(11, 1)]
    steps.clear()
    # Shallower depths and the sweeps of the same top read the stored chain.
    energy_total(PREFIX_EXP, 4, SWEEP_U, v)
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 10)
    assert steps == []


def test_the_residuals_share_their_chains(monkeypatch):
    steps = _pushes(monkeypatch)
    v = vanishing_cubic()
    energy._TABLES.clear()
    # The left side to depth 9 on the sequence, the three pulled-back tops to depth 8 on its shift.
    recurrence_residual(PREFIX_EXP, 8, SWEEP_U, v)
    assert steps == [(k, 1) for k in range(1, 10)] + [(k, 3) for k in range(1, 9)]
    steps.clear()
    # Both residuals take the one step from depth 8: selfsimilar_residual at 9 pushes nothing.
    selfsimilar_residual(PREFIX_EXP, SWEEP_U, v, 9)
    assert steps == []
    # One level deeper: the left side's level 10, then the halves' level 9.
    selfsimilar_residual(PREFIX_EXP, SWEEP_U, v, 10)
    assert steps == [(10, 1), (9, 3)]


def test_a_chain_resumes_at_the_first_level_whose_log_differs(monkeypatch):
    steps = _pushes(monkeypatch)
    v = vanishing_cubic()
    tail = ExpTail(0.05, 0.5)
    a, b = ParamSeq(prefix=(0.9, 0.8), tail=tail), ParamSeq(prefix=(0.9, 0.7), tail=tail)
    cold = [_cold_call(lambda: energy_total(seq, 5, SWEEP_U, v)) for seq in (a, b)]
    energy._TABLES.clear()
    assert energy_total(a, 5, SWEEP_U, v) == cold[0]
    steps.clear()
    assert energy_total(b, 5, SWEEP_U, v) == cold[1]
    assert steps == [(k, 1) for k in range(2, 6)]
    # Equal eps_1 but different log eps_1 share no level.
    energy._TABLES.clear()
    energy_total(TAIL_LEVEL, 3, SWEEP_U, v)
    steps.clear()
    energy_total(PREFIX_LEVEL, 3, SWEEP_U, v)
    assert steps == [(k, 1) for k in range(1, 4)]


def test_a_chain_is_keyed_on_the_exact_top(monkeypatch):
    steps = _pushes(monkeypatch)
    d, quad = 3, get_quadrature()
    top = energy._top_moments(SWEEP_U, vanishing_cubic(), d)
    nudged = top.copy()
    nudged[0, 4, 7] = np.nextafter(top[0, 4, 7], np.inf)
    assert nudged[0, 4, 7] != top[0, 4, 7]

    def parts(tops):
        return list(energy._contractions(PREFIX_EXP, (6,), d, quad, tops, [(None, (1, 1))]))

    cold = [_cold_call(lambda: parts(t)) for t in (top, nudged)]
    energy._TABLES.clear()
    steps.clear()
    for t, want in zip((top, nudged), cold):
        assert all(np.array_equal(x, y) for x, y in zip(parts(t)[0][0], want[0][0]))
    # The tops differ in the last bit of one entry: two chains, each pushed in full.
    assert steps == [(k, 1) for k in range(1, 7)] * 2 and len(_chains()) == 2
    # Equal values share a chain whatever their padding bytes hold.
    itemsize = np.dtype(energy._EXT).itemsize
    if energy._VALUE_BYTES < itemsize:
        padded = top.copy()
        padded.view(np.uint8).reshape(*top.shape, itemsize)[..., energy._VALUE_BYTES :] = 0xAB
        assert padded.tobytes() != top.tobytes() and energy._chain_key(padded, d) == energy._chain_key(top, d)
        steps.clear()
        parts(padded)
        assert steps == []


def test_an_underflowing_lam_is_refused_cold_and_warm():
    seq = ParamSeq(prefix=(0.9, 1e-170), tail=ExpTail(0.05, 0.5))
    u, v = parse("x^2"), parse("y")
    message = "lam_2 of the level-2 moment step: denominator 0.0 underflows"
    energy._TABLES.clear()
    with pytest.raises(PrefactorUnderflow, match=message):
        energy_total(seq, 4, u, v)
    assert _chains() == {}
    # Warm: level 1 is stored; the pass still checks lam_2 and stores nothing past level 1.
    energy_total(seq, 1, u, v)
    for _ in range(2):
        with pytest.raises(PrefactorUnderflow, match=message):
            energy_total(seq, 4, u, v)
        assert [len(entry["moments"]) for entry in _chains().values()] == [2]


def test_the_working_set_guard_counts_the_chain(monkeypatch):
    counts, guard = [], energy._require_budget
    monkeypatch.setattr(energy, "_require_budget", lambda d, matrices: counts.append(matrices) or guard(d, matrices))
    v = vanishing_cubic()
    energy._TABLES.clear()
    energy_total(PREFIX_EXP, 6, SWEEP_U, v)
    # A cache too small for the chain keeps none, and the pass counts only its current moment.
    monkeypatch.setattr(energy, "_TABLES", energy._TableCache(1 << 10))
    energy_total(PREFIX_EXP, 6, SWEEP_U, v)
    assert counts[1] - counts[3] == 6 and _chains() == {}

# -- the fused residuals against one pass per pulled-back pair --------------


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seq=SEQUENCES, l=st.integers(0, 6), high=st.booleans())
@example(seq=EDGE_SEQ, l=6, high=True)
def test_fused_residuals_equal_the_three_pass_routes(seq, l, high):
    # Equal bits, or the same refusal (a tiny prefix value underflows lam_1).
    u, v = (parse("x^6 - 2*x*y^3 + y"), parse("x^2*y^3")) if high else (SWEEP_U, vanishing_cubic())
    assert _outcome(recurrence_residual, seq, l, u, v) == _outcome(recurrence_residual_by_passes, seq, l, u, v)
    assert _outcome(selfsimilar_residual, seq, u, v, l + 1) == _outcome(selfsimilar_residual_by_passes, seq, u, v, l + 1)


def _outcome(fn, *args):
    # From a cleared cache, so that neither route reads the other's moment chains.
    energy._TABLES.clear()
    try:
        return fn(*args)
    except GasketError as exc:
        return type(exc), str(exc)


# -- quadrature order against field degrees --------------------------------


def test_min_quad_order():
    assert min_quad_order(1, 1) == 1
    assert min_quad_order(3, 3) == 3
    assert min_quad_order(9, 8) == 8
    assert min_quad_order(9, 9) == 9
    assert min_quad_order(12, 12) == 12
    assert min_quad_order(-1, 0) == 1


def test_low_explicit_order_is_refused():
    x12 = parse("x^12")
    for order in (2, 8, 11):
        with pytest.raises(ValueError, match="quadrature order"):
            energy_total(TAIL_ONLY, 2, x12, x12, get_quadrature(order))
        with pytest.raises(ValueError, match="quadrature order"):
            energy2_limit(TAIL_ONLY, x12, x12, 2, get_quadrature(order))
    v = vanishing_at_ABC(parse("x^9"))
    with pytest.raises(ValueError, match="quadrature order"):
        ibp_table(TAIL_ONLY, x12, v, (2,), get_quadrature(8))
    with pytest.raises(ValueError, match="quadrature order"):
        weak_pairing(TAIL_ONLY, 1, x12, v, quad=get_quadrature(8))


def test_default_order_covers_the_field_degrees():
    x12 = parse("x^12")
    assert energy_total(TAIL_ONLY, 2, x12, x12).total == energy_total(TAIL_ONLY, 2, x12, x12, get_quadrature(12)).total
    # Degree sums up to 17 keep the order-8 default.
    u, v = parse("x^9"), parse("y^8")
    assert energy_total(TAIL_ONLY, 2, u, v).total == energy_total(TAIL_ONLY, 2, u, v, get_quadrature(8)).total


# -- memory ----------------------------------------------------------------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_at_the_depth_cap():
    u = parse("x^2 - 0.5*x*y + y^3")
    v = vanishing_cubic()
    limit = 16 * 2**20
    peak = _traced_peak(lambda: energy_total(PREFIX_EXP, 12, u, v))
    assert peak < limit, peak
    peak = _traced_peak(lambda: ibp_table(TAIL_ONLY, u, v, range(3, 11)))
    assert peak < limit, peak


def test_a_degree_beyond_the_pass_budget_is_refused(capsys):
    # D = 20,301 monomials: one D x D moment alone is 6.6 GB.  The refusal
    # comes before any D x D allocation.
    from stretched_gasket.cli import main

    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["energy", "--u", "x^2", "--v", "y^200", "--depth", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 1 and "D = 20301" in err and "512 MiB budget" in err, (code, err)
    assert elapsed < 1.0 and peak < 16 * 2**20, (elapsed, peak)


def test_degree_30_still_runs_at_depth_2():
    # D = 496: about 70 MiB of tables and moments, inside the budget.  Both
    # routes lose digits to the expanded coefficients at this degree (5.5e-8
    # apart on this field), so they are compared to 1e-6.
    u = parse("(x-0.3)^30 + y^30")
    got = energy_total(PREFIX_EXP, 2, u, u)
    want, _ = energy_by_edges(PREFIX_EXP, 2, u, u, get_quadrature(min_quad_order(30, 30)))
    assert got.total == pytest.approx(want.total, rel=1e-6)
