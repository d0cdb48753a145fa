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
or cold, past its byte budget, and for sequences with equal eps_k but
different log eps_k.  A chain stores no states: a call steps every level
it reads, whatever ran before, and an underflowing lam_k is refused the
same cold and warm.  The recurrence residuals' stacked pass equals one
pass per pulled-back pair, and fields beyond the pass's memory budget are
refused before any allocation and before a Gauss rule is built.  The
forms choose their own Gauss rule; the cases below that name an order set
it through the pass's private order, and the seven ``quad`` slots take
None only.
"""

import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    DepthCapExceeded,
    ExpTail,
    GasketError,
    ParamSeq,
    Poly2,
    cable_segments,
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
    triple,
    vanishing_at_ABC,
    vanishing_cubic,
    weak_pairing,
)
import stretched_gasket
from stretched_gasket import energy
from stretched_gasket.cli import main
from stretched_gasket.energy import _one_step
from stretched_gasket.errors import PrefactorUnderflow, WorkingSetTooLarge
from stretched_gasket.geometry import _side_arrays

from conftest import ALL_REGIMES, EDGE_SEQ, PREFIX_EXP, SEQUENCES, TAIL_ONLY, random_poly
from oracles import (
    _energy_rows,
    _gauss_order,
    cable_energy,
    energy2,
    energy2_limit_by_edges,
    energy_at_order,
    energy_by_edges,
    fold_backward,
    map_pullback,
    ibp_rhs_by_cells,
    recurrence_residual_by_passes,
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
    """(u, v, Gauss order of the oracles and the private pass) with the order exact for (u, v)."""
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
    # The pass at the case's order, and the public form at its own.
    u, v, order = case
    for l in _depths(u, v):
        ref, _ = energy_by_edges(seq, l, u, v, order)
        for rep in (energy_at_order(seq, l, u, v, order), energy_total(seq, l, u, v)):
            _close(rep.e1, ref.e1)
            _close(rep.e2, ref.e2)
            _close(rep.total, ref.total)
    _close(energy1(seq, l, u, v), ref.e1)
    _close(energy2(seq, l, u, v), ref.e2)


@pytest.mark.parametrize("case", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_moment_pass_matches_backward_fold(seq, case):
    u, v, order = case
    for l in DEPTHS:
        ref = fold_backward(seq, l, u, v, order)
        rep = energy_at_order(seq, l, u, v, order)
        for got, want in ((rep.e1, ref.e1), (rep.e2, ref.e2), (rep.total, ref.total)):
            assert abs(got - want) <= 1e-14 * abs(want), (l, got, want)


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_folded_energy_with_outer_maps(seq, rng):
    # The recurrence's pulled-back fields u o F^1_i, v o F^1_i, the one use
    # of outer maps, against the edge sum of the shifted sequence.
    u = random_poly(rng, 4)
    v = random_poly(rng, 3)
    for l in (0, 3, 6):
        _, _, halves = _one_step(seq, l, u, v)
        for f, rep in zip(zip(*triple(seq.eps(1))), halves):
            ref, _ = energy_by_edges(seq.shift(), l, u, v, outer=f)
            _close(rep.total, ref.total)
            _close(rep.e1, ref.e1)
            _close(rep.e2, ref.e2)


@pytest.mark.parametrize("case", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seq", LIMIT_SEQS, ids=LIMIT_IDS)
def test_folded_limit_cables_match_edge_sum(seq, case):
    # The public limit form at its own order; the edge sums at the case's.
    u, v, order = case
    for s_max in _depths(u, v):
        got, _ = energy2_limit(seq, u, v, s_max)
        _close(got, energy2_limit_by_edges(seq, s_max, u, v, order))
    f2 = tuple(arr[1] for arr in triple(seq.eps(1)))
    _, _, halves = _one_step(seq, 3, u, v, limit=True)
    _close(halves[1].e2, energy2_limit_by_edges(seq.shift(), 3, u, v, order, outer=f2))


@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_generation1_cables_match_cable_energy(seq, rng):
    # The recurrence residuals' cable term is the first generation of the
    # left side's moment pass; the per-edge
    # cable_energy composes each cable into one-variable polynomials.  The
    # pair (affine, vanishing cubic) is zero analytically, so the tolerance
    # is relative to the Cauchy-Schwarz scale sqrt(C(u, u) C(v, v)).
    from stretched_gasket.energy import _split

    pairs = [(random_poly(rng, d), random_poly(rng, max(1, d - 1))) for d in range(1, 13)]
    pairs.append((parse("0.3 - 1.2*x + 0.7*y"), vanishing_cubic()))
    weights = [(l, seq.eps_tilde(1, l)) for l in (1, 5, 9)]
    if seq in LIMIT_SEQS:
        weights.append((None, seq.eps_tilde_inf(1)))
    for u, v in pairs:
        # deg u >= deg v: one rule exact for all three pairs.
        order = _gauss_order(u.degree, u.degree)
        cross = cable_energy(seq, 1, u, v, order)
        norms = cable_energy(seq, 1, u, u, order) * cable_energy(seq, 1, v, v, order)
        for l, window in weights:
            (parts,) = _energy_rows(seq, (l or 1,), u, v, order, limit=l is None)
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
    # The public sweep at its own order; the cell and edge sums at the case's.
    for phi, v, order in cases:
        for row in ibp_table(seq, phi, v, _depths(phi, v)):
            _close(row["integral_rhs"], ibp_rhs_by_cells(seq, row["depth"], phi, v, order))
            _close(row["energy_lhs"], energy_by_edges(seq, row["depth"], phi, v, order)[0].total)


def test_fold_reproduces_edge_sum_for_inexact_rules():
    # The Grams take the Gauss order they are given, so even a rule too
    # low for the fields gives the edge sum's numbers; the public forms
    # choose an exact one, so this sets the pass's private order.
    x12 = parse("x^12")
    for order in (2, 8, 12):
        for l in (0, 2, 5):
            got = energy_at_order(PREFIX_EXP, l, x12, x12, order)
            ref, _ = energy_by_edges(PREFIX_EXP, l, x12, x12, order)
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


#: Fields of degree <= 5 with coefficients of size 1e-3 to 1: the squares of smaller ones can
#: underflow into the subnormals, where each side's rounding is no longer relative.
FIELDS_5 = st.dictionaries(
    st.sampled_from([(m, n) for m in range(6) for n in range(6 - m)]), st.floats(-1.0, 1.0).filter(lambda c: abs(c) >= 1e-3)
).map(Poly2)
#: The property sequences, constant tails and the edge sequence.
ANY_TAIL = st.one_of(SEQUENCES, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(ParamSeq.constant), st.just(EDGE_SEQ))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seq=ANY_TAIL, r=FIELDS_5, l=st.integers(0, 8))
@example(seq=EDGE_SEQ, r=parse("x^5 - 0.5*x^2*y^3 + y^4 - y"), l=8)
def test_energy_is_bounded_by_the_sup_gradient(seq, r, l):
    # E_l(r, r) <= G^2 (E_l(x, x) + E_l(y, y)) for G = sup_bounds(r)[0]: each line energy is
    # at most |grad r|^2 |z'|^2 times its positive weight, and every edge lies in the box
    # that sup_bounds covers.  The ratio of the two sides reaches 1/2 for a linear field
    # where E_l(x, x) = E_l(y, y).
    g = sup_bounds(r)[0]
    try:
        field = energy_total(seq, l, r, r).total
        coordinates = math.fsum(energy_total(seq, l, p, p).total for p in (parse("x"), parse("y")))
    except GasketError:
        assume(False)
    assert field <= g * g * coordinates


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
    # reads them all from the cache and builds none.  The level pullbacks are
    # the substitutions of the chain's degree n = 4; the fields, of degree 3,
    # are pulled back at 3.
    passes, stacks = [], []
    tables, pullback = energy._level_tables, energy._pullback

    def counting_tables(seq, logs, *args):
        passes.append(len(logs))
        return tables(seq, logs, *args)

    def counting_pullback(lin, shift, d):
        if d == 4:
            stacks.append(len(lin))
        return pullback(lin, shift, d)

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
    # The chain's Grams are its readouts, the exact segment integrals of the monomials.
    calls = []
    integrals = energy._segment_integrals

    def counting(p0, dv, n):
        calls.append(len(p0))
        return integrals(p0, dv, n)

    monkeypatch.setattr(energy, "_segment_integrals", counting)
    v = vanishing_cubic()
    # One evaluation for the sides and all ten cable generations; a repeat evaluates none.
    energy._TABLES.clear()
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 10)
    assert calls == [11]
    calls.clear()
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 10)
    assert calls == []
    # The energy side and the measure side read the same readouts of one degree.
    energy._TABLES.clear()
    ibp_table(PREFIX_EXP, SWEEP_U, v, range(3, 11))
    assert calls == [11]
    calls.clear()
    ibp_table(PREFIX_EXP, SWEEP_U, v, range(3, 11))
    assert calls == []


# -- batched matrices against the per-generation products ------------------

@settings(derandomize=True, max_examples=40, deadline=None)
@given(seq=SEQUENCES, n=st.integers(0, 22), l_max=st.integers(0, 12))
@example(seq=EDGE_SEQ, n=22, l_max=12)
@example(seq=ParamSeq(prefix=(1e-3,), tail=ExpTail(5.0, 0.05)), n=4, l_max=4)
def test_batched_grams_equal_the_per_generation_grams(seq, n, l_max):
    # The chain's readouts at degree n (D' = (n + 1)(n + 2) / 2 up to 276), its Grams: the
    # cleared cache makes every one come from one stacked build, which must give the bits of
    # the per-generation builds.
    energy._TABLES.clear()
    sides, levels = energy._level_tables(seq, _logs(seq, l_max), n)
    assert sides.shape == (3, energy._dim(n))
    assert np.array_equal(sides, energy._segment_integrals(*(a[None] for a in _side_arrays()), n)[0])
    for k in range(1, l_max + 1):
        want = energy._segment_integrals(*(a[None] for a in cable_segments(seq, k)), n)[0]
        assert np.array_equal(levels[k - 1]["cables"], want), k


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seq=SEQUENCES, n=st.integers(0, 22))
@example(seq=EDGE_SEQ, n=22)
def test_stacked_level_pullbacks_equal_the_single_map_pullbacks(seq, n):
    energy._TABLES.clear()
    _, levels = energy._level_tables(seq, _logs(seq, 3), n)
    for k in range(1, 4):
        want = np.stack([map_pullback(lin, off, n) for lin, off in zip(*triple(seq.eps(k)))])
        assert np.array_equal(levels[k - 1]["pullbacks"], want), k
    assert np.array_equal(energy._centering(n), map_pullback(np.eye(2), np.zeros(2), n, from_plain=True))


def _logs(seq, l_max):
    return [seq.log_eps(k) for k in range(1, l_max + 1)]


# -- the level-table cache -------------------------------------------------

#: Equal eps_1, different log eps_1: a tail value and the prefix value exp(log eps_1).
TAIL_LEVEL = ParamSeq(prefix=(), tail=ExpTail(1e-3, 0.5))
PREFIX_LEVEL = ParamSeq(prefix=(math.exp(TAIL_LEVEL.log_eps(1)),), tail=ExpTail(1e-3, 0.5))


def _outputs(seq):
    """Forms that read every kind of table: (1, 1) and (2, 0) Grams, finite and limit windows."""
    v = vanishing_cubic()
    out = [energy_total(seq, 6, SWEEP_U, v), ibp_table(seq, SWEEP_U, v, (2, 5)), weak_pairing(seq, 4, SWEEP_U, v)]
    return out + [energy2_limit(seq, SWEEP_U, v, 5)] if isinstance(seq.tail, ExpTail) else out


def _cold(seq):
    energy._TABLES.clear()
    return _outputs(seq)


def test_forms_keep_their_bits_on_a_warm_cache():
    cold = [_cold(seq) for seq in SEQS]
    energy._TABLES.clear()
    # Other degrees and Gauss orders warm the cache first (degree 12 at
    # orders 8 and 12, degree 10 at order 9), then every case runs twice.
    for seq in SEQS:
        energy_total(seq, 9, parse("x^12 - y^5"), parse("x*y"))
        energy_total(seq, 9, parse("x^12 - y^5"), parse("x*y^11"))
        weak_pairing(seq, 3, parse("x^9"), vanishing_at_ABC(parse("y^7")))
    for _ in range(2):
        assert [_outputs(seq) for seq in reversed(SEQS)] == cold[::-1]


def test_equal_eps_with_different_logs_share_no_tables():
    a, b = TAIL_LEVEL, PREFIX_LEVEL
    assert a.eps(1) == b.eps(1) and a.log_eps(1) != b.log_eps(1)
    # Their generation-1 cables differ, so a shared entry would be wrong.
    energy._TABLES.clear()
    grams = [energy._level_tables(seq, _logs(seq, 1), 4)[1][0]["cables"] for seq in (a, b)]
    assert not np.array_equal(*grams)
    cold = [_cold(a), _cold(b)]
    energy._TABLES.clear()
    assert [_outputs(seq) for seq in (a, b, a, b)] == cold * 2


def test_the_cache_stays_within_its_budget(monkeypatch):
    cold = [_cold(seq) for seq in SEQS]
    # Degree 12 (n = 22, D' = 276): twelve levels' pullbacks pass the budget.
    high = parse("x^12 + y^7")

    def fill(cache):
        monkeypatch.setattr(energy, "_TABLES", cache)
        for seq, want in zip(SEQS, cold):
            assert _outputs(seq) == want
            energy_total(seq, 3, high, high)
            held = sum(arr.nbytes for entry in cache._entries.values() for arr in entry.values())
            assert held == cache.nbytes <= cache.budget

    unbounded = energy._TableCache(1 << 40)
    fill(unbounded)
    small = energy._TableCache(256 << 10)
    assert unbounded.nbytes > 4 * small.budget
    fill(small)
    assert small._entries



# -- the moment chains ------------------------------------------------------


def _pushes(monkeypatch) -> list:
    """Records (level, states stepped) for every level step of every chain from now on."""
    steps, step = [], energy._step

    def counting(seq, k, held, pullbacks):
        steps.append((k, len(held)))
        return step(seq, k, held, pullbacks)

    monkeypatch.setattr(energy, "_step", counting)
    return steps


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
        # Warm: after the ladder, then again after every sweep has filled the level tables.
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


def test_the_residuals_share_their_chains(monkeypatch):
    steps = _pushes(monkeypatch)
    v = vanishing_cubic()
    energy._TABLES.clear()
    # The left side to depth 9 on the sequence, the three pulled-back tops to depth 8 on its shift.
    recurrence_residual(PREFIX_EXP, 8, SWEEP_U, v)
    assert steps == [(k, 1) for k in range(1, 10)] + [(k, 3) for k in range(1, 9)]


def test_a_call_does_not_depend_on_earlier_calls(monkeypatch):
    steps = _pushes(monkeypatch)
    v = vanishing_cubic()
    energy._TABLES.clear()
    # The same form twice: every level is stepped both times.
    for _ in range(2):
        energy_total(PREFIX_EXP, 10, SWEEP_U, v)
    assert steps == [(k, 1) for k in range(1, 11)] * 2
    # After every form, the cache holds level tables only.
    convergence_rows(PREFIX_EXP, SWEEP_U, v, 8)
    ibp_table(PREFIX_EXP, SWEEP_U, v, (2, 7))
    weak_pairing(PREFIX_EXP, 6, SWEEP_U, v)
    energy2_limit(PREFIX_EXP, SWEEP_U, v, 7)
    recurrence_residual(PREFIX_EXP, 5, SWEEP_U, v)
    selfsimilar_residual(PREFIX_EXP, SWEEP_U, v, 6)
    energy_via_measure(PREFIX_EXP, SWEEP_U, v, 7)
    entries = energy._TABLES._entries.values()
    assert entries and {frozenset(entry) for entry in entries} == {frozenset({"sides"}), frozenset({"pullbacks", "cables"})}


def test_an_underflowing_lam_is_refused_cold_and_warm():
    seq = ParamSeq(prefix=(0.9, 1e-170), tail=ExpTail(0.05, 0.5))
    u, v = parse("x^2"), parse("y")
    message = "lam_2 of the level-2 chain step: denominator 0.0 underflows"
    energy._TABLES.clear()
    with pytest.raises(PrefactorUnderflow, match=message):
        energy_total(seq, 4, u, v)
    # Warm: level 1's tables are stored; the pass still checks lam_2.
    energy_total(seq, 1, u, v)
    for _ in range(2):
        with pytest.raises(PrefactorUnderflow, match=message):
            energy_total(seq, 4, u, v)


def test_the_working_set_guard_counts_the_chain(monkeypatch):
    # The guard sees the degrees, the levels and the tops of every chain before it runs:
    # one top to depth 6, and the residuals' left side to depth l + 1 beside three halves.
    counts, guard = [], energy._require_budget
    monkeypatch.setattr(energy, "_require_budget", lambda *args: counts.append(args) or guard(*args))
    v = vanishing_cubic()
    energy._TABLES.clear()
    energy_total(PREFIX_EXP, 6, SWEEP_U, v)
    ibp_table(PREFIX_EXP, SWEEP_U, v, (2, 7))
    recurrence_residual(PREFIX_EXP, 5, SWEEP_U, v)
    assert counts == [(3, 4, 6, 1), (3, 4, 7, 2), (3, 4, 6, 3)]
    # A cache too small for a level's tables keeps none of them; the chain is still counted.
    monkeypatch.setattr(energy, "_TABLES", energy._TableCache(1 << 10))
    assert energy_total(PREFIX_EXP, 6, SWEEP_U, v) == _cold_call(lambda: energy_total(PREFIX_EXP, 6, SWEEP_U, v))
    assert counts[3:] == [(3, 4, 6, 1)] * 2

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
    # From a cleared cache, so that neither route reads the other's level tables.
    energy._TABLES.clear()
    try:
        return fn(*args)
    except GasketError as exc:
        return type(exc), str(exc)


# -- quadrature order against field degrees --------------------------------


def test_default_order_covers_the_field_degrees():
    # The moment-pass oracle's order: the lowest exact one, at least 8; degree sums up to 17
    # keep order 8.  The chain needs no order, and agrees with the oracle at it.
    assert [_gauss_order(*degrees) for degrees in ((-1, 0), (1, 1), (9, 8), (9, 9), (12, 12))] == [8, 8, 8, 9, 12]
    for u, v in ((parse("x^12"), parse("x^12")), (parse("x^9"), parse("y^8"))):
        got = energy_total(TAIL_ONLY, 2, u, v).total
        want = energy_at_order(TAIL_ONLY, 2, u, v, _gauss_order(u.degree, v.degree)).total
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)


X2 = parse("x^2")

#: The seven functions that keep a trailing ``quad`` slot, each called with a value in it the
#: way perfbench's library jobs call them (positionally; ``weak_pairing`` by keyword).
QUAD_SLOTS = {
    "energy_total": lambda quad: energy_total(TAIL_ONLY, 2, X2, X2, quad),
    "convergence_rows": lambda quad: convergence_rows(TAIL_ONLY, X2, X2, 2, quad),
    "ibp_table": lambda quad: ibp_table(TAIL_ONLY, X2, vanishing_cubic(), (2,), quad),
    "recurrence_residual": lambda quad: recurrence_residual(TAIL_ONLY, 2, X2, X2, quad),
    "selfsimilar_residual": lambda quad: selfsimilar_residual(TAIL_ONLY, X2, X2, 2, quad),
    "energy_via_measure": lambda quad: energy_via_measure(TAIL_ONLY, X2, X2, 2, quad),
    "weak_pairing": lambda quad: weak_pairing(TAIL_ONLY, 2, X2, vanishing_cubic(), quad=quad),
}


@pytest.mark.parametrize("name", QUAD_SLOTS)
def test_a_quad_slot_takes_none_only(name):
    call = QUAD_SLOTS[name]
    call(None)
    for value in (8, np.polynomial.legendre.leggauss(8)):
        with pytest.raises(ValueError, match="quad takes None only"):
            call(value)


def test_the_quad_slots_are_the_seven():
    public = [getattr(stretched_gasket, name) for name in stretched_gasket.__all__]
    slots = {fn.__name__ for fn in public if inspect.isfunction(fn) and "quad" in inspect.signature(fn).parameters}
    assert slots == set(QUAD_SLOTS)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--u", "x^3000", "--depth", "1"],
        ["energy", "--u", "x^8000", "--depth", "1"],
        ["energy", "--u", "x^100000", "--depth", "2"],
        ["convergence", "--u", "x^100000"],
        ["ibp", "--phi", "x^100000"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2].replace('^', '')}",
)
def test_the_budget_is_checked_before_a_gauss_rule_is_built(argv, capsys):
    # The exact order of these degrees is 1,500 to 50,000 nodes, a rule that fails its own
    # check, takes 23 s to build or needs a 74.5 GiB companion matrix: the working-set guard
    # comes first.  Parsing x^100000 alone takes about 2 s under tracemalloc.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1, (code, err)
    degree = argv[2][2:]
    assert err[0].startswith(f"error: fields of degree {degree} ") and err[0].endswith("above its 512 MiB budget"), err
    assert elapsed < 10.0 and peak < 16 * 2**20, (elapsed, peak)


def test_the_measure_energy_checks_the_budget_before_the_gasket_half():
    # The gasket half of two degree-3000 fields holds 575 MB of coefficient
    # products; the moment pass refuses the degree first.
    u, v = parse("x^3000"), parse("y^3000")
    tracemalloc.start()
    try:
        with pytest.raises(WorkingSetTooLarge, match="fields of degree 3000 "):
            energy_via_measure(PREFIX_EXP, u, v, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_degree_30_still_runs_at_depth_2():
    # D = 496: about 70 MiB of tables and moments, inside the budget.  Both
    # routes lose digits to the expanded coefficients at this degree (5.5e-8
    # apart on this field), so they are compared to 1e-6.
    u = parse("(x-0.3)^30 + y^30")
    got = energy_total(PREFIX_EXP, 2, u, u)
    want, _ = energy_by_edges(PREFIX_EXP, 2, u, u)
    assert got.total == pytest.approx(want.total, rel=1e-6)
