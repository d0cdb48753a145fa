"""The vertex diagnostics on the word tables against the edge-walk routes.

``vertex_stars``/``harmonic_report`` gather the stars from the rows of the
word tables, 3^7 cells at a time, ``weak_pairing`` folds its form through
the level pullbacks and ``laplacian_samples`` reads the cell and cable rows
3^7 carriers at a time.  ``tests/oracles.py`` keeps the edge walk, the
per-edge weak pairing, the one-carrier-at-a-time samples and the stars
gathered from the whole world arrays as references.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    ExpTail,
    ParamSeq,
    StarNotClosed,
    harmonic_report,
    laplacian_samples,
    parse,
    teplyaev,
    vanishing_cubic,
    vertex_stars,
    weak_pairing,
    word_index,
)
from stretched_gasket import cli, geometry, harmonicity
from stretched_gasket.errors import PrefactorUnderflow
from stretched_gasket.geometry import SIDE_NAMES
from stretched_gasket.harmonicity import _CABLE_ENDS

from conftest import ALL_REGIMES, EDGE_SEQ, PREFIX_EXP, SEQUENCES, TAIL_ONLY, admissible, cold_peak, random_poly
from oracles import (
    EdgeId,
    boundary_vector_of,
    harmonic_report_from_world,
    laplacian_samples_by_carrier,
    level_rows,
    star_groups_by_edges,
    vertex_arrays_from_world,
    weak_pairing_by_edges,
)

RATIOS = (1.0 / 3.0, 0.25, 0.5)


def _report_by_edges(groups):
    """(residual, worst word, worst corner, n_interior) by a running maximum in star order."""
    worst, name, n_int = 0.0, ((), ""), 0
    for key, members in groups.items():
        if key[0]:
            n_int += 1
            nrm = float(np.hypot(*boundary_vector_of(members)))
            if nrm > worst:
                worst, name = nrm, key
    return worst, name[0], name[1], n_int


def _star_members(key, weights, l):
    """(edge id, endpoint t, prefactor) of a star's members, named from its key and signed weights.

    The two sides of the owning depth-l cell that meet at the corner, in
    SIDE_NAMES order, then the cable end; a negative weight marks t = 1.
    """
    word, corner = harmonicity._vertex_name(key, l)
    cell = word + ("ABC".index(corner) + 1,) * (l - len(word))
    sides = [name for name in SIDE_NAMES if corner in name]
    members = [
        (EdgeId("tri", cell, side=name, prefactor=abs(w)), int(w < 0), abs(w)) for name, w in zip(sides, weights)
    ]
    if word:
        (slot, t), pf = [end for end, touch in _CABLE_ENDS.items() if touch == (word[-1], corner)][0], abs(weights[2])
        members.append((EdgeId("cable", word[:-1], slot=slot, generation=len(word), prefactor=pf), t, pf))
    return members


def test_vertex_vectors_match_edge_walk(regime):
    for ratio in RATIOS:
        for l in range(5):
            stars = vertex_stars(regime, l, beta_over_alpha=ratio)
            groups = star_groups_by_edges(regime, l, beta_over_alpha=ratio)
            assert [harmonicity._vertex_name(key, l) for key in stars.key.tolist()] == list(groups), (ratio, l)
            for star, members in zip(stars, groups.values()):
                assert _star_members(int(star.key), star.weight.tolist(), l) == [m[:3] for m in members]
                largest = max(m[2] * float(np.max(np.abs(m[3]))) for m in members)
                got = star.boundary
                assert np.max(np.abs(got - boundary_vector_of(members))) <= 1e-12 * largest, (ratio, l, star.key)
                assert np.max(np.abs([star.x, star.y] - members[0][4])) <= 1e-12
            rep = harmonic_report(regime, l, beta_over_alpha=ratio)
            residual, word, corner, n_int = _report_by_edges(groups)
            assert rep.n_interior == n_int == 3 * (3**l - 1)
            assert rep.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)
            if ratio != 1.0 / 3.0 and l > 0:
                assert (rep.worst_word, rep.worst_corner) == (word, corner), (ratio, l)


def _report_tuple(rep):
    return rep.residual, rep.worst_word, rep.worst_corner, rep.n_interior, rep.corner_norms


def test_vertex_blocks_reproduce_the_whole_world_tables(regime):
    # Depth 8 has three cell blocks.  Each star is gathered from rows with
    # the world arrays' arithmetic, so the sorted stars and the report
    # reduced block by block keep the whole tables' bits.
    for ratio in RATIOS:
        for l in range(9):
            got = harmonicity._vertex_arrays(regime, l, ratio)
            want = vertex_arrays_from_world(regime, l, ratio)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (ratio, l)
            report = _report_tuple(harmonic_report(regime, l, beta_over_alpha=ratio))
            assert repr(report) == repr(harmonic_report_from_world(regime, l, ratio)), (ratio, l)



def test_later_vertex_blocks_equal_their_own_cells_digits():
    # Blocks after the first are the first block's rows shifted by their prefix digits, with the
    # three corners whose run covers the low digits rebuilt; every block equals its own cells' rows.
    for l in range(13):
        blocks = list(harmonicity._block_vertices(l))
        assert [(a, b) for a, b, *_ in blocks] == list(geometry._ranges(3**l))
        for a, b, *got in blocks:
            want = harmonicity._cell_corners(l, np.arange(a, b))
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), (l, a)

def test_equal_norms_name_the_first_vertex_in_key_order(monkeypatch):
    # At depth 9 the first vertex in key order, (1,)/B, lies in the second
    # cell block (its cell is 1 2^8), while the first block holds larger
    # keys of the same norm: ties between blocks go to the smaller key.
    monkeypatch.setattr(harmonicity, "_boundary", lambda weights, tangents: np.ones((len(weights), 2)))
    rep = harmonic_report(PREFIX_EXP, 9)
    assert (rep.residual, rep.worst_word, rep.worst_corner) == (math.sqrt(2.0), (1,), "B")


def test_the_first_nan_vertex_in_key_order_is_named(monkeypatch):
    # NaN where a boundary vector's x exceeds a threshold, in the blocks and
    # in the whole sorted table alike: the first NaN in key order is named.
    keys, weights, tangents, _ = vertex_arrays_from_world(PREFIX_EXP, 9, 0.25)
    terms = weights[..., None] * tangents
    top = np.quantile((terms[:, 0] + terms[:, 1] + terms[:, 2])[3:, 0], 0.9)
    boundary = harmonicity._boundary

    def nan_above(weights, tangents):
        out = boundary(weights, tangents)
        out[out[:, 0] > top] = np.nan
        return out

    first = keys[3 + np.flatnonzero((terms[:, 0] + terms[:, 1] + terms[:, 2])[3:, 0] > top)[0]]
    monkeypatch.setattr(harmonicity, "_boundary", nan_above)
    rep = harmonic_report(PREFIX_EXP, 9, beta_over_alpha=0.25)
    assert math.isnan(rep.residual) and (rep.worst_word, rep.worst_corner) == harmonicity._vertex_name(first, 9)


def test_folded_weak_pairing_matches_edge_sum(regime, rng):
    # Every degree up to depth 3; the per-edge route is slow beyond, so
    # depths 4 and 5 take the quadratic and the quartic field.
    for l in range(6):
        for deg_u in range(5) if l < 4 else (2, 4):
            u = random_poly(rng, deg_u)
            v = admissible(random_poly(rng, 3))
            got = weak_pairing(regime, l, u, v)
            # The edge sum at the pass's Gauss order and at the lowest exact one.
            for points in (None, max(1, math.ceil((u.degree + v.degree - 1) / 2))):
                want = -math.fsum(weak_pairing_by_edges(regime, l, u, v, points))
                assert abs(got - want) <= 1e-12 * abs(want), (l, deg_u, points, got, want)


@pytest.mark.parametrize("seq", [PREFIX_EXP, TAIL_ONLY, EDGE_SEQ], ids=["prefix-exp", "tail-only", "edge"])
def test_laplacian_samples_match_teplyaev(seq, rng):
    # One Hessian kernel: teplyaev is the one-carrier call of the table's, so
    # every row's bits are its carrier's, even for a degree-6 field, whose
    # two kernels used to round apart on about half of the carriers.
    sextic = parse("(x-0.3)^6 + 0.7*y^5*x - 1.3*x^3*y^2")
    for depth in range(7):
        for phi in (random_poly(rng, 4), sextic) if depth < 4 else (sextic,):
            got = laplacian_samples(seq, phi, depth)
            want = laplacian_samples_by_carrier(seq, phi, depth)
            assert len(got) == len(want) == 3**depth + 3 * (3**depth - 1) // 2
            for a, b in zip(got, want):
                if isinstance(b.carrier, tuple):
                    assert (a.generation, a.word, a.slot) == (0, word_index(b.carrier), 0)
                else:
                    assert (a.generation, a.word, a.slot) == (
                        b.carrier.generation, word_index(b.carrier.prefix), b.carrier.slot
                    )
                assert [a.x, a.y] == b.location.tolist(), b.carrier
                assert [[a.t11, a.t12], [a.t12, a.t22]] == b.t_tilde.tolist(), b.carrier
                assert a.value == b.value, (depth, b.carrier)


def test_laplacian_sample_ranges_are_slices_of_the_whole_table(rng):
    # Rows are built from their own word, tau and cable rows, 3^7 at a time:
    # any range, across generations and blocks, is a slice of the whole table.
    phi = parse("(x-0.3)^6 + 0.7*y^5*x - 1.3*x^3*y^2")
    for depth in range(9):
        whole = laplacian_samples(PREFIX_EXP, phi, depth)
        n = len(whole)
        # The first rows of the cables and of each generation, and the ends of the 3^7-row blocks.
        firsts = [3**depth + (3**s - 3) // 2 for s in range(1, depth + 1)] + list(range(3**7, n, 3**7))
        ranges = [(0, 0), (n, n), (0, n), (0, 1), (n - 1, n)] + [(max(f - 2, 0), min(f + 3, n)) for f in firsts]
        ranges += [tuple(sorted(rng.integers(0, n + 1, 2).tolist())) for _ in range(20)]
        for start, stop in ranges:
            part = laplacian_samples(PREFIX_EXP, phi, depth, start, stop)
            assert part.dtype == whole.dtype and part.tobytes() == whole[start:stop].tobytes(), (depth, start, stop)


def test_laplacian_sample_ranges_raise_what_the_whole_table_raises():
    # The generation-2 cable weight underflows; a range of one cell raises it too.
    seq = ParamSeq(prefix=(1e-200,), tail=ExpTail(0.05, 0.5))
    for start, stop in ((0, 1), (0, 0), (None, None)):
        with pytest.raises(PrefactorUnderflow, match="generation-2 cable prefactor"):
            laplacian_samples(seq, parse("x^2"), 3, *(() if start is None else (start, stop)))
    with pytest.raises(ValueError, match=r"row range \[0, 67\) is not within the 66 depth-3 carriers"):
        laplacian_samples(PREFIX_EXP, parse("x^2"), 3, 0, 67)


def test_depth_zero_has_only_the_base_corners():
    phi = parse("x^2 - 0.5*x*y + y^3")
    rep = harmonic_report(PREFIX_EXP, 0)
    assert (rep.residual, rep.worst_word, rep.worst_corner, rep.n_interior) == (0.0, (), "", 0)
    assert list(rep.corner_norms) == ["A", "B", "C"] and min(rep.corner_norms.values()) > 0.0
    stars = vertex_stars(PREFIX_EXP, 0)
    assert [harmonicity._vertex_name(key, 0) for key in stars.key.tolist()] == [((), c) for c in "ABC"]
    assert np.count_nonzero(stars.weight, axis=1).tolist() == [2, 2, 2]
    v = admissible(parse("x*y"))
    assert weak_pairing(PREFIX_EXP, 0, phi, v) == pytest.approx(
        -math.fsum(weak_pairing_by_edges(PREFIX_EXP, 0, phi, v, 8)), rel=1e-12
    )
    (sample,) = laplacian_samples(PREFIX_EXP, phi, 0)
    assert (sample.generation, sample.word, sample.slot) == (0, 0, 0)
    assert sample.value == teplyaev(phi, (), PREFIX_EXP).value


def test_open_star_is_refused(monkeypatch):
    # Shift every cable by 1e-9: its ends no longer meet the cell corners,
    # in the world arrays of the stars and in the local check of the weak routes.
    stack = geometry._cable_stack

    def shifted(seq, generations, beta_over_alpha=1.0 / 3.0):
        starts, vels = stack(seq, generations, beta_over_alpha)
        return starts + 1e-9, vels

    monkeypatch.setattr(geometry, "_cable_stack", shifted)
    with pytest.raises(StarNotClosed, match=r"^edge ends at vertex 1/B do not coincide$"):
        harmonic_report(PREFIX_EXP, 2)
    monkeypatch.setattr(harmonicity, "_cable_stack", shifted)
    with pytest.raises(StarNotClosed, match=r"^edge ends at the slot-1 cable end t=0 of generation 1 do not coincide$"):
        weak_pairing(PREFIX_EXP, 2, parse("x^2"), vanishing_cubic())


def test_nan_star_is_refused(monkeypatch):
    # A NaN cable start is no closer than 1e-12 to its cell corner: the check asks
    # whether each gap is within the tolerance, so NaN fails it.
    stack = geometry._cable_stack

    def nan_start(seq, generations, beta_over_alpha=1.0 / 3.0):
        starts, vels = stack(seq, generations, beta_over_alpha)
        starts = starts.copy()
        starts[-1, 0, 0] = np.nan
        return starts, vels

    monkeypatch.setattr(geometry, "_cable_stack", nan_start)
    with pytest.raises(StarNotClosed, match="do not coincide"):
        harmonic_report(PREFIX_EXP, 2)


def test_harmonic_gates_have_one_definition():
    assert dict(harmonicity.HARMONIC_GATES) == {"assertion": 1e-10, "weak_identity": 12.0}
    assert cli.HARMONIC_GATES is harmonicity.HARMONIC_GATES
    with pytest.raises(TypeError):
        harmonicity.HARMONIC_GATES["assertion"] = 1.0


def test_vertex_diagnostics_memory_at_depth_ten():
    # Ceilings are about twice the peaks measured at depth 10 (2.2 and 10.8
    # MiB): the report holds one block of 3^7 cells' stars, the samples the
    # returned table (10.6 MB) and one block of rows.  With whole depth-10
    # tables the peaks were 44 and 38 MiB.  The weak pairing enumerates no
    # vertex: its gate reads 6 l local vectors (0.3 MiB).
    u = parse("x^2 - 0.5*x*y + y^3")
    v = vanishing_cubic()
    mib = 2**20
    assert cold_peak(lambda: harmonic_report(PREFIX_EXP, 10)) < 4.5 * mib
    assert cold_peak(lambda: weak_pairing(PREFIX_EXP, 10, u, v)) < 2 * mib
    assert cold_peak(lambda: laplacian_samples(PREFIX_EXP, u, 10)) < 22 * mib


def test_harmonic_report_memory_at_the_depth_cap():
    # 2.2 MiB, one block of stars, as at depth 10; 442 MiB with the whole
    # 3^13-vertex star table gathered and sorted.
    assert cold_peak(lambda: harmonic_report(PREFIX_EXP, 12)) < 4.5 * 2**20


def test_weak_pairing_memory_at_the_depth_cap():
    # 430 MiB while the gate enumerated the 3^12-cell stars; 0.4 MiB now.
    u = parse("x^2 - 0.5*x*y + y^3")
    assert cold_peak(lambda: weak_pairing(PREFIX_EXP, 12, u, vanishing_cubic())) < 4 * 2**20


# -- the local route of the weak-identity gate -----------------------------

#: Local-defect cases: the fixture regimes and derandomized sequences with
#: prefix values anywhere in (0, 1), 1e-3 and 1 - 1e-12 always drawable.
LOCAL_SEQUENCES = st.one_of(st.sampled_from(ALL_REGIMES), SEQUENCES)


def _local_defects_or_none(seq, l, ratio):
    """``_local_defects``, or None where a prefactor underflows."""
    try:
        return harmonicity._local_defects(seq, l, beta_over_alpha=ratio)
    except PrefactorUnderflow:
        return None


def _local_boundaries(seq, l, ratio):
    """Every interior star's boundary column, DF_p r(s, e, l) and its rounding bound, in star order.

    DF_p is the linear part of the star's cable prefix; the bound is the
    gate's own, the stars' route forming the same three terms from the
    same prefactors through chains of at most l + 1 2x2 products, times
    the size ``max row sum |DF_p| * scale`` of DF_p r.  None where a
    prefactor underflows and the stars refuse it too.
    """
    local = _local_defects_or_none(seq, l, ratio)
    if local is None:
        with pytest.raises(PrefactorUnderflow):
            vertex_stars(seq, l, beta_over_alpha=ratio)
        return None
    r, scale, _ = local
    end_of = {touch: 2 * (slot - 1) + t for (slot, t), touch in _CABLE_ENDS.items()}
    stars = vertex_stars(seq, l, beta_over_alpha=ratio)[3:]
    local, size = [], []
    for key in stars.key.tolist():
        word, corner = harmonicity._vertex_name(key, l)
        s, e = len(word), end_of[(word[-1], corner)]
        i = word_index(word[:-1])
        (lin,), _ = level_rows(seq, s - 1, i, i + 1, ratio)
        local.append(lin @ r[s - 1, e])
        size.append(np.abs(lin).sum(axis=1).max() * scale[s - 1, e])
    bound = harmonicity._defect_bound(seq, l) * np.array(size)
    return stars.boundary, np.array(local).reshape(-1, 2), bound


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seq=LOCAL_SEQUENCES)
@example(seq=EDGE_SEQ)
def test_local_defects_reproduce_the_star_boundaries(seq):
    for ratio in RATIOS:
        for l in range(6):
            routes = _local_boundaries(seq, l, ratio)
            if routes is None:
                continue
            boundary, local, bound = routes
            assert local.shape == boundary.shape == (3 * (3**l - 1), 2)
            assert np.all(np.max(np.abs(local - boundary), axis=1) <= bound), (ratio, l)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seq=LOCAL_SEQUENCES)
@example(seq=EDGE_SEQ)
def test_local_defects_separate_the_harmonic_ratio(seq):
    # Harmonic: every relative defect under the gate's float bound and
    # every cable end on its cell corner.  Off-ratio: at least 1e-3; on the
    # fixture regimes that is ten orders of magnitude above the bound (the
    # bound grows with sum |log eps_k|: 3e-13 with a level at 1e-100).
    for l in (1, 3, 5, 12):
        bound = harmonicity._defect_bound(seq, l)
        for ratio in RATIOS:
            local = _local_defects_or_none(seq, l, ratio)
            if local is None:
                continue
            r, scale, gap = local
            defect = np.hypot(r[..., 0], r[..., 1]) / scale
            assert defect.shape == gap.shape == (l, 6)
            if ratio == RATIOS[0]:
                assert np.max(defect) <= bound and np.max(gap) <= harmonicity._CLOSURE_TOL, l
            else:
                floor = 1e10 * bound if seq in ALL_REGIMES else 0.0
                assert np.min(defect) >= max(1e-3, floor), (ratio, l)
