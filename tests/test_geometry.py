import math
import sys
from functools import partial

import numpy as np
import pytest

from stretched_gasket import (
    HARMONIC_RATIO,
    DepthCapExceeded,
    ExpTail,
    ParamSeq,
    base_vertices,
    cable_prefactor,
    cable_prefactor_limit,
    barycenter,
    cable_masses,
    cable_segments,
    cli,
    compose,
    geometry,
    laplacian_samples,
    parse,
    prefractal_edges,
    triple,
    word_index,
    word_point,
    word_table,
)
from stretched_gasket.energy import _tableau
from stretched_gasket.errors import GasketError, PrefactorUnderflow
from stretched_gasket.geometry import SIDE_NAMES, _carrier_count, _edge_rows, _word_rows

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY, traced_peak
from oracles import (
    EdgeId,
    compose_objects,
    count_edges,
    edge_walk,
    geometry_text_by_rows,
    iter_words,
    level_rows,
    rotation,
    world_edge_table,
)


# -- elementary planar predicates, used by the disjointness checks ---------


def triangle_contains(tri: np.ndarray, pt: np.ndarray, tol: float = 1e-12) -> bool:
    """Point-in-triangle via signed areas, tolerant to tol on the boundary."""
    signs = []
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        cross = (q[0] - p[0]) * (pt[1] - p[1]) - (q[1] - p[1]) * (pt[0] - p[0])
        signs.append(cross)
    return all(s >= -tol for s in signs) or all(s <= tol for s in signs)


def triangles_disjoint(t1: np.ndarray, t2: np.ndarray, gap: float = 0.0) -> bool:
    """Separating-axis test for two (closed) triangles.

    Returns True when some edge normal separates them by more than ``gap``.
    """
    for tri_a, tri_b in ((t1, t2), (t2, t1)):
        for i in range(3):
            p, q = tri_a[i], tri_a[(i + 1) % 3]
            axis = np.array([-(q[1] - p[1]), q[0] - p[0]])
            n = np.hypot(axis[0], axis[1])
            if n == 0.0:
                continue
            axis = axis / n
            a_lo, a_hi = (t1 @ axis).min(), (t1 @ axis).max()
            b_lo, b_hi = (t2 @ axis).min(), (t2 @ axis).max()
            if a_hi < b_lo - gap or b_hi < a_lo - gap:
                return True
    return False


def cell_triangle(lin: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Corner images of one cell under the map (lin, off), rows (A, B, C) mapped."""
    return np.stack([lin @ p + off for p in base_vertices()])


SQRT3 = math.sqrt(3.0)


def test_base_triangle_is_unit_equilateral():
    a, b, c = base_vertices()
    assert np.allclose(a, [0.0, 0.0])
    assert np.allclose(b, [SQRT3 / 2, 0.5])
    assert np.allclose(c, [SQRT3 / 2, -0.5])
    for p, q in ((a, b), (b, c), (a, c)):
        assert np.linalg.norm(q - p) == pytest.approx(1.0, abs=1e-15)


def test_fixed_points():
    a, b, c = base_vertices()
    for eps in (0.3, 0.5, 0.9, 1.0):
        lin, off = triple(eps)
        assert lin.shape == (3, 2, 2) and off.shape == (3, 2)
        for i, corner in enumerate((a, b, c)):
            assert np.allclose(lin[i] @ corner + off[i], corner, atol=1e-15)


def test_linear_parts_are_symmetric_exactly():
    for eps in (0.2, 0.5, 0.77, 1.0):
        lin, _ = triple(eps)
        assert np.array_equal(lin[:, 0, 1], lin[:, 1, 0])


def test_triple_arrays_are_read_only():
    for arr in triple(0.4):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_maps_conjugate_by_rotation():
    # The second and third maps are the first conjugated by the rotations
    # that permute the corners (through the barycenter).
    g = barycenter()
    for eps in (0.3, 0.8):
        lin, off = triple(eps)
        # Corners run clockwise (A top-left, B right-top, C right-bottom),
        # so the corner cycle A -> B -> C is the rotation by -2*pi/3.
        for i, theta in ((1, -2 * math.pi / 3), (2, 2 * math.pi / 3)):
            r = rotation(theta)
            conj = r @ lin[0] @ r.T
            assert np.allclose(conj, lin[i], atol=1e-14)
            # Offsets agree once both maps are expressed around the barycenter.
            assert np.allclose(lin[i] @ g + off[i], g + r @ (lin[0] @ g + off[0] - g), atol=1e-14)


def test_contraction_operator_norms():
    for eps in (0.2, 0.5, 0.9, 1.0):
        for t in triple(eps)[0]:
            s = np.linalg.svd(t, compute_uv=False)
            assert s[0] == pytest.approx(0.6 * eps, abs=1e-14)
            assert s[1] == pytest.approx(0.2 * eps, abs=1e-14)


def test_eigen_direction_of_second_map():
    w = np.array([0.5, SQRT3 / 2])
    for eps in (0.3, 0.5, 0.9, 1.0):
        t2 = triple(eps)[0][1]
        assert np.max(np.abs(t2 @ w - 0.6 * eps * w)) <= 1e-14


def test_harmonic_family_degeneracy_at_eps_one():
    a, b, c = base_vertices()
    lin, off = triple(1.0)
    meet = np.array([3 * SQRT3 / 10, 0.1])
    assert np.max(np.abs(lin[0] @ b + off[0] - meet)) <= 1e-14
    assert np.max(np.abs(lin[1] @ a + off[1] - meet)) <= 1e-14


def test_word_enumeration_and_index():
    words = list(iter_words(3))
    assert len(words) == 27
    assert words[0] == (1, 1, 1)
    assert words[-1] == (3, 3, 3)
    assert words == sorted(words)
    for k, w in enumerate(words):
        assert word_index(w) == k


def test_word_table_matches_composition():
    # Row word_index(w) is F_w: the one-row read and the object fold give its bits.
    lin, off = word_table(PREFIX_EXP, 3)
    for w in ((1, 2, 3), (3, 1, 2), (2, 2, 2)):
        k = word_index(w)
        w_lin, w_off = compose(PREFIX_EXP, w)
        assert w_lin.shape == (2, 2) and w_off.shape == (2,)
        assert np.array_equal(lin[k], w_lin)
        assert np.array_equal(off[k], w_off)
        amap = compose_objects(PREFIX_EXP, w)
        assert np.array_equal(lin[k], amap.linear)
        assert np.array_equal(off[k], amap.offset)


def _row_ranges(rng, l):
    """Empty, single-row and whole ranges of the 3^l words, ranges across the ends of the
    depth-k prefix blocks (3^(l - k) rows each), and 20 random ones."""
    n = 3**l
    ranges = [(0, 0), (n, n), (0, n), (0, 1), (n - 1, n), (n // 2, n // 2 + 1)]
    for k in range(1, l):
        ranges += [(max(end - 2, 0), min(end + 3, n)) for end in (3 ** (l - k), n - 3 ** (l - k), 2 * 3 ** (l - k))]
    return ranges + [tuple(sorted(rng.integers(0, n + 1, 2).tolist())) for _ in range(20)]


@pytest.mark.parametrize("seq, ratio", [(PREFIX_EXP, 1.0 / 3.0), (CONSTANT_HALF, 0.25)], ids=["prefix-exp", "const-half-0.25"])
def test_word_rows_are_the_word_table_rows(seq, ratio, rng):
    # A range composes only its own ancestors, with the whole table's
    # arithmetic, so every row keeps its bits wherever the range falls.
    # _word_rows and word_table take the harmonic ratio; at another the
    # walk's own ranges are held to its whole level.
    harmonic = ratio == HARMONIC_RATIO
    for l in range(10):
        lin, off = word_table(seq, l) if harmonic else level_rows(seq, l, 0, 3**l, ratio)
        for start, stop in _row_ranges(rng, l):
            part_lin, part_off = _word_rows(seq, l, start, stop) if harmonic else level_rows(seq, l, start, stop, ratio)
            assert part_lin.shape == (stop - start, 2, 2) and part_off.shape == (stop - start, 2), (l, start, stop)
            assert part_lin.tobytes() == lin[start:stop].tobytes(), (l, start, stop)
            assert part_off.tobytes() == off[start:stop].tobytes(), (l, start, stop)


def _edge_ranges(rng, l):
    """Nonempty ranges of the depth-l edge table's rows: the whole table, its first and last
    rows, ranges that split one cell's three sides or cross two cells, ranges that start at
    the first cable or cross into it, ranges across every generation boundary, and 20 random ones."""
    n, cells = _carrier_count(l, 3), 3 * 3**l
    ranges = [(0, n), (0, 1), (n - 1, n), (1, 2), (0, 2), (1, 3), (2, 4), (4, 8), (cells, n), (cells, cells + 1)]
    ranges += [(cells - 1, cells + 2), (cells - 4, n)]
    first = cells
    for s in range(1, l):
        first += 3**s
        ranges.append((first - 2, first + 4))
    for _ in range(20):
        a = int(rng.integers(0, n))
        ranges.append((a, int(rng.integers(a + 1, n + 1))))
    return [(max(a, 0), min(b, n)) for a, b in ranges if max(a, 0) < min(b, n)]


def test_edge_rows_are_the_world_table_rows(regime, rng):
    # A range maps only its own cells and cable prefixes, each through its
    # word's row with the whole table's arithmetic, so every row keeps the
    # bits of the whole world arrays' gather wherever the range falls.
    for l in range(10):
        want = world_edge_table(regime, l)
        for start, stop in _edge_ranges(rng, l):
            got = _edge_rows(regime, l, start, stop)
            assert got.dtype == want.dtype and len(got) == stop - start, (l, start, stop)
            assert got.tobytes() == want[start:stop].tobytes(), (l, start, stop)


def test_tableau_cuts_the_edge_table_by_generation(regime):
    # The tests' edge tableau is the table's start and velocity columns, one
    # block for the triangle edges and one per cable generation.
    for l in range(5):
        tab, want = _tableau(regime, l), world_edge_table(regime, l)
        assert len(tab.cab_p0) == len(tab.cab_dv) == l
        assert [len(p0) for p0 in (tab.tri_p0, *tab.cab_p0)] == [3 * 3**l] + [3**s for s in range(1, l + 1)]
        assert np.concatenate([tab.tri_p0, *tab.cab_p0]).tobytes() == np.column_stack([want.px, want.py]).tobytes()
        assert np.concatenate([tab.tri_dv, *tab.cab_dv]).tobytes() == np.column_stack([want.vx, want.vy]).tobytes()


@pytest.mark.parametrize("table, depth", [(word_table, 10), (_tableau, 8)], ids=["word_table", "tableau"])
def test_whole_table_caches_keep_one_table(table, depth):
    # Eight sequences in turn peak at one kept table plus one cold build, the
    # transient tables of the build included (the walk's products for
    # word_table, the edge table for _tableau): 8.11 MB and 4.27 MB measured,
    # against 25.1 MB and 9.95 MB with a cache of 64 tables.
    seqs = [ParamSeq.constant(0.1 * (i + 1)) for i in range(8)]
    table.cache_clear()
    build = traced_peak(lambda: table(seqs[0], depth))
    kept = table(seqs[0], depth)
    kept_bytes = sum(a.nbytes for a in (kept if table is word_table else (kept.tri_p0, kept.tri_dv, *kept.cab_p0, *kept.cab_dv)))
    table.cache_clear()
    del kept
    peak = traced_peak(lambda: [table(seq, depth) and None for seq in seqs])
    assert peak <= build + kept_bytes + 2**16, (peak, build, kept_bytes)
    assert table.cache_info().currsize == 1


def test_a_cold_word_table_build_holds_one_level_beside_its_parent():
    # The walk drops each level once the next is built: a cold depth-10 table peaks at 4.80 MB
    # of tracemalloc for its 2.83 MB (1.69 tables), against 5.27 MB (1.86) when every ancestor
    # level was kept until the last was built.
    seq = ParamSeq.constant(0.1)
    word_table.cache_clear()
    peak = traced_peak(lambda: word_table(seq, 10))
    lin, off = word_table(seq, 10)
    assert peak <= 1.7 * (lin.nbytes + off.nbytes), (peak, lin.nbytes + off.nbytes)


@pytest.mark.parametrize("l", [7, 10])
@pytest.mark.parametrize("cell_rows", [1, 3], ids=["samples", "edges"])
def test_a_carrier_range_makes_level_steps_linear_in_the_depth(monkeypatch, l, cell_rows):
    # Each range of a whole carrier table walks its cells' l levels, its shallow cable
    # generations' prefixes in one walk of at most 7 levels, and each deeper generation it
    # holds (at most two) in s - 1 levels: at most 2 l level products a range.  One walk per
    # generation made 21 in the range that holds generations 1..7.
    calls = []
    real = geometry._level_products
    monkeypatch.setattr(geometry, "_level_products", lambda lin, wide: calls.append(1) or real(lin, wide))
    steps = []
    for a, b in geometry._ranges(_carrier_count(l, cell_rows)):
        calls.clear()
        list(geometry._carrier_walk(PREFIX_EXP, l, a, b, cell_rows))
        steps.append(len(calls))
    assert max(steps) <= 2 * l, steps


def test_no_route_reads_the_whole_word_table(monkeypatch, tmp_path, capsys):
    # word_table is the public cached table only: the samples, the edge table, the cable
    # masses and the shaded export read their map rows by range, and keep their bytes
    # where every package module's word_table raises.
    phi = parse("x^3 - 0.7*x*y + y^4")

    def outputs():
        samples = [laplacian_samples(PREFIX_EXP, phi, l).tobytes() for l in range(8)]
        edges = [prefractal_edges(PREFIX_EXP, l).tobytes() for l in range(8)]
        return samples + edges + [b"".join(a.tobytes() for a in cable_masses(PREFIX_EXP, s)) for s in range(1, 9)]

    want = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("the whole word table was read")

    modules = [module for name, module in sys.modules.items() if name.startswith("stretched_gasket") and hasattr(module, "word_table")]
    assert modules
    for module in modules:
        monkeypatch.setattr(module, "word_table", refuse)
    assert outputs() == want
    edges = tmp_path / "edges.json"
    flags = ["--eps-prefix", "0.9,0.8,0.7", "--tail-c", "0.05", "--tail-r", "0.5"]
    assert cli.main(["geometry", *flags, "--depth", "6", "--shade", "--json", str(edges)]) == 0
    svg, side = geometry_text_by_rows(PREFIX_EXP, 6)
    assert capsys.readouterr().out == svg and edges.read_text() == side


@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 28), (28, 28)])
def test_word_rows_refuse_a_range_outside_the_level(start, stop):
    with pytest.raises(ValueError, match=rf"row range \[{start}, {stop}\) is not within the 27 depth-3 words"):
        _word_rows(PREFIX_EXP, 3, start, stop)


def test_word_point_is_barycenter_image():
    w = (2, 1, 3)
    lin, off = compose(PREFIX_EXP, w)
    assert np.array_equal(word_point(PREFIX_EXP, w), lin @ barycenter() + off)


@pytest.mark.parametrize("letter", [0, 4])
def test_letters_outside_one_to_three_are_rejected(letter):
    # Unchecked, letter 0 would index from the end (letter 3's map) and
    # word_index((1, 4)) would collide with word_index((2, 1)).
    for word in ((letter,), (1, letter)):
        for fn in (partial(compose, PREFIX_EXP), partial(word_point, PREFIX_EXP), word_index):
            with pytest.raises(ValueError, match=f"word letter must be 1, 2 or 3, got {letter}"):
                fn(word)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
def test_non_finite_ratio_is_rejected(ratio):
    # Unchecked, a NaN ratio gives NaN maps whose residual reads as 0.
    with pytest.raises(ValueError, match="beta/alpha must be finite"):
        triple(0.5, ratio)


def test_prefactor_underflow_names_generation_and_depth():
    # lam_tilde(1) = 0.6e-400 underflows to 0: the weight would divide by 0.
    tiny = ParamSeq(prefix=(1e-200,), tail=ExpTail(0.1, 0.5))
    assert issubclass(PrefactorUnderflow, GasketError)
    with pytest.raises(PrefactorUnderflow, match="generation-2 cable prefactor at depth 3"):
        cable_prefactor(tiny, 2, 3)
    with pytest.raises(PrefactorUnderflow, match="generation-2 cable prefactor at depth infinity"):
        cable_prefactor_limit(tiny, 2)
    assert cable_prefactor(tiny, 1, 3) > 0.0


def test_cable_lengths_and_velocity():
    for seq in (CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY):
        for s in (1, 2, 3, 5):
            starts, vels = cable_segments(seq, s)
            assert starts.shape == vels.shape == (3, 2)
            ends = starts + vels
            assert np.all(np.abs(np.hypot(*(ends - starts).T) - seq.one_minus_eps(s)) <= 1e-14)
            assert np.allclose(vels, ends - starts, atol=1e-15)


def _word(index: int, k: int) -> tuple[int, ...]:
    """The length-k word with lexicographic position ``index``."""
    return tuple(index // 3 ** (k - 1 - n) % 3 + 1 for n in range(k))


def test_cables_anchor_to_cell_corners():
    # Generation-s cables join the two neighbouring depth-s cells: the
    # slot-1 cable runs from cell (prefix,1) at corner B to cell (prefix,2)
    # at corner A, and cyclically for the other slots.
    a, b, c = base_vertices()
    ends = {1: ((1, b), (2, a)), 2: ((1, c), (3, a)), 3: ((2, c), (3, b))}
    for seq in (PREFIX_EXP, TAIL_ONLY):
        edges = prefractal_edges(seq, 3)
        for e in edges[edges.generation > 0]:
            prefix = _word(int(e.word), int(e.generation) - 1)
            (i0, p0), (i1, p1) = ends[int(e.slot)]
            (lin0, off0), (lin1, off1) = compose(seq, prefix + (i0,)), compose(seq, prefix + (i1,))
            start, stop = lin0 @ p0 + off0, lin1 @ p1 + off1
            assert np.max(np.abs([e.px, e.py] - start)) <= 1e-13
            assert np.max(np.abs([e.qx, e.qy] - stop)) <= 1e-13


def test_edge_counts():
    for l in range(0, 7):
        tri, cab = count_edges(l)
        assert tri == 3 * 3**l
        assert cab == 3 * (3**l - 1) // 2
        edges = prefractal_edges(TAIL_ONLY, l)
        assert len(edges) == tri + cab
        assert np.count_nonzero(edges.generation == 0) == tri
        assert np.count_nonzero(edges.generation > 0) == cab


def test_prefractal_edge_order_is_canonical():
    # Triangle edges first in (word, side) order, then cables by generation
    # in (prefix, slot) order: the (generation, word, slot) rows ascend.
    for l in (2, 3):
        edges = prefractal_edges(TAIL_ONLY, l)
        ids = list(zip(edges.generation.tolist(), edges.word.tolist(), edges.slot.tolist()))
        assert ids == sorted(set(ids))
        assert set(edges.slot[edges.generation == 0].tolist()) == {0, 1, 2}
        assert set(edges.slot[edges.generation > 0].tolist()) == {1, 2, 3}


def test_prefactors():
    seq = PREFIX_EXP
    a = 1.0 / 3.0
    for e in prefractal_edges(seq, 2):
        if e.generation == 0:
            assert e.prefactor == pytest.approx(a / seq.lam_tilde(2), rel=1e-14)
        else:
            s = int(e.generation)
            expected = a / (
                seq.lam_tilde(s - 1) * seq.eps_tilde(s, 2) * seq.one_minus_eps(s)
            )
            assert e.prefactor == pytest.approx(expected, rel=1e-14)


def test_edge_table_rows_equal_the_edge_walk(regime):
    # Same ids and prefactors, and the same bits for every endpoint and
    # velocity as mapping each edge through its word's composed map.
    for l in range(5):
        edges = prefractal_edges(regime, l)
        walk = list(edge_walk(regime, l))
        assert len(edges) == len(walk)
        for (g, i, slot, pf, px, py, qx, qy, vx, vy), (eid, seg, amap) in zip(edges.tolist(), walk):
            if g == 0:
                assert eid == EdgeId("tri", _word(i, l), side=SIDE_NAMES[slot], prefactor=pf)
            else:
                assert eid == EdgeId("cable", _word(i, g - 1), slot=slot, generation=g, prefactor=pf)
            assert [px, py] == amap(seg.p).tolist()
            assert [qx, qy] == amap(seg.q).tolist()
            assert [vx, vy] == (amap.linear @ seg.velocity).tolist()


def test_cells_disjoint_for_moderate_stretch():
    # Level-1 and level-2 cells are pairwise disjoint closed triangles for
    # stretch values strictly below 1.
    for eps in (0.2, 0.5, 0.9):
        seq = ParamSeq.constant(eps)
        for l in (1, 2):
            tris = [cell_triangle(*compose(seq, w)) for w in iter_words(l)]
            for i in range(len(tris)):
                for j in range(i + 1, len(tris)):
                    assert triangles_disjoint(tris[i], tris[j]), (eps, l, i, j)


def test_cells_touch_at_eps_one():
    lin, off = triple(1.0)
    assert not triangles_disjoint(cell_triangle(lin[0], off[0]), cell_triangle(lin[1], off[1]))


def test_triangle_contains():
    tri = np.stack(base_vertices())
    assert triangle_contains(tri, np.array([SQRT3 / 3, 0.0]))
    assert not triangle_contains(tri, np.array([-0.1, 0.0]))


def test_depth_cap():
    # The enumerating reads stop at the cap; a one-row read enumerates nothing and does not.
    with pytest.raises(DepthCapExceeded):
        word_table(TAIL_ONLY, 13)
    with pytest.raises(DepthCapExceeded, match="depth 13 exceeds cap 12"):
        _word_rows(TAIL_ONLY, 13, 0, 5)
    word = (2, 3, 1) * 5
    lin, off = compose(TAIL_ONLY, word)
    assert np.array_equal(word_point(TAIL_ONLY, word), lin @ barycenter() + off)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        _word_rows(TAIL_ONLY, -1, 0, 0)
