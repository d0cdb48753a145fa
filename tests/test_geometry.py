import math
from functools import partial

import numpy as np
import pytest

from stretched_gasket import (
    DEFAULT_CONSTANTS,
    DepthCapExceeded,
    ExpTail,
    ParamSeq,
    base_vertices,
    cable_prefactor,
    cable_prefactor_limit,
    cable_segments,
    compose,
    count_edges,
    iter_words,
    prefractal_edges,
    triple,
    word_index,
    word_point,
    word_table,
)
from stretched_gasket.errors import GasketError, PrefactorUnderflow
from stretched_gasket.geometry import SIDE_NAMES, rotation

from conftest import CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY
from oracles import EdgeId, edge_walk


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


def cell_triangle(amap) -> np.ndarray:
    """Corner images of one cell, rows (A, B, C) mapped."""
    return np.stack([amap(p) for p in base_vertices()])


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
        f1, f2, f3 = triple(eps)
        assert np.allclose(f1(a), a, atol=1e-15)
        assert np.allclose(f2(b), b, atol=1e-15)
        assert np.allclose(f3(c), c, atol=1e-15)


def test_linear_parts_are_symmetric_exactly():
    for eps in (0.2, 0.5, 0.77, 1.0):
        for f in triple(eps):
            assert f.linear[0, 1] == f.linear[1, 0]


def test_maps_conjugate_by_rotation():
    # The second and third maps are the first conjugated by the rotations
    # that permute the corners (through the barycenter).
    from stretched_gasket import barycenter

    g = barycenter()
    for eps in (0.3, 0.8):
        f1, f2, f3 = triple(eps)
        # Corners run clockwise (A top-left, B right-top, C right-bottom),
        # so the corner cycle A -> B -> C is the rotation by -2*pi/3.
        for f, theta in ((f2, -2 * math.pi / 3), (f3, 2 * math.pi / 3)):
            r = rotation(theta)
            conj = r @ f1.linear @ r.T
            assert np.allclose(conj, f.linear, atol=1e-14)
            # Offsets agree once both maps are expressed around the barycenter.
            assert np.allclose(f(g), g + r @ (f1(g) - g), atol=1e-14)


def test_contraction_operator_norms():
    for eps in (0.2, 0.5, 0.9, 1.0):
        for f in triple(eps):
            s = np.linalg.svd(f.linear, compute_uv=False)
            assert s[0] == pytest.approx(0.6 * eps, abs=1e-14)
            assert s[1] == pytest.approx(0.2 * eps, abs=1e-14)


def test_eigen_direction_of_second_map():
    w = np.array([0.5, SQRT3 / 2])
    for eps in (0.3, 0.5, 0.9, 1.0):
        f2 = triple(eps)[1]
        assert np.max(np.abs(f2.linear @ w - 0.6 * eps * w)) <= 1e-14


def test_harmonic_family_degeneracy_at_eps_one():
    a, b, c = base_vertices()
    f1, f2, f3 = triple(1.0)
    meet = np.array([3 * SQRT3 / 10, 0.1])
    assert np.max(np.abs(f1(b) - meet)) <= 1e-14
    assert np.max(np.abs(f2(a) - meet)) <= 1e-14


def test_word_enumeration_and_index():
    words = list(iter_words(3))
    assert len(words) == 27
    assert words[0] == (1, 1, 1)
    assert words[-1] == (3, 3, 3)
    assert words == sorted(words)
    for k, w in enumerate(words):
        assert word_index(w) == k


def test_word_table_matches_composition():
    lin, off = word_table(PREFIX_EXP, 3)
    for w in ((1, 2, 3), (3, 1, 2), (2, 2, 2)):
        amap = compose(PREFIX_EXP, w)
        k = word_index(w)
        assert np.allclose(lin[k], amap.linear, atol=1e-15)
        assert np.allclose(off[k], amap.offset, atol=1e-15)


def test_word_point_is_barycenter_image():
    from stretched_gasket import barycenter

    w = (2, 1, 3)
    assert np.allclose(word_point(PREFIX_EXP, w), compose(PREFIX_EXP, w)(barycenter()))


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
            for seg in cable_segments(seq, s):
                assert abs(seg.length - seq.one_minus_eps(s)) <= 1e-14
                assert np.allclose(seg.velocity, seg.q - seg.p, atol=1e-15)


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
            start = compose(seq, prefix + (i0,))(p0)
            stop = compose(seq, prefix + (i1,))(p1)
            assert np.max(np.abs([e.px, e.py] - start)) <= 1e-13
            assert np.max(np.abs([e.qx, e.qy] - stop)) <= 1e-13


def test_edge_counts():
    for l in range(0, 7):
        tri, cab = count_edges(l)
        assert tri == 3 * 3**l
        assert cab == 3 * (3**l - 1) // 2
        edges = prefractal_edges(TAIL_ONLY, l, DEFAULT_CONSTANTS)
        assert len(edges) == tri + cab
        assert np.count_nonzero(edges.generation == 0) == tri
        assert np.count_nonzero(edges.generation > 0) == cab


def test_prefractal_edge_order_is_canonical():
    # Triangle edges first in (word, side) order, then cables by generation
    # in (prefix, slot) order: the (generation, word, slot) rows ascend.
    for l in (2, 3):
        edges = prefractal_edges(TAIL_ONLY, l, DEFAULT_CONSTANTS)
        ids = list(zip(edges.generation.tolist(), edges.word.tolist(), edges.slot.tolist()))
        assert ids == sorted(set(ids))
        assert set(edges.slot[edges.generation == 0].tolist()) == {0, 1, 2}
        assert set(edges.slot[edges.generation > 0].tolist()) == {1, 2, 3}


def test_prefactors():
    seq = PREFIX_EXP
    c = DEFAULT_CONSTANTS
    for e in prefractal_edges(seq, 2, c):
        if e.generation == 0:
            assert e.prefactor == pytest.approx(c.a / seq.lam_tilde(2), rel=1e-14)
        else:
            s = int(e.generation)
            expected = c.b / (
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
            lin, off = word_table(seq, l)
            tris = [
                cell_triangle(compose(seq, w)) for w in iter_words(l)
            ]
            for i in range(len(tris)):
                for j in range(i + 1, len(tris)):
                    assert triangles_disjoint(tris[i], tris[j]), (eps, l, i, j)


def test_cells_touch_at_eps_one():
    f1, f2 = triple(1.0)[:2]
    assert not triangles_disjoint(cell_triangle(f1), cell_triangle(f2))


def test_triangle_contains():
    tri = np.stack(base_vertices())
    assert triangle_contains(tri, np.array([SQRT3 / 3, 0.0]))
    assert not triangle_contains(tri, np.array([-0.1, 0.0]))


def test_depth_cap():
    with pytest.raises(DepthCapExceeded):
        word_table(TAIL_ONLY, 13)
