"""Affine geometry of the stretched Sierpinski gasket pre-fractals.

The depth-l pre-fractal is the union of 3^l image triangles and the cables
joining them.  Images are produced by words over the alphabet {1,2,3}: the
map at word position k is built from eps_k, so the composition for a word
w = (i_1, ..., i_l) is F_{i_1} of level 1 applied last:

    F_w = F^1_{i_1} o F^2_{i_2} o ... o F^l_{i_l}.

Each level's triple (F_1, F_2, F_3) fixes the corners A, B, C of the unit
equilateral base triangle and contracts by the diagonal pair
(alpha, beta) = eps * (3/5, 1/5); F_2 and F_3 are the conjugates of F_1 by
the rotations through -2*pi/3 and +2*pi/3 about the barycenter direction.
Cables of generation s join the images F^s_i of the corner points inside a
cell of depth s-1 and have length 1 - eps_s.

Every affine map is a (linear, offset) pair of arrays: ``triple`` gives
a level's three maps as (3, 2, 2) and (3, 2) arrays, and ``_word_levels``
is the one function that composes them.  It composes the maps of any
range of words level by level, and only the range's ancestors, with the
bits of the whole table: ``word_table`` is its last level over the whole
range, ``_word_rows`` over any range, and ``compose`` over the one row of
a word of any length.  The paths that walk a depth in 3^7-row ranges
(``_ranges``, which the CLI's writers share) read their rows from it:
the vertex stars, the Laplacian samples and the measure energy.  The two
that enumerate a level, ``word_table`` and ``_word_rows``, stop at the
depth cap; a one-row read does not.

The depth-l pre-fractal in world coordinates is one set of arrays
(``_world``): the corners and side velocities of every cell and the
starts, ends and velocities of every generation's cables, each mapped
through its word's row of ``word_table``.  The edge table
(``prefractal_edges``), the SVG/JSON export and the tests' edge tableau
gather from it.

The beta/alpha ratio (default 1/3, the harmonic family) is a parameter of
the map primitives here and of the vertex-residual probes in the
harmonicity module, which show that perturbed families break the vertex
balance.  The energy forms, the cylinder measures and the Laplacian are
defined for the harmonic family only: their weights use lam_k = (3/5)
eps_k^2, which is the Perron eigenvalue of the level transfer operator
only at ratio 1/3, so they take no ratio.  Harmonicity also forces the
cable constant b to equal the triangle-edge constant a, and the edge
weights (``triangle_edge_prefactor``, ``cable_prefactor``) use the one
value a = b = 1/3 (``params.A``), so they take no constant either.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import DepthCapExceeded, PrefactorUnderflow
from .params import A, ParamSeq

SQRT3 = math.sqrt(3.0)

# Corners of the unit equilateral base triangle.
_A = np.array([0.0, 0.0])
_B = np.array([SQRT3 / 2.0, 0.5])
_C = np.array([SQRT3 / 2.0, -0.5])
_BARYCENTER = np.array([SQRT3 / 3.0, 0.0])

for _v in (_A, _B, _C, _BARYCENTER):
    _v.flags.writeable = False

#: Ratio beta/alpha of the harmonic map family.
HARMONIC_RATIO = 1.0 / 3.0

#: Default cap on enumeration depth (3^12 triangles).
DEFAULT_DEPTH_CAP = 12

#: Canonical side parametrizations of the base triangle, each run over t in [0,1].
SIDE_NAMES = ("AB", "BC", "AC")
#: Corner index (A, B, C as 0, 1, 2) where each side starts and where it ends.
_SIDE_FROM, _SIDE_TO = np.array([["ABC".index(c) for c in name] for name in SIDE_NAMES]).T


def base_vertices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _A, _B, _C


def barycenter() -> np.ndarray:
    return _BARYCENTER


def _alpha_beta(eps: float, beta_over_alpha: float) -> tuple[float, float]:
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    if not math.isfinite(beta_over_alpha):
        raise ValueError(f"beta/alpha must be finite, got {beta_over_alpha}")
    alpha = 0.6 * eps
    return alpha, alpha * beta_over_alpha


@functools.lru_cache(maxsize=4096)
def _triple_cached(eps: float, beta_over_alpha: float):
    alpha, beta = _alpha_beta(eps, beta_over_alpha)
    t1 = np.array([[alpha, 0.0], [0.0, beta]])
    # Closed-form rotation conjugates; building them entrywise keeps the
    # matrices exactly symmetric in floating point.
    d = SQRT3 * (alpha - beta) / 4.0
    m11 = (alpha + 3.0 * beta) / 4.0
    m22 = (3.0 * alpha + beta) / 4.0
    t2 = np.array([[m11, d], [d, m22]])
    t3 = np.array([[m11, -d], [-d, m22]])
    lin, off = np.array([t1, t2, t3]), np.array([np.zeros(2), _B - t2 @ _B, _C - t3 @ _C])
    lin.flags.writeable = False
    off.flags.writeable = False
    return lin, off


def triple(eps: float, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """The level maps F_1, F_2, F_3 for one stretching value, as read-only arrays.

    Returns (lin, off) of shapes (3, 2, 2) and (3, 2): F_i x = lin[i - 1] @ x
    + off[i - 1].  eps = 1 is accepted: it gives the harmonic-gasket maps,
    where cables degenerate to points and neighbouring cells touch.
    """
    return _triple_cached(float(eps), float(beta_over_alpha))


def _triple_index(value: int, what: str = "word letter") -> int:
    """Position 0..2 of a word letter or cable slot; values outside 1..3 raise ValueError."""
    if value not in (1, 2, 3):
        raise ValueError(f"{what} must be 1, 2 or 3, got {value!r}")
    return value - 1


def word_index(word: tuple[int, ...]) -> int:
    """Position of a word in the lexicographic enumeration of its length."""
    idx = 0
    for ch in word:
        idx = idx * 3 + _triple_index(ch)
    return idx


def compose(seq: ParamSeq, word: tuple[int, ...], beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """F_w for a word w of any length, position k using the level-k triple.

    Returns (lin, off) of shapes (2, 2) and (2,): the one row of
    ``_word_levels`` over the word, so it has the bits of its ``word_table``
    row.  It enumerates nothing, so no depth cap applies.
    """
    i = word_index(word)
    *_, (_, lin, off) = _word_levels(seq, len(word), i, i + 1, beta_over_alpha)
    return lin[0], off[0]


def word_point(seq: ParamSeq, word: tuple[int, ...], beta_over_alpha: float = HARMONIC_RATIO) -> np.ndarray:
    """Representative point of a cylinder cell: image of the barycenter."""
    lin, off = compose(seq, word, beta_over_alpha)
    return lin @ _BARYCENTER + off


def _images(lin: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """lin[n] @ vecs[k] for every n, k: (N, K, 2), one stacked matvec each."""
    return (lin[:, None] @ vecs[..., None])[..., 0]


def _require_depth(l: int) -> None:
    """Refuse a depth below 0 (ValueError) or past the cap (DepthCapExceeded)."""
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    if l > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(f"depth {l} exceeds cap {DEFAULT_DEPTH_CAP}")


#: Rows per range of the tables built or read in ranges: 3^7, the depth-l words below one depth-(l - 7) prefix.
_RANGE_ROWS = 3**7


def _ranges(n_rows: int) -> Iterator[tuple[int, int]]:
    """The row ranges (start, stop) of ``_RANGE_ROWS`` rows that cover ``n_rows`` rows, in order."""
    for start in range(0, n_rows, _RANGE_ROWS):
        yield start, min(start + _RANGE_ROWS, n_rows)


def _level_maps(seq: ParamSeq, l: int, beta_over_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear parts (l, 3, 2, 2) and offsets (l, 3, 2) of the maps F_1, F_2, F_3 of levels 1..l."""
    maps = [triple(seq.eps(k), beta_over_alpha) for k in range(1, l + 1)]
    return np.array([lin for lin, _ in maps]).reshape(l, 3, 2, 2), np.array([off for _, off in maps]).reshape(l, 3, 2)


def _word_levels(seq: ParamSeq, l: int, start: int, stop: int, beta_over_alpha: float = HARMONIC_RATIO):
    """The ancestors of the depth-l words start..stop-1 at each level k = 0..l, in order:
    (first, lin, off), the affine parts of the depth-k words first, first + 1, ...

    Only these are composed, level by level, with the arithmetic of the
    whole table, so every row has the bits of its ``word_table`` row and
    the transient memory is set by the range.  At level l they are the
    range itself.  This is the one place where maps are composed.  A
    negative depth or a range outside [0, 3^l) raises ValueError; the depth
    cap is left to the callers that enumerate a level.
    """
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    n = 3**l
    if not 0 <= start <= stop <= n:
        raise ValueError(f"row range [{start}, {stop}) is not within the {n} depth-{l} words")
    tks, oks = _level_maps(seq, l, beta_over_alpha)
    # Level k's [T_1 T_2 T_3], (2, 6): lin @ it is the three 2x2 products of each row at once.
    wide = tks.transpose(0, 2, 1, 3).reshape(l, 2, 6)
    lin, off, first = np.eye(2)[None, :, :], np.zeros((1, 2)), 0
    yield first, lin, off
    for k in range(1, l + 1):
        # The level-k ancestors of the range, [lo, hi); their parents are the rows of lin.
        lo, hi = start // 3 ** (l - k), -(-stop // 3 ** (l - k))
        rows = slice(lo - 3 * first, hi - 3 * first)
        # lin @ T and lin @ o + off for each row and each of the level's three maps.
        lin, off = (
            (lin @ wide[k - 1]).reshape(-1, 2, 3, 2).swapaxes(1, 2).reshape(-1, 2, 2)[rows],
            (_images(lin, oks[k - 1]) + off[:, None, :]).reshape(-1, 2)[rows],
        )
        first = lo
        yield first, lin, off


def _word_rows(seq: ParamSeq, l: int, start: int, stop: int, beta_over_alpha: float = HARMONIC_RATIO):
    """Affine parts (lin, off) of the depth-l words start..stop-1 in word order, each row with
    the bits of its ``word_table`` row: the last level of ``_word_levels``, the whole level
    from the cached ``word_table``.  A depth past the cap raises DepthCapExceeded."""
    _require_depth(l)
    if (start, stop) == (0, 3**l):
        return word_table(seq, l, beta_over_alpha)
    *_, (first, lin, off) = _word_levels(seq, l, start, stop, beta_over_alpha)
    return lin[start - first : stop - first], off[start - first : stop - first]


@functools.lru_cache(maxsize=64)
def word_table(seq: ParamSeq, l: int, beta_over_alpha: float = HARMONIC_RATIO):
    """Batched affine parts of all depth-l compositions, in word order.

    Returns (lin, off): arrays of shape (3^l, 2, 2) and (3^l, 2) such that
    row word_index(w) holds the linear part and offset of F_w, the last
    level of ``_word_levels`` over the whole range.  Arrays are read-only;
    callers must copy before mutating.  A depth past the cap raises
    DepthCapExceeded.
    """
    _require_depth(l)
    *_, (_, lin, off) = _word_levels(seq, l, 0, 3**l, beta_over_alpha)
    lin.flags.writeable = False
    off.flags.writeable = False
    return lin, off


def _cable_scale_seq(seq: ParamSeq, s: int, beta_over_alpha: float) -> float:
    """The common factor 2 - 3*alpha - beta; every cable has length half of it.

    For the harmonic family this collapses to 2*(1 - eps_s) exactly, and the
    expm1-based 1 - eps_s keeps cable tangents relatively accurate deep in
    the tail where eps_s is close to 1.
    """
    if beta_over_alpha == HARMONIC_RATIO:
        return 2.0 * seq.one_minus_eps(s)
    return 2.0 * seq.one_minus_eps(s) + seq.eps(s) * (0.2 - 0.6 * beta_over_alpha)


#: Unit-scale direction of each cable slot (scaled by the common factor).
_SLOT_DIRS = np.array([[SQRT3 / 4.0, 0.25], [SQRT3 / 4.0, -0.25], [0.0, -0.5]])
_SLOT_DIRS.flags.writeable = False


def _cable_stack(seq: ParamSeq, generations, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """Starts and velocities, each (G, 3, 2), of the cables of G generations.

    Row g holds the three cables of generation ``generations[g]`` in slot
    order, in local cell coordinates, as ``cable_segments`` gives them.
    """
    generations = list(generations)
    alpha, beta = np.array([_alpha_beta(seq.eps(s), beta_over_alpha) for s in generations]).reshape(-1, 2).T
    scale = np.array([_cable_scale_seq(seq, s, beta_over_alpha) for s in generations])
    # Slot starts: F_1(B), F_1(C), F_2(C); ends follow from the common direction.
    half = alpha * SQRT3 / 2.0
    starts = np.stack([half, beta / 2.0, half, -beta / 2.0, SQRT3 * (2.0 - alpha + beta) / 4.0, scale / 4.0], axis=-1)
    return starts.reshape(-1, 3, 2), scale[:, None, None] * _SLOT_DIRS


def _cable_ends(seq: ParamSeq, generations, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """Points and tangents, each (G, 6, 2), of the cable ends of G generations.

    Column e = 2 (slot - 1) + t of row g: the end t of the slot's cable of
    generation ``generations[g]`` in local cell coordinates, its start
    (t = 0) or start + velocity (t = 1) as ``cable_segments`` has them, and
    the cable's velocity.
    """
    starts, vels = _cable_stack(seq, generations, beta_over_alpha)
    return np.stack([starts, starts + vels], axis=2).reshape(-1, 6, 2), np.repeat(vels, 2, axis=1)


def cable_segments(seq: ParamSeq, s: int, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[np.ndarray, np.ndarray]:
    """The three generation-s cables in local cell coordinates: one generation of ``_cable_stack``.

    Returns (starts, vels), each (3, 2) in slot order; the cable of slot
    k runs over starts[k - 1] + t vels[k - 1], t in [0, 1].  Slot 1 runs
    from F^s_1(B) to F^s_2(A), slot 2 from F^s_1(C) to F^s_3(A), slot 3
    from F^s_2(C) to F^s_3(B); each has length 1 - eps_s for the harmonic
    family.  The velocity is exact rather than an endpoint difference, which
    would lose low bits on short cables far from the origin.  A
    depth-(s-1) prefix map carries them into the pre-fractal.
    """
    (starts,), (vels,) = _cable_stack(seq, (s,), beta_over_alpha)
    return starts, vels


def triangle_edge_prefactor(seq: ParamSeq, l: int) -> float:
    """Weight a / lam_tilde(l) carried by every depth-l triangle edge, a = ``params.A``."""
    return _quotient(A, seq.lam_tilde(l), f"triangle edge prefactor at depth {l}")


def _quotient(num, den, what: str):
    """num / den; a denominator that underflowed to 0.0 (products of tiny
    eps^2) or is not finite raises PrefactorUnderflow naming ``what``."""
    if den == 0.0 or not math.isfinite(den):
        raise PrefactorUnderflow(f"{what}: denominator {float(den)!r} underflows or is not finite")
    return num / den


def cable_prefactor(seq: ParamSeq, s: int, l: int) -> float:
    """Weight of a generation-s cable inside the depth-l energy form.

    b = a = ``params.A`` over the cell renormalization lam_tilde(s-1), the
    window product eps_tilde(s, l) and the cable length 1 - eps_s.
    """
    den = seq.lam_tilde(s - 1) * seq.eps_tilde(s, l) * seq.one_minus_eps(s)
    return _quotient(A, den, f"generation-{s} cable prefactor at depth {l}")


def cable_prefactor_limit(seq: ParamSeq, s: int) -> float:
    """Limit weight of a generation-s cable: window product taken to infinity."""
    den = seq.lam_tilde(s - 1) * seq.eps_tilde_inf(s) * seq.one_minus_eps(s)
    return _quotient(A, den, f"generation-{s} cable prefactor at depth infinity")


def _side_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Start corners and velocities of the base sides, in SIDE_NAMES order."""
    corners = np.stack(base_vertices())
    return corners[_SIDE_FROM], corners[_SIDE_TO] - corners[_SIDE_FROM]


def _world(seq: ParamSeq, l: int, beta_over_alpha: float = HARMONIC_RATIO):
    """The depth-l pre-fractal in world coordinates: (corners, sides, cables).

    ``corners`` (3^l, 3, 2) holds F_w(A), F_w(B), F_w(C) in word order,
    ``sides`` (3^l, 3, 2) the world velocities of the sides in SIDE_NAMES
    order, and ``cables`` for each generation s = 1..l the (starts, ends,
    velocities) of its cables, each (3^(s-1), 3, 2) in (prefix, slot)
    order.  Every point and tangent is one ``_images`` matvec of its
    word's ``word_table`` row.
    """
    lin, off = word_table(seq, l, beta_over_alpha)
    corners = _images(lin, np.stack(base_vertices())) + off[:, None]
    cables = []
    for s, p, v in zip(range(1, l + 1), *_cable_stack(seq, range(1, l + 1), beta_over_alpha)):
        plin, poff = word_table(seq, s - 1, beta_over_alpha)
        # Starts, ends p + v (as cable_segments has them) and velocities in one matvec.
        images = _images(plin, np.concatenate([p, p + v, v]))
        cables.append((images[:, :3] + poff[:, None], images[:, 3:6] + poff[:, None], images[:, 6:]))
    return corners, _images(lin, _side_arrays()[1]), cables


def prefractal_edges(seq: ParamSeq, l: int) -> np.recarray:
    """All edges of the depth-l pre-fractal in world coordinates, a row per edge.

    3 * 3^l triangle edges, then the cables of generations 1..l
    (3 * (3^l - 1) / 2 of them), in canonical order: triangle edges
    lexicographic in (word, side), then generations in increasing order,
    lexicographic in (prefix, slot).  Columns: ``generation`` (0 for a
    triangle edge, s for a generation-s cable), ``word`` (lexicographic
    index of the cell word, or of the cable prefix among the depth-(s-1)
    words), ``slot`` (position 0..2 of the side in SIDE_NAMES, or the cable
    slot 1..3), the energy ``prefactor`` of the edge in the depth-l form,
    its world start ``px``, ``py``, end ``qx``, ``qy`` and velocity ``vx``,
    ``vy``.  Depths outside ``word_table``'s range raise as it does.
    """
    tri_pf = triangle_edge_prefactor(seq, l)
    corners, sides, cables = _world(seq, l)
    sizes = 3 * np.array([len(corners)] + [len(starts) for starts, _, _ in cables])
    word = np.concatenate([np.arange(n // 3).repeat(3) for n in sizes])
    slot = np.concatenate([np.tile(np.arange(3) + (s > 0), n // 3) for s, n in enumerate(sizes)])
    pf = np.repeat([tri_pf] + [cable_prefactor(seq, s, l) for s in range(1, l + 1)], sizes)
    tri = (corners[:, _SIDE_FROM], corners[:, _SIDE_TO], sides)
    p, q, v = (np.concatenate([a.reshape(-1, 2) for a in arrs]) for arrs in zip(tri, *cables))
    columns = [np.repeat(np.arange(l + 1), sizes), word, slot, pf, *p.T, *q.T, *v.T]
    return np.rec.fromarrays(columns, names="generation,word,slot,prefactor,px,py,qx,qy,vx,vy")
