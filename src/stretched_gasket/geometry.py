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

The depth-l pre-fractal in world coordinates is one set of arrays
(``_world``): the corners and side velocities of every cell and the
starts, ends and velocities of every generation's cables, each mapped
through its word's row of ``word_table``.  The edge table
(``prefractal_edges``), the vertex stars, the SVG/JSON export and the
tests' edge tableau all gather from it.

The beta/alpha ratio (default 1/3, the harmonic family) is a parameter of
the map primitives here and of the vertex-residual probes in the
harmonicity module, which show that perturbed families break the vertex
balance.  The energy forms, the cylinder measures and the Laplacian are
defined for the harmonic family only: their weights use lam_k = (3/5)
eps_k^2, which is the Perron eigenvalue of the level transfer operator
only at ratio 1/3, so they take no ratio.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DepthCapExceeded, PrefactorUnderflow
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq

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


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[c, -s], [s, c]])
    return m


@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Affine map x -> linear @ x + offset on the plane."""

    linear: np.ndarray
    offset: np.ndarray

    def __call__(self, pt: np.ndarray) -> np.ndarray:
        return self.linear @ pt + self.offset

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        """self o inner."""
        return AffineMap2(self.linear @ inner.linear, self.linear @ inner.offset + self.offset)

    @staticmethod
    def identity() -> "AffineMap2":
        return AffineMap2(np.eye(2), np.zeros(2))


@dataclass(frozen=True, eq=False)
class Segment:
    """Straight segment parametrized affinely over t in [0,1].

    ``vel`` optionally pins the exact tangent; endpoint subtraction loses
    low bits when the segment is much shorter than its distance from the
    origin, which matters for near-degenerate cables.
    """

    p: np.ndarray
    q: np.ndarray
    vel: np.ndarray | None = None

    @property
    def velocity(self) -> np.ndarray:
        return self.vel if self.vel is not None else self.q - self.p

    def point(self, t: float) -> np.ndarray:
        return self.p + t * (self.q - self.p)

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.q - self.p)))


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
    f1 = AffineMap2(t1, np.zeros(2))
    f2 = AffineMap2(t2, _B - t2 @ _B)
    f3 = AffineMap2(t3, _C - t3 @ _C)
    for f in (f1, f2, f3):
        f.linear.flags.writeable = False
        f.offset.flags.writeable = False
    return f1, f2, f3


def triple(eps: float, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[AffineMap2, AffineMap2, AffineMap2]:
    """The level maps (F_1, F_2, F_3) for one stretching value.

    eps = 1 is accepted: it gives the harmonic-gasket maps, where cables
    degenerate to points and neighbouring cells touch.
    """
    return _triple_cached(float(eps), float(beta_over_alpha))


def iter_words(l: int) -> Iterator[tuple[int, ...]]:
    """All words of length l in lexicographic order."""
    return itertools.product((1, 2, 3), repeat=l)


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


def compose(seq: ParamSeq, word: tuple[int, ...], beta_over_alpha: float = HARMONIC_RATIO) -> AffineMap2:
    """F_w for a word w, position k using the level-k triple."""
    out = AffineMap2.identity()
    for k, letter in enumerate(word, start=1):
        out = out.compose(triple(seq.eps(k), beta_over_alpha)[_triple_index(letter)])
    return out


def word_point(seq: ParamSeq, word: tuple[int, ...], beta_over_alpha: float = HARMONIC_RATIO) -> np.ndarray:
    """Representative point of a cylinder cell: image of the barycenter."""
    return compose(seq, word, beta_over_alpha)(_BARYCENTER)


def _images(lin: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """lin[n] @ vecs[k] for every n, k: (N, K, 2).

    One stacked matvec each, which rounds as ``AffineMap2`` does: rows of
    ``word_table`` map points and tangents exactly as ``compose`` maps do.
    """
    return (lin[:, None] @ vecs[..., None])[..., 0]


def _require_depth(l: int) -> None:
    """Refuse a depth below 0 (ValueError) or past the cap (DepthCapExceeded)."""
    if l < 0:
        raise ValueError(f"depth must be >= 0, got {l}")
    if l > DEFAULT_DEPTH_CAP:
        raise DepthCapExceeded(f"depth {l} exceeds cap {DEFAULT_DEPTH_CAP}")


@functools.lru_cache(maxsize=64)
def word_table(seq: ParamSeq, l: int, beta_over_alpha: float = HARMONIC_RATIO):
    """Batched affine parts of all depth-l compositions, in word order.

    Returns (lin, off): arrays of shape (3^l, 2, 2) and (3^l, 2) such that
    row word_index(w) holds the linear part and offset of F_w.  Arrays are
    read-only; callers must copy before mutating.
    """
    _require_depth(l)
    lin = np.eye(2)[None, :, :].copy()
    off = np.zeros((1, 2))
    for k in range(1, l + 1):
        maps = triple(seq.eps(k), beta_over_alpha)
        tk = np.stack([m.linear for m in maps])  # (3,2,2)
        ok = np.stack([m.offset for m in maps])  # (3,2)
        # Stacked matmuls round as AffineMap2.compose does, so every row
        # is bit-identical to compose(seq, w).
        new_lin = (lin[:, None] @ tk).reshape(-1, 2, 2)
        new_off = (_images(lin, ok) + off[:, None, :]).reshape(-1, 2)
        lin, off = new_lin, new_off
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


def cable_segments(seq: ParamSeq, s: int, beta_over_alpha: float = HARMONIC_RATIO) -> tuple[Segment, Segment, Segment]:
    """The three generation-s cables in local cell coordinates.

    Slot 1 runs from F^s_1(B) to F^s_2(A), slot 2 from F^s_1(C) to
    F^s_3(A), slot 3 from F^s_2(C) to F^s_3(B); each has length
    1 - eps_s for the harmonic family.  A depth-(s-1) prefix map carries
    them into the pre-fractal.
    """
    (starts,), (vels,) = _cable_stack(seq, (s,), beta_over_alpha)
    return tuple(Segment(p, p + v, vel=v) for p, v in zip(starts, vels))


def triangle_edge_prefactor(seq: ParamSeq, l: int, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Weight a / lam_tilde(l) carried by every depth-l triangle edge."""
    return _quotient(constants.a, seq.lam_tilde(l), f"triangle edge prefactor at depth {l}")


def _quotient(num, den, what: str):
    """num / den; a denominator that underflowed to 0.0 (products of tiny
    eps^2) or is not finite raises PrefactorUnderflow naming ``what``."""
    if den == 0.0 or not math.isfinite(den):
        raise PrefactorUnderflow(f"{what}: denominator {float(den)!r} underflows or is not finite")
    return num / den


def cable_prefactor(seq: ParamSeq, s: int, l: int, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Weight of a generation-s cable inside the depth-l energy form.

    Combines the cell renormalization lam_tilde(s-1), the window product
    eps_tilde(s, l) and the cable length 1 - eps_s.
    """
    den = seq.lam_tilde(s - 1) * seq.eps_tilde(s, l) * seq.one_minus_eps(s)
    return _quotient(constants.b, den, f"generation-{s} cable prefactor at depth {l}")


def cable_prefactor_limit(seq: ParamSeq, s: int, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Limit weight of a generation-s cable: window product taken to infinity."""
    den = seq.lam_tilde(s - 1) * seq.eps_tilde_inf(s) * seq.one_minus_eps(s)
    return _quotient(constants.b, den, f"generation-{s} cable prefactor at depth infinity")


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
    order.  Every point and tangent is one ``_images`` matvec, so it rounds
    as the ``AffineMap2`` of its word maps it.
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


def prefractal_edges(seq: ParamSeq, l: int, constants: Constants = DEFAULT_CONSTANTS) -> np.recarray:
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
    tri_pf = triangle_edge_prefactor(seq, l, constants)
    corners, sides, cables = _world(seq, l)
    sizes = 3 * np.array([len(corners)] + [len(starts) for starts, _, _ in cables])
    word = np.concatenate([np.arange(n // 3).repeat(3) for n in sizes])
    slot = np.concatenate([np.tile(np.arange(3) + (s > 0), n // 3) for s, n in enumerate(sizes)])
    pf = np.repeat([tri_pf] + [cable_prefactor(seq, s, l, constants) for s in range(1, l + 1)], sizes)
    tri = (corners[:, _SIDE_FROM], corners[:, _SIDE_TO], sides)
    p, q, v = (np.concatenate([a.reshape(-1, 2) for a in arrs]) for arrs in zip(tri, *cables))
    columns = [np.repeat(np.arange(l + 1), sizes), word, slot, pf, *p.T, *q.T, *v.T]
    return np.rec.fromarrays(columns, names="generation,word,slot,prefactor,px,py,qx,qy,vx,vy")


def count_edges(l: int) -> tuple[int, int]:
    """(triangle edges, cables) of the depth-l pre-fractal."""
    return 3 * 3**l, 3 * (3**l - 1) // 2
