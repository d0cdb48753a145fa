"""Transfer operator on symmetric matrices and the induced measures.

The level operator at stretch eps sends a symmetric 2x2 matrix A to
sum_i T_i^t A T_i over the three contraction linear parts of the
harmonic family.  Its dominant eigenpair is (lam, Q) with lam = (3/5)
eps^2 and Q proportional to the identity, since sum_i T_i^t T_i =
(3/5) eps^2 Id; trace normalization tr Q = 2 fixes the eigenmatrix, and
``perron`` returns the pair in closed form (a power iteration from the
identity is its test oracle).  Its Hilbert-Schmidt adjoint, T_i M T_i^t,
gives the cylinder matrices by a test oracle (``tests/oracles.py``).

Cylinder matrices tau([w]) = DF_w (Id/2) DF_w^t / lam_tilde(l) define
the gasket-part matrix measure; their traces kappa([w]) form a
probability vector on each level, consistent under refinement.  They
take no sequence: T_i / sqrt(lam_k) = sqrt(3/5) B_i at every level, with
B_1 = diag(1, 1/3) and B_2, B_3 = [[1/2, +-sqrt3/6], [+-sqrt3/6, 5/6]], so
tau([w]) = (1/2) (3/5)^l P_w P_w^t for P_w = B_{w_1} ... B_{w_l}; the B_i
have singular values 1 and 1/3, so kappa([w]) >= 15^-l.  ``tau_table``
gives any row range of a level with the whole table's bits, multiplying
only the range's ancestors.  A whole level's products are multiplied once
per process and cached (``_scaled_linears``): a whole ``tau_table`` and
``kappa_table`` both read them, in either order.  kappa has one route,
tau11 + tau22 of the rounded tau_w.  Its 3-ulp accuracy to depth 8 needs
numpy's longdouble to be x87 80-bit (x86-64 Linux, CI's only platform);
as plain double the products round at every level.  Cables carry rank-one matrix masses
aligned with their mapped tangents: ``cable_masses`` gives a
generation's masses and unit directions as arrays, ``cable_mass`` one
cable as a ``CableMass``.

The combined measure evaluates energies of scalar fields without edge
sums, a cross-check of the assembled forms.  Its gasket half,
sum_w tr(tau_w G(F_w b)) over the depth-l cells with G = sym(grad u
grad v^t), is (1/2) (3/5)^l tr H_l(b) for the energy form's level chain
H_k(x) = sum_i B_i H_(k-1)(F^k_i x) B_i, H_0 = G (``energy._moment_terms``,
its "gasket" readout), so it costs O(l), enumerates no cell and keeps no
level loop here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .energy import _fsum, _moment_terms, _quad_slot
from .errors import DegenerateCable, PrefactorUnderflow
from .geometry import (
    DEFAULT_DEPTH_CAP,
    _LEVEL_FACTORS,
    _ancestors,
    _cable_stack,
    _images,
    _ranges,
    _require_depth,
    _triple_index,
    _word_rows,
    cable_prefactor_limit,
    compose,
    triple,
    word_index,
)
from .params import ParamSeq
from .scalarfield import Poly2


def _require_symmetric(mat: np.ndarray, tol: float = 1e-12):
    if mat.shape != (2, 2) or abs(mat[0, 1] - mat[1, 0]) > tol * (1.0 + abs(mat[0, 1])):
        raise ValueError("operator input must be a symmetric 2x2 matrix")


def ruelle_apply(eps: float, mat: np.ndarray) -> np.ndarray:
    """One application of the level operator: sum of T_i^t mat T_i."""
    _require_symmetric(mat)
    out = np.zeros((2, 2))
    for t in triple(eps)[0]:
        out += t.T @ mat @ t
    return 0.5 * (out + out.T)


def perron(eps: float) -> tuple[float, np.ndarray]:
    """Dominant eigenpair (lam, Q) of the level operator, tr Q = 2, in closed form.

    The harmonic triple has sum_i T_i^t T_i = (3/5) eps^2 Id, so (lam, Q) =
    ((3/5) eps^2, Id), lam rounded as ``ParamSeq.lam`` rounds it.  eps is
    checked as ``triple`` checks it; a lam that underflows to 0.0 raises
    PrefactorUnderflow.
    """
    triple(eps)
    lam = 0.6 * eps * eps
    if lam == 0.0:
        raise PrefactorUnderflow(f"Perron eigenvalue (3/5) eps^2 at eps = {eps!r}: denominator 0.0 underflows")
    return lam, np.eye(2)


def perron_report(eps: float) -> dict:
    """Eigenpair plus its eigen-residual |ruelle_apply(eps, Q) - lam Q|_F."""
    lam, q = perron(eps)
    resid = ruelle_apply(eps, q) - lam * q
    return {"eps": eps, "lambda": lam, "q": q.tolist(), "residual": float(np.sqrt(np.sum(resid * resid)))}


# -- cylinder matrices and masses ------------------------------------------


@dataclass(frozen=True)
class CylinderMass:
    """Matrix mass of one word cell: tau symmetric PSD, kappa = tr tau."""

    word: tuple[int, ...]
    tau: np.ndarray
    kappa: float


@dataclass(frozen=True)
class CableMass:
    """Rank-one matrix mass of one cable of the limit measure.

    ``direction`` is the unit tangent of the mapped cable, ``projection``
    the rank-one projector onto it, ``mass`` the total (trace) mass.
    """

    prefix: tuple[int, ...]
    generation: int
    slot: int
    mass: float
    direction: np.ndarray
    projection: np.ndarray


def _product2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast 2x2 products a @ b as the explicit sum (0.0 + a_0 b_0) + a_1 b_1.

    The leading 0.0 + is einsum's zero-initialised accumulation (it turns
    a -0.0 product into +0.0), so every entry is bit-identical to
    np.einsum("...ab,...bc->...ac", a, b); ``tests/oracles.py`` keeps that
    formulation.
    """
    return (0.0 + a[..., :, 0, None] * b[..., None, 0, :]) + a[..., :, 1, None] * b[..., None, 1, :]


def _level_scale(l: int) -> float:
    """(1/2) (3/5)^l, correctly rounded (one integer quotient)."""
    return 3**l / (2 * 5**l)


def _trace(taus: np.ndarray) -> np.ndarray:
    """kappa = tau11 + tau22 of stacked cylinder matrices (..., 2, 2): kappa's one route."""
    return taus[..., 0, 0] + taus[..., 1, 1]


def _small_eigenvalues(taus: np.ndarray, l: int) -> np.ndarray:
    """Smaller eigenvalues of level-l cylinder matrices, det / (mean + spread), free of the cancellation
    in mean - spread: det tau_w = _level_scale(l)^2 9^-l = 1 / (4 * 25^l) as det B_i = 1/3."""
    spread = np.sqrt((0.5 * (taus[:, 0, 0] - taus[:, 1, 1])) ** 2 + taus[:, 0, 1] ** 2)
    return 1 / (4 * 25**l) / (0.5 * _trace(taus) + spread)


def _linears(l: int, start: int, stop: int) -> np.ndarray:
    """Products P_w of the level factors for the length-l words start..stop-1,
    lexicographic, multiplied in longdouble and rounded once.  Only the
    range's ancestors (``geometry._ancestors``) are multiplied, a level at a
    time, so each row has the bits it has in the whole table and the
    transient memory is set by the range."""
    out, first = np.eye(2, dtype=np.longdouble)[None, :, :], 0
    for first, rows in _ancestors(l, start, stop):
        out = _product2(out[:, None], _LEVEL_FACTORS).reshape(-1, 2, 2)[rows]
    return np.asarray(out[start - first : stop - first], np.float64)


def _products(l: int, start: int, stop: int) -> np.ndarray:
    """The ``_linears`` rows start..stop-1, multiplied a range of ``geometry._ranges`` at a
    time, so the transient memory beyond the result is one range's."""
    out = np.empty((stop - start, 2, 2))
    for a, b in _ranges(stop - start):
        out[a:b] = _linears(l, start + a, start + b)
    return out


@functools.lru_cache(maxsize=DEFAULT_DEPTH_CAP + 1)
def _scaled_linears(l: int) -> np.ndarray:
    """Products P_w of the level factors for all length-l words, read-only: ``_products``' whole range."""
    _require_depth(l)
    out = _products(l, 0, 3**l)
    out.flags.writeable = False
    return out


def _taus(mats: np.ndarray, l: int) -> np.ndarray:
    """Level-l cylinder matrices (1/2) (3/5)^l P_w P_w^t of stacked products ``mats``."""
    return _level_scale(l) * _product2(mats, mats.swapaxes(1, 2))


def gibbs_tau(word: tuple[int, ...]) -> CylinderMass:
    """Cylinder mass (1/2) (3/5)^l P_w P_w^t of a word of any length: its one-row ``_linears``
    read, so it has its ``tau_table`` row's bits and no depth cap.

    The empty word gives tau = Id/2, kappa = 1: each level is a probability vector."""
    i = word_index(word)
    (tau,) = _taus(_linears(len(word), i, i + 1), len(word))
    return CylinderMass(word, tau, float(_trace(tau)))


def kappa(word: tuple[int, ...]) -> float:
    """Cylinder mass kappa([word]) = tr tau([word])."""
    return gibbs_tau(word).kappa


@functools.lru_cache(maxsize=DEFAULT_DEPTH_CAP + 1)
def kappa_table(l: int) -> np.ndarray:
    """All level-l cylinder masses, the traces of the ``tau_table`` rows, formed from the cached
    ``_scaled_linears`` a range of ``geometry._ranges`` at a time.  Sums to 1."""
    _require_depth(l)
    mats = _scaled_linears(l)
    out = np.empty(len(mats))
    for start, stop in _ranges(len(out)):
        out[start:stop] = _trace(_taus(mats[start:stop], l))
    out.flags.writeable = False
    return out


def tau_table(l: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Level-l cylinder matrices of the words start..stop-1 (all 3^l by default),
    (stop - start, 2, 2), lexicographic.  Every row has the same bits whatever
    the range; the whole table comes from the cached ``_scaled_linears``."""
    _require_depth(l)
    n = 3**l
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"row range [{start}, {stop}) is not within the {n} level-{l} words")
    return _taus(_scaled_linears(l) if stop - start == n else _products(l, start, stop), l)


def cable_mass(seq: ParamSeq, prefix: tuple[int, ...], s: int, slot: int) -> CableMass:
    """Limit-measure matrix mass of the generation-s cable at (prefix, slot).

    Its one-row ``cable_masses`` call, so it has that row's bits; a cable that the prefix map
    shrinks until its |v|^2 underflows raises PrefactorUnderflow (``_unit_directions``).
    """
    if len(prefix) != s - 1:
        raise ValueError(f"prefix length {len(prefix)} does not match generation {s}")
    weight = _cable_weight(seq, s)
    k = _triple_index(slot, "cable slot")
    lin, _ = compose(seq, prefix)
    vel = _cable_stack(seq, (s,))[1][0, k : k + 1]
    (nrm2,), (direction,) = _cable_directions(lin[None], vel, s, 3 * word_index(prefix) + k)
    return CableMass(prefix, s, slot, weight * float(nrm2), direction, np.outer(direction, direction))


def _cable_weight(seq: ParamSeq, s: int) -> float:
    """Limit weight of the generation-s cables; DegenerateCable where eps_s = 1, and
    whatever ``cable_prefactor_limit`` refuses (an underflow, a tail without limit)."""
    if seq.one_minus_eps(s) == 0.0:
        raise DegenerateCable(f"eps_{s} = 1: cables have zero length")
    return cable_prefactor_limit(seq, s)


def _unit_directions(world: np.ndarray, nrm2: np.ndarray, s: int, first: int) -> np.ndarray:
    """world / sqrt(nrm2) for mapped generation-s cable velocities (N, 2) with squared lengths
    ``nrm2``, the cables first, first + 1, ... in (prefix, slot) order.  A cable whose |v|^2
    underflowed to 0.0, or whose direction is not finite, raises PrefactorUnderflow naming
    its prefix, slot and generation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        directions = world / np.sqrt(nrm2)[:, None]
    bad = np.flatnonzero(~(nrm2 > 0.0) | ~np.isfinite(directions).all(axis=1))
    if bad.size:
        index, slot = divmod(first + int(bad[0]), 3)
        prefix = "".join(str(index // 3**n % 3 + 1) for n in reversed(range(s - 1))) or "()"
        raise PrefactorUnderflow(
            f"generation-{s} cable at prefix {prefix}, slot {slot + 1}: mapped |v|^2 "
            f"{float(nrm2[bad[0]])!r} underflows or its direction is not finite"
        )
    return directions


def _cable_directions(lin: np.ndarray, vel: np.ndarray, s: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared lengths and unit directions of generation-s cables, the local velocities ``vel``
    (K, 2) mapped by each prefix linear part of ``lin`` (N, 2, 2): the cables first, first + 1,
    ... in (prefix, slot) order, K per prefix, each with the same bits in any table (one
    ``_images`` table); ``_unit_directions`` refuses an underflowed cable."""
    world = _images(lin, vel).reshape(-1, 2)
    nrm2 = (world[:, None] @ world[..., None]).ravel()
    return nrm2, _unit_directions(world, nrm2, s, first)


def cable_masses(seq: ParamSeq, s: int) -> tuple[np.ndarray, np.ndarray]:
    """All generation-s cable masses and unit directions, (3^s,) and (3^s, 2).

    Rows run lexicographic in (prefix, slot), prefix over the depth-(s-1)
    words.  Row i carries the rank-one density d d^t of ``directions[i]``.
    """
    lin, _ = _word_rows(seq, s - 1, 0, 3 ** (s - 1))
    weight = _cable_weight(seq, s)
    nrm2, directions = _cable_directions(lin, _cable_stack(seq, (s,))[1][0], s, 0)
    return weight * nrm2, directions


def _gasket_half(seq: ParamSeq, u: Poly2, v: Poly2, depth: int) -> float:
    """The gasket half of the measure energy, sum_w tr(tau_w G(F_w b)) for G = sym(grad u grad
    v^t): the energy form's level chain read at the barycenter, (1/2) (3/5)^l (h11 + h22)(b), one
    longdouble term rounded once; a value past the double range raises TermOverflow."""
    (((cells, _),),) = _moment_terms(seq, (depth,), u, v, ("gasket",))
    return _fsum(cells)


def energy_via_measure(seq: ParamSeq, u: Poly2, v: Poly2, depth: int, quad=None) -> float:
    """Energy straight from the measure data at one resolution, in O(depth): the gasket half, and
    the cables' rank-one masses against the gradients by exact line integrals with limit window
    weights, in one exact ``math.fsum``.  Both are readouts of the energy form's level chain, which
    the second read takes from the chain cache.  For affine fields the gasket half is (grad u,
    (Id/2) grad v) at every depth.  The cables run first, so that the chain's working-set guard
    refuses a degree before anything is built.  ``quad`` takes None only (``energy._quad_slot``)."""
    _quad_slot(quad)
    _require_depth(depth)
    (((_, cables),),) = _moment_terms(seq, (depth,), u, v, limit=True)
    return _fsum([_gasket_half(seq, u, v, depth), *cables])
