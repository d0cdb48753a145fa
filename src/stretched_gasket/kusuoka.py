"""Transfer operator on symmetric matrices and the induced measures.

The level operator at stretch eps sends a symmetric 2x2 matrix A to
sum_i T_i^t A T_i over the three contraction linear parts of the
harmonic family.  Its dominant eigenpair is (lam, Q) with lam = (3/5)
eps^2 and Q proportional to the identity; trace normalization tr Q = 2
fixes the eigenmatrix.  Its
Hilbert-Schmidt adjoint conjugates the other way round, T_i M T_i^t; the
adjoint route to the cylinder matrices is a test oracle
(``tests/oracles.py``), checked against the closed form below.

Cylinder matrices tau([w]) = DF_w (Id/2) DF_w^t / lam_tilde(l) define
the gasket-part matrix measure; their traces kappa([w]) form a
probability vector on each level, consistent under refinement.  They
take no sequence: T_i / sqrt(lam_k) = sqrt(3/5) B_i at every level, with
B_1 = diag(1, 1/3) and B_2, B_3 = [[1/2, +-sqrt3/6], [+-sqrt3/6, 5/6]], so
tau([w]) = (1/2) (3/5)^l P_w P_w^t for P_w = B_{w_1} ... B_{w_l}; the B_i
have singular values 1 and 1/3, so kappa([w]) >= 15^-l.  kappa has one
route, tau11 + tau22 of the rounded tau_w.  Its 3-ulp accuracy to depth 8
needs numpy's longdouble to be x87 80-bit (x86-64 Linux, CI's only
platform); as plain double the products round at every level.  Cables
carry rank-one matrix masses aligned with their mapped tangents:
``cable_masses`` gives a generation's masses and unit directions as
arrays, ``cable_mass`` one cable as a ``CableMass``.  The combined
measure evaluates energies of scalar fields without assembling edge
sums, which cross-checks the assembled forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import _fsum, _moment_terms, resolve_quadrature
from .errors import DegenerateCable, TermOverflow
from .geometry import (
    DEFAULT_DEPTH_CAP,
    _images,
    _quotient,
    _require_depth,
    _triple_index,
    barycenter,
    cable_prefactor_limit,
    cable_segments,
    compose,
    triple,
    word_table,
)
from .params import DEFAULT_CONSTANTS, Constants, ParamSeq
from .scalarfield import Poly2, grad_batch

#: Orthonormal basis of symmetric 2x2 matrices under the Frobenius inner product.
SYM_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
)
for _m in SYM_BASIS:
    _m.flags.writeable = False

#: The level factors B_1, B_2, B_3 in longdouble, built entrywise (B_2, B_3 exact mirror images).
_ROOT, _THIRD, _FIVE_SIXTHS = np.sqrt(np.longdouble(3)) / 6, np.longdouble(1) / 3, np.longdouble(5) / 6
_LEVEL_FACTORS = np.array([[[1, 0], [0, _THIRD]], [[0.5, _ROOT], [_ROOT, _FIVE_SIXTHS]], [[0.5, -_ROOT], [-_ROOT, _FIVE_SIXTHS]]])
_LEVEL_FACTORS.flags.writeable = False

#: Convergence tolerance and iteration cap of the Perron power iteration.
PERRON_RTOL = 1e-14
PERRON_MAX_ITER = 10_000


def sym3(mat: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in SYM_BASIS."""
    return np.array([mat[0, 0], math.sqrt(2.0) * mat[0, 1], mat[1, 1]])


def unsym3(vec: np.ndarray) -> np.ndarray:
    off = vec[1] / math.sqrt(2.0)
    return np.array([[vec[0], off], [off, vec[2]]])


def _require_symmetric(mat: np.ndarray, tol: float = 1e-12):
    if mat.shape != (2, 2) or abs(mat[0, 1] - mat[1, 0]) > tol * (1.0 + abs(mat[0, 1])):
        raise ValueError("operator input must be a symmetric 2x2 matrix")


def ruelle_apply(eps: float, mat: np.ndarray) -> np.ndarray:
    """One application of the level operator: sum of T_i^t mat T_i."""
    _require_symmetric(mat)
    out = np.zeros((2, 2))
    for f in triple(eps):
        t = f.linear
        out += t.T @ mat @ t
    return 0.5 * (out + out.T)


def sym_operator3(eps: float) -> np.ndarray:
    """3x3 matrix of the level operator in SYM_BASIS."""
    cols = [sym3(ruelle_apply(eps, b)) for b in SYM_BASIS]
    return np.stack(cols, axis=1)


def _perron_iteration(eps):
    q = np.eye(2)  # trace 2 is maintained by the renormalization below
    for it in range(1, PERRON_MAX_ITER + 1):
        nxt = ruelle_apply(eps, q)
        tr = float(np.trace(nxt))
        lam = tr / 2.0
        nxt = nxt * _quotient(2.0, tr, f"trace of power iterate {it}")
        if float(np.max(np.abs(nxt - q))) <= PERRON_RTOL * float(np.max(np.abs(nxt))):
            return lam, nxt, it
        q = nxt
    raise ArithmeticError(f"no eigenpair convergence within {PERRON_MAX_ITER} iterations")


def perron(eps: float) -> tuple[float, np.ndarray]:
    """Dominant eigenpair (lam, Q) of the level operator, tr Q = 2.

    Power iteration on symmetric matrices starting from the identity;
    converged when the relative change of the normalized iterate drops
    below PERRON_RTOL.  Raises past PERRON_MAX_ITER iterations.
    """
    lam, q, _ = _perron_iteration(eps)
    return lam, q


def perron_report(eps: float) -> dict:
    """Eigenpair plus diagnostics: eigen-residual and iteration count."""
    lam, q, iters = _perron_iteration(eps)
    resid = ruelle_apply(eps, q) - lam * q
    return {
        "eps": eps,
        "lambda": lam,
        "q": [[q[0, 0], q[0, 1]], [q[1, 0], q[1, 1]]],
        "residual": float(np.sqrt(np.sum(resid * resid))),
        "iterations": iters,
    }


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


@functools.lru_cache(maxsize=DEFAULT_DEPTH_CAP + 1)
def _scaled_linears(l: int) -> np.ndarray:
    """Products P_w of the level factors for all length-l words, lexicographic,
    multiplied in longdouble and rounded once (one letter at a time, the
    deepest level straight into doubles, to bound the transient memory)."""
    _require_depth(l)
    out = np.eye(2, dtype=np.longdouble)[None, :, :]
    for k in range(1, l + 1):
        new = np.empty((len(out), 3, 2, 2), np.float64 if k == l else np.longdouble)
        for i, factor in enumerate(_LEVEL_FACTORS):
            new[:, i] = _product2(out, factor)
        out = new.reshape(-1, 2, 2)
    out = np.asarray(out, np.float64)
    out.flags.writeable = False
    return out


def gibbs_tau(word: tuple[int, ...]) -> CylinderMass:
    """Cylinder mass (1/2) (3/5)^l P_w P_w^t of a word of any length, from its l factors.

    The empty word gives tau = Id/2, kappa = 1: each level is a probability vector."""
    # The arithmetic of _scaled_linears and tau_table: the tau_table row's bits.
    m = np.eye(2, dtype=np.longdouble)
    for letter in word:
        m = _product2(m, _LEVEL_FACTORS[_triple_index(letter)])
    m = m.astype(np.float64)
    tau = _level_scale(len(word)) * _product2(m, m.T)
    return CylinderMass(word, tau, float(_trace(tau)))


def kappa(word: tuple[int, ...]) -> float:
    """Cylinder mass kappa([word]) = tr tau([word])."""
    return gibbs_tau(word).kappa


@functools.lru_cache(maxsize=DEFAULT_DEPTH_CAP + 1)
def kappa_table(l: int) -> np.ndarray:
    """All level-l cylinder masses, the traces of the ``tau_table`` rows.  Sums to 1."""
    out = _trace(tau_table(l))
    out.flags.writeable = False
    return out


def tau_table(l: int) -> np.ndarray:
    """All level-l cylinder matrices, (3^l, 2, 2), lexicographic."""
    mats = _scaled_linears(l)
    return _level_scale(l) * _product2(mats, mats.swapaxes(1, 2))


def cable_mass(
    seq: ParamSeq,
    prefix: tuple[int, ...],
    s: int,
    slot: int,
    constants: Constants = DEFAULT_CONSTANTS,
) -> CableMass:
    """Limit-measure matrix mass of the generation-s cable at (prefix, slot)."""
    if len(prefix) != s - 1:
        raise ValueError(f"prefix length {len(prefix)} does not match generation {s}")
    if seq.one_minus_eps(s) == 0.0:
        raise DegenerateCable(f"eps_{s} = 1: cable has zero length")
    seg = cable_segments(seq, s)[_triple_index(slot, "cable slot")]
    vel = compose(seq, prefix).linear @ seg.velocity
    nrm2 = float(vel @ vel)
    mass = cable_prefactor_limit(seq, s, constants) * nrm2
    direction = vel / math.sqrt(nrm2)
    return CableMass(prefix, s, slot, mass, direction, np.outer(direction, direction))


def cable_masses(
    seq: ParamSeq,
    s: int,
    constants: Constants = DEFAULT_CONSTANTS,
) -> tuple[np.ndarray, np.ndarray]:
    """All generation-s cable masses and unit directions, (3^s,) and (3^s, 2).

    Rows run lexicographic in (prefix, slot), prefix over the depth-(s-1)
    words.  Row i carries the rank-one density d d^t of ``directions[i]``.
    """
    lin, _ = word_table(seq, s - 1)
    if seq.one_minus_eps(s) == 0.0:
        raise DegenerateCable(f"eps_{s} = 1: cables have zero length")
    vel = np.stack([sg.velocity for sg in cable_segments(seq, s)])
    # Stacked products round as the single products of cable_mass do.
    world = _images(lin, vel).reshape(-1, 2)
    nrm2 = (world[:, None] @ world[..., None]).ravel()
    return cable_prefactor_limit(seq, s, constants) * nrm2, world / np.sqrt(nrm2)[:, None]


def total_cable_mass(seq: ParamSeq, s_max: int, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Mass of all cables of generations 1..s_max."""
    return math.fsum(m for s in range(1, s_max + 1) for m in cable_masses(seq, s, constants)[0].tolist())


def energy_via_measure(
    seq: ParamSeq,
    u: Poly2,
    v: Poly2,
    depth: int,
    quad=None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """Energy straight from the measure data at one resolution.

    Gasket part: cylinder matrices paired with the gradients at cell
    barycenters, over all depth-level words.  Cable part: exact line
    quadrature of the rank-one masses against the gradients, generations
    up to the depth, limit window weights (the energy module's moment
    pass).  A gasket product past the double range raises TermOverflow.
    For affine fields the gasket part is exactly (grad u, (Id/2) grad v),
    independent of depth.
    """
    quad = resolve_quadrature(quad, u.degree, v.degree)
    lin, off = word_table(seq, depth)
    centers = lin @ barycenter() + off
    gux, guy = grad_batch(u, centers[:, 0], centers[:, 1])
    gvx, gvy = grad_batch(v, centers[:, 0], centers[:, 1])
    taus = tau_table(depth)
    with np.errstate(over="ignore", invalid="ignore"):
        gasket = (
            taus[:, 0, 0] * gux * gvx
            + taus[:, 0, 1] * (gux * gvy + guy * gvx)
            + taus[:, 1, 1] * guy * gvy
        )
    if not np.isfinite(gasket).all():
        raise TermOverflow("a gasket term of the measure overflows the double range")
    (((_, cables),),) = _moment_terms(seq, (depth,), u, v, quad, constants, limit=True)
    return _fsum(gasket.tolist() + cables)
