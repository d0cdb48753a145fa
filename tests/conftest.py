"""Shared fixtures: the three stretch regimes used across the suite."""

import numpy as np
import pytest

from stretched_gasket import ExpTail, ParamSeq

#: Constant sequence (no infinite tail product; finite-depth only).
CONSTANT_HALF = ParamSeq.constant(0.5)
#: Explicit prefix followed by a fast exponential tail (positive product).
PREFIX_EXP = ParamSeq(prefix=(0.9, 0.8, 0.7), tail=ExpTail(0.05, 0.5))
#: Pure exponential tail (positive product).
TAIL_ONLY = ParamSeq(prefix=(), tail=ExpTail(0.1, 0.5))

ALL_REGIMES = (CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY)
LIMIT_REGIMES = (PREFIX_EXP, TAIL_ONLY)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=ALL_REGIMES, ids=["const-half", "prefix-exp", "tail-only"])
def regime(request):
    return request.param


@pytest.fixture(params=LIMIT_REGIMES, ids=["prefix-exp", "tail-only"])
def limit_regime(request):
    return request.param


def random_poly(rng, max_degree: int):
    """Random polynomial with coefficients in [-1, 1] up to max_degree."""
    from stretched_gasket import Poly2

    coeffs = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            coeffs[(i, j)] = float(rng.uniform(-1.0, 1.0))
    return Poly2(coeffs)


def admissible(q):
    """q minus its affine interpolant at A, B, C: vanishes at the corners, not along the sides."""
    from stretched_gasket import affine, base_vertices, corner_values

    pts = np.stack(base_vertices())
    coeffs = np.linalg.solve(np.column_stack([np.ones(3), pts]), np.array(corner_values(q)))
    return q - affine(*coeffs)
