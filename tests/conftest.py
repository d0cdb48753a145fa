"""Shared fixtures: the three stretch regimes used across the suite."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from stretched_gasket import ExpTail, ParamSeq, geometry, kusuoka

#: Constant sequence (no infinite tail product; finite-depth only).
CONSTANT_HALF = ParamSeq.constant(0.5)
#: Explicit prefix followed by a fast exponential tail (positive product).
PREFIX_EXP = ParamSeq(prefix=(0.9, 0.8, 0.7), tail=ExpTail(0.05, 0.5))
#: Pure exponential tail (positive product).
TAIL_ONLY = ParamSeq(prefix=(), tail=ExpTail(0.1, 0.5))

ALL_REGIMES = (CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY)
LIMIT_REGIMES = (PREFIX_EXP, TAIL_ONLY)

#: Prefix values anywhere in (0, 1), with two near-degenerate ones always
#: drawable: 1e-3 (a level near 0) and 1 - 1e-12 (cables 1e-12 long).
PREFIX_EPS = st.one_of(st.sampled_from([1e-3, 1.0 - 1e-12]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
#: Sequences for the property tests: up to three such prefix values, then an exponential tail.
SEQUENCES = st.builds(
    ParamSeq,
    prefix=st.lists(PREFIX_EPS, max_size=3).map(tuple),
    tail=st.builds(ExpTail, c=st.floats(1e-6, 5.0), r=st.floats(0.05, 0.99)),
)
#: Both near-degenerate prefix values and the slowest tail.
EDGE_SEQ = ParamSeq(prefix=(1.0 - 1e-12, 1e-3), tail=ExpTail(1e-6, 0.99))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=ALL_REGIMES, ids=["const-half", "prefix-exp", "tail-only"])
def regime(request):
    return request.param


@pytest.fixture(params=LIMIT_REGIMES, ids=["prefix-exp", "tail-only"])
def limit_regime(request):
    return request.param


def cold_peak(fn) -> int:
    """tracemalloc peak of fn() with the map and cylinder tables built inside it."""
    geometry.word_table.cache_clear()
    kusuoka._scaled_linears.cache_clear()
    kusuoka.kappa_table.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
