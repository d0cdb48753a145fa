"""The map primitives' BLAS products against their stacked per-row forms, bit for bit.

``geometry._images`` and ``geometry._level_products`` are one 2-D BLAS
product each over the whole (2N, 2) row stack; every entry must keep the
bits of the stacked 2x2 products (``tests/oracles.py``), whatever the row
count, the vector count and the scale of the rows.  A BLAS kernel that
rounds otherwise fails here; CI runs this file under several OpenBLAS core
types.  The per-word routes map their one vector as a one-row ``_images``
table; the object oracle they are held to (``AffineMap2``) maps it with
``lin @ x``, which must round as a row of ``_images``.  The enumerating
routes must keep their bytes when both primitives are replaced by the
stacked forms.
"""

import sys

import numpy as np
import pytest

from stretched_gasket import (
    barycenter,
    base_vertices,
    cable_masses,
    cable_segments,
    energy_via_measure,
    geometry,
    harmonic_report,
    laplacian_samples,
    parse,
    prefractal_edges,
    triple,
    vertex_stars,
)
from stretched_gasket.errors import GasketError
from stretched_gasket.geometry import _images, _level_products

from conftest import ALL_REGIMES, PREFIX_EXP
from oracles import images_stacked, level_products_stacked

ROW_COUNTS = (0, 1, 2, 3, 4, 5, 8, 17, 81, 729, 2187, 3**9)
VECTOR_COUNTS = (1, 2, 3, 6, 9)


def _rows(rng, n: int) -> np.ndarray:
    """n random 2x2 rows, each scaled by a log-uniform factor in [1e-8, 1e8], some entries exactly zero."""
    lin = rng.standard_normal((n, 2, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 1, 1))
    lin[rng.random((n, 2, 2)) < 0.05] = 0.0
    return lin


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_images_equal_the_stacked_matvecs(n, rng):
    lin = _rows(rng, n)
    for k in VECTOR_COUNTS:
        vecs = rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (k, 1))
        got, want = _images(lin, vecs), images_stacked(lin, vecs)
        assert got.shape == want.shape == (n, k, 2)
        assert got.tobytes() == want.tobytes(), (n, k)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_level_products_equal_the_stacked_products(n, rng):
    lin = _rows(rng, n)
    for eps in (1e-3, 0.37, 1.0 - 1e-12):
        for ratio in (1.0 / 3.0, 0.25):
            wide = triple(eps, ratio)[0].transpose(1, 0, 2).reshape(2, 6)
            got, want = _level_products(lin, wide), level_products_stacked(lin, wide)
            assert got.shape == want.shape == (3 * n, 2, 2)
            assert got.tobytes() == want.tobytes(), (n, eps, ratio)


def test_single_row_products_equal_image_rows(rng):
    # The object-fold oracle of word_point, cable_mass and teplyaev maps its one vector
    # with lin @ x; the package routes map it as a one-row _images table.
    starts, vels = cable_segments(PREFIX_EXP, 3)
    vecs = np.concatenate([[barycenter()], np.stack(base_vertices()), vels, starts + 0.5 * vels, rng.standard_normal((20, 2))])
    for lin in _rows(rng, 200):
        for x in vecs:
            assert (lin @ x).tobytes() == _images(lin[None], x[None])[0, 0].tobytes()


def _outcome(fn):
    """fn()'s bytes (a tuple's, or a float's), or the type of what it raised."""
    try:
        value = fn()
    except GasketError as exc:
        return type(exc)
    parts = value if isinstance(value, tuple) else (value,)
    return b"".join(np.asarray(part).tobytes() for part in parts)


ROUTES = {
    "vertex_stars": lambda seq, l: vertex_stars(seq, l),
    "harmonic_report": lambda seq, l: harmonic_report(seq, l).residual,
    "laplacian_samples": lambda seq, l: laplacian_samples(seq, parse("x^3 - 0.7*x*y + y^4"), l),
    "prefractal_edges": lambda seq, l: prefractal_edges(seq, l),
    "cable_masses": lambda seq, l: cable_masses(seq, l + 1),
    "energy_via_measure": lambda seq, l: energy_via_measure(seq, parse("x^2 - 0.5*x*y"), parse("x*y^2"), l),
}


def _route_outputs():
    geometry.word_table.cache_clear()
    return {(name, i, l): _outcome(lambda: route(seq, l)) for name, route in ROUTES.items() for i, seq in enumerate(ALL_REGIMES) for l in range(8)}


def test_routes_keep_their_bytes_on_the_stacked_products(monkeypatch):
    want = _route_outputs()
    modules = [module for name, module in sys.modules.items() if name.startswith("stretched_gasket") and "_images" in vars(module)]
    assert len(modules) >= 4
    for module in modules:
        monkeypatch.setattr(module, "_images", images_stacked)
    monkeypatch.setattr(geometry, "_level_products", level_products_stacked)
    try:
        got = _route_outputs()
    finally:
        geometry.word_table.cache_clear()
    assert got == want
    assert sum(isinstance(v, bytes) for v in got.values()) > len(got) // 2
