import math

import numpy as np
import pytest

from stretched_gasket import (
    Poly2,
    PolyParseError,
    affine,
    base_vertices,
    corner_values,
    parse,
    sup_bounds,
    vanishes_at_corners,
    vanishing_at_ABC,
    vanishing_cubic,
)
from stretched_gasket.scalarfield import (
    _compose_affine,
    _dense,
    compose_with_segment,
    hess_batch,
    to_string,
)

from conftest import random_poly
from oracles import AffineMap2, Segment, grad_batch, poly1_derivative, poly1_eval, restrict


def test_arithmetic_and_degree():
    x = Poly2.variable("x")
    y = Poly2.variable("y")
    p = (x + y) ** 2 - x * x - y * y
    assert p == 2.0 * x * y
    assert p.degree == 2
    assert Poly2.zero().degree == -1
    assert Poly2.const(3.0).degree == 0


def test_powers_are_taken_by_squaring(monkeypatch):
    # One squaring per binary digit of the exponent after the first and one product per
    # set digit: 16 + 6 for 100000, where n successive products took 0.15-0.47 s.
    mul, calls = Poly2.__mul__, []

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(Poly2, "__mul__", counted)
    n = 100_000
    assert parse(f"x^{n}") == Poly2({(n, 0): 1.0})
    assert len(calls) <= 2 * math.ceil(math.log2(n + 1))
    for k in range(12):
        assert parse(f"(2*x - y)^{k}") == Poly2({(m, k - m): math.comb(k, m) * 2.0**m * (-1.0) ** (k - m) for m in range(k + 1)}), k


def test_parser_round_trip(rng):
    for _ in range(20):
        p = random_poly(rng, 4)
        q = parse(to_string(p))
        pt = rng.uniform(-1, 1, size=2)
        assert q.value(*pt) == pytest.approx(p.value(*pt), rel=1e-12, abs=1e-12)


def test_parser_accepts_common_expression_forms():
    samples = {
        "x^2": lambda x, y: x * x,
        "x*y + y^2": lambda x, y: x * y + y * y,
        "1 - 2*x + 3*y": lambda x, y: 1 - 2 * x + 3 * y,
        "-x^3*y": lambda x, y: -(x**3) * y,
        "(x + y)^2": lambda x, y: (x + y) ** 2,
        "2": lambda x, y: 2.0,
        "0.5*x - .25": lambda x, y: 0.5 * x - 0.25,
    }
    for text, ref in samples.items():
        p = parse(text)
        for pt in ((0.3, -0.7), (1.1, 0.2)):
            assert p.value(*pt) == pytest.approx(ref(*pt), rel=1e-14, abs=1e-14)


def test_non_finite_coefficients_are_refused():
    # Unchecked, they reach the forms and samples as inf or NaN.
    for text in ("1e400*x", "-1e400*x^2", "1e200*1e200*x^2 - 1e200*1e200*x^2 + x", "(1e200*x + y)^2"):
        with pytest.raises(ValueError, match="not finite"):
            parse(text)
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            Poly2({(1, 0): c})


def test_parser_error_positions():
    with pytest.raises(PolyParseError) as e:
        parse("x + * y")
    assert e.value.position == 4
    with pytest.raises(PolyParseError):
        parse("x + (y")
    with pytest.raises(PolyParseError):
        parse("z + 1")
    with pytest.raises(PolyParseError):
        parse("x^-2")
    with pytest.raises(PolyParseError):
        parse("")


def test_gradient_and_hessian_match_finite_differences(rng):
    # Central differences: gradient step 1e-5, Hessian step 1e-4.
    for _ in range(50):
        p = random_poly(rng, 4)
        x0, y0 = rng.uniform(-1, 1, size=2)
        at = np.array([x0]), np.array([y0])
        gx, gy = (float(g[0]) for g in grad_batch(p, *at))
        hxx, hxy, hyy = (float(h[0]) for h in hess_batch(p, *at))
        h = 1e-5
        fd_gx = (p.value(x0 + h, y0) - p.value(x0 - h, y0)) / (2 * h)
        fd_gy = (p.value(x0, y0 + h) - p.value(x0, y0 - h)) / (2 * h)
        scale_g = max(1.0, abs(gx), abs(gy))
        assert abs(gx - fd_gx) <= 1e-6 * scale_g
        assert abs(gy - fd_gy) <= 1e-6 * scale_g
        h = 1e-4
        fd_xx = (p.value(x0 + h, y0) - 2 * p.value(x0, y0) + p.value(x0 - h, y0)) / h**2
        fd_yy = (p.value(x0, y0 + h) - 2 * p.value(x0, y0) + p.value(x0, y0 - h)) / h**2
        fd_xy = (
            p.value(x0 + h, y0 + h)
            - p.value(x0 + h, y0 - h)
            - p.value(x0 - h, y0 + h)
            + p.value(x0 - h, y0 - h)
        ) / (4 * h**2)
        scale_h = max(1.0, abs(hxx), abs(hxy), abs(hyy))
        assert abs(hxx - fd_xx) <= 1e-6 * scale_h
        assert abs(hyy - fd_yy) <= 1e-6 * scale_h
        assert abs(hxy - fd_xy) <= 1e-6 * scale_h
        # hess_batch forms one mixed partial, d/dy of d/dx; d/dx of d/dy agrees to rounding.
        assert abs(hxy - p.grad()[1].derivative(0).value(x0, y0)) <= 1e-12 * scale_h


def test_batched_evaluation_matches_scalar(rng):
    p = random_poly(rng, 4)
    xs = rng.uniform(-1, 1, size=(3, 5))
    ys = rng.uniform(-1, 1, size=(3, 5))
    vals = p.eval_batch(xs, ys)
    gx, gy = grad_batch(p, xs, ys)
    hxx, hxy, hyy = hess_batch(p, xs, ys)
    px, py = p.grad()
    pxx, pxy, pyy = p.hess()
    for i in range(3):
        for j in range(5):
            assert vals[i, j] == pytest.approx(p.value(xs[i, j], ys[i, j]), rel=1e-13)
            assert gx[i, j] == pytest.approx(px.value(xs[i, j], ys[i, j]), rel=1e-13)
            assert hxy[i, j] == pytest.approx(pxy.value(xs[i, j], ys[i, j]), rel=1e-13)


def test_segment_composition_is_exact_1d_polynomial(rng):
    p = random_poly(rng, 3)
    lin, off = np.array([[0.3, 0.1], [0.1, 0.4]]), np.array([0.2, -0.1])
    start, end = np.array([0.1, 0.2]), np.array([0.8, -0.3])
    coeffs = compose_with_segment(p, lin, off, start, end - start)
    for t in (0.0, 0.31, 0.77, 1.0):
        direct = p.value(*(lin @ (start + t * (end - start)) + off))
        assert poly1_eval(coeffs, np.array([t]))[0] == pytest.approx(direct, rel=1e-13, abs=1e-15)
    d = poly1_derivative(coeffs)
    h = 1e-6
    fd = (poly1_eval(coeffs, np.array([0.5 + h]))[0] - poly1_eval(coeffs, np.array([0.5 - h]))[0]) / (2 * h)
    assert poly1_eval(d, np.array([0.5]))[0] == pytest.approx(fd, rel=1e-8)


def test_affine_substitution_matches_the_composite_and_the_line_oracle(rng):
    # Stacked maps and polynomials of every degree to 6: the coefficients of p o F_s,
    # evaluated, are p at F_s x; on a segment they are the binomial line oracle's.
    for degree in range(7):
        polys = [random_poly(rng, degree), random_poly(rng, degree)]
        lin, off = rng.uniform(-1, 1, (3, 2, 2)), rng.uniform(-1, 1, (3, 2))
        out = _compose_affine(np.stack([_dense(p, degree) for p in polys]), lin, off)
        xs, ys = rng.uniform(-1, 1, (2, 5))
        for s in range(3):
            fx, fy = lin[s] @ np.stack([xs, ys]) + off[s][:, None]
            for e, p in enumerate(polys):
                composite = Poly2({k: float(c) for k, c in np.ndenumerate(out[s, e])})
                assert composite.eval_batch(xs, ys) == pytest.approx(p.eval_batch(fx, fy), rel=1e-12, abs=1e-12)
            start, vel = off[(s + 1) % 3], off[(s + 2) % 3]
            want = restrict(polys[0], AffineMap2(lin[s], off[s]), Segment(start, start + vel, vel))
            assert compose_with_segment(polys[0], lin[s], off[s], start, vel) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_affine_helper():
    p = affine(1.0, 2.0, -3.0)
    assert p.value(0.5, 0.5) == 1.0 + 1.0 - 1.5
    assert p.degree == 1


def test_vanishing_cubic_at_corners():
    v = vanishing_cubic()
    assert v.degree == 3
    assert vanishes_at_corners(v)
    cv = corner_values(v)
    assert cv[0] == 0.0
    assert max(abs(c) for c in cv) <= 1e-14
    # It is not identically zero on the triangle.
    assert abs(v.value(*base_vertices()[0] * 0.0 + np.array([0.4, 0.0]))) > 1e-6


def test_vanishing_multiples_are_admissible(rng):
    for _ in range(5):
        q = random_poly(rng, 2)
        v = vanishing_at_ABC(q)
        assert v.degree <= 5
        assert vanishes_at_corners(v)


def test_non_vanishing_rejected():
    assert not vanishes_at_corners(parse("x*y"))
    assert not vanishes_at_corners(parse("1"))
    assert not vanishes_at_corners(parse("x"))


def test_sup_bounds_dominate_samples(rng):
    p = random_poly(rng, 4)
    g_bound, h_bound = sup_bounds(p)
    xs = rng.uniform(0.0, math.sqrt(3) / 2, size=200)
    ys = rng.uniform(-0.5, 0.5, size=200)
    gx, gy = grad_batch(p, xs, ys)
    hxx, hxy, hyy = hess_batch(p, xs, ys)
    assert np.max(np.hypot(gx, gy)) <= g_bound + 1e-12
    assert max(np.max(np.abs(h)) for h in (hxx, hxy, hyy)) <= h_bound + 1e-12
