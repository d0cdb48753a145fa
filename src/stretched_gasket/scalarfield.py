"""Polynomial scalar fields on the plane.

Test functions for the energy forms are bivariate polynomials with exact
symbolic calculus: gradients and Hessians are formed by coefficient
manipulation, and substitution of affine maps (``_compose_affine``) gives
the coefficients of p o F; restricted to a mapped segment that is a
univariate polynomial in the curve parameter, so line integrals can be
evaluated by Gauss quadrature of known exactness.

The expression grammar accepted by :func:`parse`:

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := ('-'|'+')* primary ('^' INT)?
    primary := NUMBER | 'x' | 'y' | '(' expr ')'

Multiplication is always explicit, exponents are nonnegative integer
literals, and there is no division.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PolyParseError
from .geometry import SQRT3, base_vertices

_EPS = math.ulp(1.0)


class Poly2:
    """Sparse bivariate polynomial: {(m, n): coefficient} for x^m * y^n."""

    __slots__ = ("coeffs", "_grad", "_hess")

    def __init__(self, coeffs: dict[tuple[int, int], float] | None = None):
        clean = {}
        for (m, n), c in (coeffs or {}).items():
            if m < 0 or n < 0 or m != int(m) or n != int(n):
                raise ValueError(f"bad exponent pair {(m, n)}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of x^{m}*y^{n} is not finite: {c!r}")
            if c != 0.0:
                clean[(int(m), int(n))] = c
        self.coeffs = clean
        self._grad = None
        self._hess = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    @classmethod
    def const(cls, c: float) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> "Poly2":
        if name == "x":
            return cls({(1, 0): 1.0})
        if name == "y":
            return cls({(0, 1): 1.0})
        raise ValueError(f"unknown variable {name!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) - c
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly2({k: c * other for k, c in self.coeffs.items()})
        out: dict[tuple[int, int], float] = {}
        for (m1, n1), c1 in self.coeffs.items():
            for (m2, n2), c2 in other.coeffs.items():
                k = (m1 + m2, n1 + n2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if k < 0 or k != int(k):
            raise ValueError(f"exponent must be a nonnegative integer, got {k}")
        # By squaring: one squaring per binary digit of k after the first, one product per set digit.
        out, base, k = Poly2.const(1.0), self, int(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Poly2({to_string(self)!r})"

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((m + n for m, n in self.coeffs), default=-1)

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int) -> "Poly2":
        out = {}
        for (m, n), c in self.coeffs.items():
            if axis == 0 and m > 0:
                out[(m - 1, n)] = out.get((m - 1, n), 0.0) + m * c
            elif axis == 1 and n > 0:
                out[(m, n - 1)] = out.get((m, n - 1), 0.0) + n * c
        return Poly2(out)

    def grad(self) -> tuple["Poly2", "Poly2"]:
        if self._grad is None:
            self._grad = (self.derivative(0), self.derivative(1))
        return self._grad

    def hess(self) -> tuple["Poly2", "Poly2", "Poly2"]:
        """(d2/dx2, d2/dxdy, d2/dy2); mixed partials are formed once."""
        if self._hess is None:
            gx, gy = self.grad()
            self._hess = (gx.derivative(0), gx.derivative(1), gy.derivative(1))
        return self._hess

    # -- evaluation --------------------------------------------------------

    def value(self, x: float, y: float) -> float:
        return math.fsum(c * x**m * y**n for (m, n), c in self.coeffs.items())

    def eval_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on arrays of matching shape."""
        out = np.zeros(np.broadcast(xs, ys).shape)
        if not self.coeffs:
            return out
        max_m = max(m for m, _ in self.coeffs)
        max_n = max(n for _, n in self.coeffs)
        xp = _power_table(xs, max_m)
        yp = _power_table(ys, max_n)
        for (m, n), c in self.coeffs.items():
            out += c * xp[m] * yp[n]
        return out


def _power_table(arr: np.ndarray, top: int) -> list[np.ndarray]:
    pows = [np.ones_like(arr)]
    for _ in range(top):
        pows.append(pows[-1] * arr)
    return pows


def hess_batch(p: Poly2, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    hxx, hxy, hyy = p.hess()
    return hxx.eval_batch(xs, ys), hxy.eval_batch(xs, ys), hyy.eval_batch(xs, ys)


# -- affine substitution ---------------------------------------------------


def _compose_affine(coeffs: np.ndarray, lin: np.ndarray, off: np.ndarray) -> np.ndarray:
    """(S, E, d + 1, d + 1): the coefficients of p o F_s, F_s x = lin[s] @ x + off[s], for the E
    polynomials p of degree <= d in ``coeffs`` (E, d + 1, d + 1), entry [m, n] that of x^m y^n.
    The powers of y o F_s meet the coefficients of each x^m, then Horner's scheme in x o F_s sums
    those; no step passes degree d, so none drops a term."""
    d = coeffs.shape[-1] - 1
    a, b, c = (t[:, :, None, None, None] for t in (lin[..., 0], lin[..., 1], off))

    def times(p, r):
        # p times coordinate r of each map, lin[s, r] @ x + off[s, r].
        out = c[:, r] * p
        out[..., 1:, :] += a[:, r] * p[..., :-1, :]
        out[..., 1:] += b[:, r] * p[..., :-1]
        return out

    powers = [np.zeros((len(lin), 1, d + 1, d + 1), coeffs.dtype)]
    powers[0][..., 0, 0] = 1
    for _ in range(d):
        powers.append(times(powers[-1], 1))
    rows = np.einsum("emn,snij->mseij", coeffs, np.concatenate(powers, axis=1))
    out = rows[d]
    for m in range(d - 1, -1, -1):
        out = times(out, 0) + rows[m]
    return out


def _dense(p: Poly2, d: int, dtype=np.float64) -> np.ndarray:
    """The coefficients of p as a (d + 1, d + 1) array, entry [m, n] that of x^m y^n; d >= deg p."""
    out = np.zeros((d + 1, d + 1), dtype)
    for (m, n), c in p.coeffs.items():
        out[m, n] = c
    return out


def compose_with_segment(p: Poly2, lin: np.ndarray, off: np.ndarray, start: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Coefficients (ascending in t) of p(F(start + t vel)) for t in [0,1], F x = lin @ x + off:
    ``_compose_affine`` by the map t -> F(start) + t lin @ vel, of degree deg(p)."""
    segment = np.column_stack([lin @ vel, np.zeros(2)])
    return _compose_affine(_dense(p, max(p.degree, 0))[None], segment[None], (lin @ start + off)[None])[0, 0, :, 0]


# -- named constructions ---------------------------------------------------


def affine(a0: float, ax: float, ay: float) -> Poly2:
    """The affine field a0 + ax*x + ay*y."""
    return Poly2({(0, 0): a0, (1, 0): ax, (0, 1): ay})


def vanishing_cubic() -> Poly2:
    """Product of the three barycentric coordinates of the base triangle.

    Degree 3, zero on all three corners, positive inside; the canonical
    generator of admissible test functions.
    """
    # lam_A = 1 - 2x/sqrt(3), lam_B = y + x/sqrt(3), lam_C = -y + x/sqrt(3)
    lam_a = Poly2({(0, 0): 1.0, (1, 0): -2.0 / SQRT3})
    lam_b = Poly2({(0, 1): 1.0, (1, 0): 1.0 / SQRT3})
    lam_c = Poly2({(0, 1): -1.0, (1, 0): 1.0 / SQRT3})
    return lam_a * lam_b * lam_c


def vanishing_at_ABC(q: Poly2) -> Poly2:
    """Multiply q by the barycentric cubic, forcing corner zeros."""
    return vanishing_cubic() * q


def corner_values(p: Poly2) -> tuple[float, float, float]:
    a, b, c = base_vertices()
    return p.value(*a), p.value(*b), p.value(*c)


def vanishes_at_corners(p: Poly2) -> bool:
    """True when p is zero at A, B and C up to evaluation roundoff.

    Corner A is the origin, so the test there is exact (no constant term).
    B and C have irrational coordinates; their corner values are compared
    against an ulp-scale bound built from the term magnitudes, which keeps
    genuinely non-vanishing inputs (corner values of order one) out while
    accepting exact products with the barycentric cubic.
    """
    vals = corner_values(p)
    bounds = []
    for cx, cy in ((0.0, 0.0), (SQRT3 / 2.0, 0.5), (SQRT3 / 2.0, -0.5)):
        mag = sum(abs(c) * abs(cx) ** m * abs(cy) ** n for (m, n), c in p.coeffs.items())
        bounds.append(16.0 * _EPS * max(mag, 1.0))
    if p.coeffs.get((0, 0), 0.0) != 0.0:
        return False
    return all(abs(v) <= b for v, b in zip(vals, bounds))


def sup_bounds(p: Poly2) -> tuple[float, float]:
    """(gradient bound, Hessian-entry bound) on the base triangle's box.

    Coefficient-magnitude bounds over [0, sqrt(3)/2] x [-1/2, 1/2]; crude
    but rigorous, used by tail and convergence envelopes.
    """
    bx, by = SQRT3 / 2.0, 0.5

    def entry_bound(q: Poly2) -> float:
        return sum(abs(c) * bx**m * by**n for (m, n), c in q.coeffs.items())

    gx, gy = p.grad()
    g = math.hypot(entry_bound(gx), entry_bound(gy))
    h = max(entry_bound(q) for q in p.hess())
    return g, h


# -- parser ----------------------------------------------------------------


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch in "xy":
                self.tokens.append(("var", ch, i))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < len(text) and text[j] in "eE":
                    k = j + 1
                    if k < len(text) and text[k] in "+-":
                        k += 1
                    if k < len(text) and text[k].isdigit():
                        j = k
                        while j < len(text) and text[j].isdigit():
                            j += 1
                lit = text[i:j]
                try:
                    val = float(lit)
                except ValueError:
                    raise PolyParseError(f"bad numeric literal {lit!r}", i)
                self.tokens.append(("num", (val, lit), i))
                i = j
                continue
            raise PolyParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok


def parse(text: str) -> Poly2:
    """Parse an expression in x and y into a Poly2.

    Raises PolyParseError with the character offset on syntax errors,
    unknown characters (including '/'), and non-integer or negative
    exponents.
    """
    lx = _Lexer(text)

    def expr() -> Poly2:
        node = term()
        while lx.peek()[0] in ("+", "-"):
            op, _, _ = lx.take()
            rhs = term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term() -> Poly2:
        node = factor()
        while lx.peek()[0] == "*":
            lx.take()
            node = node * factor()
        return node

    def factor() -> Poly2:
        sign = 1.0
        while lx.peek()[0] in ("+", "-"):
            if lx.take()[0] == "-":
                sign = -sign
        node = primary()
        if lx.peek()[0] == "^":
            lx.take()
            kind, val, pos = lx.take()
            if kind != "num":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            num, lit = val
            if "." in lit or "e" in lit or "E" in lit or num != int(num):
                raise PolyParseError(f"exponent must be a nonnegative integer, got {lit!r}", pos)
            node = node ** int(num)
        return node if sign > 0 else -node

    def primary() -> Poly2:
        kind, val, pos = lx.take()
        if kind == "num":
            return Poly2.const(val[0])
        if kind == "var":
            return Poly2.variable(val)
        if kind == "(":
            node = expr()
            kind2, _, pos2 = lx.take()
            if kind2 != ")":
                raise PolyParseError("expected ')'", pos2)
            return node
        raise PolyParseError(f"unexpected token {kind!r}", pos)

    node = expr()
    kind, _, pos = lx.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input starting with {kind!r}", pos)
    return node


def to_string(p: Poly2) -> str:
    """Canonical form: terms by descending total degree, then descending x power.

    Round-trips exactly through :func:`parse` (coefficients printed with
    repr, so the shortest exact decimal is used).
    """
    if not p.coeffs:
        return "0"
    items = sorted(p.coeffs.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
    parts = []
    for (m, n), c in items:
        mono = "*".join(
            ([] if m == 0 else ["x" if m == 1 else f"x^{m}"])
            + ([] if n == 0 else ["y" if n == 1 else f"y^{n}"])
        )
        mag = abs(c)
        if mono and mag == 1.0:
            body = mono
        elif mono:
            body = f"{mag!r}*{mono}"
        else:
            body = repr(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
