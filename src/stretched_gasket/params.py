"""Stretching sequences, the constants derived from them, and the form constant a.

A stretched-gasket construction is driven by a sequence {eps_i} in (0,1),
one value per refinement depth.  The sequence is stored as a finite prefix
of explicit values followed by a tail rule, either

  * exponential: eps_i = exp(-c * r^i) for i > K, which increases to 1 fast
    enough that the infinite product stays positive, or
  * constant: eps_i = value, whose infinite product is zero ("finite-depth
    only": every depth-l quantity works, limit quantities raise).

``seq_from_mapping`` builds one from the four flat keys ``SEQ_KEYS`` of a
config file (``eps.prefix``, ``eps.tail.c``, ``eps.tail.r``, ``eps.const``)
and refuses any other key.

Products of eps and of the per-level energy rates lam_i = (3/5) * eps_i^2
are computed in log space with exact compensated summation so that deep
products neither underflow nor drift.

The energy forms weight triangle edges by a and cables by b.  Harmonicity
of affine coordinates forces b = a, and ``A`` = 1/3 is the one value used:
the three sides of a cell then carry a (3/2) Id = Id/2, the seed of the
cylinder matrices tau_w, so the masses kappa_w sum to 1 on every level and
tau_w carries no factor of a.  Any other a would only rescale the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import TailProductZero

# Largest double below 1; tail values are clamped here so every eps_i
# stays inside the open interval (0,1) even when r^i underflows.
_ONE_BELOW = math.nextafter(1.0, 0.0)

#: The form constant a = b: triangle edges and cables carry it as the numerator of their weights.
A = 1.0 / 3.0


@dataclass(frozen=True)
class ExpTail:
    """Tail rule eps_i = exp(-c * r^(i + skipped)); c > 0, 0 < r < 1, ``skipped`` set by ParamSeq.shift."""

    c: float
    r: float
    skipped: int = field(default=0, init=False)

    def __post_init__(self):
        if not (self.c > 0.0) or not math.isfinite(self.c):
            raise ValueError(f"tail constant c must be positive (c = 0 would make every tail value 1), got {self.c}")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"tail ratio r must lie in (0,1), got {self.r}")


@dataclass(frozen=True)
class ConstTail:
    """Constant tail eps_i = value; infinite product is zero."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value < 1.0):
            raise ValueError(f"constant tail value must lie in (0,1), got {self.value}")


@dataclass(frozen=True)
class ParamSeq:
    """A stretching sequence: explicit prefix plus a tail rule.

    Indices are 1-based to match the depth indexing of the construction:
    eps(1) scales the first refinement level.
    """

    prefix: tuple[float, ...] = ()
    tail: ExpTail | ConstTail = field(default_factory=lambda: ExpTail(0.1, 0.5))

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        for k, v in enumerate(self.prefix, start=1):
            if not (0.0 < v < 1.0):
                raise ValueError(f"prefix value #{k} must lie in (0,1), got {v}")
        if not isinstance(self.tail, (ExpTail, ConstTail)):
            raise TypeError("tail must be an ExpTail or ConstTail")

    @classmethod
    def constant(cls, value: float) -> "ParamSeq":
        return cls(prefix=(), tail=ConstTail(value))

    # -- single-index quantities ------------------------------------------

    def log_eps(self, i: int) -> float:
        """log eps_i, exact for the exponential tail (no rounding to 0)."""
        if i < 1:
            raise ValueError(f"sequence index must be >= 1, got {i}")
        if i <= len(self.prefix):
            return math.log(self.prefix[i - 1])
        if isinstance(self.tail, ExpTail):
            return -self.tail.c * self.tail.r ** (i + self.tail.skipped)
        return math.log(self.tail.value)

    def eps(self, i: int) -> float:
        """eps_i, clamped below 1 so the open-interval invariant holds."""
        v = math.exp(self.log_eps(i))
        return v if v < 1.0 else _ONE_BELOW

    def one_minus_eps(self, i: int) -> float:
        """1 - eps_i without cancellation (expm1), the cable length at level i."""
        return -math.expm1(self.log_eps(i))

    def lam(self, i: int) -> float:
        """Per-level energy rate lam_i = (3/5) * eps_i^2."""
        e = self.eps(i)
        return 0.6 * e * e

    # -- products ----------------------------------------------------------

    def lam_tilde(self, l: int) -> float:
        """Product of lam_i for i = 1..l; equals 1 for l = 0."""
        if l < 0:
            raise ValueError(f"depth must be >= 0, got {l}")
        if l == 0:
            return 1.0
        logs = [math.log(0.6) + 2.0 * self.log_eps(i) for i in range(1, l + 1)]
        return math.exp(math.fsum(logs))

    def eps_tilde(self, s: int, l: int) -> float:
        """Product of eps_i for i = s..l (finite window, 1 <= s <= l)."""
        if s < 1:
            raise ValueError(f"window start must be >= 1, got {s}")
        if l < s:
            raise ValueError(f"window end {l} is below start {s}")
        return math.exp(math.fsum(self.log_eps(i) for i in range(s, l + 1)))

    def eps_tilde_inf(self, s: int) -> float:
        """Product of eps_i for i >= s; raises TailProductZero for constant tails."""
        return math.exp(self.log_eps_tilde_inf(s))

    def log_eps_tilde_inf(self, s: int) -> float:
        if s < 1:
            raise ValueError(f"window start must be >= 1, got {s}")
        if isinstance(self.tail, ConstTail):
            raise TailProductZero(
                "constant-tail sequence has zero infinite product; "
                "limit quantities are available only for exponential tails"
            )
        k = len(self.prefix)
        terms = [math.log(self.prefix[i - 1]) for i in range(s, k + 1)]
        # Geometric tail: sum_{i >= max(s, K+1)} c * r^i = c * r^m / (1 - r).
        m = max(s, k + 1)
        terms.append(-self.tail.c * self.tail.r ** (m + self.tail.skipped) / (1.0 - self.tail.r))
        return math.fsum(terms)

    def delta(self) -> float:
        """Lower bound for every eps_tilde_inf(s): the full product (s = 1)."""
        return self.eps_tilde_inf(1)

    def sum_one_minus_eps_from(self, s_from: int) -> float:
        """Upper bound for sum_{s >= s_from} (1 - eps_s), used in tail bounds.

        Prefix terms are summed exactly; the exponential tail is bounded by
        1 - exp(-x) <= x and a geometric sum.
        """
        if s_from < 1:
            raise ValueError(f"window start must be >= 1, got {s_from}")
        if isinstance(self.tail, ConstTail):
            raise TailProductZero("constant-tail sequence: sum of (1 - eps_s) diverges")
        k = len(self.prefix)
        terms = [self.one_minus_eps(i) for i in range(s_from, k + 1)]
        m = max(s_from, k + 1)
        terms.append(self.tail.c * self.tail.r ** (m + self.tail.skipped) / (1.0 - self.tail.r))
        return math.fsum(terms)

    # -- structure ---------------------------------------------------------

    def shift(self) -> "ParamSeq":
        """Drop eps_1: the sequence whose i-th value is eps_{i+1}, bit for bit (an
        exponential tail counts the dropped level: exp(-(c r) r^i) would round
        differently from exp(-c r^(i+1)))."""
        tail = self.tail
        if isinstance(tail, ExpTail):
            tail = ExpTail(tail.c, tail.r)
            object.__setattr__(tail, "skipped", self.tail.skipped + 1)
        return ParamSeq(prefix=self.prefix[1:], tail=tail)

    def describe(self) -> dict:
        """JSON-friendly description of the sequence."""
        if isinstance(self.tail, ExpTail):
            c = self.tail.c  # a shifted tail reports c r^skipped, one factor r at a time
            for _ in range(self.tail.skipped):
                c *= self.tail.r
            tail = {"kind": "exp", "c": c, "r": self.tail.r}
        else:
            tail = {"kind": "const", "value": self.tail.value}
        return {"prefix": list(self.prefix), "tail": tail}


#: The keys ``seq_from_mapping`` reads.
SEQ_KEYS = ("eps.prefix", "eps.tail.c", "eps.tail.r", "eps.const")


def seq_from_mapping(cfg: dict) -> ParamSeq:
    """Build a ParamSeq from flat dotted keys: ``eps.prefix`` (list of floats),
    ``eps.tail.c``, ``eps.tail.r`` (exponential tail), ``eps.const`` (constant
    tail).  Any other key raises ValueError naming it, so a misspelt key
    cannot select the default sequence."""
    for key in cfg:
        if key not in SEQ_KEYS:
            raise ValueError(f"unknown sequence key {key!r}")
    prefix = tuple(cfg.get("eps.prefix", ()))
    if "eps.const" in cfg:
        if "eps.tail.c" in cfg or "eps.tail.r" in cfg:
            raise ValueError("eps.const and eps.tail.* are mutually exclusive")
        return ParamSeq(prefix=prefix, tail=ConstTail(float(cfg["eps.const"])))
    c = cfg.get("eps.tail.c", 0.1)
    r = cfg.get("eps.tail.r", 0.5)
    return ParamSeq(prefix=prefix, tail=ExpTail(float(c), float(r)))
