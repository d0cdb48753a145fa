"""The level chain against the moment pass, its oracle.

Every form of the package is a readout of one chain of symmetric matrix
polynomials (``energy._readouts``).  The moment pass of ``tests/oracles.py``
pushes D x D field moments through the same level maps instead and
contracts them with Gauss Grams; the two share the pullback matrices and
nothing of how G is formed, stepped or read.  They must agree on every
form (energy, the weak pairing, the IBP measure side and the measure's
gasket half) within ``CHAIN_RTOL`` of the sum of the moment pass's term
magnitudes, for fields of degree <= 12 at every depth to the cap, on the
three regimes and a prefix next to 1.  The energy form has the same bits
for (u, v) and (v, u), and the forms of one degree build one table per
level between them.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stretched_gasket import (
    ExpTail,
    GasketError,
    ParamSeq,
    Poly2,
    energy_total,
    energy_via_measure,
    ibp_table,
    vanishing_cubic,
    weak_pairing,
)
from stretched_gasket import energy
from stretched_gasket.energy import _moment_terms

from conftest import ALL_REGIMES, EDGE_SEQ, SEQUENCES, admissible, random_poly
from oracles import moment_terms

#: A first level 1e-12 short of 1: cables 1e-12 long, weighted by 1e12.
NEAR_ONE = ParamSeq(prefix=(1.0 - 1e-12,), tail=ExpTail(0.1, 0.5))
SEQS = ALL_REGIMES + (NEAR_ONE,)
SEQ_IDS = ["const-half", "prefix-exp", "tail-only", "prefix-near-1"]


def CHAIN_RTOL(l: int, n: int) -> float:
    """The chain's distance from the moment pass at depth l and degree n = deg u + deg v - 2,
    relative to the sum of the pass's term magnitudes.  The chain conjugates by the exact level
    factors B_i, the pass by the double-rounded level maps T_i = sqrt(lam (3/5)) B_i (1 + 1 u),
    whose products DF_w^T G DF_w round 2 u apart a level; the pass's Gauss nodes are doubles,
    which move its Grams, integrals of degree-n polynomials, by up to n u; and each route rounds
    its own readout by a few u: (8 + 2 l + n) u.  The largest measured over the cases below is
    20.7 u, at l = 10 and n = 14, where the bound is 42 u."""
    return (8 + 2 * l + n) * 2.0**-53


def _cases():
    """(u, v, pairing test function) of degrees up to 12; the test function vanishes at A, B, C."""
    rng = np.random.default_rng(3707)
    cases = []
    for du, dv in ((1, 1), (2, 3), (5, 4), (8, 8), (12, 12), (12, 3)):
        u, v = random_poly(rng, du), random_poly(rng, dv)
        cases.append((u, v, admissible(random_poly(rng, max(dv - 3, 0))) if dv >= 3 else v))
    return cases


CASES = _cases()
CASE_IDS = ["deg1-1", "deg2-3", "deg5-4", "deg8-8", "deg12-12", "deg12-3"]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seq", SEQS, ids=SEQ_IDS)
def test_every_form_matches_the_moment_pass(seq, case):
    u, v, admissible_v = case
    depths, n = range(13), max(u.degree, 1) + max(v.degree, 1) - 2
    for forms, (f, g) in ((("energy", "gasket"), (u, v)), (("pairing", "ibp"), (u, admissible_v))):
        chain, oracle = _moment_terms(seq, depths, f, g, forms), moment_terms(seq, depths, f, g, forms)
        for l, (got_parts, want_parts) in enumerate(zip(chain, oracle)):
            for form, got, want in zip(forms, got_parts, want_parts):
                for part, a, b in (("cell", got[0], want[0]), ("cable", got[1], want[1]), ("total", got[0] + got[1], want[0] + want[1])):
                    bound = CHAIN_RTOL(l, n) * math.fsum(abs(t) for t in b)
                    assert abs(math.fsum(a) - math.fsum(b)) <= bound, (form, part, l)


#: Fields of degree <= 8 with coefficients in [-1, 1].
FIELDS = st.dictionaries(st.sampled_from([(m, n) for m in range(9) for n in range(9 - m)]), st.floats(-1.0, 1.0), max_size=12).map(Poly2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seq=st.one_of(SEQUENCES, st.just(EDGE_SEQ)), u=FIELDS, v=FIELDS, l=st.integers(0, 12))
def test_the_energy_is_symmetric_bit_for_bit(seq, u, v, l):
    # G = sym(grad u grad v^T) is formed with the same bits for (v, u), so every readout of
    # it is: the form, its parts and the measure's gasket half.
    try:
        forward = energy_total(seq, l, u, v)
    except GasketError:
        assume(False)
    assert energy_total(seq, l, v, u) == forward
    assert list(_moment_terms(seq, (l,), v, u, ("gasket",))) == list(_moment_terms(seq, (l,), u, v, ("gasket",)))


def test_one_degrees_forms_build_one_table_per_level(monkeypatch):
    # The energy form, the weak pairing, the IBP measure side and the measure energy of one
    # degree read the same level tables: from a cleared cache the first builds the pullbacks
    # of all eight levels in one stacked call and the readouts of the sides and eight cable
    # generations in one more; the others build nothing.  The level pullbacks are the
    # substitutions of the chain's degree n = 4; the fields, of degree 3, are pulled back at 3.
    stacks, readouts = [], []
    pullback, integrals = energy._pullback, energy._segment_integrals

    def counting_pullback(lin, shift, d):
        if d == 4:
            stacks.append(len(lin))
        return pullback(lin, shift, d)

    def counting_integrals(p0, dv, n):
        readouts.append(len(p0))
        return integrals(p0, dv, n)

    monkeypatch.setattr(energy, "_pullback", counting_pullback)
    monkeypatch.setattr(energy, "_segment_integrals", counting_integrals)
    seq, u, v = ALL_REGIMES[1], Poly2({(2, 0): 1.0, (1, 1): -0.5, (0, 3): 1.0}), vanishing_cubic()
    energy._TABLES.clear()
    energy_total(seq, 8, u, v)
    assert (stacks, readouts) == ([24], [9])
    weak_pairing(seq, 8, u, v)
    ibp_table(seq, u, v, (4, 8))
    energy_via_measure(seq, u, v, 8)
    assert (stacks, readouts) == ([24], [9])
