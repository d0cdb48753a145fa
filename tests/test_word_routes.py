"""The per-word routes against the object oracle, bit for bit, on the benchmark's sequences.

``compose``, ``word_point``, ``cable_mass`` and ``teplyaev`` read one row of
``geometry._word_levels``; the oracle folds ``AffineMap2`` objects one letter
at a time (``tests/oracles.py``).  Words run to 1300 letters, far past the
depth cap, which a one-row read does not inherit.  Where a route refuses a
word (an underflowed cell mass, a cable weight the sequence has no limit
for), the oracle refuses it with the same error.
"""

import numpy as np
import pytest

from stretched_gasket import CableMass, GasketError, barycenter, cable_mass, compose, parse, teplyaev, word_point

from conftest import BENCH_REFS, benchmark_seq

from oracles import cable_mass_by_objects, compose_objects, teplyaev_by_objects

#: Word lengths: every depth up to the cap, then three far past it.
LENGTHS = (*range(13), 20, 300, 1300)
PHI = parse("x^3 - 0.7*x*y + y^4")


CONFIGS = [(f"{workload}/{cfg['id']}", cfg["seq"]) for workload in ("energy-deep", "vertex-diagnostics") for cfg in BENCH_REFS[workload]]


def _bits(value):
    """The exact content of a route's output: array and float bytes, recursively."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value, dtype=np.float64).tobytes()


def _mass_and_direction(cm):
    return cm.mass, cm.direction


def _location_and_value(sample):
    return sample.location, sample.value


def _outcome(fn):
    """fn()'s bits, or the type of what it raised (a RuntimeWarning where warnings are errors)."""
    try:
        return "value", _bits(fn())
    except (ArithmeticError, ValueError, GasketError, RuntimeWarning) as exc:
        return "raised", type(exc)


@pytest.mark.parametrize("spec", [spec for _, spec in CONFIGS], ids=[name for name, _ in CONFIGS])
def test_per_word_routes_equal_the_object_fold(spec, rng):
    seq = benchmark_seq(spec)
    bary = barycenter()
    compared = 0
    for l in LENGTHS:
        word = tuple(rng.integers(1, 4, l).tolist())
        amap = compose_objects(seq, word)
        assert _bits(compose(seq, word)) == _bits((amap.linear, amap.offset)), l
        assert _bits(word_point(seq, word)) == _bits(amap(bary)), l
        slot = int(rng.integers(1, 4))
        got = _outcome(lambda: _mass_and_direction(cable_mass(seq, word, l + 1, slot)))
        assert got == _outcome(lambda: cable_mass_by_objects(seq, word, l + 1, slot)), l
        compared += got[0] == "value"
        # The all-1 word keeps the largest cell mass, so its sample exists at every length.
        for carrier in (word, (1,) * l):
            got = _outcome(lambda: _location_and_value(teplyaev(PHI, carrier, seq)))
            assert got == _outcome(lambda: teplyaev_by_objects(PHI, carrier, seq)), l
        # A cable carrier's sample reads its prefix, generation, slot and projection only.
        cable = CableMass(word, l + 1, slot, 0.0, np.array([0.6, 0.8]), np.outer([0.6, 0.8], [0.6, 0.8]))
        assert _bits(_location_and_value(teplyaev(PHI, cable, seq))) == _bits(teplyaev_by_objects(PHI, cable, seq)), l
    assert compared > 0 or spec["tail"]["kind"] == "const"
