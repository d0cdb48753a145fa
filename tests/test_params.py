import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretched_gasket import ExpTail, ParamSeq, TailProductZero, seq_from_mapping

from conftest import CONSTANT_HALF, PREFIX_EXP, SEQUENCES, TAIL_ONLY


def test_prefix_values_take_precedence():
    assert PREFIX_EXP.eps(1) == 0.9
    assert PREFIX_EXP.eps(2) == 0.8
    assert PREFIX_EXP.eps(3) == 0.7
    assert PREFIX_EXP.eps(4) == math.exp(-0.05 * 0.5**4)


def test_constant_regime():
    for i in (1, 5, 40):
        assert CONSTANT_HALF.eps(i) == 0.5
        assert CONSTANT_HALF.lam(i) == 0.6 * 0.25


def test_eps_stays_in_open_interval_far_into_tail():
    # Far into the tail exp(-c r^i) rounds to 1.0; the clamp keeps eps < 1.
    for i in (1, 10, 60, 400):
        assert 0.0 < TAIL_ONLY.eps(i) < 1.0


def test_one_minus_eps_no_cancellation():
    # Compare with the exact series value at an index where 1 - eps ~ 1e-14.
    i = 46
    x = 0.1 * 0.5**i
    expected = x - x * x / 2.0 + x**3 / 6.0
    got = TAIL_ONLY.one_minus_eps(i)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0.0


def test_lam_tilde_matches_direct_product():
    direct = 1.0
    for i in range(1, 7):
        direct *= PREFIX_EXP.lam(i)
    assert PREFIX_EXP.lam_tilde(6) == pytest.approx(direct, rel=1e-14)
    assert PREFIX_EXP.lam_tilde(0) == 1.0


def test_eps_tilde_windows():
    direct = PREFIX_EXP.eps(2) * PREFIX_EXP.eps(3) * PREFIX_EXP.eps(4)
    assert PREFIX_EXP.eps_tilde(2, 4) == pytest.approx(direct, rel=1e-14)
    with pytest.raises(ValueError):
        PREFIX_EXP.eps_tilde(3, 2)


def test_eps_tilde_inf_closed_form():
    # Empty prefix: log prod_{i>=s} eps_i = -c r^s / (1 - r).
    c, r = 0.1, 0.5
    for s in (1, 2, 5):
        expected = math.exp(-c * r**s / (1.0 - r))
        assert TAIL_ONLY.eps_tilde_inf(s) == pytest.approx(expected, rel=1e-15)
    # Truncated product converges to the infinite one from above.
    finite = TAIL_ONLY.eps_tilde(1, 40)
    assert finite == pytest.approx(TAIL_ONLY.eps_tilde_inf(1), rel=1e-13)


def test_constant_tail_has_no_infinite_product():
    assert not CONSTANT_HALF.has_tail_product
    with pytest.raises(TailProductZero):
        CONSTANT_HALF.eps_tilde_inf(1)
    with pytest.raises(TailProductZero):
        CONSTANT_HALF.sum_one_minus_eps_from(1)


def test_shift_drops_first_value():
    for seq in (CONSTANT_HALF, PREFIX_EXP, TAIL_ONLY):
        shifted = seq.shift()
        for i in range(1, 10):
            assert shifted.eps(i) == seq.eps(i + 1)
        twice = shifted.shift()
        for i in range(1, 8):
            assert twice.eps(i) == seq.eps(i + 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seq=SEQUENCES, times=st.integers(1, 5))
def test_shift_is_exact(seq, times):
    # Rescaling the tail constant, exp(-(c r) r^i), rounds some levels
    # differently from exp(-c r^(i+1)); counting the dropped levels reads
    # the same bits at every level, window and tail sum.
    shifted = seq
    for _ in range(times):
        shifted = shifted.shift()
    for i in range(1, 41):
        assert shifted.log_eps(i) == seq.log_eps(i + times), i
        assert shifted.one_minus_eps(i) == seq.one_minus_eps(i + times), i
    for s in range(1, 6):
        assert shifted.log_eps_tilde_inf(s) == seq.log_eps_tilde_inf(s + times), s
        assert shifted.sum_one_minus_eps_from(s) == seq.sum_one_minus_eps_from(s + times), s
    # The description still names the rescaled constant, c r^times.
    c = seq.tail.c
    for _ in range(times):
        c *= seq.tail.r
    assert shifted.describe() == {"prefix": list(seq.prefix[times:]), "tail": {"kind": "exp", "c": c, "r": seq.tail.r}}


def test_shift_preserves_tail_products():
    assert PREFIX_EXP.shift().eps_tilde_inf(1) == pytest.approx(
        PREFIX_EXP.eps_tilde_inf(2), rel=1e-15
    )


def test_sum_one_minus_eps_bounds_the_series():
    series = math.fsum(TAIL_ONLY.one_minus_eps(i) for i in range(3, 200))
    bound = TAIL_ONLY.sum_one_minus_eps_from(3)
    assert series <= bound <= series * 1.01 + 1e-18


def test_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        ParamSeq(prefix=(1.5,))
    with pytest.raises(ValueError):
        ParamSeq(prefix=(0.0,))
    with pytest.raises(ValueError):
        ExpTail(0.0, 0.5)
    with pytest.raises(ValueError):
        ExpTail(0.1, 1.0)
    with pytest.raises(ValueError):
        ParamSeq.constant(1.0)


def test_validate_strict_window():
    ParamSeq.constant(0.8).validate_strict(6)
    with pytest.raises(ValueError):
        ParamSeq.constant(0.9).validate_strict(3)


def test_seq_from_mapping_roundtrip():
    seq = seq_from_mapping({"eps.prefix": (0.9, 0.8), "eps.tail.c": 0.05, "eps.tail.r": 0.5})
    assert seq.prefix == (0.9, 0.8)
    assert seq.eps(3) == math.exp(-0.05 * 0.5**3)
    const = seq_from_mapping({"eps.const": 0.5})
    assert const.eps(7) == 0.5
    with pytest.raises(ValueError):
        seq_from_mapping({"eps.const": 0.5, "eps.tail.c": 0.1, "eps.tail.r": 0.5})
    # A key it does not read is refused by name, not passed over.
    with pytest.raises(ValueError, match="unknown sequence key 'unrelated'"):
        seq_from_mapping({"eps.prefix": (0.9, 0.8), "eps.tail.c": 0.05, "eps.tail.r": 0.5, "unrelated": 1})
    with pytest.raises(ValueError, match="unknown sequence key 'eps.tail.C'"):
        seq_from_mapping({"eps.tail.C": 0.05, "eps.prefx": (0.9,)})


def test_describe_is_plain_data():
    d = PREFIX_EXP.describe()
    assert d == {"prefix": [0.9, 0.8, 0.7], "tail": {"kind": "exp", "c": 0.05, "r": 0.5}}
    assert CONSTANT_HALF.describe() == {"prefix": [], "tail": {"kind": "const", "value": 0.5}}
